//! Write-ahead log format (also used for the MANIFEST).
//!
//! LevelDB's log format: the file is a sequence of 32 KiB blocks; each
//! record is framed with a 7-byte header `checksum(4) length(2) type(1)`
//! and may be fragmented across blocks using FULL/FIRST/MIDDLE/LAST types.
//! Checksums are masked CRC32C over `type ‖ payload`. A reader tolerates a
//! truncated tail (the crash case) but reports mid-file corruption.
//!
//! The log layer is payload-agnostic, which is what keeps group commit
//! (DESIGN.md §14) replay-compatible: the group leader encodes a
//! multi-batch group as *one* record — a single
//! `seq(8) count(4)` batch header whose count is the group's total op
//! count, followed by the members' concatenated op bodies — so recovery
//! decodes it with the unchanged single-batch [`crate::write_batch`]
//! format and replays the whole group atomically (all of it or, on a
//! torn tail, none of it). A group of one is byte-identical to the
//! pre-group-commit encoding; nothing in this module changed for it.

use ldbpp_common::{crc32c, Error, Result};

use crate::env::WritableFile;

/// Size of a log block.
pub const BLOCK_SIZE: usize = 32 * 1024;
/// Record header: checksum (4) + length (2) + type (1).
pub const HEADER_SIZE: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum RecordType {
    Full = 1,
    First = 2,
    Middle = 3,
    Last = 4,
}

impl RecordType {
    fn from_u8(b: u8) -> Option<RecordType> {
        match b {
            1 => Some(RecordType::Full),
            2 => Some(RecordType::First),
            3 => Some(RecordType::Middle),
            4 => Some(RecordType::Last),
            _ => None,
        }
    }
}

/// Appends length-framed, checksummed records to a log file.
pub struct LogWriter {
    file: Box<dyn WritableFile>,
    /// Offset within the current block.
    block_offset: usize,
}

impl LogWriter {
    /// Wrap a fresh writable file.
    pub fn new(file: Box<dyn WritableFile>) -> LogWriter {
        let block_offset = (file.len() % BLOCK_SIZE as u64) as usize;
        LogWriter { file, block_offset }
    }

    /// Append one record (fragmenting across blocks as needed).
    pub fn add_record(&mut self, payload: &[u8]) -> Result<()> {
        let mut left = payload;
        let mut begin = true;
        loop {
            let leftover = BLOCK_SIZE - self.block_offset;
            if leftover < HEADER_SIZE {
                // Pad the trailer with zeros and move to a new block.
                if leftover > 0 {
                    self.file.append(&[0u8; HEADER_SIZE][..leftover])?;
                }
                self.block_offset = 0;
            }
            let avail = BLOCK_SIZE - self.block_offset - HEADER_SIZE;
            let fragment_len = left.len().min(avail);
            let end = fragment_len == left.len();
            let rtype = match (begin, end) {
                (true, true) => RecordType::Full,
                (true, false) => RecordType::First,
                (false, false) => RecordType::Middle,
                (false, true) => RecordType::Last,
            };
            self.emit(rtype, &left[..fragment_len])?;
            left = &left[fragment_len..];
            begin = false;
            if end {
                return Ok(());
            }
        }
    }

    fn emit(&mut self, rtype: RecordType, data: &[u8]) -> Result<()> {
        let mut header = [0u8; HEADER_SIZE];
        let crc = crc32c::extend(crc32c::crc32c(&[rtype as u8]), data);
        header[..4].copy_from_slice(&crc32c::mask(crc).to_le_bytes());
        header[4..6].copy_from_slice(&(data.len() as u16).to_le_bytes());
        header[6] = rtype as u8;
        self.file.append(&header)?;
        self.file.append(data)?;
        self.block_offset += HEADER_SIZE + data.len();
        Ok(())
    }

    /// Flush to durable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync()
    }

    /// Bytes written so far.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.file.len() == 0
    }
}

/// Reads records back from log file contents.
pub struct LogReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Salvage mode: resynchronize past mid-file corruption instead of
    /// failing (see [`LogReader::new_salvaging`]).
    salvage: bool,
    records_salvaged: u64,
    bytes_dropped: u64,
}

impl<'a> LogReader<'a> {
    /// Read from the full contents of a log file (paranoid: mid-file
    /// corruption is an error).
    pub fn new(data: &'a [u8]) -> LogReader<'a> {
        LogReader {
            data,
            pos: 0,
            salvage: false,
            records_salvaged: 0,
            bytes_dropped: 0,
        }
    }

    /// Like [`LogReader::new`], but in **salvage** mode: on a checksum or
    /// framing mismatch the reader skips to the next [`BLOCK_SIZE`]
    /// boundary and resynchronizes (each block is independently framed, so
    /// damage never propagates past its block), instead of aborting. What
    /// was skipped is counted in [`LogReader::records_salvaged`] /
    /// [`LogReader::bytes_dropped`].
    pub fn new_salvaging(data: &'a [u8]) -> LogReader<'a> {
        LogReader {
            salvage: true,
            ..LogReader::new(data)
        }
    }

    /// Salvage mode: corruption events resynchronized past so far.
    pub fn records_salvaged(&self) -> u64 {
        self.records_salvaged
    }

    /// Salvage mode: bytes skipped or discarded while resynchronizing
    /// (damaged framing plus any abandoned partial record).
    pub fn bytes_dropped(&self) -> u64 {
        self.bytes_dropped
    }

    /// Salvage mode: skip to the start of the next block (where framing is
    /// guaranteed to restart) and abandon any partially-assembled record.
    fn resync_to_next_block(&mut self, assembled: &mut Option<Vec<u8>>) {
        let next = ((self.pos / BLOCK_SIZE) + 1) * BLOCK_SIZE;
        let next = next.min(self.data.len());
        self.bytes_dropped += (next - self.pos) as u64;
        self.pos = next;
        self.drop_partial(assembled);
    }

    /// Salvage mode: count one corruption event and discard a partial
    /// record whose framing turned out to be inconsistent.
    fn drop_partial(&mut self, assembled: &mut Option<Vec<u8>>) {
        if let Some(buf) = assembled.take() {
            self.bytes_dropped += buf.len() as u64;
        }
        self.records_salvaged += 1;
    }

    /// Next complete record, `Ok(None)` at clean end-of-log.
    ///
    /// A record truncated by a crash at the tail yields `Ok(None)` in both
    /// modes; mid-file corruption is reported as an error (paranoid) or
    /// resynchronized past (salvage).
    pub fn read_record(&mut self) -> Result<Option<Vec<u8>>> {
        let mut assembled: Option<Vec<u8>> = None;
        loop {
            let block_left = BLOCK_SIZE - (self.pos % BLOCK_SIZE);
            if block_left < HEADER_SIZE {
                self.pos += block_left; // skip trailer padding
            }
            if self.pos + HEADER_SIZE > self.data.len() {
                return Ok(None); // truncated tail
            }
            let header = &self.data[self.pos..self.pos + HEADER_SIZE];
            let stored_crc = u32::from_le_bytes(header[..4].try_into().unwrap());
            let len = u16::from_le_bytes(header[4..6].try_into().unwrap()) as usize;
            let type_byte = header[6];
            if stored_crc == 0 && len == 0 && type_byte == 0 {
                // Zero padding (pre-allocated or trailer) — end of data.
                return Ok(None);
            }
            let Some(rtype) = RecordType::from_u8(type_byte) else {
                if self.salvage {
                    self.resync_to_next_block(&mut assembled);
                    continue;
                }
                return Err(Error::corruption(format!(
                    "unknown log record type {type_byte}"
                )));
            };
            let start = self.pos + HEADER_SIZE;
            if start + len > self.data.len() {
                return Ok(None); // truncated tail
            }
            let payload = &self.data[start..start + len];
            let crc = crc32c::extend(crc32c::crc32c(&[type_byte]), payload);
            if crc32c::unmask(stored_crc) != crc {
                if self.salvage {
                    self.resync_to_next_block(&mut assembled);
                    continue;
                }
                return Err(Error::corruption("log record checksum mismatch"));
            }
            self.pos = start + len;
            match rtype {
                RecordType::Full => {
                    if assembled.is_some() {
                        if !self.salvage {
                            return Err(Error::corruption("FULL record inside fragmented record"));
                        }
                        // The partial record is lost; the FULL one is intact.
                        self.drop_partial(&mut assembled);
                    }
                    return Ok(Some(payload.to_vec()));
                }
                RecordType::First => {
                    if assembled.is_some() {
                        if !self.salvage {
                            return Err(Error::corruption("FIRST record inside fragmented record"));
                        }
                        self.drop_partial(&mut assembled);
                    }
                    assembled = Some(payload.to_vec());
                }
                RecordType::Middle => match assembled.as_mut() {
                    Some(buf) => buf.extend_from_slice(payload),
                    None => {
                        if !self.salvage {
                            return Err(Error::corruption("orphan MIDDLE record"));
                        }
                        // A leftover fragment of a record whose FIRST part
                        // was lost to an earlier resync: skip just it.
                        self.records_salvaged += 1;
                        self.bytes_dropped += (HEADER_SIZE + len) as u64;
                    }
                },
                RecordType::Last => match assembled.take() {
                    Some(mut buf) => {
                        buf.extend_from_slice(payload);
                        return Ok(Some(buf));
                    }
                    None => {
                        if !self.salvage {
                            return Err(Error::corruption("orphan LAST record"));
                        }
                        self.records_salvaged += 1;
                        self.bytes_dropped += (HEADER_SIZE + len) as u64;
                    }
                },
            }
        }
    }

    /// Drain all remaining records.
    pub fn read_all(&mut self) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        while let Some(rec) = self.read_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Env, MemEnv};
    use proptest::prelude::*;

    fn write_records(records: &[Vec<u8>]) -> Vec<u8> {
        let env = MemEnv::new();
        let mut w = LogWriter::new(env.new_writable("log").unwrap());
        for r in records {
            w.add_record(r).unwrap();
        }
        w.sync().unwrap();
        env.read_all("log").unwrap()
    }

    #[test]
    fn roundtrip_small_records() {
        let records = vec![
            b"one".to_vec(),
            b"two".to_vec(),
            Vec::new(),
            b"four".to_vec(),
        ];
        let data = write_records(&records);
        let mut r = LogReader::new(&data);
        assert_eq!(r.read_all().unwrap(), records);
    }

    #[test]
    fn roundtrip_fragmented_record() {
        // A record much larger than one block must fragment.
        let big = vec![0xabu8; BLOCK_SIZE * 3 + 123];
        let records = vec![b"pre".to_vec(), big.clone(), b"post".to_vec()];
        let data = write_records(&records);
        assert!(data.len() > BLOCK_SIZE * 3);
        let mut r = LogReader::new(&data);
        let out = r.read_all().unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[1], big);
        assert_eq!(out[2], b"post");
    }

    #[test]
    fn block_boundary_padding() {
        // Fill so that fewer than HEADER_SIZE bytes remain in the block.
        let first = vec![1u8; BLOCK_SIZE - HEADER_SIZE - 3];
        let records = vec![first, b"next".to_vec()];
        let data = write_records(&records);
        let mut r = LogReader::new(&data);
        assert_eq!(r.read_all().unwrap().len(), 2);
    }

    #[test]
    fn truncated_tail_is_clean_eof() {
        let records = vec![b"aaaa".to_vec(), b"bbbb".to_vec()];
        let data = write_records(&records);
        // Chop mid-way through the second record.
        let cut = data.len() - 2;
        let mut r = LogReader::new(&data[..cut]);
        let out = r.read_all().unwrap();
        assert_eq!(out, vec![b"aaaa".to_vec()]);
    }

    #[test]
    fn corrupt_payload_detected() {
        let records = vec![b"hello-world".to_vec()];
        let mut data = write_records(&records);
        let last = data.len() - 1;
        data[last] ^= 0xff;
        let mut r = LogReader::new(&data);
        assert!(r.read_record().unwrap_err().is_corruption());
    }

    #[test]
    fn orphan_fragments_detected() {
        // Hand-craft a MIDDLE record with valid checksum but no FIRST.
        let payload = b"frag";
        let crc = crc32c::extend(crc32c::crc32c(&[RecordType::Middle as u8]), payload);
        let mut data = Vec::new();
        data.extend_from_slice(&crc32c::mask(crc).to_le_bytes());
        data.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        data.push(RecordType::Middle as u8);
        data.extend_from_slice(payload);
        let mut r = LogReader::new(&data);
        assert!(r.read_record().is_err());
    }

    #[test]
    fn salvage_resynchronizes_at_block_boundary() {
        // ~1 KiB records spanning several blocks; corrupt one early in
        // block 0. Paranoid reading fails; salvage reading recovers every
        // record before the damage and every record framed after the next
        // block boundary.
        let records: Vec<Vec<u8>> = (0..90u8).map(|i| vec![i; 1000]).collect();
        let mut data = write_records(&records);
        assert!(data.len() > 2 * BLOCK_SIZE);
        data[2100] ^= 0xff; // inside record 2's payload

        let mut paranoid = LogReader::new(&data);
        assert!(paranoid.read_all().is_err());

        let mut r = LogReader::new_salvaging(&data);
        let out = r.read_all().unwrap();
        assert!(r.records_salvaged() > 0);
        assert!(r.bytes_dropped() > 0);
        // Records 0 and 1 precede the damage; the final record sits well
        // past the first block boundary.
        assert_eq!(&out[..2], &records[..2]);
        assert_eq!(out.last(), records.last());
        // Nothing fabricated: the output is a subsequence of the input.
        let mut want = records.iter();
        for got in &out {
            assert!(
                want.any(|w| w == got),
                "salvaged a record that was never written"
            );
        }
    }

    #[test]
    fn salvage_skips_unknown_record_type() {
        let records: Vec<Vec<u8>> = (0..90u8).map(|i| vec![i; 1000]).collect();
        let mut data = write_records(&records);
        // Overwrite a record's type byte mid-block-0 with garbage. The
        // record starts at 1007·k offsets (7-byte header + 1000 payload).
        data[2 * 1007 + 6] = 0x77;
        let mut r = LogReader::new_salvaging(&data);
        let out = r.read_all().unwrap();
        assert_eq!(&out[..2], &records[..2]);
        assert_eq!(out.last(), records.last());
        assert!(r.records_salvaged() > 0);
    }

    #[test]
    fn salvage_clean_log_reads_everything() {
        let records = vec![b"one".to_vec(), vec![7u8; BLOCK_SIZE * 2], b"x".to_vec()];
        let data = write_records(&records);
        let mut r = LogReader::new_salvaging(&data);
        assert_eq!(r.read_all().unwrap(), records);
        assert_eq!(r.records_salvaged(), 0);
        assert_eq!(r.bytes_dropped(), 0);
    }

    #[test]
    fn salvage_drops_partial_of_interrupted_fragmented_record() {
        // A record fragmented across blocks 0→1 whose continuation is
        // damaged: the partial must be abandoned, not returned, and the
        // records after the damaged block must still be recovered.
        let big = vec![9u8; BLOCK_SIZE + 500]; // FIRST in block 0, LAST in 1
        let records = vec![big, b"tail-a".to_vec(), b"tail-b".to_vec()];
        let mut data = write_records(&records);
        data[BLOCK_SIZE + 10] ^= 0xff; // damage the LAST fragment
        let mut r = LogReader::new_salvaging(&data);
        let out = r.read_all().unwrap();
        // Block 1 also held the two tail records; they die with the block.
        assert!(out.is_empty(), "{out:?}");
        assert!(r.records_salvaged() > 0);
        assert!(r.bytes_dropped() as usize > BLOCK_SIZE / 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_salvage_never_errors_never_fabricates(
            records in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..2000), 1..30),
            flip_fraction in 0.0f64..1.0)
        {
            let mut data = write_records(&records);
            let at = (((data.len() - 1) as f64) * flip_fraction) as usize;
            data[at] ^= 0x5a;
            let mut r = LogReader::new_salvaging(&data);
            let out = r.read_all().unwrap();
            // Whatever survives must be a subsequence of what was written.
            let mut want = records.iter();
            for got in &out {
                prop_assert!(want.any(|w| w == got));
            }
        }

        #[test]
        fn prop_roundtrip(records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..5000), 0..20))
        {
            let data = write_records(&records);
            let mut r = LogReader::new(&data);
            prop_assert_eq!(r.read_all().unwrap(), records);
        }

        #[test]
        fn prop_truncation_never_errors_never_fabricates(
            records in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..600), 1..12),
            cut_fraction in 0.0f64..1.0)
        {
            let data = write_records(&records);
            let cut = ((data.len() as f64) * cut_fraction) as usize;
            let mut r = LogReader::new(&data[..cut]);
            let out = r.read_all().unwrap();
            // Every recovered record must be a prefix of the original list.
            prop_assert!(out.len() <= records.len());
            for (got, want) in out.iter().zip(records.iter()) {
                prop_assert_eq!(got, want);
            }
        }
    }
}
