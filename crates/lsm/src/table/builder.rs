//! Builds SSTables, computing primary and secondary per-block metadata as
//! blocks are cut — the Embedded Index's filters are "naturally computed
//! when an SSTable is created" (paper §3).

use crate::attr::AttrExtractor;
#[cfg(test)]
use crate::attr::AttrValue;
use crate::block::BlockBuilder;
use crate::compress::Compression;
use crate::env::WritableFile;
use crate::filter::{BloomPolicy, FilterBlockBuilder};
use crate::ikey::{self, ValueType};
use crate::options::DbOptions;
use crate::table::format::{write_block, Footer};
use crate::zonemap::{ZoneEntry, ZoneMap};
use ldbpp_common::coding::put_length_prefixed;
use ldbpp_common::{Error, Result};
use std::sync::Arc;

/// Summary of a finished table, fed into the version metadata.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Total file size in bytes.
    pub file_size: u64,
    /// Number of entries.
    pub num_entries: u64,
    /// Number of data blocks.
    pub num_blocks: u64,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
    /// File-level zone map per indexed attribute — kept in the MANIFEST so
    /// whole files can be pruned without opening them.
    pub sec_file_zones: Vec<(String, ZoneEntry)>,
}

struct SecondaryState {
    attr: String,
    filters: FilterBlockBuilder,
    zones: ZoneMap,
    /// Values seen in the current (unfinished) block.
    block_values: Vec<Vec<u8>>,
    block_zone: ZoneEntry,
}

/// Streaming SSTable builder.
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    policy: BloomPolicy,
    compression: Compression,
    block_size: usize,
    extractor: Option<Arc<dyn AttrExtractor>>,

    data_block: BlockBuilder,
    index_block: BlockBuilder,
    primary_filters: FilterBlockBuilder,
    /// User keys of the current block (for the primary bloom filter).
    block_user_keys: Vec<Vec<u8>>,
    secondary: Vec<SecondaryState>,
    /// Attribute names, parallel to `secondary` (for batched extraction).
    attr_names: Vec<String>,

    num_entries: u64,
    num_blocks: u64,
    smallest: Option<Vec<u8>>,
    largest: Vec<u8>,
    bytes_on_disk: u64,
    finished: bool,
}

impl TableBuilder {
    /// Start building into `file` with the table-relevant options.
    pub fn new(opts: &DbOptions, file: Box<dyn WritableFile>) -> TableBuilder {
        let secondary = opts
            .indexed_attrs
            .iter()
            .map(|attr| SecondaryState {
                attr: attr.clone(),
                filters: FilterBlockBuilder::new(),
                zones: ZoneMap::new(),
                block_values: Vec::new(),
                block_zone: ZoneEntry::new(),
            })
            .collect();
        TableBuilder {
            file,
            policy: BloomPolicy::new(opts.bloom_bits_per_key),
            compression: opts.compression,
            block_size: opts.block_size,
            extractor: opts.extractor.clone(),
            data_block: BlockBuilder::new(opts.restart_interval),
            index_block: BlockBuilder::new(1),
            primary_filters: FilterBlockBuilder::new(),
            block_user_keys: Vec::new(),
            secondary,
            attr_names: opts.indexed_attrs.clone(),
            num_entries: 0,
            num_blocks: 0,
            smallest: None,
            largest: Vec::new(),
            bytes_on_disk: 0,
            finished: false,
        }
    }

    /// Append an entry. `ikey` must be an encoded internal key, strictly
    /// greater (per the internal comparator) than all previously added keys.
    pub fn add(&mut self, ikey_bytes: &[u8], value: &[u8]) -> Result<()> {
        debug_assert!(!self.finished);
        let (user_key, _seq, vtype) = ikey::parse_internal_key(ikey_bytes)?;
        self.data_block.add(ikey_bytes, value);
        self.block_user_keys.push(user_key.to_vec());
        if vtype != ValueType::Deletion && !self.secondary.is_empty() {
            if let Some(extractor) = &self.extractor {
                let values = extractor.extract_many(&self.attr_names, value);
                for (sec, av) in self.secondary.iter_mut().zip(values) {
                    if let Some(av) = av {
                        sec.block_zone.update(&av);
                        sec.block_values.push(av.filter_bytes());
                    }
                }
            }
        }
        if self.smallest.is_none() {
            self.smallest = Some(ikey_bytes.to_vec());
        }
        self.largest.clear();
        self.largest.extend_from_slice(ikey_bytes);
        self.num_entries += 1;
        if self.data_block.size_estimate() >= self.block_size {
            self.flush_data_block()?;
        }
        Ok(())
    }

    fn flush_data_block(&mut self) -> Result<()> {
        if self.data_block.is_empty() {
            return Ok(());
        }
        let last_key = self.data_block.last_key().to_vec();
        let contents = self.data_block.finish();
        let (handle, on_disk) = write_block(self.file.as_mut(), &contents, self.compression)?;
        self.bytes_on_disk += on_disk;
        self.num_blocks += 1;

        let mut handle_enc = Vec::new();
        handle.encode_to(&mut handle_enc);
        self.index_block.add(&last_key, &handle_enc);

        // Primary bloom over this block's user keys.
        let refs: Vec<&[u8]> = self.block_user_keys.iter().map(|k| k.as_slice()).collect();
        let filter = self.policy.create_filter(&refs);
        self.primary_filters.add_filter(&filter);
        self.block_user_keys.clear();

        // Secondary blooms and zone maps.
        for sec in &mut self.secondary {
            let refs: Vec<&[u8]> = sec.block_values.iter().map(|v| v.as_slice()).collect();
            let filter = self.policy.create_filter(&refs);
            sec.filters.add_filter(&filter);
            sec.block_values.clear();
            sec.zones.push(std::mem::take(&mut sec.block_zone));
        }
        Ok(())
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Approximate bytes the finished file will occupy.
    pub fn estimated_size(&self) -> u64 {
        self.bytes_on_disk + self.data_block.size_estimate() as u64
    }

    /// Finish the table and return its metadata.
    pub fn finish(mut self) -> Result<TableMeta> {
        if self.num_entries == 0 {
            return Err(Error::invalid("cannot finish an empty table"));
        }
        self.flush_data_block()?;
        self.finished = true;

        // Primary filter block (never compressed — probed constantly).
        let filter_data = std::mem::take(&mut self.primary_filters).finish();
        let (filter_handle, n) = write_block(self.file.as_mut(), &filter_data, Compression::None)?;
        self.bytes_on_disk += n;

        // Secondary metadata block.
        let mut sec_file_zones = Vec::new();
        let mut secmeta = Vec::new();
        ldbpp_common::coding::put_varint32(&mut secmeta, self.secondary.len() as u32);
        for sec in std::mem::take(&mut self.secondary) {
            sec_file_zones.push((sec.attr.clone(), sec.zones.file_entry()));
            put_length_prefixed(&mut secmeta, sec.attr.as_bytes());
            put_length_prefixed(&mut secmeta, &sec.filters.finish());
            put_length_prefixed(&mut secmeta, &sec.zones.encode());
        }
        let (secmeta_handle, n) = write_block(self.file.as_mut(), &secmeta, self.compression)?;
        self.bytes_on_disk += n;

        // Index block.
        let index_data = self.index_block.finish();
        let (index_handle, n) = write_block(self.file.as_mut(), &index_data, Compression::None)?;
        self.bytes_on_disk += n;

        // Footer.
        let footer = Footer {
            filter_handle,
            secmeta_handle,
            index_handle,
        };
        self.file.append(&footer.encode())?;
        self.bytes_on_disk += super::format::FOOTER_SIZE as u64;
        self.file.sync()?;

        Ok(TableMeta {
            file_size: self.file.len(),
            num_entries: self.num_entries,
            num_blocks: self.num_blocks,
            smallest: self.smallest.take().unwrap_or_default(),
            largest: std::mem::take(&mut self.largest),
            sec_file_zones,
        })
    }
}

/// Decode the secondary metadata block written by the builder.
///
/// Returns `(attr, filter_block_bytes, zone_map)` triples.
pub(crate) fn decode_secmeta(data: &[u8]) -> Result<Vec<(String, Vec<u8>, ZoneMap)>> {
    use ldbpp_common::coding::{get_length_prefixed, get_varint32};
    let (count, mut pos) = get_varint32(data)?;
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let (name, n) = get_length_prefixed(&data[pos..])?;
        pos += n;
        let (filter, n) = get_length_prefixed(&data[pos..])?;
        pos += n;
        let (zones, n) = get_length_prefixed(&data[pos..])?;
        pos += n;
        let name =
            String::from_utf8(name.to_vec()).map_err(|_| Error::corruption("bad attr name"))?;
        out.push((name, filter.to_vec(), ZoneMap::decode(zones)?));
    }
    Ok(out)
}

/// Extract an attribute value by scanning for `"attr":` in raw JSON bytes —
/// a test-only extractor; the real one lives in `ldbpp-core`.
#[cfg(test)]
pub(crate) struct TestJsonExtractor;

#[cfg(test)]
impl AttrExtractor for TestJsonExtractor {
    fn extract(&self, attr: &str, value: &[u8]) -> Option<AttrValue> {
        let text = std::str::from_utf8(value).ok()?;
        let doc = ldbpp_common::json::Value::parse(text).ok()?;
        match doc.get(attr)? {
            ldbpp_common::json::Value::Str(s) => Some(AttrValue::str(s.clone())),
            ldbpp_common::json::Value::Int(i) => Some(AttrValue::Int(*i)),
            _ => None,
        }
    }
}
