//! Compaction policy: what to compact and how key runs resolve.
//!
//! Leveled compaction as in LevelDB: L0 triggers on file count, deeper
//! levels on total bytes with 10× targets; the input file within a level is
//! chosen round-robin by key range (the paper leans on this: composite keys
//! for one secondary key may compact at different times, so cross-level
//! time-ordering cannot be assumed for the Composite index).
//!
//! [`resolve_key_run`] is the pure dropping/merging policy applied to all
//! entries of one user key (newest first) during a compaction — including
//! the merge-operand folding used by Lazy posting lists.

use crate::ikey::{compare_internal, ValueType};
use crate::merge::MergeOperator;
use crate::options::DbOptions;
use crate::version::{FileMetaData, Version};
use ldbpp_common::Result;
use std::sync::Arc;

/// A chosen compaction: files from `level` merging into `level + 1`.
#[derive(Debug)]
pub struct CompactionJob {
    /// Input level.
    pub level: usize,
    /// Files taken from `level`.
    pub inputs_lo: Vec<Arc<FileMetaData>>,
    /// Overlapping files taken from `level + 1`.
    pub inputs_hi: Vec<Arc<FileMetaData>>,
}

impl CompactionJob {
    /// Output level.
    pub fn output_level(&self) -> usize {
        self.level + 1
    }

    /// All input files.
    pub fn all_inputs(&self) -> impl Iterator<Item = &Arc<FileMetaData>> {
        self.inputs_lo.iter().chain(self.inputs_hi.iter())
    }

    /// Total input bytes.
    pub fn input_bytes(&self) -> u64 {
        self.all_inputs().map(|f| f.file_size).sum()
    }
}

/// Compaction pressure of each level; the level with the highest score ≥ 1
/// compacts first.
pub fn level_scores(opts: &DbOptions, version: &Version) -> Vec<f64> {
    let mut scores = vec![0.0; version.num_levels()];
    if !scores.is_empty() {
        scores[0] = version.files[0].len() as f64 / opts.l0_compaction_trigger as f64;
    }
    // The last level has nowhere to compact into.
    #[allow(clippy::needless_range_loop)]
    for level in 1..version.num_levels().saturating_sub(1) {
        scores[level] = version.level_bytes(level) as f64 / opts.max_bytes_for_level(level) as f64;
    }
    scores
}

/// Pick the next compaction, if any level is over threshold.
///
/// `compact_pointer[level]` is the largest key of the last compaction at
/// that level; the next pick is the first file starting after it
/// (round-robin, wrapping).
pub fn pick_compaction(
    opts: &DbOptions,
    version: &Version,
    compact_pointer: &[Vec<u8>],
) -> Option<CompactionJob> {
    let scores = level_scores(opts, version);
    let (level, score) = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))?;
    if *score < 1.0 {
        return None;
    }

    let inputs_lo: Vec<Arc<FileMetaData>> = if level == 0 {
        // Take every L0 file: they overlap each other, and merging them all
        // keeps the policy simple and deterministic.
        version.files[0].clone()
    } else {
        let files = &version.files[level];
        if files.is_empty() {
            return None;
        }
        let ptr = compact_pointer
            .get(level)
            .map(|p| p.as_slice())
            .unwrap_or(b"");
        let next = files
            .iter()
            .find(|f| ptr.is_empty() || compare_internal(&f.largest, ptr).is_gt())
            .or_else(|| files.first())?;
        vec![Arc::clone(next)]
    };
    if inputs_lo.is_empty() {
        return None;
    }

    // Key range of the lower inputs (user-key bounds).
    let lo = inputs_lo
        .iter()
        .map(|f| crate::ikey::user_key(&f.smallest).to_vec())
        .min()?;
    let hi = inputs_lo
        .iter()
        .map(|f| crate::ikey::user_key(&f.largest).to_vec())
        .max()?;

    let inputs_hi = version.overlapping_files(level + 1, &lo, &hi);
    Some(CompactionJob {
        level,
        inputs_lo,
        inputs_hi,
    })
}

/// One entry of a user-key run: `(type, seq, value)`.
pub type RunEntry = (ValueType, u64, Vec<u8>);

/// Resolve all compaction-input entries of one user key (newest first) into
/// the entries to write out.
///
/// * A `Value` shadows everything older.
/// * A `Deletion` shadows everything older; the tombstone itself survives
///   unless `is_base_level` (no older data for this key exists below the
///   output level).
/// * A run of `Merge` operands folds via the operator: onto a base `Value`,
///   over a `Deletion` (base = none), or — with no base among the inputs —
///   stays a single combined operand unless `is_base_level`, in which case
///   it finalizes to a `Value`.
///
/// Fails when the merge operator rejects an operand.
pub fn resolve_key_run(
    key: &[u8],
    entries: &[RunEntry],
    is_base_level: bool,
    merge_op: Option<&dyn MergeOperator>,
) -> Result<Vec<RunEntry>> {
    resolve_key_run_with_snapshot(key, entries, is_base_level, merge_op, None)
}

/// [`resolve_key_run`] honouring a pinned-snapshot boundary.
///
/// Entries with `seq ≤ boundary` are preserved verbatim so every pinned
/// snapshot (all of which are ≤ boundary) continues to read its exact
/// historical state; only the prefix newer than the boundary is resolved,
/// and it may not consume a base below the boundary (dangling merge runs
/// stay operands).
pub fn resolve_key_run_with_snapshot(
    key: &[u8],
    entries: &[RunEntry],
    is_base_level: bool,
    merge_op: Option<&dyn MergeOperator>,
    boundary: Option<u64>,
) -> Result<Vec<RunEntry>> {
    let Some(boundary) = boundary else {
        return resolve_key_run_inner(key, entries, is_base_level, merge_op);
    };
    let split = entries.partition_point(|e| e.1 > boundary);
    let (newer, preserved) = entries.split_at(split);
    if newer.is_empty() {
        return Ok(preserved.to_vec());
    }
    // Resolve the prefix as if more data always exists below (it does:
    // the preserved suffix or deeper levels) so tombstones and dangling
    // merge runs are kept/partial-merged, never finalized.
    let mut out = resolve_key_run_inner(key, newer, false, merge_op)?;
    out.extend_from_slice(preserved);
    Ok(out)
}

fn resolve_key_run_inner(
    key: &[u8],
    entries: &[RunEntry],
    is_base_level: bool,
    merge_op: Option<&dyn MergeOperator>,
) -> Result<Vec<RunEntry>> {
    let Some((newest_type, newest_seq, newest_value)) = entries.first().cloned() else {
        return Ok(Vec::new());
    };
    Ok(match newest_type {
        ValueType::Value => vec![(ValueType::Value, newest_seq, newest_value)],
        ValueType::Deletion => {
            if is_base_level {
                Vec::new()
            } else {
                vec![(ValueType::Deletion, newest_seq, Vec::new())]
            }
        }
        ValueType::Merge => {
            let mut operands: Vec<&[u8]> = Vec::new();
            let mut base: Option<&RunEntry> = None;
            for e in entries {
                match e.0 {
                    ValueType::Merge => operands.push(&e.2),
                    _ => {
                        base = Some(e);
                        break;
                    }
                }
            }
            operands.reverse(); // oldest first
            let Some(op) = merge_op else {
                // No operator configured: keep the newest operand only
                // (degenerate but safe).
                return Ok(vec![(ValueType::Merge, newest_seq, newest_value)]);
            };
            match base {
                Some((ValueType::Value, _, v)) => {
                    vec![(
                        ValueType::Value,
                        newest_seq,
                        op.full_merge(key, Some(v), &operands)?,
                    )]
                }
                Some((ValueType::Deletion, _, _)) => {
                    // Operands applied over a delete: the folded value
                    // itself shadows anything older, so the tombstone is
                    // consumed.
                    vec![(
                        ValueType::Value,
                        newest_seq,
                        op.full_merge(key, None, &operands)?,
                    )]
                }
                _ => {
                    if is_base_level {
                        vec![(
                            ValueType::Value,
                            newest_seq,
                            op.full_merge(key, None, &operands)?,
                        )]
                    } else {
                        vec![(
                            ValueType::Merge,
                            newest_seq,
                            op.partial_merge(key, &operands, false)?,
                        )]
                    }
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ikey::{InternalKey, ValueType};
    use crate::merge::ConcatMerge;

    fn meta(number: u64, lo: &[u8], hi: &[u8], size: u64) -> Arc<FileMetaData> {
        Arc::new(FileMetaData {
            number,
            file_size: size,
            num_entries: 1,
            num_blocks: 1,
            smallest: InternalKey::new(lo, 100, ValueType::Value).0,
            largest: InternalKey::new(hi, 1, ValueType::Value).0,
            sec_file_zones: Vec::new(),
        })
    }

    fn opts() -> DbOptions {
        DbOptions {
            l0_compaction_trigger: 4,
            base_level_bytes: 1000,
            level_size_multiplier: 10,
            num_levels: 4,
            ..DbOptions::small()
        }
    }

    #[test]
    fn no_compaction_when_under_thresholds() {
        let mut v = Version::new(4);
        v.files[0] = vec![meta(1, b"a", b"b", 100)];
        assert!(pick_compaction(&opts(), &v, &vec![Vec::new(); 4]).is_none());
    }

    #[test]
    fn l0_trigger_takes_all_l0_files() {
        let mut v = Version::new(4);
        v.files[0] = (1..=4).map(|i| meta(i, b"a", b"m", 100)).collect();
        v.files[1] = vec![meta(9, b"a", b"c", 100), meta(10, b"x", b"z", 100)];
        let job = pick_compaction(&opts(), &v, &vec![Vec::new(); 4]).unwrap();
        assert_eq!(job.level, 0);
        assert_eq!(job.inputs_lo.len(), 4);
        // Only the overlapping L1 file joins.
        assert_eq!(job.inputs_hi.len(), 1);
        assert_eq!(job.inputs_hi[0].number, 9);
        assert_eq!(job.output_level(), 1);
        assert_eq!(job.input_bytes(), 500);
    }

    #[test]
    fn size_trigger_on_l1_round_robin() {
        let mut v = Version::new(4);
        v.files[1] = vec![
            meta(1, b"a", b"f", 600),
            meta(2, b"g", b"p", 600),
            meta(3, b"q", b"z", 600),
        ];
        // 1800 bytes > 1000 target → compact L1.
        let mut ptr: Vec<Vec<u8>> = vec![Vec::new(); 4];
        let job = pick_compaction(&opts(), &v, &ptr).unwrap();
        assert_eq!(job.level, 1);
        assert_eq!(job.inputs_lo[0].number, 1);

        // After compacting file 1, the pointer advances past "f".
        ptr[1] = InternalKey::new(b"f", 1, ValueType::Value).0;
        let job = pick_compaction(&opts(), &v, &ptr).unwrap();
        assert_eq!(job.inputs_lo[0].number, 2);

        // Pointer past everything wraps to the first file.
        ptr[1] = InternalKey::new(b"zz", 1, ValueType::Value).0;
        let job = pick_compaction(&opts(), &v, &ptr).unwrap();
        assert_eq!(job.inputs_lo[0].number, 1);
    }

    #[test]
    fn last_level_never_scored() {
        let mut v = Version::new(3);
        v.files[2] = vec![meta(1, b"a", b"z", u64::MAX / 2)];
        assert!(pick_compaction(&opts(), &v, &vec![Vec::new(); 3]).is_none());
    }

    // ---- resolve_key_run ----

    fn val(seq: u64, v: &[u8]) -> RunEntry {
        (ValueType::Value, seq, v.to_vec())
    }
    fn del(seq: u64) -> RunEntry {
        (ValueType::Deletion, seq, Vec::new())
    }
    fn mrg(seq: u64, v: &[u8]) -> RunEntry {
        (ValueType::Merge, seq, v.to_vec())
    }

    #[test]
    fn newest_value_shadows_all() {
        let out =
            resolve_key_run(b"k", &[val(9, b"new"), val(5, b"old"), del(2)], false, None).unwrap();
        assert_eq!(out, vec![val(9, b"new")]);
    }

    #[test]
    fn tombstone_kept_unless_base_level() {
        let run = [del(9), val(5, b"old")];
        assert_eq!(
            resolve_key_run(b"k", &run, false, None).unwrap(),
            vec![del(9)]
        );
        assert_eq!(resolve_key_run(b"k", &run, true, None).unwrap(), vec![]);
    }

    #[test]
    fn merge_onto_value_folds_to_value() {
        let m = ConcatMerge;
        let run = [mrg(9, b"c"), mrg(8, b"b"), val(5, b"a")];
        let out = resolve_key_run(b"k", &run, false, Some(&m)).unwrap();
        assert_eq!(out, vec![val(9, b"abc")]);
    }

    #[test]
    fn merge_over_delete_consumes_tombstone() {
        let m = ConcatMerge;
        let run = [mrg(9, b"y"), mrg(8, b"x"), del(5), val(2, b"dead")];
        let out = resolve_key_run(b"k", &run, false, Some(&m)).unwrap();
        assert_eq!(out, vec![val(9, b"xy")]);
    }

    #[test]
    fn dangling_merge_stays_operand_above_base_level() {
        let m = ConcatMerge;
        let run = [mrg(9, b"2"), mrg(4, b"1")];
        let out = resolve_key_run(b"k", &run, false, Some(&m)).unwrap();
        assert_eq!(out, vec![mrg(9, b"12")]);
        // At the base level it finalizes.
        let out = resolve_key_run(b"k", &run, true, Some(&m)).unwrap();
        assert_eq!(out, vec![val(9, b"12")]);
    }

    #[test]
    fn merge_without_operator_degrades_gracefully() {
        let run = [mrg(9, b"b"), mrg(4, b"a")];
        let out = resolve_key_run(b"k", &run, false, None).unwrap();
        assert_eq!(out, vec![mrg(9, b"b")]);
    }

    #[test]
    fn empty_run() {
        assert!(resolve_key_run(b"k", &[], true, None).unwrap().is_empty());
    }
}
