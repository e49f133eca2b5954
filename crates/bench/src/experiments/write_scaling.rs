//! Beyond the paper: contended write scaling under group commit and
//! hash sharding.
//!
//! N writer threads drive independent YCSB-style insert streams into a
//! [`SecondaryDb`] whose WAL fsync is made artificially expensive
//! ([`SyncLatencyEnv`]), the configuration where commit latency — not
//! CPU — bounds throughput. Two mechanisms fight that bound:
//!
//! * **Group commit** (DESIGN.md §14): concurrent batches on one engine
//!   share a single sync, so throughput scales with the mean group size.
//! * **Sharding** (DESIGN.md §15): with S engine shards there are S
//!   independent WALs, so up to S syncs proceed *in parallel* instead of
//!   serializing behind one writer queue.
//!
//! The sweep runs the full (shards × threads) grid and reports, per
//! cell: aggregate throughput, PUT p50/p99, mean group size, syncs per
//! write, and the full group-size histogram (summed over shards). The
//! one-shard row is run a second time with two stand-alone indexes: the
//! primary's WAL is the shard's only commit log (DESIGN.md §11), so the
//! indexed cells must pay the same syncs per write as the bare ones.

use crate::harness::{fnum, LatencyStats, Series};
use crate::setup::{bench_opts, bench_stats, doc_of, Scale};
use ldbpp_core::{IndexKind, SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::env::{MemEnv, SyncLatencyEnv};
use ldbpp_workload::TweetGenerator;
use std::time::{Duration, Instant};

/// Shard counts of the scaling grid.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Writer-thread counts of the scaling grid.
const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

/// The stand-alone indexes of the indexed cells.
const INDEXES: [(&str, IndexKind); 2] = [
    ("UserID", IndexKind::LazyStandalone),
    ("CreationTime", IndexKind::CompositeStandalone),
];

/// Simulated fsync cost. Large against MemEnv's ~ns appends *and* the
/// per-put CPU work (record generation + memtable insert, ~100 µs), so
/// the run is firmly fsync-bound (the regime where group commit and
/// parallel per-shard WALs pay); small enough that the full grid stays
/// in benchtop seconds.
const SYNC_DELAY: Duration = Duration::from_micros(500);

/// Histogram bucket labels, mirroring `IoStats::group_size_bucket`.
const HIST_LABELS: [&str; 6] = ["g1", "g2", "g3_4", "g5_8", "g9_16", "g17p"];

/// One cell of the grid: `threads` writers insert `total_ops` records
/// (split evenly) into a fresh fsync-bound `shards`-shard database with
/// the stand-alone indexes `specs`. Returns the merged per-put latencies,
/// the wall time, and the I/O-stat delta summed over all shards and
/// their index tables.
fn run_cell(
    shards: usize,
    threads: usize,
    specs: &[(&str, IndexKind)],
    total_ops: usize,
    seed: u64,
) -> (LatencyStats, Duration, ldbpp_lsm::env::IoSnapshot) {
    let env = SyncLatencyEnv::new(MemEnv::new(), SYNC_DELAY);
    let mut base = bench_opts();
    // Fsync-bound config: sync the WAL on every commit, and keep flushes
    // rare (big memtable) so the sync cost dominates the measurement.
    base.wal_sync = true;
    base.write_buffer_size = 4 << 20;
    base.background_work = true;
    let db = SecondaryDb::open(
        env,
        "db",
        SecondaryDbOptions {
            base,
            shards,
            ..Default::default()
        },
        specs,
    )
    .unwrap();

    let io = || db.primary_io() + db.index_io();
    let before = io();
    let per_thread = total_ops / threads;
    let started = Instant::now();
    let mut merged = LatencyStats::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = &db;
                s.spawn(move || {
                    // Per-thread generator and key prefix: disjoint streams,
                    // deterministic for a fixed (seed, thread) pair. Keys
                    // hash-route across shards per put, so every shard sees
                    // pressure from every writer.
                    let mut generator =
                        TweetGenerator::new(bench_stats(), per_thread, seed ^ (t as u64) << 32);
                    let mut lat = LatencyStats::new();
                    for _ in 0..per_thread {
                        let tweet = generator.next_tweet();
                        let key = format!("w{t}-{}", tweet.id);
                        let doc = doc_of(&tweet);
                        lat.time(|| {
                            db.put(&key, &doc).unwrap();
                        });
                    }
                    lat
                })
            })
            .collect();
        for h in handles {
            merged.merge(&h.join().unwrap());
        }
    });
    let elapsed = started.elapsed();
    let delta = io().since(&before);
    (merged, elapsed, delta)
}

/// The full {1,2,4}-shard × {1,4,8}-writer scaling grid, then the
/// one-shard row again with two stand-alone indexes (`INDEXES`).
pub fn run(scale: Scale) -> Series {
    let mut headers = vec![
        "shards",
        "threads",
        "indexes",
        "ops",
        "kops_s",
        "put_p50_us",
        "put_p99_us",
        "groups",
        "mean_group",
        "syncs_per_op",
    ];
    headers.extend(HIST_LABELS);
    let mut series = Series::new(
        "write_scaling",
        "Contended PUT throughput vs shards and writer threads (fsync-bound)",
        &headers,
    );

    // Fixed total work per cell so cells are comparable: more threads (or
    // shards) must win by grouping or parallel syncs, not by doing less.
    let total_ops = (scale.mixed_ops / 10).max(1_000);
    let bare = SHARD_COUNTS.iter().map(|s| (*s, &INDEXES[..0]));
    for (shards, specs) in bare.chain([(1, &INDEXES[..])]) {
        for threads in THREAD_COUNTS {
            let (lat, elapsed, delta) = run_cell(shards, threads, specs, total_ops, scale.seed);
            let ops = lat.len();
            let kops = ops as f64 / elapsed.as_secs_f64() / 1e3;
            let mean_group = delta.grouped_writes as f64 / delta.group_commits.max(1) as f64;
            let mut row = vec![
                shards.to_string(),
                threads.to_string(),
                specs.len().to_string(),
                ops.to_string(),
                fnum(kops),
                fnum(lat.percentile_us(0.50)),
                fnum(lat.percentile_us(0.99)),
                delta.group_commits.to_string(),
                fnum(mean_group),
                fnum(delta.wal_syncs as f64 / ops as f64),
            ];
            row.extend(delta.group_size_hist.iter().map(|c| c.to_string()));
            series.push(row);
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(s: &Series, shards: &str, threads: &str, col: &str) -> f64 {
        indexed_cell(s, shards, threads, "0", col)
    }

    fn indexed_cell(s: &Series, shards: &str, threads: &str, indexes: &str, col: &str) -> f64 {
        s.value(
            |r| r[0] == shards && r[1] == threads && r[2] == indexes,
            col,
        )
        .unwrap_or_else(|| panic!("missing cell ({shards} shards, {threads} threads)"))
    }

    #[test]
    fn four_writers_at_least_double_one_writer_throughput() {
        let s = run(Scale::smoke());
        // Group commit on a single engine: fixed work, more threads, the
        // shared syncs must at least double aggregate throughput.
        let (one, four) = (cell(&s, "1", "1", "kops_s"), cell(&s, "1", "4", "kops_s"));
        assert!(
            four >= 2.0 * one,
            "group commit must amortize the fsync: 4 writers {four} kops/s \
             vs 1 writer {one} kops/s"
        );
        // In the fsync-bound config a lone writer pays one sync per write;
        // grouped writers pay strictly fewer.
        assert!(
            cell(&s, "1", "1", "syncs_per_op") > 0.9,
            "single writer should sync ~every write"
        );
        assert!(
            cell(&s, "1", "4", "syncs_per_op") < cell(&s, "1", "1", "syncs_per_op"),
            "groups must share syncs"
        );
        assert!(
            cell(&s, "1", "4", "mean_group") > 1.0,
            "no grouping happened at 4 writers"
        );
        // Two stand-alone indexes ride on the same record and the same
        // sync: one per write for a lone writer, not three.
        let indexed = indexed_cell(&s, "1", "1", "2", "syncs_per_op");
        assert!(
            (0.9..=1.0).contains(&indexed),
            "an indexed PUT must pay one WAL sync, paid {indexed}"
        );
    }

    #[test]
    fn four_shards_beat_one_shard_at_eight_writers() {
        let s = run(Scale::smoke());
        // The ISSUE acceptance criterion: at 8 writers, 4 independent WALs
        // syncing in parallel must out-run one engine's single writer
        // queue, even though each shard forms smaller commit groups.
        let (one, four) = (cell(&s, "1", "8", "kops_s"), cell(&s, "4", "8", "kops_s"));
        assert!(
            four > one,
            "parallel per-shard syncs must beat one serialized queue: \
             4 shards {four} kops/s vs 1 shard {one} kops/s at 8 writers"
        );
        // Sharding wins by parallelism, not by skipping syncs: per-op sync
        // cost is higher (smaller groups), yet throughput is too.
        assert!(
            cell(&s, "4", "8", "mean_group") <= cell(&s, "1", "8", "mean_group"),
            "4 shards should split writers into smaller commit groups"
        );
    }
}
