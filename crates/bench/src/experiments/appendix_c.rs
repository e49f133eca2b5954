//! Appendix C: bloom-filter length sweep (C.1) and compression on/off
//! (C.2), plus the ablations DESIGN.md calls out (file-level-only zone
//! maps, full-GET validation) and the foreground-vs-background write tail.

use crate::harness::{fnum, LatencyStats, Series};
use crate::setup::{bench_opts, bench_stats, load_static, Scale};
use ldbpp_common::json::Value;
use ldbpp_core::{IndexKind, SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::compress::Compression;
use ldbpp_lsm::db::{Db, DbOptions};
use ldbpp_lsm::env::MemEnv;
use ldbpp_workload::{Operation, StaticQueries};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn open_with_opts(kind: IndexKind, opts: DbOptions) -> (Arc<MemEnv>, SecondaryDb) {
    let env = MemEnv::new();
    let db = SecondaryDb::open(
        env.clone() as Arc<dyn ldbpp_lsm::env::Env>,
        "db",
        SecondaryDbOptions {
            base: opts,
            ..Default::default()
        },
        &[("UserID", kind), ("CreationTime", kind)],
    )
    .unwrap();
    (env, db)
}

/// Appendix C.1: Embedded-Index LOOKUP cost as bloom bits-per-key varies.
pub fn bloom_sweep(scale: Scale) -> Series {
    let mut series = Series::new(
        "appc1",
        "Embedded LOOKUP vs bloom filter length (bits per key)",
        &[
            "bits_per_key",
            "mean_lookup_us",
            "blocks_per_op",
            "bloom_checks_per_op",
            "bloom_negative_rate",
        ],
    );
    for bits in [2usize, 5, 10, 15, 20] {
        let opts = DbOptions {
            bloom_bits_per_key: bits,
            ..bench_opts()
        };
        let (_env, db) = open_with_opts(IndexKind::Embedded, opts);
        let tweets = load_static(&db, scale.tweets, scale.seed);
        let mut queries = StaticQueries::new(&bench_stats(), &tweets, scale.seed + 5);
        let mut lat = LatencyStats::new();
        let before = db.primary_io();
        for _ in 0..scale.lookups {
            if let Operation::LookupUser { user, .. } = queries.lookup_user(Some(10)) {
                lat.time(|| db.lookup("UserID", &Value::str(user), Some(10)).unwrap());
            }
        }
        let io = db.primary_io().since(&before);
        let neg_rate = io.bloom_negatives as f64 / io.bloom_checks.max(1) as f64;
        series.push(vec![
            bits.to_string(),
            fnum(lat.mean_us()),
            fnum(io.block_reads as f64 / scale.lookups as f64),
            fnum(io.bloom_checks as f64 / scale.lookups as f64),
            fnum(neg_rate),
        ]);
    }
    series
}

/// Appendix C.2: compression on vs off — database size and query latency.
pub fn compression(scale: Scale) -> Series {
    let mut series = Series::new(
        "appc2",
        "Snaplite compression vs uncompressed blocks",
        &[
            "variant",
            "compression",
            "total_bytes",
            "mean_lookup_us",
            "blocks_per_op",
        ],
    );
    for kind in [IndexKind::Embedded, IndexKind::LazyStandalone] {
        for (label, compression) in [
            ("snaplite", Compression::Snaplite),
            ("none", Compression::None),
        ] {
            let opts = DbOptions {
                compression,
                ..bench_opts()
            };
            let (_env, db) = open_with_opts(kind, opts);
            let tweets = load_static(&db, scale.tweets, scale.seed);
            db.flush().unwrap();
            let mut queries = StaticQueries::new(&bench_stats(), &tweets, scale.seed + 6);
            let mut lat = LatencyStats::new();
            let before_p = db.primary_io();
            let before_i = db.index_io();
            for _ in 0..scale.lookups {
                if let Operation::LookupUser { user, .. } = queries.lookup_user(Some(10)) {
                    lat.time(|| db.lookup("UserID", &Value::str(user), Some(10)).unwrap());
                }
            }
            let blocks = db.primary_io().since(&before_p).block_reads
                + db.index_io().since(&before_i).block_reads;
            series.push(vec![
                kind.name().to_string(),
                label.to_string(),
                db.total_bytes().to_string(),
                fnum(lat.mean_us()),
                fnum(blocks as f64 / scale.lookups as f64),
            ]);
        }
    }
    series
}

/// Ablation: file-level-only zone maps (AsterixDB style) vs per-block zone
/// maps, on time-correlated range lookups — measured as blocks read with
/// block-level pruning disabled by querying with bloom-only paths.
///
/// Implemented by comparing the Embedded Index against a variant database
/// whose block size equals its file size (one block per file ⇒ block-level
/// zone maps degenerate to file-level ones).
pub fn zonemap_granularity(scale: Scale) -> Series {
    let mut series = Series::new(
        "abl_zonemap",
        "Ablation: per-block vs file-level-only zone maps (CreationTime ranges)",
        &["granularity", "blocks_per_op", "mean_us"],
    );
    for (label, opts) in [
        ("per-block", bench_opts()),
        (
            "file-level-only",
            DbOptions {
                // One block per file: the per-block zone map degenerates to
                // the file-level map, reproducing AsterixDB's coarser design.
                block_size: bench_opts().max_file_size,
                ..bench_opts()
            },
        ),
    ] {
        let (_env, db) = open_with_opts(IndexKind::Embedded, opts);
        let tweets = load_static(&db, scale.tweets, scale.seed);
        let mut queries = StaticQueries::new(&bench_stats(), &tweets, scale.seed + 10);
        let mut lat = LatencyStats::new();
        let before = db.primary_io();
        for _ in 0..scale.range_lookups {
            if let Operation::RangeTime { lo, hi, .. } =
                queries.range_time_fraction(0.005, Some(10))
            {
                lat.time(|| {
                    db.range_lookup("CreationTime", &Value::Int(lo), &Value::Int(hi), Some(10))
                        .unwrap()
                });
            }
        }
        let io = db.primary_io().since(&before);
        series.push(vec![
            label.to_string(),
            fnum(io.block_read_bytes as f64 / scale.range_lookups as f64),
            fnum(lat.mean_us()),
        ]);
    }
    series
}

/// Ablation: the three Embedded validity-check modes — the paper's
/// metadata-only `GetLite`, our confirmed variant (exact), and the
/// unoptimized full-GET baseline the paper compares against.
pub fn getlite_validation(scale: Scale) -> Series {
    use ldbpp_core::indexes::EmbeddedValidation;
    let mut series = Series::new(
        "abl_getlite",
        "Ablation: Embedded validity check — GetLite vs confirmed vs full GET",
        &["mode", "blocks_per_op", "mean_us", "hits_per_op"],
    );
    for (label, mode) in [
        ("getlite_only", EmbeddedValidation::GetLiteOnly),
        ("getlite_confirmed", EmbeddedValidation::GetLiteConfirmed),
        ("full_get", EmbeddedValidation::FullGet),
    ] {
        let db = SecondaryDb::open(
            MemEnv::new(),
            "db",
            SecondaryDbOptions {
                base: bench_opts(),
                embedded_validation: mode,
                ..Default::default()
            },
            &[("UserID", IndexKind::Embedded)],
        )
        .unwrap();
        let tweets = load_static(&db, scale.tweets, scale.seed);
        // Mix in updates so plenty of stale versions exist to invalidate.
        for t in tweets.iter().step_by(5) {
            db.put(&t.id, &crate::setup::doc_of(t)).unwrap();
        }
        let mut queries = StaticQueries::new(&bench_stats(), &tweets, scale.seed + 11);
        let mut lat = LatencyStats::new();
        let before = db.primary_io();
        let mut hits = 0usize;
        for _ in 0..scale.lookups {
            if let Operation::LookupUser { user, .. } = queries.lookup_user(Some(10)) {
                hits += lat
                    .time(|| db.lookup("UserID", &Value::str(user), Some(10)).unwrap())
                    .len();
            }
        }
        let io = db.primary_io().since(&before);
        series.push(vec![
            label.to_string(),
            fnum(io.block_reads as f64 / scale.lookups as f64),
            fnum(lat.mean_us()),
            fnum(hits as f64 / scale.lookups as f64),
        ]);
    }
    series
}

/// The Figure-12 buffer-cache effect: run the write-heavy mix with a
/// fixed-size block cache standing in for the OS page cache; as the
/// database outgrows it the hit rate collapses and per-op cost jumps —
/// the paper: "The inflection point occurs ... which is the RAM size".
pub fn cache_inflection(scale: Scale) -> Series {
    let mut series = Series::new(
        "abl_cache",
        "Block-cache (simulated OS page cache) inflection under write-heavy mix",
        &["ops", "db_bytes", "cache_hit_rate", "mean_op_us"],
    );
    let opts = DbOptions {
        // Cache sized to hold only the early database.
        block_cache_bytes: 256 << 10,
        ..bench_opts()
    };
    let db = SecondaryDb::open(
        MemEnv::new(),
        "db",
        SecondaryDbOptions {
            base: opts,
            ..Default::default()
        },
        &[("UserID", IndexKind::LazyStandalone)],
    )
    .unwrap();
    let mut workload = ldbpp_workload::MixedWorkload::new(
        ldbpp_workload::MixedKind::WriteHeavy,
        bench_stats(),
        scale.mixed_ops,
        Some(10),
        scale.seed,
    );
    let window = (scale.mixed_ops / 10).max(1);
    let mut done = 0;
    let mut last = db.primary_io();
    while done < scale.mixed_ops {
        let start = std::time::Instant::now();
        for _ in 0..window.min(scale.mixed_ops - done) {
            match workload.next_op() {
                Operation::Put(t) | Operation::Update(t) => {
                    db.put(&t.id, &crate::setup::doc_of(&t)).unwrap();
                }
                Operation::Get { key } => {
                    let _ = db.get(&key).unwrap();
                }
                Operation::LookupUser { user, k } => {
                    let _ = db.lookup("UserID", &Value::str(user), k).unwrap();
                }
                _ => {}
            }
            done += 1;
        }
        let mean_us = start.elapsed().as_secs_f64() * 1e6 / window as f64;
        let now = db.primary_io();
        let d = now.since(&last);
        last = now;
        let hit_rate = d.cache_hits as f64 / (d.cache_hits + d.block_reads).max(1) as f64;
        series.push(vec![
            done.to_string(),
            db.total_bytes().to_string(),
            fnum(hit_rate),
            fnum(mean_us),
        ]);
    }
    series
}

/// Beyond the paper: PUT and GET service times with flush and compaction
/// run inline (foreground) vs on the background pipeline, over a paced
/// 50/50 PUT/GET mix of 256-byte values. `DbOptions::small()` (16 KiB
/// memtable) flushes every ~60 puts, so well over 1 % of writes land on
/// maintenance work — the tail the pipeline takes off the write path.
pub fn background_tail(scale: Scale) -> Series {
    let mut series = Series::new(
        "abl_background",
        "PUT/GET service time: inline vs background flush/compaction (paced 50/50 mix)",
        &[
            "mode",
            "put_p50_us",
            "put_p99_us",
            "put_p999_us",
            "put_max_us",
            "get_p50_us",
            "get_p99_us",
            "ops_per_s",
        ],
    );
    // Warm-up pass so first-touch allocator costs skew neither mode.
    let _ = paced_mix(false, scale);
    for (label, background) in [("foreground", false), ("background", true)] {
        let (puts, gets, wall) = paced_mix(background, scale);
        series.push(vec![
            label.to_string(),
            fnum(puts.percentile_us(0.50)),
            fnum(puts.percentile_us(0.99)),
            fnum(puts.percentile_us(0.999)),
            fnum(puts.percentile_us(1.0)),
            fnum(gets.percentile_us(0.50)),
            fnum(gets.percentile_us(0.99)),
            fnum(scale.mixed_ops as f64 / wall.as_secs_f64()),
        ]);
    }
    series
}

/// One [`background_tail`] run: `scale.mixed_ops` operations arriving at
/// a fixed rate, returning PUT and GET service times and the wall time
/// to a settled tree.
fn paced_mix(background: bool, scale: Scale) -> (LatencyStats, LatencyStats, Duration) {
    const VALUE_BYTES: usize = 256;
    const GET_FRACTION: f64 = 0.5;
    // At full closed-loop speed a single writer can never outrun the
    // worker on an in-memory env (maintenance is ~2-3x the write work per
    // byte), so both modes converge on the same maintenance-bound tail;
    // real deployments run at a target rate, and that is where the
    // pipeline pays off. 50k ops/s leaves the worker ~3x headroom.
    const TARGET_OPS_PER_SEC: u64 = 50_000;
    let opts = DbOptions {
        background_work: background,
        ..DbOptions::small()
    };
    let db = Db::open(MemEnv::new(), "db", opts).unwrap();
    let mut rng = StdRng::seed_from_u64(scale.seed);
    let (mut puts, mut gets) = (LatencyStats::new(), LatencyStats::new());
    let value = vec![b'v'; VALUE_BYTES];
    let mut next_key = 0u64;
    let period = Duration::from_nanos(1_000_000_000 / TARGET_OPS_PER_SEC);
    let start = Instant::now();
    let mut slot = start;
    for _ in 0..scale.mixed_ops {
        // Pace by yielding, not spinning: idle time between arrivals is
        // CPU the background worker can use (essential on small hosts).
        while Instant::now() < slot {
            std::thread::yield_now();
        }
        slot += period;
        if next_key > 0 && rng.random::<f64>() < GET_FRACTION {
            let key = format!("k{:08}", rng.random_range(0..next_key));
            let found = gets.time(|| db.get(key.as_bytes()).unwrap());
            assert!(found.is_some(), "acknowledged key {key} must be readable");
        } else {
            let key = format!("k{next_key:08}");
            puts.time(|| db.put(key.as_bytes(), &value).unwrap());
            next_key += 1;
        }
    }
    // Charge outstanding background work to wall time so throughput
    // compares settled trees.
    db.wait_for_background_idle().unwrap();
    (puts, gets, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_bloom_bits_fewer_block_reads() {
        let s = bloom_sweep(Scale::smoke());
        let blocks = |bits: &str| s.value(|r| r[0] == bits, "blocks_per_op").unwrap();
        assert!(
            blocks("2") > blocks("20"),
            "2 bits ({}) should read more blocks than 20 bits ({})",
            blocks("2"),
            blocks("20")
        );
        let neg = |bits: &str| s.value(|r| r[0] == bits, "bloom_negative_rate").unwrap();
        assert!(neg("20") > neg("2"), "longer filters reject more probes");
    }

    #[test]
    fn compression_shrinks_databases() {
        let s = compression(Scale::smoke());
        for kind in ["Embedded", "Lazy"] {
            let size = |c: &str| {
                s.value(|r| r[0] == kind && r[1] == c, "total_bytes")
                    .unwrap()
            };
            assert!(
                size("snaplite") < size("none"),
                "{kind}: compressed {} < raw {}",
                size("snaplite"),
                size("none")
            );
        }
    }

    #[test]
    fn getlite_saves_io_over_full_get() {
        let s = getlite_validation(Scale::smoke());
        let blocks = |m: &str| s.value(|r| r[0] == m, "blocks_per_op").unwrap();
        let hits = |m: &str| s.value(|r| r[0] == m, "hits_per_op").unwrap();
        assert!(
            blocks("getlite_only") <= blocks("full_get"),
            "GetLite ({}) must not read more than full GET ({})",
            blocks("getlite_only"),
            blocks("full_get")
        );
        // Confirmed mode returns exactly as many hits as the exact baseline.
        assert!((hits("getlite_confirmed") - hits("full_get")).abs() < 1e-9);
        // Pure GetLite may lose a few hits to bloom false positives but
        // never gains any.
        assert!(hits("getlite_only") <= hits("full_get") + 1e-9);
    }

    #[test]
    fn cache_hit_rate_degrades_as_db_outgrows_cache() {
        let s = cache_inflection(Scale::smoke());
        let first: f64 = s.rows[1][2].parse().unwrap();
        let last: f64 = s.rows.last().unwrap()[2].parse().unwrap();
        assert!(
            last < first,
            "hit rate should fall as the db outgrows the cache: {first} -> {last}"
        );
    }

    #[test]
    fn background_tail_reads_every_acked_key_in_both_modes() {
        // `paced_mix` asserts each GET finds its acknowledged key.
        let s = background_tail(Scale::smoke());
        let modes: Vec<&str> = s.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(modes, ["foreground", "background"]);
    }

    #[test]
    fn per_block_zone_maps_read_fewer_bytes() {
        let s = zonemap_granularity(Scale::smoke());
        let per_block = s.value(|r| r[0] == "per-block", "blocks_per_op").unwrap();
        let file_only = s
            .value(|r| r[0] == "file-level-only", "blocks_per_op")
            .unwrap();
        assert!(
            per_block < file_only,
            "finer zone maps must reduce bytes read: {per_block} vs {file_only}"
        );
    }
}
