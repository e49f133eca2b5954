//! Shared experiment setup: database variants, scaled options, loading.

use ldbpp_core::{Document, IndexKind, SecondaryDb};
use ldbpp_lsm::db::DbOptions;
use ldbpp_workload::{SeedStats, Tweet, TweetGenerator};

/// The five index variants of the paper's figures (plus the NoIndex
/// baseline where applicable).
pub const VARIANTS: [IndexKind; 4] = [
    IndexKind::Embedded,
    IndexKind::EagerStandalone,
    IndexKind::LazyStandalone,
    IndexKind::CompositeStandalone,
];

/// Variants excluding Eager — "we already found out it is unusable for
/// high write amplification" (§5.2.1), matching the figures that drop it.
pub const VARIANTS_NO_EAGER: [IndexKind; 3] = [
    IndexKind::Embedded,
    IndexKind::LazyStandalone,
    IndexKind::CompositeStandalone,
];

/// Experiment scale: how many tweets the static load phase inserts and how
/// many queries each phase runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Static dataset size (paper: 80 M; default here: laptop-scale).
    pub tweets: usize,
    /// GET operations per measurement.
    pub gets: usize,
    /// LOOKUP operations per (variant, top-K) cell.
    pub lookups: usize,
    /// RANGELOOKUP operations per cell.
    pub range_lookups: usize,
    /// Mixed-workload total operations.
    pub mixed_ops: usize,
    /// RNG seed for determinism.
    pub seed: u64,
}

impl Scale {
    /// Fast smoke-test scale (seconds).
    pub fn smoke() -> Scale {
        Scale {
            tweets: 6_000,
            gets: 300,
            lookups: 40,
            range_lookups: 15,
            mixed_ops: 8_000,
            seed: 42,
        }
    }

    /// Default laptop scale (a few minutes for the full suite).
    pub fn default_scale() -> Scale {
        Scale {
            tweets: 40_000,
            gets: 2_000,
            lookups: 150,
            range_lookups: 40,
            mixed_ops: 50_000,
            seed: 42,
        }
    }
}

/// DB sizing for experiments: small blocks and buffers so the configured
/// record volume still builds a multi-level tree (the paper's behaviours
/// all require one).
pub fn bench_opts() -> DbOptions {
    DbOptions {
        block_size: 1024,
        write_buffer_size: 64 << 10,
        max_file_size: 32 << 10,
        base_level_bytes: 256 << 10,
        l0_compaction_trigger: 4,
        ..DbOptions::small()
    }
}

/// Seed statistics used by every experiment (compact records so runtimes
/// stay laptop-friendly; distribution shapes unchanged).
pub fn bench_stats() -> SeedStats {
    SeedStats::compact()
}

/// Convert a generated tweet to its stored document.
pub fn doc_of(tweet: &Tweet) -> Document {
    Document::from_value(tweet.document()).expect("tweet doc")
}

/// Insert `n` synthetic tweets, returning them for query generation.
pub fn load_static(db: &SecondaryDb, n: usize, seed: u64) -> Vec<Tweet> {
    let mut generator = TweetGenerator::new(bench_stats(), n, seed);
    let tweets = generator.take(n);
    for t in &tweets {
        db.put(&t.id, &doc_of(t)).expect("static load put");
    }
    tweets
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldbpp_common::json::Value;

    #[test]
    fn build_and_load_all_variants() {
        for kind in VARIANTS {
            let db = SecondaryDb::open_in_memory(
                bench_opts(),
                &[("UserID", kind), ("CreationTime", kind)],
            )
            .unwrap();
            let tweets = load_static(&db, 300, 1);
            assert_eq!(tweets.len(), 300);
            let hits = db
                .lookup("UserID", &Value::str(tweets[0].user.clone()), Some(1))
                .unwrap();
            assert!(!hits.is_empty(), "{kind}");
        }
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::smoke().tweets < Scale::default_scale().tweets);
    }
}
