//! Figures 10 and 11: LOOKUP and RANGELOOKUP response times by variant,
//! top-K and selectivity — for the non-time-correlated `UserID` index
//! (Fig 10) and the time-correlated `CreationTime` index (Fig 11).

use crate::harness::{fnum, LatencyStats, Series};
use crate::setup::{bench_opts, bench_stats, load_static, Scale, VARIANTS};
use ldbpp_common::json::Value;
use ldbpp_core::{IndexKind, SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::env::{IoSnapshot, MemEnv};
use ldbpp_workload::{Operation, StaticQueries, Tweet};

/// The paper's top-K settings: small, medium, unlimited.
pub const TOPKS: [Option<usize>; 3] = [Some(1), Some(10), None];

struct VariantDb {
    kind_name: String,
    db: SecondaryDb,
    tweets: Vec<Tweet>,
}

fn build_all(scale: Scale, include_eager: bool, include_noindex: bool) -> Vec<VariantDb> {
    let mut out = Vec::new();
    let mut kinds: Vec<(String, IndexKind)> = Vec::new();
    if include_noindex {
        kinds.push(("NoIndex".into(), IndexKind::None));
    }
    for kind in VARIANTS {
        if kind == IndexKind::EagerStandalone && !include_eager {
            continue;
        }
        kinds.push((kind.name().into(), kind));
    }
    for (name, kind) in kinds {
        let db = SecondaryDb::open(
            MemEnv::new(),
            "db",
            SecondaryDbOptions {
                base: bench_opts(),
                ..Default::default()
            },
            &[("UserID", kind), ("CreationTime", kind)],
        )
        .unwrap();
        let tweets = load_static(&db, scale.tweets, scale.seed);
        out.push(VariantDb {
            kind_name: name,
            db,
            tweets,
        });
    }
    out
}

fn total_io(db: &SecondaryDb) -> IoSnapshot {
    db.primary_io() + db.index_io()
}

fn push_measurement(
    series: &mut Series,
    variant: &str,
    query: &str,
    topk_label: &str,
    lat: &LatencyStats,
    io: IoSnapshot,
    ops: usize,
) {
    let b = lat.summary();
    series.push(vec![
        variant.to_string(),
        query.to_string(),
        topk_label.to_string(),
        fnum(b.min),
        fnum(b.p25),
        fnum(b.median),
        fnum(b.p75),
        fnum(b.max),
        fnum(b.mean),
        fnum(io.block_reads as f64 / ops.max(1) as f64),
        fnum(io.bloom_checks as f64 / ops.max(1) as f64),
    ]);
}

const HEADERS: [&str; 11] = [
    "variant",
    "query",
    "topk",
    "min_us",
    "p25_us",
    "median_us",
    "p75_us",
    "max_us",
    "mean_us",
    "blocks_per_op",
    "bloom_checks_per_op",
];

fn topk_label(k: Option<usize>) -> String {
    match k {
        Some(k) => k.to_string(),
        None => "all".to_string(),
    }
}

/// Figure 10(a): `LOOKUP(UserID, u, K)` latencies.
pub fn fig10_lookup(scale: Scale) -> Series {
    let mut series = Series::new("fig10a", "UserID LOOKUP response time by top-K", &HEADERS);
    for v in build_all(scale, false, true) {
        for k in TOPKS {
            let mut queries = StaticQueries::new(&bench_stats(), &v.tweets, scale.seed + 7);
            let mut lat = LatencyStats::new();
            let before = total_io(&v.db);
            // The NoIndex full scan is orders of magnitude slower; sample
            // fewer queries for it, like the paper's smaller NoIndex runs.
            let n = if v.kind_name == "NoIndex" {
                (scale.lookups / 10).max(3)
            } else {
                scale.lookups
            };
            for _ in 0..n {
                if let Operation::LookupUser { user, .. } = queries.lookup_user(k) {
                    lat.time(|| v.db.lookup("UserID", &Value::str(user), k).unwrap());
                }
            }
            let io = total_io(&v.db).since(&before);
            push_measurement(
                &mut series,
                &v.kind_name,
                "lookup",
                &topk_label(k),
                &lat,
                io,
                n,
            );
        }
    }
    series
}

/// Figures 10(b)(c): `RANGELOOKUP(UserID, ..)` for two selectivities
/// (10 and 100 users).
pub fn fig10_rangelookup(scale: Scale) -> Series {
    let mut series = Series::new(
        "fig10bc",
        "UserID RANGELOOKUP response time by selectivity and top-K",
        &HEADERS,
    );
    for v in build_all(scale, false, true) {
        for span in [10usize, 100] {
            for k in TOPKS {
                let mut queries = StaticQueries::new(&bench_stats(), &v.tweets, scale.seed + 8);
                let mut lat = LatencyStats::new();
                let before = total_io(&v.db);
                let n = if v.kind_name == "NoIndex" {
                    (scale.range_lookups / 5).max(2)
                } else {
                    scale.range_lookups
                };
                for _ in 0..n {
                    if let Operation::RangeUsers { lo, hi, .. } = queries.range_users(span, k) {
                        lat.time(|| {
                            v.db.range_lookup("UserID", &Value::str(lo), &Value::str(hi), k)
                                .unwrap()
                        });
                    }
                }
                let io = total_io(&v.db).since(&before);
                push_measurement(
                    &mut series,
                    &v.kind_name,
                    &format!("range_{span}_users"),
                    &topk_label(k),
                    &lat,
                    io,
                    n,
                );
            }
        }
    }
    series
}

/// Figure 11(a): `LOOKUP(CreationTime, t, K)` (time-correlated; Eager
/// included as in the paper).
pub fn fig11_lookup(scale: Scale) -> Series {
    let mut series = Series::new(
        "fig11a",
        "CreationTime LOOKUP response time by top-K",
        &HEADERS,
    );
    for v in build_all(scale, true, true) {
        for k in TOPKS {
            let mut lat = LatencyStats::new();
            let before = total_io(&v.db);
            // Look up exact seconds that exist in the data.
            let step = (v.tweets.len() / scale.lookups.max(1)).max(1);
            let mut n = 0;
            for t in v.tweets.iter().step_by(step).take(scale.lookups) {
                let ts = Value::Int(t.creation_time);
                lat.time(|| v.db.lookup("CreationTime", &ts, k).unwrap());
                n += 1;
            }
            let io = total_io(&v.db).since(&before);
            push_measurement(
                &mut series,
                &v.kind_name,
                "lookup",
                &topk_label(k),
                &lat,
                io,
                n,
            );
        }
    }
    series
}

/// Figures 11(b)(c): `RANGELOOKUP(CreationTime, ..)` for 1-minute and
/// 10-minute windows.
pub fn fig11_rangelookup(scale: Scale) -> Series {
    let mut series = Series::new(
        "fig11bc",
        "CreationTime RANGELOOKUP response time by selectivity and top-K",
        &HEADERS,
    );
    for v in build_all(scale, true, true) {
        // Selectivity as a fraction of the stream's time span, so the
        // paper's narrow/wide split survives dataset rescaling.
        for (sel_label, fraction) in [("narrow_0.5pct", 0.005f64), ("wide_5pct", 0.05)] {
            for k in TOPKS {
                let mut queries = StaticQueries::new(&bench_stats(), &v.tweets, scale.seed + 9);
                let mut lat = LatencyStats::new();
                let before = total_io(&v.db);
                for _ in 0..scale.range_lookups {
                    if let Operation::RangeTime { lo, hi, .. } =
                        queries.range_time_fraction(fraction, k)
                    {
                        lat.time(|| {
                            v.db.range_lookup("CreationTime", &Value::Int(lo), &Value::Int(hi), k)
                                .unwrap()
                        });
                    }
                }
                let io = total_io(&v.db).since(&before);
                push_measurement(
                    &mut series,
                    &v.kind_name,
                    &format!("range_{sel_label}"),
                    &topk_label(k),
                    &lat,
                    io,
                    scale.range_lookups,
                );
            }
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(s: &Series, variant: &str, query: &str, topk: &str) -> f64 {
        s.value(
            |r| r[0] == variant && r[1] == query && r[2] == topk,
            "blocks_per_op",
        )
        .unwrap()
    }

    #[test]
    fn fig10_shapes() {
        let s = fig10_lookup(Scale::smoke());
        // Small top-K: Lazy stops at the first level with K results, while
        // Embedded must finish scanning a whole level and Composite must
        // traverse everything.
        let emb1 = blocks(&s, "Embedded", "lookup", "1");
        let lazy1 = blocks(&s, "Lazy", "lookup", "1");
        let comp1 = blocks(&s, "Composite", "lookup", "1");
        // At smoke scale both can bottom out at the same sub-block cost, so
        // ties are allowed; Lazy must never be *worse*.
        assert!(
            lazy1 <= emb1,
            "Lazy K=1 ({lazy1}) should not lose to Embedded K=1 ({emb1})"
        );
        assert!(
            comp1 >= lazy1,
            "Composite K=1 ({comp1}) ≥ Lazy K=1 ({lazy1})"
        );
        // Lazy's cost grows with K (more validation GETs).
        let lazy_all = blocks(&s, "Lazy", "lookup", "all");
        assert!(lazy1 <= lazy_all + 0.5);
        // NoIndex reads everything; any index beats it at K=1.
        let noindex1 = blocks(&s, "NoIndex", "lookup", "1");
        assert!(noindex1 > lazy1 && noindex1 > emb1);
    }

    #[test]
    fn fig11_zone_maps_prune_time_ranges() {
        let s = fig11_rangelookup(Scale::smoke());
        let emb = blocks(&s, "Embedded", "range_narrow_0.5pct", "all");
        let noindex = blocks(&s, "NoIndex", "range_narrow_0.5pct", "all");
        assert!(
            emb < noindex / 4.0,
            "time-correlated zone maps must prune: embedded {emb} vs noindex {noindex}"
        );
    }
}
