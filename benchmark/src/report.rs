//! What a run prints and writes: the self-describing result document, the
//! metric table, the one-line result the benchmark contract asks for, and
//! the comparison of two result documents.

use crate::config::{self, opts_to_json, Counts, Workload};
use crate::metrics::{Better, Metrics, END_TO_END};
use crate::stats::{highest_supported, median, quartiles};
use ldbpp_common::json::Value;
use ldbpp_common::{Error, Result};
use std::fmt::Write as _;
use std::process::Command;

/// Everything measured on one workload in one run.
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// End-to-end metrics (an untraced run) — or none in a traced run.
    pub end_to_end: Option<Metrics>,
    /// Per-layer metrics (a traced run) — or none in an untraced run.
    pub per_layer: Option<Metrics>,
    /// Operations run and checked.
    pub attempted: u64,
    /// Operations failed, refused, mismatched or lost.
    pub failed: u64,
    /// The first few failures, verbatim.
    pub errors: Vec<String>,
    /// Wall time of the measured phases, all repetitions together.
    pub measured_s: f64,
}

impl WorkloadResult {
    /// The metrics this run reports: end-to-end when untraced, per-layer
    /// when traced.
    pub fn metrics(&self) -> &Metrics {
        self.end_to_end
            .as_ref()
            .or(self.per_layer.as_ref())
            .expect("a run measures one of the two")
    }

    /// The last line of a single-workload run: one JSON object with
    /// exactly the keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics().iter().map(|(name, m)| {
            (
                *name,
                Value::object([
                    ("value", Value::Float(m.value)),
                    ("unit", Value::str(m.unit)),
                ]),
            )
        });
        Value::object([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("metrics", Value::object(metrics)),
        ])
        .to_json()
    }

    fn to_json(&self) -> Value {
        let section = |m: &Option<Metrics>| match m {
            Some(metrics) => Value::object(metrics.iter().map(|(n, m)| (*n, m.to_json()))),
            None => Value::Null,
        };
        let spec = self.workload.spec();
        Value::object([
            ("env", Value::str(spec.env.name())),
            ("options", opts_to_json(&spec.opts)),
            ("shards", Value::Int(spec.shards as i64)),
            ("threads", Value::Int(spec.threads as i64)),
            ("wire", Value::Bool(spec.wire)),
            ("one_cpu", Value::Bool(spec.one_cpu)),
            (
                "indexes",
                Value::object(
                    spec.indexes
                        .iter()
                        .map(|(attr, kind)| (*attr, Value::str(kind.name()))),
                ),
            ),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            (
                "failed_frac",
                Value::Float(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "errors",
                Value::Array(self.errors.iter().map(Value::str).collect()),
            ),
            ("measured_s", Value::Float(self.measured_s)),
            ("end_to_end", section(&self.end_to_end)),
            ("per_layer", section(&self.per_layer)),
        ])
    }

    /// The metric table of this workload, one line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} — {} checked, {} failed, {:.1} s measured ==",
            self.workload.name(),
            self.attempted,
            self.failed,
            self.measured_s
        );
        for (name, m) in self.metrics() {
            let _ = write!(out, "  {name:<42} {:>14.4} {:<8}", m.value, m.unit);
            if m.per_rep.len() > 1 {
                let _ = write!(
                    out,
                    " min {:.4} max {:.4} over {} reps",
                    m.min,
                    m.max,
                    m.per_rep.len()
                );
            }
            if m.samples > 0 {
                let _ = write!(out, " n={}", m.samples);
            }
            if !m.supported {
                let p = highest_supported(m.samples as usize) * 100.0;
                let _ = write!(out, " (fewer than 10 samples beyond; n supports p{p})");
            }
            out.push('\n');
        }
        for e in &self.errors {
            let _ = writeln!(out, "  FAILED: {e}");
        }
        out
    }
}

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a reader needs to know about the host and the settings to judge
/// the numbers: the gap the hand-written TSVs left.
pub fn header(seed: u64, seconds: f64, counts: Counts, quick: bool, traced: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::object([
        ("nproc", Value::Int(nproc as i64)),
        (
            "git_rev",
            Value::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::str(first_line_of("rustc", &["--version"]))),
        ("seed", Value::Int(seed as i64)),
        ("seconds", Value::Float(seconds)),
        ("quick", Value::Bool(quick)),
        ("traced", Value::Bool(traced)),
        ("counts", counts.to_json()),
        ("top_k", Value::Int(config::TOP_K as i64)),
        ("user_span", Value::Int(config::USER_SPAN as i64)),
        ("time_span_s", Value::Int(config::TIME_SPAN_S)),
        (
            "sync_delay_us",
            Value::Int(config::SYNC_DELAY.as_micros() as i64),
        ),
        (
            "trace_sample_every",
            Value::Int(config::TRACE_SAMPLE_EVERY as i64),
        ),
        (
            "tweet_bytes",
            Value::Int(config::tweet_stats().avg_tweet_bytes as i64),
        ),
    ])
}

/// The whole result document.
pub fn document(header: Value, results: &[WorkloadResult]) -> Value {
    Value::object([
        ("header", header),
        (
            "workloads",
            Value::object(results.iter().map(|r| (r.workload.name(), r.to_json()))),
        ),
    ])
}

// -- compare ---------------------------------------------------------------

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound, and the runs are steady enough to say so.
    Ok,
    /// Worse by more than the bound and by more than the spread.
    Regressed,
    /// The runs' own uncertainty is wider than the bound or than the
    /// difference: they can show neither "unchanged" nor "regressed".
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

/// Judge one pair: `worse` is [`worsening`], `spread` the wider of the two
/// runs' [`uncertainty`].
pub fn judge(worse: f64, spread: f64, bound: f64) -> Verdict {
    if worse > bound {
        if worse > spread {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// How far a run's value can be trusted, as a share of it: the
/// interquartile range of its repetitions over the square root of their
/// number — a yardstick from inside one run (the spread between runs is
/// `spread`'s to measure). 0 for a single repetition.
pub fn uncertainty(value: f64, per_rep: &[f64]) -> f64 {
    match quartiles(per_rep) {
        Some((q1, q3)) if value != 0.0 => (q3 - q1) / (per_rep.len() as f64).sqrt() / value.abs(),
        _ => 0.0,
    }
}

fn read_measured(v: &Value) -> Option<(f64, Vec<f64>)> {
    let value = v.get("value")?.as_f64()?;
    let per_rep = v.get("per_rep")?.as_array()?;
    let per_rep = per_rep.iter().map(Value::as_f64).collect::<Option<_>>()?;
    Some((value, per_rep))
}

/// The end-to-end section of workload `w` in a result document; `None`
/// when the document is of a run that did not measure it.
fn end_to_end_section(doc: &Value, w: Workload) -> Option<&Value> {
    doc.get("workloads")?
        .get(w.name())?
        .get("end_to_end")
        .filter(|e| **e != Value::Null)
}

fn read_metric(section: &Value, w: Workload, name: &str) -> Result<(f64, Vec<f64>)> {
    section
        .get(name)
        .and_then(read_measured)
        .ok_or_else(|| Error::corruption(format!("{}: no metric {name}", w.name())))
}

/// Compare two result documents: one row per (workload, end-to-end
/// metric). Returns the table and whether any pair regressed.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool)> {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<13} {:<20} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse%", "bound%", "spread%"
    );
    for w in Workload::ALL {
        let (Some(ea), Some(eb)) = (end_to_end_section(a, w), end_to_end_section(b, w)) else {
            continue;
        };
        for def in &END_TO_END {
            let (va, ra) = read_metric(ea, w, def.name)?;
            let (vb, rb) = read_metric(eb, w, def.name)?;
            let worse = worsening(va, vb, def.better);
            let spread = uncertainty(va, &ra).max(uncertainty(vb, &rb));
            let verdict = judge(worse, spread, def.bound);
            regressed |= verdict == Verdict::Regressed;
            // A count is the first repetition's: equal seeds must agree.
            let note = if def.unit == "ratio" && va == vb {
                " (identical)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<13} {:<20} {:>12.4} {:>12.4} {:>+8.2} {:>7.1} {:>7.2}  {}{note}",
                w.name(),
                def.name,
                va,
                vb,
                worse * 100.0,
                def.bound * 100.0,
                spread * 100.0,
                verdict.name()
            );
        }
        let failed = |doc: &Value| {
            doc.get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .and_then(|r| r.get("failed"))
                .and_then(Value::as_int)
                .unwrap_or(0)
        };
        let (fa, fb) = (failed(a), failed(b));
        let verdict = if fa == 0 && fb == 0 {
            Verdict::Ok
        } else {
            regressed = true;
            Verdict::Regressed
        };
        let _ = writeln!(
            out,
            "{:<13} {:<20} {:>12} {:>12} {:>8} {:>7} {:>7}  {}",
            w.name(),
            "failed",
            fa,
            fb,
            "",
            "0",
            "",
            verdict.name()
        );
    }
    Ok((out, regressed))
}

// -- spread ----------------------------------------------------------------

/// Run-to-run spread of every end-to-end metric over the result documents
/// of several runs of one commit, each with another seed, the way the
/// benchmark contract measures it: the distance between the first and the
/// third quartile of the runs' values as a share of their median. One row
/// per (workload, metric); `!` marks a spread above a third of the
/// metric's bound, `!!` one above the bound. Returns the table and whether
/// any spread exceeds its bound (`setup_s` aside: the contract gates its
/// median only).
pub fn spread(docs: &[Value]) -> Result<(String, bool)> {
    let mut out = String::new();
    let mut too_wide = false;
    let _ = writeln!(
        out,
        "{:<13} {:<20} {:>12} {:>8} {:>7}  over {} runs",
        "workload",
        "metric",
        "median",
        "spread%",
        "bound%",
        docs.len()
    );
    for w in Workload::ALL {
        let sections: Vec<&Value> = docs
            .iter()
            .filter_map(|d| end_to_end_section(d, w))
            .collect();
        if sections.len() != docs.len() {
            continue;
        }
        for def in &END_TO_END {
            let values = sections
                .iter()
                .map(|e| read_metric(e, w, def.name).map(|(value, _)| value))
                .collect::<Result<Vec<f64>>>()?;
            let (q1, q3) = quartiles(&values)
                .ok_or_else(|| Error::invalid("spread needs at least two result files"))?;
            let mid = median(&values);
            let spread = (q3 - q1) / mid.abs();
            let mark = if spread > def.bound {
                too_wide |= def.name != "setup_s";
                "!!"
            } else if spread > def.bound / 3.0 {
                "!"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<13} {:<20} {:>12.4} {:>8.2} {:>7.1}  {mark}",
                w.name(),
                def.name,
                mid,
                spread * 100.0,
                def.bound * 100.0,
            );
        }
    }
    Ok((out, too_wide))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Measured;

    fn fixed(value: f64, min: f64, max: f64) -> Measured {
        Measured {
            value,
            unit: "us",
            min,
            max,
            per_rep: vec![min, value, max],
            samples: 1000,
            supported: true,
        }
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn verdicts() {
        // Within the bound, steady runs.
        assert_eq!(judge(0.05, 0.02, 0.10), Verdict::Ok);
        // An improvement is never a regression.
        assert_eq!(judge(-0.50, 0.02, 0.10), Verdict::Ok);
        // Beyond the bound and beyond the spread.
        assert_eq!(judge(0.20, 0.05, 0.10), Verdict::Regressed);
        // Beyond the bound, but the runs themselves spread wider.
        assert_eq!(judge(0.20, 0.30, 0.10), Verdict::Unresolved);
        // Within the bound, but too noisy to call unchanged.
        assert_eq!(judge(0.01, 0.30, 0.10), Verdict::Unresolved);
        // Exact counts: any difference beyond the bound regresses.
        assert_eq!(judge(0.02, 0.0, 0.01), Verdict::Regressed);
        assert_eq!(judge(0.0, 0.0, 0.01), Verdict::Ok);
    }

    fn result(put_p50: Measured) -> WorkloadResult {
        let mut metrics = Metrics::new();
        for def in &END_TO_END {
            metrics.insert(def.name, fixed(10.0, 9.99, 10.01));
        }
        metrics.insert("put_p50_us", put_p50);
        WorkloadResult {
            workload: Workload::StaticLoad,
            end_to_end: Some(metrics),
            per_layer: None,
            attempted: 100,
            failed: 0,
            errors: Vec::new(),
            measured_s: 1.0,
        }
    }

    #[test]
    fn result_document_round_trips_and_compares() {
        let head = header(42, 10.0, Counts::FULL, false, false);
        let a = document(head.clone(), &[result(fixed(10.0, 9.9, 10.1))]);
        let b = document(head, &[result(fixed(13.0, 12.9, 13.1))]);
        // Round trip through text.
        let reparsed = Value::parse(&a.to_json()).unwrap();
        assert_eq!(reparsed, a);
        let put = reparsed
            .get("workloads")
            .and_then(|w| w.get("static_load"))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|e| e.get("put_p50_us"))
            .unwrap();
        assert_eq!(read_measured(put), Some((10.0, vec![9.9, 10.0, 10.1])));
        assert_eq!(
            reparsed.get("header").and_then(|h| h.get("seed")),
            Some(&Value::Int(42))
        );

        let (same, regressed) = compare(&a, &a).unwrap();
        assert!(!regressed, "{same}");
        let (table, regressed) = compare(&a, &b).unwrap();
        assert!(regressed);
        let row = table.lines().find(|l| l.contains("put_p50_us")).unwrap();
        assert!(row.ends_with("regressed"), "{row}");
        let row = table.lines().find(|l| l.contains("write_amp")).unwrap();
        assert!(row.ends_with("ok (identical)"), "{row}");
        assert_eq!(table.matches("regressed").count(), 1, "{table}");
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        // put_p50_us reads 1..=10 over ten runs: quartiles 2.75 and 8.25,
        // median 5.5, spread 1.0 — beyond its bound. Every other metric
        // reads the same in all ten.
        let head = header(42, 10.0, Counts::FULL, false, false);
        let docs: Vec<Value> = (1..=10)
            .map(|i| {
                let v = f64::from(i);
                document(head.clone(), &[result(fixed(v, v, v))])
            })
            .collect();
        let (table, too_wide) = spread(&docs).unwrap();
        assert!(too_wide, "{table}");
        let row = table.lines().find(|l| l.contains("put_p50_us")).unwrap();
        assert!(row.contains("5.5000") && row.contains("100.00"), "{row}");
        assert!(row.ends_with("!!"), "{row}");
        assert_eq!(table.matches('!').count(), 2, "{table}");

        let steady: Vec<Value> = docs.iter().take(1).cycle().take(4).cloned().collect();
        let (table, too_wide) = spread(&steady).unwrap();
        assert!(!too_wide && !table.contains('!'), "{table}");
        assert!(spread(&docs[..1]).is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = result(fixed(10.0, 9.9, 10.1)).contract_line();
        assert!(!line.contains('\n'));
        let v = Value::parse(&line).unwrap();
        let Value::Object(map) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let metrics = v.get("metrics").unwrap();
        for def in &END_TO_END {
            let m = metrics.get(def.name).expect(def.name);
            assert!(m.get("value").and_then(Value::as_f64).is_some());
            assert!(m.get("unit").and_then(Value::as_str).is_some());
        }
    }
}
