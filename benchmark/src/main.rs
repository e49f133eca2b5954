//! The repo benchmark: four paper-shaped workloads, end-to-end metrics
//! with tracing off, per-layer attribution in a separate traced run. See
//! `benchmark/README.md`.

mod affinity;
mod config;
mod layers;
mod metrics;
mod ops;
mod oracle;
mod report;
mod run;
mod stats;
mod store;
mod trace;

use config::{Counts, Workload};
use ldbpp_common::json::Value;
use ldbpp_common::{Error, Result};
use report::WorkloadResult;
use run::{run_rep, Mode, Rep};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Seconds one run takes when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;

/// The seed of a run without `--seed`. Claims must also hold on 1337,
/// which is never used while a change is being written.
const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
              [--quick] [--out DIR]
       run.sh compare A.json B.json
       run.sh spread RESULT.json RESULT.json...

--trace 1 (or its alias --traced) is the separate traced run with the
per-layer numbers. Every run writes DIR/result.json (DIR/result_traced.json
and DIR/trace.json when traced; DIR defaults to benchmark/out). Without
--workload every workload runs. With it, the last line printed is one JSON
object: correct, attempted, failed, metrics.
compare: two runs, one row per (workload, end-to-end metric).
spread: run-to-run spread of each metric over runs with different seeds.
Workloads: static_load static_query net_mixed durable_put";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| Error::invalid(format!("{flag} needs a value")))
        };
        let bad = |what: &str, v: &str| Error::invalid(format!("bad {what} '{v}'"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                parsed.workload = Some(Workload::parse(v).ok_or_else(|| bad("workload", v))?);
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| bad("seed", v))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v.parse().map_err(|_| bad("seconds", v))?;
            }
            "--trace" => {
                let v = value()?;
                parsed.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace", v)),
                };
            }
            "--traced" => parsed.traced = true,
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(Error::invalid(format!("unknown argument '{other}'"))),
        }
    }
    Ok(parsed)
}

/// The seed of repetition `rep` of a run seeded `seed`: the run's own for
/// the first, a splitmix64 step away for each later one.
///
/// Every repetition gets data of its own because some metrics depend on
/// the shape the LSM tree happens to be in when the load ends (which few
/// users' LOOKUPs must descend to a large posting list decides the tail of
/// LOOKUP): with one dataset per run that luck is the whole run's; with one
/// per repetition, pooling the repetitions averages it.
fn rep_seed(seed: u64, rep: u64) -> u64 {
    if rep == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add(rep.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The repetition index whose seed the warm-up runs on.
const WARM_UP: u64 = u64::MAX;

/// A run of `seconds` of wall time, set-up included: one warm-up
/// repetition whose timings are thrown away (the allocator's first page
/// faults, and on the wire a first half second of round trips four times
/// faster than any later one), then repetitions on fresh state for as long
/// as another one fits. `seconds` 0 is one repetition and no warm-up.
fn untraced_run(
    workload: Workload,
    seed: u64,
    counts: Counts,
    seconds: f64,
) -> Result<WorkloadResult> {
    let started = Instant::now();
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    let mut tally = |rep: &Rep| {
        attempted += rep.attempted;
        failed += rep.failed;
        errors.extend(rep.errors.iter().cloned());
    };
    if seconds > 0.0 {
        tally(&run_rep(
            workload,
            rep_seed(seed, WARM_UP),
            counts,
            Mode::UNTRACED,
        )?);
    }
    let mut reps = Vec::new();
    let mut longest_s = started.elapsed().as_secs_f64();
    while reps.is_empty() || started.elapsed().as_secs_f64() + longest_s < seconds {
        let rep_started = Instant::now();
        let seed = rep_seed(seed, reps.len() as u64);
        let rep = run_rep(workload, seed, counts, Mode::UNTRACED)?;
        longest_s = longest_s.max(rep_started.elapsed().as_secs_f64());
        tally(&rep);
        reps.push(rep);
    }
    Ok(WorkloadResult {
        workload,
        end_to_end: Some(metrics::end_to_end_metrics(&reps)),
        per_layer: None,
        attempted,
        failed,
        errors,
        measured_s: reps.iter().map(|r| r.measured_s).sum(),
    })
}

fn write_json(path: &Path, value: &Value) -> Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| Error::io(format!("{}: {e}", dir.display())))?;
    }
    std::fs::write(path, value.to_json()).map_err(|e| Error::io(format!("{}: {e}", path.display())))
}

fn run(args: &Args) -> Result<bool> {
    let (counts, seconds) = if args.quick {
        // One repetition of each workload, whatever --seconds says.
        (Counts::quick(), 0.0)
    } else {
        (Counts::FULL, args.seconds)
    };
    let header = report::header(args.seed, seconds, counts, args.quick, args.traced);
    println!("# {}", header.to_json());
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut results = Vec::new();
    let mut spans = Vec::new();
    for w in workloads {
        let result = if args.traced {
            let (result, run_spans) = layers::traced_run(w, args.seed, counts, seconds)?;
            spans.push((w.name(), run_spans));
            result
        } else {
            untraced_run(w, args.seed, counts, seconds)?
        };
        print!("{}", result.table());
        results.push(result);
    }
    if args.traced {
        write_json(&args.out.join("trace.json"), &trace::document(&spans))?;
    }
    let clean = results.iter().all(|r| r.failed == 0);
    let name = if args.traced {
        "result_traced.json"
    } else {
        "result.json"
    };
    let path = args.out.join(name);
    write_json(&path, &report::document(header, &results))?;
    println!("wrote {}", path.display());
    // The benchmark contract: a single-workload run ends with one line of
    // JSON.
    if let (Some(_), [only]) = (args.workload, results.as_slice()) {
        println!("{}", only.contract_line());
    }
    Ok(clean)
}

fn read_json(path: &str) -> Result<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| Error::io(format!("{path}: {e}")))?;
    Value::parse(&text)
}

fn compare(a: &str, b: &str) -> Result<bool> {
    let (table, regressed) = report::compare(&read_json(a)?, &read_json(b)?)?;
    print!("{table}");
    Ok(!regressed)
}

fn spread(paths: &[String]) -> Result<bool> {
    let docs = paths
        .iter()
        .map(|p| read_json(p))
        .collect::<Result<Vec<_>>>()?;
    let (table, too_wide) = report::spread(&docs)?;
    print!("{table}");
    Ok(!too_wide)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => compare(a, b),
        [cmd, paths @ ..] if cmd == "spread" => spread(paths),
        [flag] if flag == "--help" || flag == "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        rest => parse_args(rest).and_then(|parsed| run(&parsed)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "net_mixed",
            "--seed",
            "1337",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::NetMixed));
        assert_eq!((a.seed, a.seconds, a.traced), (1337, 10.0, true));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.traced), (None, DEFAULT_SEED, false));
    }

    #[test]
    fn repetition_seeds_differ_but_repeat() {
        assert_eq!(rep_seed(42, 0), 42);
        assert_ne!(rep_seed(42, 1), rep_seed(42, 2));
        assert_ne!(rep_seed(42, 1), rep_seed(43, 1));
        assert_eq!(rep_seed(42, 3), rep_seed(42, 3));
    }

    /// The counts come from the repetition on the run's own seed: a longer
    /// run fits more repetitions and reports the same `write_amp`.
    #[test]
    fn counts_do_not_depend_on_the_run_length() {
        let run =
            |seconds| untraced_run(Workload::StaticLoad, 42, Counts::quick(), seconds).unwrap();
        let (short, long) = (run(0.0), run(0.2));
        let reps = |r: &WorkloadResult| r.metrics()["throughput_kops"].per_rep.len();
        assert_eq!(reps(&short), 1);
        assert!(reps(&long) > 1);
        for name in ["write_amp", "space_amp"] {
            assert_eq!(short.metrics()[name].value, long.metrics()[name].value);
        }
    }

    #[test]
    fn default_seconds_is_benchmark_jsons_run_seconds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let run_seconds = json.get("run_seconds").and_then(Value::as_f64);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
    }
}
