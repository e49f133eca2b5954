//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--smoke] [--out DIR] <experiment>...
//! repro all                 # everything
//! repro fig8 fig10          # a subset
//! ```
//!
//! Each experiment prints its series as an aligned table and writes
//! `<out>/<id>.tsv` (default `results/`).

use ldbpp_bench::experiments::{
    appendix_c, chaos, fig10_11, fig12_15, fig7, fig8, fig9, net_ycsb, tables, write_scaling,
};
use ldbpp_bench::harness::Series;
use ldbpp_bench::setup::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--smoke] [--tweets N] [--seed S] [--out DIR] \
         [--server ADDR] [--clients N] <experiment>...\n\
         experiments: all fig7 fig8 fig9 fig10 fig11 fig12 tab3 tab5 appc1 appc2 ablations write_scaling net_ycsb chaos\n\
         --server/--clients apply to net_ycsb and chaos: drive an external\n\
         ldbpp_server instead of the in-process grid (chaos puts its fault\n\
         proxy in front of the given address)"
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::default_scale();
    let mut out_dir = "results".to_string();
    let mut experiments: Vec<String> = Vec::new();
    let mut server_addr: Option<String> = None;
    let mut clients = 4usize;

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => scale = Scale::smoke(),
            "--out" => match args.next() {
                Some(dir) => out_dir = dir,
                None => usage(),
            },
            "--server" => match args.next() {
                Some(addr) => server_addr = Some(addr),
                None => usage(),
            },
            "--clients" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => clients = n,
                _ => usage(),
            },
            "--tweets" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => scale.tweets = n,
                None => usage(),
            },
            "--seed" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => scale.seed = n,
                None => usage(),
            },
            "--help" | "-h" => usage(),
            name => experiments.push(name.to_string()),
        }
    }
    if experiments.is_empty() {
        usage();
    }
    const KNOWN: [&str; 19] = [
        "net_ycsb",
        "chaos",
        "all",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig12_15",
        "tab3",
        "tab5",
        "appc1",
        "appc2",
        "ablations",
        "write_scaling",
    ];
    // Validate everything up front: a typo must not discard an hour of
    // completed experiments (results are only written at the end).
    for exp in &experiments {
        if !KNOWN.contains(&exp.as_str()) {
            eprintln!("unknown experiment '{exp}'");
            usage();
        }
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = [
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "tab3",
            "tab5",
            "appc1",
            "appc2",
            "ablations",
            "write_scaling",
            "net_ycsb",
            "chaos",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let mut produced: Vec<Series> = Vec::new();
    for exp in &experiments {
        eprintln!(
            ">> running {exp} (tweets={}, seed={})",
            scale.tweets, scale.seed
        );
        let started = std::time::Instant::now();
        match exp.as_str() {
            "fig7" => produced.push(fig7::run(scale)),
            "fig8" => {
                produced.push(fig8::size(scale));
                produced.push(fig8::put_performance(scale));
                produced.push(fig8::get_performance(scale));
            }
            "fig9" => produced.push(fig9::run(scale)),
            "fig10" => {
                produced.push(fig10_11::fig10_lookup(scale));
                produced.push(fig10_11::fig10_rangelookup(scale));
            }
            "fig11" => {
                produced.push(fig10_11::fig11_lookup(scale));
                produced.push(fig10_11::fig11_rangelookup(scale));
            }
            "fig12" | "fig13" | "fig14" | "fig15" | "fig12_15" => {
                produced.push(fig12_15::run(scale))
            }
            "tab3" => produced.push(tables::tab3(scale)),
            "tab5" => produced.push(tables::tab5(scale)),
            "appc1" => produced.push(appendix_c::bloom_sweep(scale)),
            "appc2" => produced.push(appendix_c::compression(scale)),
            "write_scaling" => produced.push(write_scaling::run(scale)),
            "net_ycsb" => produced.push(match &server_addr {
                Some(addr) => net_ycsb::run_external(addr, clients, scale),
                None => net_ycsb::run(scale),
            }),
            "chaos" => produced.push(match &server_addr {
                Some(addr) => chaos::run_external(addr, scale),
                None => chaos::run(scale),
            }),
            "ablations" => {
                produced.push(appendix_c::zonemap_granularity(scale));
                produced.push(appendix_c::getlite_validation(scale));
                produced.push(appendix_c::cache_inflection(scale));
                produced.push(appendix_c::background_tail(scale));
            }
            other => unreachable!("validated above: {other}"),
        }
        eprintln!("   {exp} done in {:.1}s", started.elapsed().as_secs_f64());
    }

    for series in &produced {
        println!("{}", series.to_table());
        match series.write_tsv(&out_dir) {
            Ok(path) => eprintln!("   wrote {path}"),
            Err(e) => eprintln!("   failed writing {}: {e}", series.id),
        }
    }
}
