//! `ldbpp_tool` — inspect LevelDB++ databases on disk (the `ldb`-style
//! companion every storage engine ships).
//!
//! ```text
//! ldbpp_tool stats  <db-dir>             # tree shape + I/O-relevant metadata
//! ldbpp_tool tables <db-dir>             # per-SSTable metadata incl. zone maps
//! ldbpp_tool get    <db-dir> <key>       # point lookup
//! ldbpp_tool scan   <db-dir> [prefix] [limit]
//! ldbpp_tool check  <db-dir>             # structural integrity check
//! ldbpp_tool repair <db-dir>             # salvage a damaged database
//! ```
//!
//! `check` and `repair` understand the sharded layout (DESIGN.md §15): on
//! a root directory holding a `LAYOUT` descriptor they iterate every
//! engine under it — each `shard-i` primary plus each `shard-i_idx_<attr>`
//! stand-alone index table — report per-shard results, and aggregate.
//! Damage is attributed to the engine that holds it, so one corrupt shard
//! never blocks diagnosing (or repairing) the others. `stats`, `tables`,
//! `get`, and `scan` operate on one engine directory; pointed at a sharded
//! root they list the shard directories to inspect instead.
//!
//! All commands but `repair` open the database read-mostly (recovery runs
//! as usual; no writes are issued). Every open starts no log: recovery
//! still replays and flushes what it must, but the tool leaves no new log
//! file behind — a stand-alone index directory must never hold one, and a
//! primary's log is started by the database's next real open. `repair` rebuilds the MANIFEST from
//! whatever is readable on disk, quarantining unreadable files in `lost/`,
//! then re-opens the result and runs the structural integrity checker. A
//! shard's one commit log also carries its index trees' operations: repair
//! keeps them out of the primary table and leaves them in the log for the
//! trees; if the log itself had to be quarantined, reopen through
//! `SecondaryDb` and run `heal()` / `rebuild_indexes()` as after any
//! quarantine.
//! Exit status: 0 when nothing was quarantined and the checker is clean,
//! 1 otherwise, 2 on usage errors.

use leveldbpp::{repair_db, shard_layout, Db, DbOptions, DiskEnv, Result};

fn usage() -> ! {
    eprintln!(
        "usage: ldbpp_tool <stats|tables|get|scan|check|repair> <db-dir> [args]\n\
         \n\
         stats  <db>            tree shape and counters\n\
         tables <db>            per-file metadata (levels, ranges, zone maps)\n\
         get    <db> <key>      point lookup\n\
         scan   <db> [prefix] [limit=20]   range scan of live records\n\
         check  <db>            structural integrity check (per shard on a\n\
                                sharded root, plus the aggregate)\n\
         repair <db>            salvage a damaged database (quarantines\n\
                                unreadable files in <db>/lost/), then verify;\n\
                                repairs every engine of a sharded root"
    );
    std::process::exit(2);
}

/// Engines under `dir` when it is a sharded root: each shard primary,
/// then each stand-alone index table (`shard-i_idx_<attr>`), as
/// `(label, path)` pairs in deterministic order. `None` for a classic
/// single-engine directory; exits on an unreadable layout descriptor.
fn sharded_engines(dir: &str) -> Option<Vec<(String, String)>> {
    let env: std::sync::Arc<dyn leveldbpp::Env> = DiskEnv::new();
    let shards = match shard_layout(&env, dir) {
        Ok(layout) => layout?,
        Err(e) => {
            eprintln!("{dir}: {e}");
            std::process::exit(1);
        }
    };
    let mut engines: Vec<(String, String)> = (0..shards)
        .map(|i| (format!("shard-{i}"), format!("{dir}/shard-{i}")))
        .collect();
    let mut index_tables: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().is_dir())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|name| name.starts_with("shard-") && name.contains("_idx_"))
                .collect()
        })
        .unwrap_or_default();
    index_tables.sort();
    for name in index_tables {
        let path = format!("{dir}/{name}");
        engines.push((name, path));
    }
    Some(engines)
}

fn open(dir: &str) -> Db {
    // Refuse to "open" (i.e. create) a directory that is not a database —
    // an inspection tool must never initialize state.
    if !std::path::Path::new(dir).join("CURRENT").exists() {
        if sharded_engines(dir).is_some() {
            eprintln!(
                "{dir} is a sharded database root; run this command against \
                 one engine directory ({dir}/shard-0, ...) or use \
                 `check`/`repair`, which iterate all shards"
            );
        } else {
            eprintln!("{dir} is not a LevelDB++ database (no CURRENT file)");
        }
        std::process::exit(1);
    }
    match open_engine(dir) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("failed to open {dir}: {e}");
            std::process::exit(1);
        }
    }
}

/// Open one engine directory the way every command does: without a log,
/// so that inspecting a database never adds a file to it.
fn open_engine(dir: &str) -> Result<Db> {
    let opts = DbOptions {
        wal_enabled: false,
        ..DbOptions::default()
    };
    Db::open(DiskEnv::new(), dir, opts)
}

/// Integrity-check one engine; returns the number of violations found
/// (an unopenable engine counts as one). `prefix` is the per-line label
/// on sharded roots, empty for a single engine.
fn check_one(prefix: &str, dir: &str) -> usize {
    if !std::path::Path::new(dir).join("CURRENT").exists() {
        println!("{prefix}not a database (no CURRENT file)");
        return 1;
    }
    let db = match open_engine(dir) {
        Ok(db) => db,
        Err(e) => {
            println!("{prefix}failed to open: {e}");
            return 1;
        }
    };
    let report = db.check_integrity();
    if report.is_clean() {
        println!("{prefix}clean");
        0
    } else {
        println!("{prefix}{} violation(s)", report.violations.len());
        for v in &report.violations {
            println!("{prefix}  [{:?}] {}", v.code, v.detail);
        }
        report.violations.len()
    }
}

/// Repair one engine and verify the result; returns `true` when nothing
/// was quarantined and the re-check is clean.
fn repair_one(prefix: &str, dir: &str) -> bool {
    let env: std::sync::Arc<dyn leveldbpp::Env> = DiskEnv::new();
    let report = match repair_db(&env, dir, &DbOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{prefix}repair failed: {e}");
            return false;
        }
    };
    println!(
        "{prefix}tables: {} kept, {} rewritten, {} from WAL ({} entries, last seq {})",
        report.tables_kept,
        report.tables_rewritten,
        report.tables_from_wal,
        report.entries_recovered,
        report.last_sequence
    );
    if report.corrupt_blocks_skipped > 0 {
        println!(
            "{prefix}corrupt blocks skipped: {}",
            report.corrupt_blocks_skipped
        );
    }
    if report.wal_records_recovered > 0 || report.wal_records_salvaged > 0 {
        println!(
            "{prefix}wal: {} records recovered, {} salvaged past damage ({} bytes dropped)",
            report.wal_records_recovered, report.wal_records_salvaged, report.wal_bytes_dropped
        );
    }
    if report.wal_index_ops_left > 0 {
        println!(
            "{prefix}wal: {} index-tree operations kept out of this table and left in the \
             log; the next open through the database replays them into their trees",
            report.wal_index_ops_left
        );
    }
    for name in &report.quarantined {
        println!("{prefix}quarantined: lost/{name}");
    }
    // Re-open the repaired engine and verify the result.
    let db = match open_engine(dir) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("{prefix}repaired database failed to open: {e}");
            return false;
        }
    };
    let check = db.check_integrity();
    for v in &check.violations {
        eprintln!("{prefix}violation: {:?}: {}", v.code, v.detail);
    }
    report.is_clean() && check.is_clean()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => usage(),
    };
    match (cmd, rest) {
        ("stats", [dir]) => {
            let db = open(dir);
            print!("{}", db.debug_summary());
        }
        ("tables", [dir]) => {
            let db = open(dir);
            let version = db.current_version();
            for (level, files) in version.files.iter().enumerate() {
                for f in files {
                    let lo = String::from_utf8_lossy(ldbpp_lsm_user_key(&f.smallest)).to_string();
                    let hi = String::from_utf8_lossy(ldbpp_lsm_user_key(&f.largest)).to_string();
                    print!(
                        "L{level} #{:06} {:>9}B {:>7} entries {:>5} blocks  [{lo} .. {hi}]",
                        f.number, f.file_size, f.num_entries, f.num_blocks
                    );
                    for (attr, zone) in &f.sec_file_zones {
                        match &zone.bounds {
                            Some((a, b)) => print!("  {attr}:[{a}..{b}]"),
                            None => print!("  {attr}:[]"),
                        }
                    }
                    println!();
                }
            }
        }
        ("get", [dir, key]) => {
            let db = open(dir);
            match db.get(key.as_bytes()) {
                Ok(Some(v)) => println!("{}", String::from_utf8_lossy(&v)),
                Ok(None) => {
                    eprintln!("(not found)");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        ("scan", [dir, rest @ ..]) => {
            let db = open(dir);
            let prefix = rest
                .first()
                .map(|s| s.as_bytes().to_vec())
                .unwrap_or_default();
            let limit: usize = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(20);
            let mut it = match db.resolved_iter() {
                Ok(it) => it,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            };
            if prefix.is_empty() {
                it.seek_to_first();
            } else {
                it.seek(&prefix);
            }
            let mut shown = 0;
            loop {
                match it.next_entry() {
                    Ok(Some((key, seq, value))) => {
                        if !prefix.is_empty() && !key.starts_with(&prefix) {
                            break;
                        }
                        println!(
                            "{} @{} {}",
                            String::from_utf8_lossy(&key),
                            seq,
                            String::from_utf8_lossy(&value)
                        );
                        shown += 1;
                        if shown >= limit {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            }
            eprintln!("({shown} records)");
        }
        ("check", [dir]) => {
            if !std::path::Path::new(dir).is_dir() {
                eprintln!("{dir} is not a directory");
                std::process::exit(1);
            }
            let total = match sharded_engines(dir) {
                Some(engines) => {
                    let mut total = 0usize;
                    for (label, path) in &engines {
                        total += check_one(&format!("{label}: "), path);
                    }
                    println!(
                        "total: {total} violation(s) across {} engine(s)",
                        engines.len()
                    );
                    total
                }
                None => check_one("", dir),
            };
            if total > 0 {
                std::process::exit(1);
            }
            println!("ok: database is clean");
        }
        ("repair", [dir]) => {
            if !std::path::Path::new(dir).is_dir() {
                eprintln!("{dir} is not a directory");
                std::process::exit(1);
            }
            let clean = match sharded_engines(dir) {
                Some(engines) => {
                    let mut dirty = 0usize;
                    for (label, path) in &engines {
                        if !repair_one(&format!("{label}: "), path) {
                            dirty += 1;
                        }
                    }
                    println!(
                        "total: {dirty} of {} engine(s) needed salvage or stayed dirty",
                        engines.len()
                    );
                    dirty == 0
                }
                None => repair_one("", dir),
            };
            if clean {
                println!("ok: database is clean");
            } else {
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}

/// The user-key prefix of an encoded internal key (8-byte trailer).
fn ldbpp_lsm_user_key(ikey: &[u8]) -> &[u8] {
    &ikey[..ikey.len().saturating_sub(8)]
}
