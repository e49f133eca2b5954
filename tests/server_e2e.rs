//! End-to-end test of the `ldbpp_server` binary: a real process on an
//! ephemeral port, `LDBPP_SHARDS=2`, eight concurrent TCP clients doing
//! mixed PUT/LOOKUP/RANGELOOKUP, final results checked against a serial
//! in-process oracle, then graceful shutdown and a clean
//! `ldbpp_tool check` over the data directory.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::Duration;

use ldbpp_proto::{Client, WireValue};
use leveldbpp::{
    DbOptions, Document, IndexKind, IoSnapshot, MemEnv, SecondaryDb, SecondaryDbOptions, Value,
};

const THREADS: usize = 8;
const KEYS_PER_THREAD: usize = 60;

fn doc_for(t: usize, i: usize) -> Document {
    let mut doc = Document::new();
    doc.set("UserID", Value::str(format!("u{t}")))
        .set("CreationTime", Value::Int((t * 1000 + i) as i64))
        .set("Text", Value::str(format!("tweet {t}/{i}")));
    doc
}

fn key_for(t: usize, i: usize) -> String {
    format!("t{t}-k{i:03}")
}

/// Spawn the server binary and parse the ephemeral port off its stdout.
fn spawn_server(db_dir: &str) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ldbpp_server"))
        .args([
            db_dir,
            "--listen",
            "127.0.0.1:0",
            "--index",
            "UserID=lazy",
            "--index",
            "CreationTime=composite",
        ])
        .env("LDBPP_SHARDS", "2")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn ldbpp_server");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its port")
            .expect("read server stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.parse::<SocketAddr>().expect("parse listen addr");
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn sorted_keys(hits: &[ldbpp_proto::Hit]) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = hits.iter().map(|h| h.key.clone()).collect();
    keys.sort();
    keys
}

#[test]
fn eight_concurrent_clients_match_serial_oracle() {
    let dir = std::env::temp_dir().join(format!("ldbpp-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let db_dir = dir.join("db").to_str().expect("utf8 path").to_string();

    let (mut child, addr) = spawn_server(&db_dir);

    // -- the storm: 8 client threads, disjoint key ranges, mixed ops ------
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            thread::spawn(move || {
                let mut client =
                    Client::connect_with_timeout(addr, Duration::from_secs(60)).expect("connect");
                for i in 0..KEYS_PER_THREAD {
                    let seq = client
                        .put(key_for(t, i).as_bytes(), &doc_for(t, i).to_bytes())
                        .expect("put");
                    assert!(seq > 0);
                    // Interleave reads with the writes: their exact answer
                    // depends on the global interleaving, but every hit
                    // must satisfy the predicate and include what this
                    // thread already wrote.
                    if i % 16 == 7 {
                        let hits = client
                            .lookup("UserID", WireValue::Str(format!("u{t}")), None)
                            .expect("lookup");
                        assert!(hits.len() > i, "thread {t}: own writes missing from LOOKUP");
                        for h in &hits {
                            let doc = Document::parse(&h.doc).expect("hit doc");
                            assert_eq!(
                                doc.get("UserID").and_then(Value::as_str),
                                Some(format!("u{t}").as_str())
                            );
                        }
                    }
                    if i % 16 == 13 {
                        let lo = (t * 1000) as i64;
                        let hi = (t * 1000 + i) as i64;
                        let hits = client
                            .range_lookup(
                                "CreationTime",
                                WireValue::Int(lo),
                                WireValue::Int(hi),
                                None,
                            )
                            .expect("range_lookup");
                        assert_eq!(
                            hits.len(),
                            i + 1,
                            "thread {t}: RANGELOOKUP over own writes wrong"
                        );
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    // -- serial in-process oracle ----------------------------------------
    let oracle = SecondaryDb::open(
        MemEnv::new(),
        "oracle",
        SecondaryDbOptions {
            base: DbOptions::small(),
            shards: 2,
            ..Default::default()
        },
        &[
            ("UserID", IndexKind::LazyStandalone),
            ("CreationTime", IndexKind::CompositeStandalone),
        ],
    )
    .expect("open oracle");
    for t in 0..THREADS {
        for i in 0..KEYS_PER_THREAD {
            oracle
                .put(key_for(t, i), &doc_for(t, i))
                .expect("oracle put");
        }
    }

    // -- final state must match the oracle exactly (as key sets) ---------
    let mut client = Client::connect_with_timeout(addr, Duration::from_secs(60)).expect("connect");
    for t in 0..THREADS {
        let want: Vec<Vec<u8>> = {
            let mut keys: Vec<Vec<u8>> = oracle
                .lookup("UserID", &Value::str(format!("u{t}")), None)
                .expect("oracle lookup")
                .into_iter()
                .map(|h| h.key)
                .collect();
            keys.sort();
            keys
        };
        let got = client
            .lookup("UserID", WireValue::Str(format!("u{t}")), None)
            .expect("lookup");
        assert_eq!(sorted_keys(&got), want, "LOOKUP(u{t}) diverged from oracle");

        // K-bounded variant: same cardinality contract as the oracle.
        let got_k = client
            .lookup("UserID", WireValue::Str(format!("u{t}")), Some(7))
            .expect("lookup k");
        assert_eq!(got_k.len(), 7);
    }
    for (lo, hi) in [(0i64, 1500), (2500, 5020), (0, i64::MAX)] {
        let want: Vec<Vec<u8>> = {
            let mut keys: Vec<Vec<u8>> = oracle
                .range_lookup("CreationTime", &Value::Int(lo), &Value::Int(hi), None)
                .expect("oracle range")
                .into_iter()
                .map(|h| h.key)
                .collect();
            keys.sort();
            keys
        };
        let got = client
            .range_lookup("CreationTime", WireValue::Int(lo), WireValue::Int(hi), None)
            .expect("range_lookup");
        assert_eq!(
            sorted_keys(&got),
            want,
            "RANGELOOKUP([{lo},{hi}]) diverged from oracle"
        );
    }

    // GET/DEL round-trip over the wire.
    let got = client
        .get(key_for(3, 3).as_bytes())
        .expect("get")
        .expect("present");
    let doc = Document::parse(&got).expect("doc");
    assert_eq!(doc.get("UserID").and_then(Value::as_str), Some("u3"));
    client.del(key_for(3, 3).as_bytes()).expect("del");
    assert!(client.get(key_for(3, 3).as_bytes()).expect("get").is_none());
    client
        .put(key_for(3, 3).as_bytes(), &doc_for(3, 3).to_bytes())
        .expect("restore");

    // -- STATS surfaces shards, io counters, and a clean integrity check -
    let stats = client.stats(true).expect("stats");
    let stats = Value::parse(&stats).expect("stats JSON parses");
    assert_eq!(stats.get("shards").and_then(Value::as_int), Some(2));
    assert_eq!(
        stats.get("integrity").and_then(|i| i.get("clean")).cloned(),
        Some(Value::Bool(true)),
        "integrity dirty: {stats:?}"
    );
    let merged_io = stats.get("merged_io").expect("merged_io");
    // Every IoSnapshot counter is reported, not a hand-picked subset.
    for (name, _) in IoSnapshot::default().counters() {
        assert!(
            merged_io.get(name).and_then(Value::as_int).is_some(),
            "merged_io lacks counter {name}: {merged_io:?}"
        );
    }
    assert!(
        merged_io.get("group_size_hist").is_some(),
        "merged_io lacks group_size_hist"
    );
    let wal_bytes = merged_io
        .get("wal_bytes_written")
        .and_then(Value::as_int)
        .expect("merged_io.wal_bytes_written");
    assert!(wal_bytes > 0, "writes must have hit the WAL");
    assert!(
        stats
            .get("server")
            .and_then(|s| s.get("requests"))
            .and_then(Value::as_int)
            .expect("server.requests")
            >= (THREADS * KEYS_PER_THREAD) as i64
    );

    // -- graceful shutdown, then offline integrity check ------------------
    client.shutdown().expect("graceful shutdown");
    let status = child.wait().expect("wait server");
    assert!(status.success(), "server exit status {status:?}");

    let out = Command::new(env!("CARGO_BIN_EXE_ldbpp_tool"))
        .args(["check", &db_dir])
        .output()
        .expect("run ldbpp_tool check");
    assert!(
        out.status.success(),
        "ldbpp_tool check failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
