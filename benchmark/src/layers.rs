//! Per-layer attribution, all of it from outside the engine: kernel
//! timings of each layer's public functions, replays of a workload on a
//! lower layer, engine counter deltas, and the benchmark's own spans.

use crate::affinity::OneCpu;
use crate::config::{tweet_stats, Counts, Workload};
use crate::metrics::{latencies, pooled_latency, throughput_kops, Measured, Metrics, PER_LAYER};
use crate::ops::OpKind;
use crate::report::WorkloadResult;
use crate::run::{run_rep, Mode, Rep, Target};
use crate::stats::percentile;
use crate::trace::{self, Summary};
use ldbpp_common::crc32c;
use ldbpp_common::Result;
use ldbpp_core::{Document, SecondaryDb};
use ldbpp_lsm::cache::LruCache;
use ldbpp_lsm::compress;
use ldbpp_lsm::env::{Env, MemEnv};
use ldbpp_lsm::filter::BloomPolicy;
use ldbpp_lsm::ikey::ValueType;
use ldbpp_lsm::memtable::MemTable;
use ldbpp_lsm::wal::LogWriter;
use ldbpp_proto::wire::check_frame;
use ldbpp_proto::{encode_frame, Client, Hit, Request, Response, Server, ServerConfig};
use ldbpp_workload::TweetGenerator;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches per kernel; the fastest batch is reported.
const KERNEL_BATCHES: usize = 5;

/// Documents the kernels work on.
const KERNEL_DOCS: usize = 256;

/// GETs of an absent key that measure the round-trip floor.
const RTT_PROBES: usize = 2000;

/// Nanoseconds per call of `f`, the fastest of `KERNEL_BATCHES` batches of
/// `iters` calls each.
fn time_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    (0..KERNEL_BATCHES)
        .map(|_| {
            let started = Instant::now();
            for i in 0..iters {
                f(i);
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time each layer's public functions on tweet-shaped inputs.
pub fn kernels(seed: u64) -> Result<Vec<(&'static str, f64)>> {
    let tweets = TweetGenerator::new(tweet_stats(), KERNEL_DOCS, seed).take(KERNEL_DOCS);
    let docs: Vec<Document> = tweets
        .iter()
        .map(|t| Document::from_value(t.document()))
        .collect::<Result<_>>()?;
    let bytes: Vec<Vec<u8>> = docs.iter().map(Document::to_bytes).collect();
    let keys: Vec<&[u8]> = tweets.iter().map(|t| t.id.as_bytes()).collect();
    let n = docs.len();
    // Four KiB of concatenated records: what a block or a large frame holds.
    let blob: Vec<u8> = bytes.iter().flatten().copied().take(4096).collect();
    let kib = blob.len() as f64 / 1024.0;
    let mut out = Vec::new();

    out.push((
        "common.crc32c_ns_per_kib",
        time_ns(2000, |_| {
            black_box(crc32c::crc32c(black_box(&blob)));
        }) / kib,
    ));
    out.push((
        "common.json_parse_ns_per_doc",
        time_ns(4 * n, |i| {
            black_box(Document::parse(black_box(&bytes[i % n])).ok());
        }),
    ));
    out.push((
        "common.json_write_ns_per_doc",
        time_ns(4 * n, |i| {
            black_box(black_box(&docs[i % n]).to_bytes());
        }),
    ));

    // A fresh memtable per batch would time allocation; one growing table
    // times what a PUT sees between flushes.
    let mut mem = MemTable::new();
    let mut seq = 0u64;
    out.push((
        "lsm.memtable_add_ns",
        time_ns(4 * n, |i| {
            seq += 1;
            let key = format!("t{seq:09}");
            mem.add(seq, ValueType::Value, key.as_bytes(), &bytes[i % n]);
        }),
    ));
    let env = MemEnv::new();
    let mut log = LogWriter::new(env.new_writable("kernel.log")?);
    out.push((
        "lsm.wal_add_record_ns",
        time_ns(4 * n, |i| {
            log.add_record(black_box(&bytes[i % n])).ok();
        }),
    ));

    let packed = compress::compress(&blob);
    out.push((
        "lsm.compress_ns_per_kib",
        time_ns(500, |_| {
            black_box(compress::compress(black_box(&blob)));
        }) / kib,
    ));
    out.push((
        "lsm.decompress_ns_per_kib",
        time_ns(500, |_| {
            black_box(compress::decompress(black_box(&packed)).ok());
        }) / kib,
    ));
    let filter = BloomPolicy::new(10).create_filter(&keys);
    out.push((
        "lsm.bloom_probe_ns",
        time_ns(20 * n, |i| {
            black_box(BloomPolicy::may_contain(&filter, keys[i % n]));
        }),
    ));
    let mut cache: LruCache<u64, Arc<Vec<u8>>> = LruCache::new(1 << 20);
    for i in 0..n as u64 {
        cache.insert(i, Arc::new(blob[..1024].to_vec()), 1024);
    }
    out.push((
        "lsm.cache_hit_ns",
        time_ns(20 * n, |i| {
            black_box(cache.get(&((i % n) as u64)));
        }),
    ));

    let put = Request::Put {
        pk: keys[0].to_vec(),
        doc: bytes[0].clone(),
    };
    let put_frame = put.encode(7);
    let put_payload = check_frame(&put_frame[4..])?.to_vec();
    let hits = Response::hits(
        (0..10)
            .map(|i| Hit {
                key: keys[i].to_vec(),
                seq: i as u64,
                doc: bytes[i].clone(),
            })
            .collect(),
    );
    let hits_frame = hits.encode(7);
    let hits_payload = check_frame(&hits_frame[4..])?.to_vec();
    let big_frame = encode_frame(&blob);
    out.push((
        "proto.request_encode_ns",
        time_ns(2000, |_| {
            black_box(black_box(&put).encode(7));
        }),
    ));
    out.push((
        "proto.request_decode_ns",
        time_ns(2000, |_| {
            black_box(Request::decode(black_box(&put_payload)).ok());
        }),
    ));
    out.push((
        "proto.response_encode_ns",
        time_ns(2000, |_| {
            black_box(black_box(&hits).encode(7));
        }),
    ));
    out.push((
        "proto.response_decode_ns",
        time_ns(2000, |_| {
            black_box(Response::decode(black_box(&hits_payload)).ok());
        }),
    ));
    out.push((
        "proto.frame_check_ns_per_kib",
        time_ns(2000, |_| {
            black_box(check_frame(black_box(&big_frame[4..])).ok());
        }) / kib,
    ));
    Ok(out)
}

/// Median round trip of a GET of an absent key on an idle server with
/// one connection: what the wire costs when the engine does nothing —
/// client and handler on one CPU as `net_mixed` runs them, or on as many
/// as the host gives, where each round trip wakes two halted cores.
pub fn rtt_floor_us(one_cpu: bool) -> Result<f64> {
    let _pin = one_cpu.then(OneCpu::pin);
    let db = Arc::new(SecondaryDb::open(
        MemEnv::new(),
        "db",
        Default::default(),
        &[],
    )?);
    let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default())?;
    let mut client = Client::connect_with_timeout(handle.local_addr(), Duration::from_secs(60))?;
    let mut ns = Vec::with_capacity(RTT_PROBES);
    for _ in 0..RTT_PROBES {
        let started = Instant::now();
        black_box(client.get(b"absent")?);
        ns.push(started.elapsed().as_nanos() as u64);
    }
    client.shutdown()?;
    handle.join()?;
    ns.sort_unstable();
    Ok(percentile(&ns, 0.50) as f64 / 1e3)
}

/// Mean latency of one kind in a repetition, microseconds.
fn mean_us(rep: &Rep, kind: OpKind) -> f64 {
    let ns = &rep.lat_ns[kind.index()];
    ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e3
}

fn per(numerator: u64, denominator: u64) -> f64 {
    numerator as f64 / denominator.max(1) as f64
}

/// The traced run of one workload, `seconds` of wall time in all: the
/// kernels, the replays, then untraced and traced repetitions in turn
/// (their throughput difference is the tracing overhead) for as long as
/// another pair fits. Returns every per-layer metric, with the failures of
/// every repetition run, and the spans of the last traced repetition.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    counts: Counts,
    seconds: f64,
) -> Result<(WorkloadResult, Vec<trace::Span>)> {
    let started = Instant::now();
    let mut m: Vec<(&'static str, f64)> = kernels(seed)?;
    m.push(("proto.rtt_floor_us", rtt_floor_us(true)?));
    m.push(("proto.rtt_floor_two_cpus_us", rtt_floor_us(false)?));

    let replay = |mode: Mode| run_rep(workload, seed, counts, mode);
    let raw = replay(Mode {
        target: Target::RawDb,
        ..Mode::UNTRACED
    })?;
    // What the wire adds: the same stream replayed in-process. And what a
    // second connection adds where each has a core to wake: the same total
    // work over one connection and split over two, not pinned.
    let (in_process, one_client, two_clients) = if workload == Workload::NetMixed {
        let spread = |threads| Mode {
            threads: Some(threads),
            one_cpu: Some(false),
            ..Mode::UNTRACED
        };
        (
            Some(replay(Mode {
                target: Target::InProcess,
                ..Mode::UNTRACED
            })?),
            Some(replay(spread(1))?),
            Some(replay(spread(2))?),
        )
    } else {
        (None, None, None)
    };

    // Untraced and traced repetitions take turns, so that whatever the
    // host does in the meantime hits both sides of the overhead estimate.
    let (mut plains, mut traced) = (Vec::new(), Vec::new());
    let mut longest_pair_s = 0.0f64;
    while traced.is_empty() || started.elapsed().as_secs_f64() + longest_pair_s < seconds {
        let pair_started = Instant::now();
        for (mode, reps) in [(Mode::UNTRACED, &mut plains), (Mode::TRACED, &mut traced)] {
            reps.push(run_rep(workload, seed, counts, mode)?);
        }
        longest_pair_s = longest_pair_s.max(pair_started.elapsed().as_secs_f64());
    }
    let measured: f64 = plains.iter().chain(&traced).map(|r| r.measured_s).sum();
    let plain = &plains[0];

    let last = traced.last().expect("at least one traced repetition");
    let kind = |k: OpKind| last.kinds[k.index()];
    let (put, get, lookup) = (kind(OpKind::Put), kind(OpKind::Get), kind(OpKind::Lookup));
    let (range, time) = (kind(OpKind::RangeLookup), kind(OpKind::TimeRange));
    let life = last.life_io.merged();
    let measured_io = last.measured_io.merged();
    let written = last.written_bytes;

    m.push((
        "lsm.cache_hit_ratio",
        per(
            measured_io.cache_hits,
            measured_io.cache_hits + measured_io.block_reads,
        ),
    ));
    m.push(("lsm.db_put_us", mean_us(&raw, OpKind::Put)));
    m.push(("lsm.db_get_us", mean_us(&raw, OpKind::Get)));
    m.push((
        "lsm.wal_bytes_per_user_byte",
        per(life.wal_bytes_written, written),
    ));
    m.push((
        "lsm.flush_bytes_per_user_byte",
        per(life.flush_bytes_written, written),
    ));
    m.push((
        "lsm.compaction_write_bytes_per_user_byte",
        per(life.compaction_bytes_written, written),
    ));
    m.push((
        "lsm.compaction_read_bytes_per_user_byte",
        per(life.compaction_bytes_read, written),
    ));
    m.push(("lsm.flushes", life.flushes as f64));
    m.push(("lsm.compactions", life.compactions as f64));
    m.push(("lsm.put_stall_share", plain.put_stall_share()));
    m.push((
        "lsm.block_reads_per_get",
        per(get.io.primary.block_reads, get.ops),
    ));
    m.push(("lsm.table_opens", measured_io.table_opens as f64));
    m.push((
        "lsm.wal_syncs_per_put",
        per(put.io.merged().wal_syncs, put.ops),
    ));
    m.push((
        "lsm.group_size_mean",
        per(put.io.primary.grouped_writes, put.io.primary.group_commits),
    ));
    for (name, kind) in [
        ("core.put_p99_us", OpKind::Put),
        ("core.get_p99_us", OpKind::Get),
        ("core.lookup_p99_us", OpKind::Lookup),
        ("core.rangelookup_p99_us", OpKind::RangeLookup),
        ("core.timerange_p99_us", OpKind::TimeRange),
    ] {
        m.push((name, pooled_latency(&latencies(&plains, kind), 0.99).value));
    }
    let indexed_put_us = mean_us(in_process.as_ref().unwrap_or(plain), OpKind::Put);
    m.push((
        "core.index_put_us",
        indexed_put_us - mean_us(&raw, OpKind::Put),
    ));
    m.push((
        "core.index_wal_syncs_per_put",
        per(put.io.index.wal_syncs, put.ops),
    ));
    m.push((
        "core.index_wal_bytes_per_put",
        per(put.io.index.wal_bytes_written, put.ops),
    ));
    m.push((
        "core.index_bytes_per_user_byte",
        per(last.index_bytes, last.live_bytes),
    ));
    m.push((
        "core.index_block_reads_per_lookup",
        per(lookup.io.index.block_reads, lookup.ops),
    ));
    m.push((
        "core.primary_block_reads_per_lookup",
        per(lookup.io.primary.block_reads, lookup.ops),
    ));
    m.push(("core.hits_per_lookup", per(lookup.hits, lookup.ops)));
    m.push((
        "core.primary_block_reads_per_hit",
        per(lookup.io.primary.block_reads, lookup.hits),
    ));
    m.push((
        "core.zonemap_prunes_per_timerange",
        per(time.io.primary.zonemap_prunes, time.ops),
    ));
    m.push((
        "core.file_zonemap_prunes_per_timerange",
        per(time.io.primary.file_zonemap_prunes, time.ops),
    ));
    m.push((
        "core.block_reads_per_timerange",
        per(time.io.merged().block_reads, time.ops),
    ));
    m.push((
        "core.block_reads_per_rangelookup",
        per(range.io.merged().block_reads, range.ops),
    ));

    let (overhead_us, scaling) = match (&in_process, &one_client, &two_clients) {
        (Some(local), Some(one), Some(two)) => (
            plain.main_mean_us - local.main_mean_us,
            two.throughput_kops() / one.throughput_kops(),
        ),
        _ => (0.0, 0.0),
    };
    m.push(("proto.overhead_us_per_op", overhead_us));
    m.push(("proto.client_scaling", scaling));
    let server = last.server_counters.unwrap_or_default();
    m.push(("proto.shed_busy", server[0] as f64));
    m.push(("proto.protocol_errors", server[1] as f64));
    m.push(("proto.dedup_hits", server[2] as f64));

    m.push((
        "workload.gen_ns_per_op",
        plain.gen_s * 1e9 / plain.generated_ops.max(1) as f64,
    ));
    // Each side's throughput the way `throughput_kops` itself is reported.
    m.push((
        "bench.trace_overhead_frac",
        1.0 - throughput_kops(&traced) / throughput_kops(&plains),
    ));
    let Summary { by_name, coverage } = trace::summarize(&last.spans);
    m.push(("bench.span_coverage", coverage));
    let self_us = |name: &str| by_name.get(name).map_or(0.0, |s| s.mean_self_us);
    for (metric, span) in [
        ("trace.core_put_self_us", "core.put"),
        ("trace.core_get_self_us", "core.get"),
        ("trace.core_lookup_self_us", "core.lookup"),
        ("trace.core_range_lookup_self_us", "core.range_lookup"),
        ("trace.proto_encode_self_us", "proto.encode"),
        ("trace.proto_roundtrip_self_us", "proto.roundtrip"),
        ("trace.proto_decode_self_us", "proto.decode"),
        ("trace.check_self_us", "bench.check"),
    ] {
        m.push((metric, self_us(span)));
    }

    let all_reps = plains
        .iter()
        .chain(&traced)
        .chain(std::iter::once(&raw))
        .chain(&in_process)
        .chain(&one_client)
        .chain(&two_clients);
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    for rep in all_reps {
        attempted += rep.attempted;
        failed += rep.failed;
        errors.extend(rep.errors.iter().cloned());
    }
    m.push(("bench.failed_frac", per(failed, attempted)));

    let mut metrics = Metrics::new();
    for (name, unit, _) in PER_LAYER {
        let value = m
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("per-layer metric {name} was not computed"));
        metrics.insert(name, Measured::single(value, unit));
    }
    let spans = traced.pop().map(|r| r.spans).unwrap_or_default();
    let result = WorkloadResult {
        workload,
        end_to_end: None,
        per_layer: Some(metrics),
        attempted,
        failed,
        errors,
        measured_s: measured,
    };
    Ok((result, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_time_every_kernel_metric() {
        let got = kernels(1).unwrap();
        for (name, ns) in &got {
            assert!(*ns > 0.0, "{name} = {ns}");
        }
        let kernel_names = PER_LAYER
            .iter()
            .map(|m| m.0)
            .filter(|n| {
                n.ends_with("_ns") || n.ends_with("_ns_per_kib") || n.ends_with("_ns_per_doc")
            })
            .filter(|n| *n != "workload.gen_ns_per_op");
        for name in kernel_names {
            assert!(got.iter().any(|(n, _)| *n == name), "{name} not timed");
        }
    }

    /// Also what `trace.json` holds: in every workload's list, each child
    /// span names by index a parent of the same operation and thread that
    /// encloses it.
    #[test]
    fn traced_run_fills_every_per_layer_metric_and_links_its_spans() {
        let mut runs = Vec::new();
        for w in [Workload::NetMixed, Workload::DurablePut] {
            let (run, spans) = traced_run(w, 42, Counts::quick(), 0.0).unwrap();
            assert_eq!(run.failed, 0, "{:?}", run.errors);
            assert_eq!(run.metrics().len(), PER_LAYER.len());
            assert!(!spans.is_empty());
            runs.push((w.name(), spans));
        }
        let text = trace::document(&runs).to_json();
        let doc = ldbpp_common::json::Value::parse(&text).unwrap();
        for (workload, spans) in &runs {
            let listed = doc.get(workload).and_then(|l| l.as_array()).unwrap();
            assert_eq!(listed.len(), spans.len());
            let int = |i: usize, key: &str| listed[i].get(key).and_then(|v| v.as_int());
            let mut children = 0;
            for i in 0..listed.len() {
                let Some(p) = int(i, "parent") else { continue };
                let p = p as usize;
                children += 1;
                assert!(p < i, "{workload}: span {i} names parent {p}");
                assert_eq!(int(p, "op"), int(i, "op"), "{workload}: span {i}");
                assert_eq!(int(p, "thread"), int(i, "thread"), "{workload}: span {i}");
                assert!(int(p, "start_ns") <= int(i, "start_ns"));
                assert!(int(i, "end_ns") <= int(p, "end_ns"));
            }
            assert!(children > 0, "{workload} recorded no child span");
        }
    }
}
