//! One repetition of one workload: set up fresh state, run the measured
//! phases, check every result, and collect what was measured.

use crate::affinity::OneCpu;
use crate::config::{EnvKind, Spec, Workload, STALL_NS, SYNC_DELAY, TRACE_SAMPLE_EVERY};
use crate::ops::{self, Op, OpKind, Plan};
use crate::oracle::{Model, Query, Scope};
use crate::store::{InProcess, RawDb, Store, Wire};
use crate::trace::{self, Recorder, Span};
use ldbpp_common::json::Value;
use ldbpp_common::{Error, Result};
use ldbpp_core::{SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::db::Db;
use ldbpp_lsm::env::{Env, IoSnapshot, MemEnv, SyncLatencyEnv};
use ldbpp_proto::{Server, ServerConfig, ServerHandle, WriteOp};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Writes per BATCH frame while preloading over the wire.
const PRELOAD_BATCH: usize = 500;

/// Oracle mismatches kept verbatim for the report; the rest are counted.
const MAX_ERRORS_KEPT: usize = 5;

/// What a repetition runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The workload's own configuration.
    Spec,
    /// The same `SecondaryDb` configuration called in-process, whatever
    /// the workload says about the wire (what `proto` adds is the
    /// difference).
    InProcess,
    /// A raw un-indexed `Db` with the same options; only the PUT, GET
    /// and DEL operations are replayed (what `core` adds is the
    /// difference).
    RawDb,
}

/// How to run a repetition.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Record spans and per-kind counter deltas.
    pub traced: bool,
    /// What to run against.
    pub target: Target,
    /// Driver threads of the main phase, if not the workload's own.
    pub threads: Option<usize>,
    /// Whether everything shares one CPU, if not the workload's own choice.
    pub one_cpu: Option<bool>,
}

impl Mode {
    /// The plain measured run.
    pub const UNTRACED: Mode = Mode {
        traced: false,
        target: Target::Spec,
        threads: None,
        one_cpu: None,
    };
    /// The traced run.
    pub const TRACED: Mode = Mode {
        traced: true,
        target: Target::Spec,
        threads: None,
        one_cpu: None,
    };

    /// One operation in this many gets a span tree; 0 for none.
    fn sample_every(self) -> u64 {
        if self.traced {
            TRACE_SAMPLE_EVERY
        } else {
            0
        }
    }
}

/// Counter deltas of the primary table and of the stand-alone indexes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoPair {
    /// Every shard's primary table.
    pub primary: IoSnapshot,
    /// Every stand-alone index table of every shard.
    pub index: IoSnapshot,
}

impl IoPair {
    fn since(&self, earlier: &IoPair) -> IoPair {
        IoPair {
            primary: self.primary.since(&earlier.primary),
            index: self.index.since(&earlier.index),
        }
    }

    fn plus(&self, other: &IoPair) -> IoPair {
        IoPair {
            primary: self.primary + other.primary,
            index: self.index + other.index,
        }
    }

    /// Primary and indexes together.
    pub fn merged(&self) -> IoSnapshot {
        self.primary + self.index
    }
}

/// What the operations of one kind did, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTally {
    /// Operations run.
    pub ops: u64,
    /// Hits returned (LOOKUP and RANGELOOKUP kinds).
    pub hits: u64,
    /// Counter deltas over those operations. Only filled by a traced
    /// phase with one driver thread; zero otherwise.
    pub io: IoPair,
}

/// Everything one driver thread measured in one phase.
#[derive(Default)]
struct Tally {
    lat_ns: [Vec<u64>; 6],
    kinds: [KindTally; 6],
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS_KEPT {
            self.errors.push(message);
        }
    }

    fn absorb(&mut self, other: Tally) {
        for (mine, theirs) in self.lat_ns.iter_mut().zip(other.lat_ns) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.kinds.iter_mut().zip(other.kinds) {
            mine.ops += theirs.ops;
            mine.hits += theirs.hits;
            mine.io = mine.io.plus(&theirs.io);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < MAX_ERRORS_KEPT {
                self.errors.push(e);
            }
        }
    }
}

/// What one repetition measured.
pub struct Rep {
    /// Wall time of set-up: generating the inputs, opening the store (and
    /// server), preloading and flushing.
    pub setup_s: f64,
    /// The part of `setup_s` spent generating inputs.
    pub gen_s: f64,
    /// Operations generated.
    pub generated_ops: usize,
    /// Wall time of the main phase.
    pub main_wall_s: f64,
    /// Operations of the main phase, all threads together.
    pub main_ops: u64,
    /// Mean latency of a main-phase operation, microseconds.
    pub main_mean_us: f64,
    /// Wall time of main and probe phase together.
    pub measured_s: f64,
    /// Per-operation latencies in nanoseconds by kind, main and probe,
    /// each kind ascending.
    pub lat_ns: [Vec<u64>; 6],
    /// Per-kind operation counts, hits and (traced) counter deltas.
    pub kinds: [KindTally; 6],
    /// Operations run and checked (measured phases, preload, reopen
    /// read-back, integrity check).
    pub attempted: u64,
    /// Operations that failed, were refused, or whose result the oracle
    /// rejected.
    pub failed: u64,
    /// The first few failures, verbatim.
    pub errors: Vec<String>,
    /// Engine counters over the store's whole life in this repetition.
    pub life_io: IoPair,
    /// Engine counters over main and probe phase.
    pub measured_io: IoPair,
    /// User bytes written over the store's whole life.
    pub written_bytes: u64,
    /// User bytes live at the end.
    pub live_bytes: u64,
    /// `total_bytes()` after the final flush.
    pub total_bytes: u64,
    /// `index_bytes()` after the final flush.
    pub index_bytes: u64,
    /// Server-side `shed_busy`, `protocol_errors`, `dedup.hits` (wire
    /// targets only).
    pub server_counters: Option<[u64; 3]>,
    /// Spans of the sampled operations (traced only).
    pub spans: Vec<Span>,
}

impl Rep {
    /// Bytes written to storage per user byte written.
    pub fn write_amp(&self) -> f64 {
        self.life_io.merged().bytes_written() as f64 / self.written_bytes.max(1) as f64
    }

    /// Bytes stored per live user byte.
    pub fn space_amp(&self) -> f64 {
        self.total_bytes as f64 / self.live_bytes.max(1) as f64
    }

    /// Main-phase operations per second, in thousands.
    pub fn throughput_kops(&self) -> f64 {
        self.main_ops as f64 / self.main_wall_s / 1e3
    }

    /// Share of total PUT time spent in PUTs slower than `STALL_NS`.
    pub fn put_stall_share(&self) -> f64 {
        let puts = &self.lat_ns[OpKind::Put.index()];
        let total: u64 = puts.iter().sum();
        let stalled: u64 = puts.iter().filter(|&&ns| ns > STALL_NS).sum();
        stalled as f64 / total.max(1) as f64
    }
}

/// The system under test of one repetition.
enum System {
    Secondary {
        db: Arc<SecondaryDb>,
        server: Option<(ServerHandle, SocketAddr)>,
    },
    Raw(Arc<Db>),
}

impl System {
    fn open(spec: &Spec, env: Arc<dyn Env>, target: Target) -> Result<System> {
        if target == Target::RawDb {
            return Ok(System::Raw(Arc::new(Db::open(
                env,
                "db",
                spec.opts.clone(),
            )?)));
        }
        let db = Arc::new(SecondaryDb::open(
            env,
            "db",
            SecondaryDbOptions {
                base: spec.opts.clone(),
                shards: spec.shards,
                ..Default::default()
            },
            &spec.indexes,
        )?);
        let server = if spec.wire && target == Target::Spec {
            let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())?;
            let addr = handle.local_addr();
            Some((handle, addr))
        } else {
            None
        };
        Ok(System::Secondary { db, server })
    }

    /// Where the server listens, if the system has one.
    fn addr(&self) -> Option<SocketAddr> {
        match self {
            System::Secondary {
                server: Some((_, addr)),
                ..
            } => Some(*addr),
            _ => None,
        }
    }

    fn connect(&self) -> Result<Box<dyn Store + Send>> {
        Ok(match (self, self.addr()) {
            (_, Some(addr)) => Box::new(Wire::connect(addr)?),
            (System::Secondary { db, .. }, None) => Box::new(InProcess(Arc::clone(db))),
            (System::Raw(db), None) => Box::new(RawDb(Arc::clone(db))),
        })
    }

    /// One driver thread that has the store to itself: run `ops` (span ids
    /// from `first_op` on), checking against the whole `model`; traced,
    /// also split the engine counters by operation kind. Returns what it
    /// measured, its spans and its wall time.
    fn drive_alone(
        &self,
        ops: &[Op],
        first_op: u64,
        model: &mut Model,
        mode: Mode,
        epoch: Instant,
    ) -> Result<(Tally, Vec<Span>, f64)> {
        let mut store = self.connect()?;
        let mut rec = Recorder::new(epoch, mode.sample_every(), 0, first_op);
        let snapshot = || self.io();
        let snapshot: Option<&dyn Fn() -> IoPair> =
            if mode.traced { Some(&snapshot) } else { None };
        let started = Instant::now();
        let tally = drive(
            store.as_mut(),
            ops,
            model,
            Scope::All,
            &mut rec,
            snapshot,
            mode.target != Target::RawDb,
        );
        let wall = started.elapsed().as_secs_f64();
        Ok((tally, rec.into_spans(), wall))
    }

    fn io(&self) -> IoPair {
        match self {
            System::Secondary { db, .. } => IoPair {
                primary: db.primary_io(),
                index: db.index_io(),
            },
            System::Raw(db) => IoPair {
                primary: db.stats().snapshot(),
                index: IoSnapshot::default(),
            },
        }
    }

    /// Flush every memtable and wait for background work to settle.
    fn settle(&self) -> Result<()> {
        match self {
            System::Secondary { db, .. } => {
                db.flush()?;
                db.wait_for_background_idle()
            }
            System::Raw(db) => {
                db.flush()?;
                db.wait_for_background_idle()
            }
        }
    }

    /// Apply the preload: BATCH frames over the wire, plain PUTs otherwise.
    fn preload(&self, ops: &[Op], model: &mut Model, tally: &mut Tally) -> Result<()> {
        let writes = ops.iter().map(|op| match op {
            Op::Put { key, doc, size } => (key, doc, *size),
            other => unreachable!("preload is PUTs only, got {other:?}"),
        });
        if let Some(addr) = self.addr() {
            let mut wire = Wire::connect(addr)?;
            let writes: Vec<_> = writes.collect();
            for chunk in writes.chunks(PRELOAD_BATCH) {
                let frame = chunk
                    .iter()
                    .map(|(key, doc, _)| WriteOp::Put {
                        pk: key.as_bytes().to_vec(),
                        doc: doc.to_bytes(),
                    })
                    .collect();
                tally.attempted += chunk.len() as u64;
                match wire.client().batch(frame) {
                    Ok((applied, _)) if applied as usize == chunk.len() => {}
                    Ok((applied, _)) => tally.fail(format!("BATCH applied {applied}")),
                    Err(e) => tally.fail(format!("BATCH: {e}")),
                }
                for (key, doc, size) in chunk {
                    model.put(key, doc, *size);
                }
            }
        } else {
            let mut store = self.connect()?;
            let mut rec = Recorder::off();
            for (key, doc, size) in writes {
                tally.attempted += 1;
                if let Err(e) = store.put(key, doc, &mut rec) {
                    tally.fail(format!("preload PUT {key}: {e}"));
                }
                model.put(key, doc, size);
            }
        }
        if !ops.is_empty() {
            self.settle()?;
        }
        Ok(())
    }

    /// Server-side counters that must stay zero, read over STATS.
    fn server_counters(&self) -> Result<Option<[u64; 3]>> {
        let Some(addr) = self.addr() else {
            return Ok(None);
        };
        let stats = Value::parse(&Wire::connect(addr)?.client().stats(false)?)?;
        let server = stats.get("server");
        let read = |v: Option<&Value>| v.and_then(Value::as_int).unwrap_or(0) as u64;
        Ok(Some([
            read(server.and_then(|s| s.get("shed_busy"))),
            read(server.and_then(|s| s.get("protocol_errors"))),
            read(
                server
                    .and_then(|s| s.get("dedup"))
                    .and_then(|d| d.get("hits")),
            ),
        ]))
    }

    /// Graceful shutdown of the server, if there is one.
    fn close(self) -> Result<()> {
        if let System::Secondary {
            server: Some((handle, addr)),
            ..
        } = self
        {
            Wire::connect(addr)?.client().shutdown()?;
            handle.join()?;
        }
        Ok(())
    }
}

/// Run `ops` on `store`, timing each call, checking each result against
/// `model` and applying each write to it.
fn drive(
    store: &mut dyn Store,
    ops: &[Op],
    model: &mut Model,
    scope: Scope,
    rec: &mut Recorder,
    snapshot: Option<&dyn Fn() -> IoPair>,
    indexed: bool,
) -> Tally {
    let mut tally = Tally::default();
    let mut last_io = snapshot.map(|f| f());
    for (i, op) in ops.iter().enumerate() {
        let kind = op.kind();
        if !indexed && !matches!(kind, OpKind::Put | OpKind::Get | OpKind::Del) {
            continue;
        }
        rec.begin_op(i as u64, kind.name());
        let verdict = run_one(store, op, model, scope, rec, &mut tally);
        if let (Some(f), Some(last)) = (snapshot, last_io.as_mut()) {
            let now = f();
            let slot = &mut tally.kinds[kind.index()];
            slot.io = slot.io.plus(&now.since(last));
            *last = now;
        }
        rec.end_op();
        tally.attempted += 1;
        if let Err(message) = verdict {
            tally.fail(message);
        }
    }
    tally
}

/// One operation: the timed call, then the oracle.
fn run_one(
    store: &mut dyn Store,
    op: &Op,
    model: &mut Model,
    scope: Scope,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> std::result::Result<(), String> {
    let kind = op.kind();
    let time = |tally: &mut Tally, started: Instant| {
        tally.lat_ns[kind.index()].push(started.elapsed().as_nanos() as u64);
        tally.kinds[kind.index()].ops += 1;
    };
    let failed = |e: Error| format!("{kind:?} failed: {e}");
    match op {
        Op::Put { key, doc, size } => {
            let started = Instant::now();
            let r = store.put(key, doc, rec);
            time(tally, started);
            rec.enter("bench.check");
            model.put(key, doc, *size);
            rec.exit();
            r.map_err(failed)
        }
        Op::Del { key } => {
            let started = Instant::now();
            let r = store.del(key, rec);
            time(tally, started);
            rec.enter("bench.check");
            model.del(key);
            rec.exit();
            r.map_err(failed)
        }
        Op::Get { key } => {
            let started = Instant::now();
            let r = store.get(key, rec);
            time(tally, started);
            rec.enter("bench.check");
            let verdict = r
                .map_err(failed)
                .and_then(|got| model.check_get(key, got.as_ref()));
            rec.exit();
            verdict
        }
        Op::Lookup { .. } | Op::RangeUsers { .. } | Op::RangeTime { .. } => {
            let (attr, lo, hi, query) = match op {
                Op::Lookup { user } => (
                    "UserID",
                    Value::str(user.as_str()),
                    Value::str(user.as_str()),
                    Query::Users(user, user),
                ),
                Op::RangeUsers { lo, hi } => (
                    "UserID",
                    Value::str(lo.as_str()),
                    Value::str(hi.as_str()),
                    Query::Users(lo, hi),
                ),
                Op::RangeTime { lo, hi } => (
                    "CreationTime",
                    Value::Int(*lo),
                    Value::Int(*hi),
                    Query::Time(*lo, *hi),
                ),
                _ => unreachable!(),
            };
            let started = Instant::now();
            let r = store.range(attr, &lo, &hi, rec);
            time(tally, started);
            rec.enter("bench.check");
            let verdict = r.map_err(failed).and_then(|hits| {
                tally.kinds[kind.index()].hits += hits.len() as u64;
                model.check_hits(query, &hits, scope)
            });
            rec.exit();
            verdict
        }
    }
}

/// Run the main phase: one stream per driver thread, each thread with its
/// own connection, its own recorder and the part of the model it owns.
fn run_main(
    system: &System,
    plan: &Plan,
    model: Model,
    mode: Mode,
    epoch: Instant,
) -> Result<(Tally, Model, Vec<Span>, f64)> {
    let threads = plan.main.len();
    if threads == 1 {
        let mut model = model;
        let (tally, spans, wall) = system.drive_alone(&plan.main[0], 0, &mut model, mode, epoch)?;
        return Ok((tally, model, spans, wall));
    }
    let every = mode.sample_every();
    let indexed = mode.target != Target::RawDb;
    let mut stores = Vec::with_capacity(threads);
    for _ in 0..threads {
        stores.push(system.connect()?);
    }
    let models = model.split(threads);
    let started = Instant::now();
    let outcomes: Vec<(Tally, Model, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = stores
            .into_iter()
            .zip(models)
            .zip(&plan.main)
            .enumerate()
            .map(|(thread, ((mut store, mut model), ops))| {
                s.spawn(move || {
                    let mut rec = Recorder::new(epoch, every, thread as u32, 0);
                    let scope = Scope::Owned { thread, threads };
                    let tally = drive(
                        store.as_mut(),
                        ops,
                        &mut model,
                        scope,
                        &mut rec,
                        None,
                        indexed,
                    );
                    (tally, model, rec.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut spans = Vec::new();
    let mut models = Vec::with_capacity(threads);
    for (t, m, s) in outcomes {
        tally.absorb(t);
        trace::append(&mut spans, s);
        models.push(m);
    }
    Ok((tally, Model::merge(models), spans, wall))
}

/// `durable_put`'s durability check: drop the store without flushing,
/// reopen it on the same environment, and read back every acknowledged
/// key. Returns the reopened system.
fn reopen_and_read_back(
    system: System,
    spec: &Spec,
    env: &Arc<dyn Env>,
    target: Target,
    model: &Model,
    tally: &mut Tally,
) -> Result<System> {
    drop(system);
    let system = System::open(spec, Arc::clone(env), target)?;
    let mut store = system.connect()?;
    let mut rec = Recorder::off();
    for key in model.keys() {
        tally.attempted += 1;
        let verdict = store
            .get(key, &mut rec)
            .map_err(|e| format!("read-back GET {key}: {e}"))
            .and_then(|got| model.check_get(key, got.as_ref()))
            .map_err(|e| format!("lost after reopen: {e}"));
        if let Err(message) = verdict {
            tally.fail(message);
        }
    }
    Ok(system)
}

/// Run one repetition of `workload` on fresh state.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    counts: crate::config::Counts,
    mode: Mode,
) -> Result<Rep> {
    let spec = workload.spec();
    let threads = mode.threads.unwrap_or(spec.threads);
    // Before any thread is spawned: they inherit the pin.
    let _pin = mode.one_cpu.unwrap_or(spec.one_cpu).then(OneCpu::pin);

    // -- set-up ------------------------------------------------------------
    let epoch = Instant::now();
    let plan = ops::plan(workload, seed, counts, threads);
    let gen_s = epoch.elapsed().as_secs_f64();
    let env: Arc<dyn Env> = match spec.env {
        EnvKind::Mem => MemEnv::new(),
        EnvKind::SyncLatency => SyncLatencyEnv::new(MemEnv::new(), SYNC_DELAY),
    };
    let mut system = System::open(&spec, Arc::clone(&env), mode.target)?;
    let mut model = Model::default();
    let mut tally = Tally::default();
    system.preload(&plan.preload, &mut model, &mut tally)?;
    let setup_s = epoch.elapsed().as_secs_f64();

    // -- main phase --------------------------------------------------------
    let io_start = system.io();
    let (main, merged, mut spans, main_wall_s) = run_main(&system, &plan, model, mode, epoch)?;
    model = merged;
    let main_io = system.io().since(&io_start);
    let main_ops: u64 = main.kinds.iter().map(|k| k.ops).sum();
    // Threads running side by side cannot split counters by operation —
    // unless the phase ran one kind only, whose delta is the phase's.
    let mut main = main;
    if mode.traced && plan.main.len() > 1 {
        let mut present = main.kinds.iter_mut().filter(|k| k.ops > 0);
        if let (Some(only), None) = (present.next(), present.next()) {
            only.io = main_io;
        }
    }
    let main_ns: u64 = main.lat_ns.iter().flatten().sum();
    tally.absorb(main);

    // The store's life may span two instances: counters restart on reopen.
    let mut earlier_lives = IoPair::default();
    if workload == Workload::DurablePut {
        earlier_lives = system.io();
        system = reopen_and_read_back(system, &spec, &env, mode.target, &model, &mut tally)?;
    }

    // -- probe phase -------------------------------------------------------
    let probe_io_start = system.io();
    // Span ids go on where the longest main stream ended, so that
    // (thread, op) names one operation of the repetition.
    let probe_first_op = plan.main.iter().map(Vec::len).max().unwrap_or(0) as u64;
    let (probe, probe_spans, probe_wall_s) =
        system.drive_alone(&plan.probe, probe_first_op, &mut model, mode, epoch)?;
    tally.absorb(probe);
    trace::append(&mut spans, probe_spans);
    let measured_io = main_io.plus(&system.io().since(&probe_io_start));

    // -- final state -------------------------------------------------------
    system.settle()?;
    let life_io = earlier_lives.plus(&system.io());
    let (total_bytes, index_bytes) = match &system {
        System::Secondary { db, .. } => {
            tally.attempted += 1;
            let report = db.check_integrity();
            if !report.is_clean() {
                tally.fail(format!(
                    "check_integrity: {} violation(s), first: {:?}",
                    report.violations.len(),
                    report.violations.first()
                ));
            }
            (db.total_bytes(), db.index_bytes())
        }
        System::Raw(db) => (db.table_bytes(), 0),
    };
    let server_counters = system.server_counters()?;
    system.close()?;

    for ns in &mut tally.lat_ns {
        ns.sort_unstable();
    }
    Ok(Rep {
        setup_s,
        gen_s,
        generated_ops: plan.total_ops(),
        main_wall_s,
        main_ops,
        main_mean_us: main_ns as f64 / main_ops.max(1) as f64 / 1e3,
        measured_s: main_wall_s + probe_wall_s,
        lat_ns: tally.lat_ns,
        kinds: tally.kinds,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        life_io,
        measured_io,
        written_bytes: model.written_bytes,
        live_bytes: model.live_bytes(),
        total_bytes,
        index_bytes,
        server_counters,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Counts;

    /// Every workload runs at `--quick` scale, the oracle accepts every
    /// result, and each reports every kind of latency.
    #[test]
    fn every_workload_runs_clean_and_measures_every_kind() {
        for w in Workload::ALL {
            for mode in [Mode::UNTRACED, Mode::TRACED] {
                let rep = run_rep(w, 42, Counts::quick(), mode).unwrap();
                assert_eq!(rep.failed, 0, "{}: {:?}", w.name(), rep.errors);
                assert!(rep.attempted > 0);
                for kind in [
                    OpKind::Put,
                    OpKind::Get,
                    OpKind::Lookup,
                    OpKind::RangeLookup,
                    OpKind::TimeRange,
                ] {
                    assert!(
                        !rep.lat_ns[kind.index()].is_empty(),
                        "{} has no {kind:?} latency",
                        w.name()
                    );
                }
                assert!(rep.write_amp() > 1.0 && rep.space_amp() > 0.0);
                assert_eq!(rep.spans.is_empty(), !mode.traced);
            }
        }
    }

    /// `static_load` runs the engine in its deterministic foreground
    /// mode: two repetitions must agree on every counter.
    #[test]
    fn static_load_counters_repeat_exactly() {
        let a = run_rep(Workload::StaticLoad, 42, Counts::quick(), Mode::UNTRACED).unwrap();
        let b = run_rep(Workload::StaticLoad, 42, Counts::quick(), Mode::UNTRACED).unwrap();
        assert_eq!(a.life_io, b.life_io);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.write_amp(), b.write_amp());
    }

    /// A raw-`Db` replay runs the PUT and GET stream only.
    #[test]
    fn raw_replay_skips_secondary_queries() {
        let mode = Mode {
            target: Target::RawDb,
            ..Mode::UNTRACED
        };
        let rep = run_rep(Workload::StaticQuery, 42, Counts::quick(), mode).unwrap();
        assert_eq!(rep.failed, 0, "{:?}", rep.errors);
        assert!(rep.lat_ns[OpKind::Lookup.index()].is_empty());
        assert!(!rep.lat_ns[OpKind::Get.index()].is_empty());
    }
}
