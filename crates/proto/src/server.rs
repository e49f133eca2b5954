//! The connection-per-client TCP server in front of a sharded
//! [`SecondaryDb`].
//!
//! # Threading model
//!
//! One nonblocking accept thread plus one thread per live connection.
//! Writes (`PUT`/`DEL`/`BATCH`) call straight into the engine, where the
//! group-commit writer queue batches concurrent connections into shared
//! WAL records and fsyncs; reads (`GET`/`LOOKUP`/`RANGELOOKUP`) ride the
//! lock-free snapshot path and never block writers. The accept loop is
//! bounded: beyond `max_conns` live connections a newcomer gets a
//! `Busy` error frame and an immediate close, so a connection flood
//! degrades into rejections instead of unbounded threads.
//!
//! # Shutdown / failure contract
//!
//! A `SHUTDOWN` request triggers the graceful drain: the server stops
//! accepting, in-flight requests on other connections run to completion
//! and are acked, idle connections are closed, the engine is flushed,
//! and only then is the `SHUTDOWN` acked and the process free to exit.
//! Concretely: any write whose ack was sent before the shutdown ack is
//! durable (the server runs with `wal_sync` on by default, so acks
//! follow the fsync). A *non*-graceful death (kill -9) loses nothing
//! that was acked either — that is the engine's WAL contract, exercised
//! by `tests/server_crash.rs` — but may lose unacked in-flight frames.
//!
//! Malformed input never kills the server: a frame that fails CRC or
//! body decoding gets a `Protocol` error response and the connection
//! stays usable (the length prefix kept the stream in sync); only an
//! unrecoverable framing error (oversized length, truncated stream)
//! closes that one connection.
//!
//! # Overload and retries (DESIGN.md §18)
//!
//! Two admission bounds shed load instead of queueing it: beyond
//! `max_conns` live connections a newcomer is rejected at accept, and
//! beyond `max_inflight` concurrently executing requests a decoded
//! request is answered `Busy` without touching the engine. Both `Busy`
//! responses carry a `retry_after_ms` hint. A connection that announces
//! a retry session (`HELLO`) gets idempotent writes: `PUT`/`DEL`/`BATCH`
//! request ids are deduplicated through a bounded [`DedupMap`] window,
//! so a client resend of a write whose ack was lost is re-acked with the
//! original committed sequence instead of re-applied. Lookups carrying
//! the degraded flag are dispatched in
//! [`ReadMode::Degraded`](ldbpp_core::secondary_db::ReadMode) and
//! return partial results tagged with the failed shard set.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ldbpp_common::coding::decode_fixed32;
use ldbpp_common::json::Value;
use ldbpp_common::{Error, Result};
use ldbpp_core::doc::Document;
use ldbpp_core::secondary_db::{ReadMode, SecondaryDb};
use ldbpp_lsm::env::IoSnapshot;

use crate::dedup::{DedupConfig, DedupMap};
use crate::drain::DrainGate;
use crate::wire::{
    check_frame, salvage_request_id, ErrorCode, Hit, Request, Response, WireValue, WriteOp,
    MAX_FRAME_LEN, MIN_FRAME_LEN,
};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Live-connection bound; newcomers beyond it are rejected with
    /// [`ErrorCode::Busy`].
    pub max_conns: usize,
    /// Read poll interval: how often an idle connection wakes up to
    /// check the drain flag. Bounds shutdown latency from idle clients.
    pub read_poll: Duration,
    /// How long a drain waits for a half-received frame to finish
    /// arriving before abandoning that connection.
    pub drain_grace: Duration,
    /// Socket write timeout (a peer that stops reading cannot wedge a
    /// connection thread forever).
    pub write_timeout: Duration,
    /// In-flight request bound: beyond it a decoded request is shed with
    /// `Busy` + a retry-after hint instead of queueing on the engine.
    /// Tighter than `max_conns` by design — idle connections are cheap,
    /// executing requests are not.
    pub max_inflight: usize,
    /// Sizing of the per-session write-dedup window (idempotent
    /// retries).
    pub dedup: DedupConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_conns: 64,
            read_poll: Duration::from_millis(50),
            drain_grace: Duration::from_secs(5),
            write_timeout: Duration::from_secs(30),
            max_inflight: 32,
            dedup: DedupConfig::default(),
        }
    }
}

/// Counters and flags shared by the accept loop and connection threads.
struct Shared {
    db: Arc<SecondaryDb>,
    cfg: ServerConfig,
    /// The graceful-drain protocol state (see [`crate::drain`]): the
    /// drain flag, active-request count, and shutdown-waiter count.
    gate: Arc<DrainGate>,
    /// Live connection threads.
    conns: AtomicUsize,
    /// Connections ever accepted (including rejected-busy ones).
    accepted: AtomicU64,
    /// Connections rejected with `Busy`.
    rejected: AtomicU64,
    /// Requests served (any response sent, success or error).
    requests: AtomicU64,
    /// Requests answered with a `Protocol` error.
    protocol_errors: AtomicU64,
    /// Requests shed with `Busy` by the in-flight bound.
    shed_busy: AtomicU64,
    /// The write-dedup table for retry sessions.
    dedup: DedupMap,
}

/// A running server. Dropping the handle does *not* stop the server;
/// send a `SHUTDOWN` request (e.g. [`crate::Client::shutdown`]) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    accept_thread: Option<thread::JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a `SHUTDOWN` request has started the drain.
    pub fn is_draining(&self) -> bool {
        self.shared.gate.is_draining()
    }

    /// Block until the server has fully shut down (accept loop exited,
    /// every connection thread finished).
    pub fn join(mut self) -> Result<()> {
        if let Some(t) = self.accept_thread.take() {
            t.join()
                .map_err(|_| Error::io("server accept thread panicked"))?;
        }
        Ok(())
    }
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Bind `addr` and start serving `db`. Returns once the listener is
    /// bound and accepting; the returned handle reports the actual
    /// address (use port 0 for an ephemeral port).
    pub fn start(db: Arc<SecondaryDb>, addr: &str, cfg: ServerConfig) -> Result<ServerHandle> {
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::io(format!("bind {addr}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::io(format!("set_nonblocking: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| Error::io(format!("local_addr: {e}")))?;
        let dedup = DedupMap::new(cfg.dedup);
        let shared = Arc::new(Shared {
            db,
            cfg,
            gate: Arc::new(DrainGate::new()),
            conns: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            shed_busy: AtomicU64::new(0),
            dedup,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("ldbpp-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| Error::io(format!("spawn accept thread: {e}")))?;
        Ok(ServerHandle {
            addr: local,
            accept_thread: Some(accept_thread),
            shared,
        })
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.gate.is_draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                if shared.conns.load(Ordering::SeqCst) >= shared.cfg.max_conns {
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    reject_busy(stream, &shared);
                    continue;
                }
                shared.conns.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(&shared);
                let spawned = thread::Builder::new()
                    .name("ldbpp-conn".into())
                    .spawn(move || {
                        serve_connection(stream, &conn_shared);
                        conn_shared.conns.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    // Spawn failure: undo the slot; the client sees a close.
                    shared.conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
    // Draining: stop accepting, wait for every connection thread to
    // finish (they all notice the flag within one read_poll).
    while shared.conns.load(Ordering::SeqCst) > 0 {
        thread::sleep(Duration::from_millis(2));
    }
}

/// The retry-after hint attached to `Busy` responses: long enough for
/// in-flight work to make progress (a couple of poll ticks), short
/// enough that a backing-off client converges quickly.
fn retry_after_hint(cfg: &ServerConfig) -> u64 {
    (cfg.read_poll.as_millis() as u64).saturating_mul(2).max(1)
}

/// Best-effort `Busy` reply to a connection over the bound; the request
/// id is unknowable (nothing was read), so 0 is used by convention.
fn reject_busy(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let frame = Response::Err {
        code: ErrorCode::Busy,
        message: format!("connection limit ({}) reached", shared.cfg.max_conns),
        retry_after_ms: retry_after_hint(&shared.cfg),
    }
    .encode(0);
    let _ = stream.write_all(&frame);
}

/// Why a frame read stopped.
enum ReadOutcome {
    /// A complete, CRC-valid payload. `active` was already incremented.
    Frame(Vec<u8>),
    /// Peer closed (or an I/O error) — drop the connection silently.
    Closed,
    /// The server is draining and this connection is idle (or overran
    /// the drain grace mid-frame) — close it.
    Draining,
    /// A full frame arrived but failed its CRC. The length prefix kept
    /// the stream in sync, so reply with a protocol error and continue.
    BadCrc(String),
    /// Framing is unrecoverable (out-of-bounds length, truncated body):
    /// reply with `msg` then close.
    Fatal(String),
}

/// Read one frame from a socket whose read timeout is `read_poll`,
/// checking the drain flag between polls. On success the request is
/// registered in `shared.active` *before* returning, so a concurrently
/// arriving `SHUTDOWN` is guaranteed to wait for it.
fn read_frame_polled(stream: &mut TcpStream, shared: &Shared) -> ReadOutcome {
    let mut header = [0u8; 4];
    let mut body: Vec<u8> = Vec::new();
    let mut got = 0usize; // bytes of header, then of body
    let mut reading_body = false;
    let mut drain_deadline: Option<Instant> = None;

    loop {
        if shared.gate.is_draining() {
            if got == 0 && !reading_body {
                return ReadOutcome::Draining; // idle connection
            }
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + shared.cfg.drain_grace);
            if Instant::now() >= deadline {
                return ReadOutcome::Draining; // half a frame, out of grace
            }
        }
        let dst: &mut [u8] = if reading_body {
            &mut body[got..]
        } else {
            &mut header[got..]
        };
        match stream.read(dst) {
            Ok(0) => {
                return if got == 0 && !reading_body {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Fatal("connection closed mid frame".into())
                };
            }
            Ok(n) => {
                got += n;
                if !reading_body && got == 4 {
                    let len = decode_fixed32(&header) as usize;
                    if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
                        return ReadOutcome::Fatal(format!(
                            "frame length {len} outside [{MIN_FRAME_LEN}, {MAX_FRAME_LEN}]"
                        ));
                    }
                    body = vec![0u8; len];
                    got = 0;
                    reading_body = true;
                } else if reading_body && got == body.len() {
                    return match check_frame(&body) {
                        Ok(payload) => {
                            // Register before returning: see doc comment.
                            shared.gate.register_request();
                            ReadOutcome::Frame(payload.to_vec())
                        }
                        Err(e) => ReadOutcome::BadCrc(e.to_string()),
                    };
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // poll tick: loop re-checks the drain flag
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Closed,
        }
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(shared.cfg.read_poll)).is_err()
        || stream
            .set_write_timeout(Some(shared.cfg.write_timeout))
            .is_err()
    {
        return;
    }
    // The retry session bound to this connection by `HELLO`, if any.
    // Writes under a session are deduplicated by request id.
    let mut session: Option<u64> = None;
    loop {
        match read_frame_polled(&mut stream, shared) {
            ReadOutcome::Closed => return,
            ReadOutcome::Draining => return,
            ReadOutcome::BadCrc(msg) => {
                // The payload is untrustworthy (its id included), so the
                // error carries id 0; the connection stays usable.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let frame = Response::protocol_error(msg).encode(0);
                if stream.write_all(&frame).is_err() {
                    return;
                }
            }
            ReadOutcome::Fatal(msg) => {
                // The stream cannot be re-synced; best-effort error, close.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let frame = Response::protocol_error(msg).encode(0);
                let _ = stream.write_all(&frame);
                return;
            }
            ReadOutcome::Frame(payload) => {
                // `active` is held; every exit path below must release it.
                let (id, resp, close) = match Request::decode(&payload) {
                    Err(e) => {
                        // Body didn't decode but the frame boundary held:
                        // answer and keep the connection.
                        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        (
                            salvage_request_id(&payload),
                            Response::protocol_error(e.to_string()),
                            false,
                        )
                    }
                    Ok((id, Request::Shutdown)) => {
                        let resp = handle_shutdown(shared);
                        (id, resp, true)
                    }
                    Ok((id, Request::Hello { session_id })) => {
                        // Bind (or rebind) this connection to a retry
                        // session; writes from here on are idempotent
                        // per request id.
                        session = Some(session_id);
                        (id, Response::Ok, false)
                    }
                    Ok((id, req)) => {
                        let inflight = shared.gate.active_requests();
                        let resp = if shared.gate.is_draining() {
                            // Raced past the drain check in the reader;
                            // refuse rather than extend the drain.
                            Response::Err {
                                code: ErrorCode::ShuttingDown,
                                message: "server is draining".into(),
                                retry_after_ms: 0,
                            }
                        } else if inflight > shared.cfg.max_inflight {
                            // Shed before touching the engine. This
                            // request is itself registered, so strictly
                            //-greater-than admits `max_inflight`
                            // executors.
                            shared.shed_busy.fetch_add(1, Ordering::Relaxed);
                            Response::Err {
                                code: ErrorCode::Busy,
                                message: format!(
                                    "server overloaded: {inflight} request(s) in flight \
                                     (bound {})",
                                    shared.cfg.max_inflight
                                ),
                                retry_after_ms: retry_after_hint(&shared.cfg),
                            }
                        } else {
                            match session {
                                Some(s) if is_write(&req) => {
                                    shared.dedup.execute(s, id, || handle_request(shared, req))
                                }
                                _ => handle_request(shared, req),
                            }
                        };
                        (id, resp, false)
                    }
                };
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let frame = resp.encode(id);
                let sent = stream.write_all(&frame);
                shared.gate.finish_request();
                if close || sent.is_err() {
                    return;
                }
            }
        }
    }
}

/// Graceful-drain implementation. Runs on the connection thread that
/// received the `SHUTDOWN`; `active` includes this request.
fn handle_shutdown(shared: &Shared) -> Response {
    shared.gate.begin_shutdown();
    // Wait until every active request is a shutdown handler like us.
    DrainGate::await_drained(&shared.gate);
    let resp = match shared.db.flush() {
        Ok(()) => Response::Ok,
        Err(e) => Response::from_error(&e),
    };
    shared.gate.end_shutdown();
    resp
}

/// True for the requests that go through the write-dedup window.
fn is_write(req: &Request) -> bool {
    matches!(
        req,
        Request::Put { .. } | Request::Del { .. } | Request::Batch { .. }
    )
}

fn read_mode(degraded: bool) -> ReadMode {
    if degraded {
        ReadMode::Degraded
    } else {
        ReadMode::Strict
    }
}

fn handle_request(shared: &Shared, req: Request) -> Response {
    let db = &*shared.db;
    let result = match req {
        Request::Put { pk, doc } => do_put(db, &pk, &doc).map(Response::Seq),
        Request::Get { pk } => db
            .get(&pk)
            .map(|opt| Response::Doc(opt.map(|d| d.to_bytes()))),
        Request::Del { pk } => db.delete(&pk).map(|()| Response::Ok),
        Request::Lookup {
            attr,
            value,
            k,
            degraded,
        } => db
            .lookup_mode(
                &attr,
                &to_json(&value),
                k.map(|k| k as usize),
                read_mode(degraded),
            )
            .map(|partial| Response::Hits {
                hits: to_wire_hits(partial.value),
                failed_shards: partial.failed_shards.iter().map(|&s| s as u64).collect(),
            }),
        Request::RangeLookup {
            attr,
            lo,
            hi,
            k,
            degraded,
        } => db
            .range_lookup_mode(
                &attr,
                &to_json(&lo),
                &to_json(&hi),
                k.map(|k| k as usize),
                read_mode(degraded),
            )
            .map(|partial| Response::Hits {
                hits: to_wire_hits(partial.value),
                failed_shards: partial.failed_shards.iter().map(|&s| s as u64).collect(),
            }),
        Request::Batch { ops } => Ok(do_batch(db, ops)),
        Request::Stats { include_integrity } => {
            stats_json(db, include_integrity, Some(server_counters(shared))).map(Response::Stats)
        }
        Request::Hello { .. } | Request::Shutdown => unreachable!("handled by caller"),
    };
    match result {
        Ok(resp) => resp,
        Err(e) => Response::from_error(&e),
    }
}

fn do_put(db: &SecondaryDb, pk: &[u8], doc: &[u8]) -> Result<u64> {
    let doc = Document::parse(doc)
        .map_err(|e| Error::invalid(format!("document is not a JSON object: {e}")))?;
    db.put(pk, &doc)
}

fn do_batch(db: &SecondaryDb, ops: Vec<WriteOp>) -> Response {
    let mut applied = 0u64;
    let mut last_seq = 0u64;
    for op in ops {
        let res = match op {
            WriteOp::Put { pk, doc } => do_put(db, &pk, &doc).map(|seq| last_seq = seq),
            WriteOp::Del { pk } => db.delete(&pk),
        };
        if let Err(e) = res {
            return Response::Err {
                code: ErrorCode::of_error(&e),
                message: format!("batch failed after {applied} op(s): {e}"),
                retry_after_ms: 0,
            };
        }
        applied += 1;
    }
    Response::Batch { applied, last_seq }
}

fn to_json(v: &WireValue) -> Value {
    match v {
        WireValue::Str(s) => Value::Str(s.clone()),
        WireValue::Int(i) => Value::Int(*i),
    }
}

fn to_wire_hits(hits: Vec<ldbpp_core::indexes::LookupHit>) -> Vec<Hit> {
    hits.into_iter()
        .map(|h| Hit {
            key: h.key,
            seq: h.seq,
            doc: h.doc.to_bytes(),
        })
        .collect()
}

fn io_to_value(io: &IoSnapshot) -> Value {
    let hist = Value::Array(
        io.group_size_hist
            .iter()
            .map(|&n| Value::Int(n as i64))
            .collect(),
    );
    Value::object(
        io.counters()
            .map(|(name, n)| (name, Value::Int(n as i64)))
            .chain([("group_size_hist", hist)]),
    )
}

fn stats_json(db: &SecondaryDb, include_integrity: bool, server: Option<Value>) -> Result<String> {
    let merged = IoSnapshot::merge([db.primary_io(), db.index_io()]);
    let degraded = db.degraded_stats();
    let mut root = Value::object([
        ("shards", Value::Int(db.shard_count() as i64)),
        ("primary_io", io_to_value(&db.primary_io())),
        ("index_io", io_to_value(&db.index_io())),
        ("merged_io", io_to_value(&merged)),
        (
            "degraded",
            Value::object([
                ("degraded_reads", Value::Int(degraded.degraded_reads as i64)),
                (
                    "failed_shard_reads",
                    Value::Int(degraded.failed_shard_reads as i64),
                ),
            ]),
        ),
    ]);
    if let Some(server) = server {
        root.insert("server", server);
    }
    if include_integrity {
        db.wait_for_background_idle()?;
        let report = db.check_integrity();
        root.insert(
            "integrity",
            Value::object([
                ("clean", Value::Bool(report.is_clean())),
                ("violations", Value::Int(report.violations.len() as i64)),
            ]),
        );
    }
    Ok(root.to_json())
}

/// Server-side counters, attached by the connection handler on `STATS`
/// (kept separate from [`stats_json`] so the engine half is testable
/// without a socket).
fn server_counters(shared: &Shared) -> Value {
    let dedup = shared.dedup.snapshot();
    Value::object([
        (
            "connections",
            Value::Int(shared.conns.load(Ordering::SeqCst) as i64),
        ),
        (
            "accepted",
            Value::Int(shared.accepted.load(Ordering::Relaxed) as i64),
        ),
        (
            "rejected_busy",
            Value::Int(shared.rejected.load(Ordering::Relaxed) as i64),
        ),
        (
            "requests",
            Value::Int(shared.requests.load(Ordering::Relaxed) as i64),
        ),
        (
            "protocol_errors",
            Value::Int(shared.protocol_errors.load(Ordering::Relaxed) as i64),
        ),
        (
            "shed_busy",
            Value::Int(shared.shed_busy.load(Ordering::Relaxed) as i64),
        ),
        (
            "dedup",
            Value::object([
                ("hits", Value::Int(dedup.hits as i64)),
                ("sessions", Value::Int(dedup.sessions as i64)),
                (
                    "evicted_sessions",
                    Value::Int(dedup.evicted_sessions as i64),
                ),
            ]),
        ),
        ("draining", Value::Bool(shared.gate.is_draining())),
    ])
}
