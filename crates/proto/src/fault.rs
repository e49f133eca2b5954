//! Network fault injection: the wire analogue of the engine's
//! `FaultEnv` (DESIGN.md §18).
//!
//! Two layers, both deterministic and seedable:
//!
//! * [`FaultStream`] — a byte-level decorator over any `Read + Write`
//!   stream that can error a read/write at the Nth byte, garble a byte
//!   at an exact offset, or shatter reads into single bytes. The unit
//!   of fault is a *byte offset*, mirroring `FaultPlan::fail_at`.
//! * [`ChaosProxy`] — an in-process TCP proxy for a real server (or an
//!   in-process one) that parses the length-prefixed framing and makes
//!   one fault decision per *frame* per direction: pass, drop, delay,
//!   garble (flip a payload bit, tripping the receiver's CRC), truncate
//!   mid-frame then sever, split the write into trickled chunks, or
//!   sever the connection outright. Decisions come from a seeded
//!   xorshift RNG (per-connection, per-direction streams, so a schedule
//!   is reproducible from one seed) plus an optional per-frame script
//!   for exact placements — e.g. "sever the connection carrying the
//!   response to the 2nd request *after* the server committed it".
//!
//! Every injected fault is counted in [`NetFaultStats`], mirroring the
//! `FaultEnv::mirror_stats` idiom so tests can assert a schedule
//! actually exercised what it claims to.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ldbpp_common::{Error, Result};
use ldbpp_lsm::sync::{AtomicBool, Ordering};

use crate::wire::{MAX_FRAME_LEN, MIN_FRAME_LEN};

// -- deterministic rng ------------------------------------------------------

/// xorshift64* — the same tiny deterministic generator the test
/// harnesses use; good enough for fault placement, zero dependencies.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeded generator (`seed` 0 is remapped — xorshift has a zero
    /// fixed point).
    pub fn new(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, n)` (`n` must be non-zero).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A per-mille roll: true with probability `pm`/1000.
    pub fn roll(&mut self, pm: u32) -> bool {
        pm > 0 && self.below(1000) < u64::from(pm)
    }
}

// -- stats ------------------------------------------------------------------

ldbpp_common::counters! {
    /// Counters of injected faults, shared by the injector and the test
    /// asserting on it (the network mirror of `FaultEnv`'s stats).
    pub struct NetFaultStats;
    /// Plain-integer snapshot of [`NetFaultStats`].
    pub struct NetFaultSnapshot;
    /// Connections the proxy accepted.
    conns,
    /// Frames forwarded unmodified (including delayed/split ones).
    frames_forwarded,
    /// Frames silently swallowed.
    frames_dropped,
    /// Frames forwarded after an injected delay.
    frames_delayed,
    /// Frames forwarded with a flipped payload bit (CRC will fail).
    frames_garbled,
    /// Frames cut mid-body before the connection was severed.
    frames_truncated,
    /// Frames trickled out in single-digit-byte chunks.
    frames_split,
    /// Connections torn down by injection (not by the endpoints).
    severs,
    /// Byte-level faults injected by [`FaultStream`].
    byte_faults,
}

impl NetFaultSnapshot {
    /// Total frames the proxy touched in any way.
    pub fn frames_total(&self) -> u64 {
        self.frames_forwarded + self.frames_dropped + self.frames_garbled + self.frames_truncated
    }

    /// Total distinct fault injections.
    pub fn faults_injected(&self) -> u64 {
        self.frames_dropped
            + self.frames_delayed
            + self.frames_garbled
            + self.frames_truncated
            + self.frames_split
            + self.severs
            + self.byte_faults
    }
}

// -- per-frame fault model --------------------------------------------------

/// One fault decision for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Forward unmodified.
    Pass,
    /// Swallow the frame (the sender waits for a response that never
    /// comes — the client-timeout path).
    Drop,
    /// Forward after sleeping the direction's configured delay.
    Delay,
    /// Flip one payload bit so the receiver's CRC check fails.
    Garble,
    /// Forward a strict prefix of the frame, then sever the connection.
    Truncate,
    /// Sever the connection without forwarding.
    Sever,
    /// Forward in 3 trickled chunks (exercises short reads / frame
    /// reassembly on the receiver).
    Split,
}

/// Fault configuration for one direction of a proxied connection.
/// Random rates are per-mille per frame; `script` pins exact frames to
/// exact faults (overriding the rates), and `sever_at_frame`
/// deterministically tears the connection down at the Nth frame.
#[derive(Debug, Clone, Default)]
pub struct DirectedFaults {
    /// Per-mille probability of [`NetFault::Drop`].
    pub drop_per_mille: u32,
    /// Per-mille probability of [`NetFault::Delay`].
    pub delay_per_mille: u32,
    /// Sleep applied by [`NetFault::Delay`].
    pub delay: Duration,
    /// Per-mille probability of [`NetFault::Garble`].
    pub garble_per_mille: u32,
    /// Per-mille probability of [`NetFault::Truncate`].
    pub truncate_per_mille: u32,
    /// Per-mille probability of [`NetFault::Split`].
    pub split_per_mille: u32,
    /// Sever the connection when about to forward this frame index
    /// (0-based, per connection).
    pub sever_at_frame: Option<u64>,
    /// `(frame index, fault)` overrides, per connection.
    pub script: Vec<(u64, NetFault)>,
    /// Restrict `script` to this 0-based proxied-connection index
    /// (`None` = every connection). Without this, a scripted sever
    /// would re-fire on every reconnect — frame indices reset per
    /// connection — so "sever the ack, then let the retry through"
    /// needs the script pinned to the first connection.
    pub script_conn: Option<u64>,
}

impl DirectedFaults {
    /// No faults at all.
    pub fn clean() -> DirectedFaults {
        DirectedFaults::default()
    }

    /// The fault decision for frame `idx` of connection `conn`.
    fn action_for(&self, conn: u64, idx: u64, rng: &mut XorShift) -> NetFault {
        if self.script_conn.is_none_or(|c| c == conn) {
            if let Some((_, f)) = self.script.iter().find(|(i, _)| *i == idx) {
                return *f;
            }
        }
        if self.sever_at_frame == Some(idx) {
            return NetFault::Sever;
        }
        if rng.roll(self.drop_per_mille) {
            return NetFault::Drop;
        }
        if rng.roll(self.garble_per_mille) {
            return NetFault::Garble;
        }
        if rng.roll(self.truncate_per_mille) {
            return NetFault::Truncate;
        }
        if rng.roll(self.split_per_mille) {
            return NetFault::Split;
        }
        if rng.roll(self.delay_per_mille) {
            return NetFault::Delay;
        }
        NetFault::Pass
    }
}

/// A full proxy fault schedule: a seed plus per-direction configs.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    /// Seed for the per-connection, per-direction RNG streams.
    pub seed: u64,
    /// Faults applied to client→server frames (requests).
    pub to_server: DirectedFaults,
    /// Faults applied to server→client frames (responses).
    pub to_client: DirectedFaults,
}

impl NetFaultPlan {
    /// A transparent proxy (no faults) — the control schedule.
    pub fn clean(seed: u64) -> NetFaultPlan {
        NetFaultPlan {
            seed,
            ..NetFaultPlan::default()
        }
    }

    /// A bounded randomized schedule derived from `seed`: each
    /// direction gets drop/garble/truncate/split/delay rates drawn in
    /// `[0, 60]` per-mille (delay ≤ 3 ms), heavy enough to bite on a
    /// small workload, light enough that a budgeted retry client always
    /// gets through.
    pub fn randomized(seed: u64) -> NetFaultPlan {
        let mut rng = XorShift::new(seed ^ 0xc4a5_9e1d);
        let dir = |rng: &mut XorShift| DirectedFaults {
            drop_per_mille: rng.below(61) as u32,
            delay_per_mille: rng.below(61) as u32,
            delay: Duration::from_micros(rng.below(3000)),
            garble_per_mille: rng.below(61) as u32,
            truncate_per_mille: rng.below(31) as u32,
            split_per_mille: rng.below(61) as u32,
            sever_at_frame: None,
            script: Vec::new(),
            script_conn: None,
        };
        NetFaultPlan {
            seed,
            to_server: dir(&mut rng),
            to_client: dir(&mut rng),
        }
    }
}

// -- the proxy --------------------------------------------------------------

/// An in-process chaos TCP proxy: listens on an ephemeral local port,
/// forwards each accepted connection to `upstream`, and injects the
/// plan's faults frame by frame. [`ChaosProxy::stop`] (or drop) severs
/// everything and joins the worker threads.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<NetFaultStats>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

/// How long pump loops sleep between polls of a quiet socket; bounds
/// both stop latency and the resolution of injected delays.
const POLL: Duration = Duration::from_millis(2);

impl ChaosProxy {
    /// Start a proxy in front of `upstream` with the given fault plan.
    pub fn start(upstream: SocketAddr, plan: NetFaultPlan) -> Result<ChaosProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| Error::io(format!("chaos proxy bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::io(format!("chaos proxy local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::io(format!("chaos proxy nonblocking: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(NetFaultStats::default());
        let accept_stop = Arc::clone(&stop);
        let accept_stats = Arc::clone(&stats);
        let accept_thread = std::thread::Builder::new()
            .name("chaos-accept".into())
            .spawn(move || accept_loop(&listener, upstream, &plan, &accept_stop, &accept_stats))
            .map_err(|e| Error::io(format!("spawn chaos accept loop: {e}")))?;
        Ok(ChaosProxy {
            addr,
            stop,
            stats,
            accept_thread: Some(accept_thread),
        })
    }

    /// The local address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters of what the proxy has injected so far.
    pub fn stats(&self) -> NetFaultSnapshot {
        self.stats.snapshot()
    }

    /// Sever all proxied connections, stop accepting, and join the
    /// worker threads. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Both sockets of one proxied connection. `&TcpStream` implements
/// `Read`/`Write`, so the two pump threads share the pair and a sever
/// tears down both directions at once.
struct ConnPair {
    client: TcpStream,
    server: TcpStream,
}

impl ConnPair {
    fn sever(&self) {
        let _ = self.client.shutdown(Shutdown::Both);
        let _ = self.server.shutdown(Shutdown::Both);
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: &NetFaultPlan,
    stop: &Arc<AtomicBool>,
    stats: &Arc<NetFaultStats>,
) {
    let mut pumps: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut conns: Vec<Arc<ConnPair>> = Vec::new();
    let mut conn_index = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                NetFaultStats::add(&stats.conns, 1);
                match TcpStream::connect_timeout(&upstream, Duration::from_secs(5)) {
                    Ok(server) => {
                        let _ = client.set_nodelay(true);
                        let _ = server.set_nodelay(true);
                        let _ = client.set_read_timeout(Some(POLL));
                        let _ = server.set_read_timeout(Some(POLL));
                        let pair = Arc::new(ConnPair { client, server });
                        conns.push(Arc::clone(&pair));
                        for (lane, name, faults) in [
                            (1u64, "c2s", plan.to_server.clone()),
                            (2u64, "s2c", plan.to_client.clone()),
                        ] {
                            let pair = Arc::clone(&pair);
                            let stop = Arc::clone(stop);
                            let stats = Arc::clone(stats);
                            let rng = XorShift::new(
                                plan.seed ^ conn_index.rotate_left(17) ^ lane.wrapping_mul(0x9e37),
                            );
                            if let Ok(h) = std::thread::Builder::new()
                                .name(format!("chaos-{name}-{conn_index}"))
                                .spawn(move || {
                                    pump(&pair, conn_index, lane == 1, &faults, rng, &stop, &stats)
                                })
                            {
                                pumps.push(h);
                            }
                        }
                    }
                    Err(_) => drop(client), // upstream gone: refuse by closing
                }
                conn_index += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => break,
        }
    }
    // Stopping: sever everything so the pump threads unblock and exit.
    for pair in &conns {
        pair.sever();
    }
    for h in pumps {
        let _ = h.join();
    }
}

/// Outcome of pulling one frame off the source socket.
enum PumpRead {
    Frame(Vec<u8>),
    /// Clean EOF (or a fatal socket state): this direction is done.
    Closed,
}

/// Read one full raw frame (length prefix + body) from `src`,
/// tolerating read-timeout polls so `stop` stays responsive.
fn read_raw_frame(
    mut src: &TcpStream,
    stop: &AtomicBool,
    buf4: &mut [u8; 4],
) -> std::io::Result<PumpRead> {
    let mut got = 0usize;
    while got < 4 {
        match src.read(&mut buf4[got..]) {
            Ok(0) => return Ok(PumpRead::Closed),
            Ok(n) => got += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) && got == 0 {
                    return Ok(PumpRead::Closed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(PumpRead::Closed),
        }
    }
    let len = u32::from_le_bytes(*buf4) as usize;
    if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
        // The endpoints speak the protocol honestly, so this means the
        // stream is already broken; give up on the connection.
        return Ok(PumpRead::Closed);
    }
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(buf4);
    frame.resize(4 + len, 0);
    let mut got = 4usize;
    while got < frame.len() {
        match src.read(&mut frame[got..]) {
            Ok(0) => return Ok(PumpRead::Closed),
            Ok(n) => got += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(PumpRead::Closed),
        }
    }
    Ok(PumpRead::Frame(frame))
}

/// One direction of one proxied connection: read frames from the
/// source socket, roll a fault for each, forward (or not) to the sink.
fn pump(
    pair: &Arc<ConnPair>,
    conn: u64,
    client_to_server: bool,
    faults: &DirectedFaults,
    mut rng: XorShift,
    stop: &Arc<AtomicBool>,
    stats: &Arc<NetFaultStats>,
) {
    let (src, mut dst): (&TcpStream, &TcpStream) = if client_to_server {
        (&pair.client, &pair.server)
    } else {
        (&pair.server, &pair.client)
    };
    let mut buf4 = [0u8; 4];
    let mut frame_idx = 0u64;
    loop {
        let mut frame = match read_raw_frame(src, stop, &mut buf4) {
            Ok(PumpRead::Frame(f)) => f,
            _ => {
                // One side closed (or broke): tear down the whole pair.
                // Leaving the far socket open would leak a server-side
                // connection per client reconnect until the server's
                // `max_conns` bound starts rejecting fresh dials.
                pair.sever();
                return;
            }
        };
        let action = faults.action_for(conn, frame_idx, &mut rng);
        frame_idx += 1;
        let write_ok = match action {
            NetFault::Pass => {
                NetFaultStats::add(&stats.frames_forwarded, 1);
                dst.write_all(&frame).is_ok()
            }
            NetFault::Drop => {
                NetFaultStats::add(&stats.frames_dropped, 1);
                true
            }
            NetFault::Delay => {
                NetFaultStats::add(&stats.frames_delayed, 1);
                NetFaultStats::add(&stats.frames_forwarded, 1);
                std::thread::sleep(faults.delay);
                dst.write_all(&frame).is_ok()
            }
            NetFault::Garble => {
                NetFaultStats::add(&stats.frames_garbled, 1);
                // Flip one bit somewhere in the payload/CRC (never the
                // length prefix, which would desync the framing rather
                // than trip the CRC).
                let at = 4 + rng.below((frame.len() - 4) as u64) as usize;
                frame[at] ^= 1 << rng.below(8);
                dst.write_all(&frame).is_ok()
            }
            NetFault::Truncate => {
                NetFaultStats::add(&stats.frames_truncated, 1);
                NetFaultStats::add(&stats.severs, 1);
                let keep = 1 + rng.below((frame.len() - 1) as u64) as usize;
                let _ = dst.write_all(&frame[..keep]);
                pair.sever();
                return;
            }
            NetFault::Sever => {
                NetFaultStats::add(&stats.severs, 1);
                pair.sever();
                return;
            }
            NetFault::Split => {
                NetFaultStats::add(&stats.frames_split, 1);
                NetFaultStats::add(&stats.frames_forwarded, 1);
                let chunk = (frame.len() / 3).max(1);
                let mut ok = true;
                for piece in frame.chunks(chunk) {
                    if dst.write_all(piece).is_err() {
                        ok = false;
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                ok
            }
        };
        if !write_ok {
            pair.sever();
            return;
        }
    }
}

// -- byte-level decorator ---------------------------------------------------

/// Byte-offset fault plan for [`FaultStream`] — the direct analogue of
/// the engine's `FaultPlan` with byte positions instead of op counts.
#[derive(Debug, Clone, Default)]
pub struct ByteFaultPlan {
    /// Fail the read that would cross this cumulative read offset
    /// (simulates a connection reset mid-frame).
    pub fail_read_at: Option<u64>,
    /// XOR `0x40` into the byte at this cumulative read offset.
    pub garble_read_at: Option<u64>,
    /// Fail the write that would cross this cumulative write offset.
    pub fail_write_at: Option<u64>,
    /// Return at most one byte per read call (shattered reads).
    pub short_reads: bool,
}

/// A deterministic fault-injecting decorator over any byte stream; see
/// the module docs. Faults are counted in the shared [`NetFaultStats`].
pub struct FaultStream<S> {
    inner: S,
    plan: ByteFaultPlan,
    stats: Arc<NetFaultStats>,
    read_pos: u64,
    write_pos: u64,
}

impl<S> FaultStream<S> {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: S, plan: ByteFaultPlan) -> FaultStream<S> {
        FaultStream {
            inner,
            plan,
            stats: Arc::new(NetFaultStats::default()),
            read_pos: 0,
            write_pos: 0,
        }
    }

    /// The stats the stream records its injections into.
    pub fn stats(&self) -> NetFaultSnapshot {
        self.stats.snapshot()
    }

    /// The wrapped stream, back.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(at) = self.plan.fail_read_at {
            if self.read_pos >= at {
                NetFaultStats::add(&self.stats.byte_faults, 1);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "injected read fault",
                ));
            }
        }
        let mut cap = buf.len();
        if self.plan.short_reads {
            cap = cap.min(1);
        }
        if let Some(at) = self.plan.fail_read_at {
            // Serve bytes up to the fault point, then fail the next call.
            cap = cap.min((at - self.read_pos) as usize);
        }
        let n = self.inner.read(&mut buf[..cap])?;
        if let Some(at) = self.plan.garble_read_at {
            if self.read_pos <= at && at < self.read_pos + n as u64 {
                buf[(at - self.read_pos) as usize] ^= 0x40;
                NetFaultStats::add(&self.stats.byte_faults, 1);
            }
        }
        self.read_pos += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(at) = self.plan.fail_write_at {
            if self.write_pos >= at {
                NetFaultStats::add(&self.stats.byte_faults, 1);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "injected write fault",
                ));
            }
        }
        let mut cap = buf.len();
        if let Some(at) = self.plan.fail_write_at {
            cap = cap.min((at - self.write_pos) as usize).max(1);
        }
        let n = self.inner.write(&buf[..cap])?;
        self.write_pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame, read_frame};

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = XorShift::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn directed_faults_script_overrides_rates() {
        let f = DirectedFaults {
            drop_per_mille: 1000,
            script: vec![(3, NetFault::Sever)],
            ..DirectedFaults::default()
        };
        let mut rng = XorShift::new(1);
        assert_eq!(f.action_for(0, 3, &mut rng), NetFault::Sever);
        assert_eq!(f.action_for(0, 0, &mut rng), NetFault::Drop);
        let clean = DirectedFaults::clean();
        assert_eq!(clean.action_for(0, 0, &mut rng), NetFault::Pass);
    }

    #[test]
    fn script_conn_pins_the_script_to_one_connection() {
        let f = DirectedFaults {
            script: vec![(1, NetFault::Sever)],
            script_conn: Some(0),
            ..DirectedFaults::default()
        };
        let mut rng = XorShift::new(7);
        assert_eq!(f.action_for(0, 1, &mut rng), NetFault::Sever);
        // The same frame index on a later (reconnected) connection is
        // untouched — the retry must be allowed through.
        assert_eq!(f.action_for(1, 1, &mut rng), NetFault::Pass);
        assert_eq!(f.action_for(2, 1, &mut rng), NetFault::Pass);
    }

    #[test]
    fn fault_stream_garbles_at_exact_offset() {
        let frame = encode_frame(b"hello frame");
        let mut fs = FaultStream::new(
            &frame[..],
            ByteFaultPlan {
                garble_read_at: Some(6), // inside the payload
                ..ByteFaultPlan::default()
            },
        );
        let err = read_frame(&mut fs).unwrap_err();
        assert!(err.is_corruption(), "CRC must catch the flip: {err}");
        assert_eq!(fs.stats().byte_faults, 1);
    }

    #[test]
    fn fault_stream_short_reads_still_deliver_frames() {
        let frame = encode_frame(b"short reads");
        let mut fs = FaultStream::new(
            &frame[..],
            ByteFaultPlan {
                short_reads: true,
                ..ByteFaultPlan::default()
            },
        );
        assert_eq!(read_frame(&mut fs).unwrap(), b"short reads");
    }

    #[test]
    fn fault_stream_fails_read_at_offset() {
        let frame = encode_frame(b"cut me");
        let mut fs = FaultStream::new(
            &frame[..],
            ByteFaultPlan {
                fail_read_at: Some(7), // mid-body
                ..ByteFaultPlan::default()
            },
        );
        let err = read_frame(&mut fs).unwrap_err();
        assert!(err.is_io(), "reset mid-frame surfaces as Io: {err}");
        assert_eq!(fs.stats().byte_faults, 1);
    }
}
