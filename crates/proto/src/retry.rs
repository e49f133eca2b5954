//! [`RetryClient`]: reconnect + bounded exponential backoff over the
//! blocking [`Client`], with idempotent writes (DESIGN.md §18).
//!
//! Error classification is the heart of it. *Retryable*: [`Error::Busy`]
//! (the server shed the request before executing it — honor its
//! retry-after hint), [`Error::Timeout`] (deadline tripped, outcome
//! unknown), [`Error::Io`] (connection reset/refused/closed), and
//! [`Error::Corruption`] *from the transport* (a CRC-failed or
//! desynced response frame — the stream is untrustworthy, the request
//! outcome unknown). *Fatal*: everything the server answered
//! definitively — engine errors like `NotFound`/`InvalidArgument`
//! arrive as well-formed error responses and are returned to the
//! caller, not retried (a retry cannot change them).
//!
//! "Outcome unknown" is what makes naive retries double-apply writes.
//! Every `RetryClient` therefore owns a random session id, announces it
//! with a `HELLO` frame on every (re)connection, and assigns request
//! ids from a session-monotonic counter; a resend reuses the *same* id,
//! and the server's bounded dedup window ([`crate::DedupMap`]) re-acks
//! instead of re-applying. Backoff sleeps go through
//! [`backoff_sleep`], a condvar `wait_timeout` rather than
//! `thread::sleep`, so under `--features check` an active model run can
//! schedule the sleep like any other blocking point.

use std::time::{Duration, Instant};

use ldbpp_common::{Error, Result};
use parking_lot::{Condvar, Mutex};

use crate::client::{Client, DEFAULT_TIMEOUT};
use crate::fault::XorShift;
use crate::wire::{ErrorCode, Hit, Request, Response, WireValue, WriteOp};

/// Retry budget and backoff shape.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per call (first try included). At least 1.
    pub max_attempts: u32,
    /// First backoff; doubles per retry (with 50–100% jitter).
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Socket connect/read/write timeout per attempt.
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            timeout: DEFAULT_TIMEOUT,
        }
    }
}

/// What the retry loop has done so far (per client).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts sent (first tries + retries).
    pub attempts: u64,
    /// Retries (attempts beyond the first, per call).
    pub retries: u64,
    /// Fresh connections dialed after the first.
    pub reconnects: u64,
    /// Retries caused by a server `Busy` response.
    pub busy_retries: u64,
    /// Retries caused by a tripped deadline.
    pub timeout_retries: u64,
}

/// A self-healing connection: reconnects, backs off, retries, and
/// carries a retry session so writes stay exactly-once-acked across
/// resends (within the server's dedup window).
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    session_id: u64,
    next_id: u64,
    conn: Option<Client>,
    ever_connected: bool,
    rng: XorShift,
    stats: RetryStats,
}

impl RetryClient {
    /// A lazily-connecting client for `addr` (host:port). The session
    /// id is derived from the clock and address — collisions across
    /// concurrent clients are as unlikely as 64-bit random collisions.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> RetryClient {
        let addr = addr.into();
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in addr.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let session_id = nanos ^ h.rotate_left(32) ^ (std::process::id() as u64) << 48;
        RetryClient::with_session(addr, policy, session_id)
    }

    /// Like [`RetryClient::new`] with an explicit session id
    /// (deterministic tests).
    pub fn with_session(
        addr: impl Into<String>,
        policy: RetryPolicy,
        session_id: u64,
    ) -> RetryClient {
        RetryClient {
            addr: addr.into(),
            policy,
            session_id,
            next_id: 1,
            conn: None,
            ever_connected: false,
            rng: XorShift::new(session_id ^ 0x5bd1_e995),
            stats: RetryStats::default(),
        }
    }

    /// The session id carried in `HELLO` frames.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Retry-loop counters so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// True if an error means "reconnect and try the same request id
    /// again"; false means the answer is definitive.
    fn retryable(e: &Error) -> bool {
        e.is_retryable() || e.is_io() || e.is_corruption()
    }

    /// Next backoff: exponential in `attempt` with 50–100% jitter,
    /// capped by the policy.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let shift = (attempt.saturating_sub(1)).min(16);
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32.wrapping_shl(shift));
        let capped = exp.min(self.policy.max_backoff);
        let nanos = capped.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(nanos / 2 + self.rng.below(nanos / 2 + 1))
    }

    /// Ensure a live, non-desynced connection with the session
    /// announced; dial a fresh one if needed.
    fn ensure_conn(&mut self) -> Result<&mut Client> {
        let dead = match &self.conn {
            Some(c) => c.is_desynced(),
            None => true,
        };
        if dead {
            self.conn = None;
            let mut c = Client::connect_with_timeout(self.addr.as_str(), self.policy.timeout)?;
            c.hello(self.session_id)?;
            if self.ever_connected {
                self.stats.reconnects += 1;
            }
            self.ever_connected = true;
            self.conn = Some(c);
        }
        match self.conn.as_mut() {
            Some(c) => Ok(c),
            None => Err(Error::io("no connection")), // unreachable
        }
    }

    fn try_once(&mut self, id: u64, req: &Request) -> Result<Response> {
        self.ensure_conn()?.call_with_id(id, req)
    }

    /// Send `req` under a fresh session-monotonic request id, retrying
    /// per policy. Server-answered errors other than `Busy` are final.
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        self.call_with_id(id, req)
    }

    /// The retry loop itself, for a caller-pinned id.
    pub fn call_with_id(&mut self, id: u64, req: &Request) -> Result<Response> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            self.stats.attempts += 1;
            let out = self.try_once(id, req);
            let err = match out {
                Ok(Response::Err {
                    code: ErrorCode::Busy,
                    message,
                    retry_after_ms,
                }) => {
                    // The server shed the request before executing it.
                    // Honor its hint (but never back off less than our
                    // own schedule) and keep the connection — a Busy
                    // response is a healthy, synced stream.
                    if attempt >= self.policy.max_attempts {
                        return Err(ErrorCode::Busy.to_error(&message));
                    }
                    self.stats.retries += 1;
                    self.stats.busy_retries += 1;
                    let hint = Duration::from_millis(retry_after_ms);
                    let backoff = self.backoff(attempt).max(hint);
                    backoff_sleep(backoff);
                    continue;
                }
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            if !Self::retryable(&err) || attempt >= self.policy.max_attempts {
                return Err(err);
            }
            if err.is_timeout() {
                self.stats.timeout_retries += 1;
            }
            self.stats.retries += 1;
            self.conn = None; // transport is suspect: dial fresh
            let backoff = self.backoff(attempt);
            backoff_sleep(backoff);
        }
    }

    /// `PUT(k, v)` with retries; exactly-once within the dedup window.
    pub fn put(&mut self, pk: &[u8], doc: &[u8]) -> Result<u64> {
        self.call(&Request::Put {
            pk: pk.to_vec(),
            doc: doc.to_vec(),
        })?
        .into_seq()
    }

    /// `GET(k)` with retries.
    pub fn get(&mut self, pk: &[u8]) -> Result<Option<Vec<u8>>> {
        self.call(&Request::Get { pk: pk.to_vec() })?.into_doc()
    }

    /// `DEL(k)` with retries; exactly-once within the dedup window.
    pub fn del(&mut self, pk: &[u8]) -> Result<()> {
        self.call(&Request::Del { pk: pk.to_vec() })?.into_unit()
    }

    /// `BATCH` with retries; the whole batch is one idempotency unit.
    pub fn batch(&mut self, ops: Vec<WriteOp>) -> Result<(u64, u64)> {
        self.call(&Request::Batch { ops })?.into_batch()
    }

    /// `LOOKUP` with retries (reads are naturally idempotent).
    pub fn lookup(&mut self, attr: &str, value: WireValue, k: Option<u64>) -> Result<Vec<Hit>> {
        self.lookup_mode(attr, value, k, false).map(|(h, _)| h)
    }

    /// `LOOKUP` with an explicit read mode; returns `(hits,
    /// failed_shards)`.
    pub fn lookup_mode(
        &mut self,
        attr: &str,
        value: WireValue,
        k: Option<u64>,
        degraded: bool,
    ) -> Result<(Vec<Hit>, Vec<u64>)> {
        self.call(&Request::Lookup {
            attr: attr.to_string(),
            value,
            k,
            degraded,
        })?
        .into_hits()
    }

    /// `RANGELOOKUP` with retries.
    pub fn range_lookup(
        &mut self,
        attr: &str,
        lo: WireValue,
        hi: WireValue,
        k: Option<u64>,
    ) -> Result<Vec<Hit>> {
        self.range_lookup_mode(attr, lo, hi, k, false)
            .map(|(h, _)| h)
    }

    /// `RANGELOOKUP` with an explicit read mode.
    pub fn range_lookup_mode(
        &mut self,
        attr: &str,
        lo: WireValue,
        hi: WireValue,
        k: Option<u64>,
        degraded: bool,
    ) -> Result<(Vec<Hit>, Vec<u64>)> {
        self.call(&Request::RangeLookup {
            attr: attr.to_string(),
            lo,
            hi,
            k,
            degraded,
        })?
        .into_hits()
    }

    /// `STATS` with retries.
    pub fn server_stats(&mut self, include_integrity: bool) -> Result<String> {
        self.call(&Request::Stats { include_integrity })?
            .into_stats()
    }
}

/// Sleep `d` on a never-notified condvar instead of `thread::sleep`:
/// under `--features check` with an active model run,
/// `Condvar::wait_timeout` is a scheduling point the explorer controls,
/// so backoffs interleave deterministically instead of stalling the
/// model clock.
pub fn backoff_sleep(d: Duration) {
    if d.is_zero() {
        return;
    }
    let mu = Mutex::new(());
    let cv = Condvar::new();
    let mut guard = mu.lock();
    #[cfg(feature = "check")]
    if parking_lot::sched::active() {
        // Model time does not advance; one schedulable timed wait
        // stands in for the whole backoff.
        let _ = cv.wait_timeout(&mut guard, d);
        return;
    }
    let deadline = Instant::now() + d;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let _ = cv.wait_timeout(&mut guard, deadline - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_jittered_exponential_and_capped() {
        let mut c = RetryClient::with_session("127.0.0.1:1", RetryPolicy::default(), 7);
        let b1 = c.backoff(1);
        assert!(b1 >= Duration::from_millis(5) && b1 <= Duration::from_millis(10));
        let b4 = c.backoff(4);
        assert!(b4 >= Duration::from_millis(40) && b4 <= Duration::from_millis(80));
        let b50 = c.backoff(50);
        assert!(b50 <= Duration::from_millis(500), "capped at max_backoff");
    }

    #[test]
    fn connect_failure_exhausts_budget_with_io_error() {
        // A port from the discard range that nothing listens on.
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(200),
            timeout: Duration::from_millis(200),
        };
        let mut c = RetryClient::with_session("127.0.0.1:9", policy, 1);
        let err = c.put(b"k", b"{}").unwrap_err();
        assert!(err.is_io(), "connect refused is Io: {err}");
        let s = c.retry_stats();
        assert_eq!(s.attempts, 3);
        assert_eq!(s.retries, 2);
    }

    #[test]
    fn backoff_sleep_sleeps_roughly_the_duration() {
        let t0 = Instant::now();
        backoff_sleep(Duration::from_millis(20));
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn session_ids_differ_between_clients() {
        let a = RetryClient::new("127.0.0.1:1", RetryPolicy::default());
        let b = RetryClient::new("127.0.0.1:1", RetryPolicy::default());
        assert_ne!(a.session_id(), b.session_id());
    }
}
