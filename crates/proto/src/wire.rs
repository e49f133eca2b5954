//! The LevelDB++ wire format: length-prefixed, CRC-guarded binary frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! frame    := len:u32-le | payload | crc:u32-le
//! payload  := request-id:varint64 | kind:u8 | body
//! ```
//!
//! `len` counts everything after itself (`payload.len() + 4`), `crc` is
//! the masked CRC32C of the payload (the same Castagnoli polynomial and
//! masking trick the engine's WAL and table footers use, so one corrupted
//! byte anywhere in the payload is detected with the same guarantees).
//! The request id is chosen by the client and echoed verbatim in the
//! response, so a client can pipeline requests and match answers.
//!
//! Request kinds are the paper's five operations plus the service verbs:
//! `PUT`, `GET`, `DEL`, `LOOKUP`, `RANGELOOKUP`, `BATCH` (several writes
//! in one frame — one network round trip feeding the group-commit queue),
//! `STATS`, and `SHUTDOWN`. Response kinds encode the result shape and,
//! for errors, the engine's error category plus two protocol-level codes
//! (`Protocol` for malformed frames, `Busy` for a full accept bound).
//!
//! All variable-length fields are varint-length-prefixed byte strings
//! ([`ldbpp_common::coding`]); integers are varints except attribute
//! values, which use fixed 64-bit two's-complement so that negative
//! timestamps survive. Decoding is strict: trailing bytes after a body,
//! truncated fields, bad tags, and oversized lengths are all
//! [`Error::Corruption`], which servers surface as a `Protocol` error
//! response without dropping the connection (the frame boundary is known,
//! so the stream stays in sync).

use ldbpp_common::coding::{
    decode_fixed32, decode_fixed64, get_length_prefixed, get_varint64, put_fixed32, put_fixed64,
    put_length_prefixed, put_varint64,
};
use ldbpp_common::crc32c;
use ldbpp_common::{Error, Result};

/// Hard cap on `len` (payload + CRC), i.e. on any single message. Large
/// enough for a generous `BATCH` or a wide `RANGELOOKUP` result, small
/// enough that a corrupt or hostile length prefix cannot make a peer
/// allocate unbounded memory.
pub const MAX_FRAME_LEN: usize = 32 << 20;

/// Smallest legal `len`: one payload byte plus the 4-byte CRC.
pub const MIN_FRAME_LEN: usize = 5;

// -- request/response model -------------------------------------------------

/// A typed attribute value on the wire (the indexable subset of JSON:
/// strings and 64-bit integers, mirroring `AttrValue`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireValue {
    /// A string attribute value.
    Str(String),
    /// An integer attribute value.
    Int(i64),
}

/// One write inside a [`Request::Batch`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert or overwrite `pk` with the JSON document `doc`.
    Put {
        /// Primary key.
        pk: Vec<u8>,
        /// Serialized JSON document (the record value).
        doc: Vec<u8>,
    },
    /// Delete `pk`.
    Del {
        /// Primary key.
        pk: Vec<u8>,
    },
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `PUT(k, v)` — acked with the committed sequence number.
    Put {
        /// Primary key.
        pk: Vec<u8>,
        /// Serialized JSON document (the record value).
        doc: Vec<u8>,
    },
    /// `GET(k)` — primary-key point read.
    Get {
        /// Primary key.
        pk: Vec<u8>,
    },
    /// `DEL(k)`.
    Del {
        /// Primary key.
        pk: Vec<u8>,
    },
    /// `LOOKUP(A, a, K)` — top-K newest records with `val(A) = a`.
    Lookup {
        /// Attribute name.
        attr: String,
        /// Attribute value to match.
        value: WireValue,
        /// `None` = unbounded.
        k: Option<u64>,
        /// Opt in to degraded scatter-gather: a poisoned or erroring shard
        /// is skipped and reported in the response's failed-shard set
        /// instead of failing the whole query.
        degraded: bool,
    },
    /// `RANGELOOKUP(A, a, b, K)` — top-K newest with `a ≤ val(A) ≤ b`.
    RangeLookup {
        /// Attribute name.
        attr: String,
        /// Inclusive lower bound.
        lo: WireValue,
        /// Inclusive upper bound.
        hi: WireValue,
        /// `None` = unbounded.
        k: Option<u64>,
        /// Opt in to degraded scatter-gather (see [`Request::Lookup`]).
        degraded: bool,
    },
    /// Several writes in one frame, applied in order. Acked after the
    /// last write committed; concurrent batches from other connections
    /// share WAL syncs through the engine's group-commit queue.
    Batch {
        /// The writes, applied front to back.
        ops: Vec<WriteOp>,
    },
    /// Server counters + merged engine I/O snapshot as JSON.
    Stats {
        /// Also quiesce background work and run the structural integrity
        /// checker, reporting its violation count (slower; intended for
        /// tests and operators, not hot-path monitoring).
        include_integrity: bool,
    },
    /// Graceful shutdown: stop accepting, drain in-flight requests,
    /// flush, ack, exit.
    Shutdown,
    /// Bind this connection to a client retry session. The server keeps a
    /// bounded dedup window of `(session_id, request_id) -> response` for
    /// write requests, so a retried `PUT`/`DEL`/`BATCH` whose first
    /// attempt committed is re-acked from the window instead of being
    /// re-applied. Sent by [`crate::RetryClient`] as the first request on
    /// every (re)connection.
    Hello {
        /// Client-chosen session id; request ids are monotonic within it.
        session_id: u64,
    },
}

/// Error categories a response can carry: the engine's [`Error`]
/// variants plus the two protocol-level conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// [`Error::NotFound`].
    NotFound,
    /// [`Error::Corruption`].
    Corruption,
    /// [`Error::NotSupported`].
    NotSupported,
    /// [`Error::InvalidArgument`].
    InvalidArgument,
    /// [`Error::Io`].
    Io,
    /// [`Error::NoSpace`].
    NoSpace,
    /// The frame or its body could not be decoded. The server stays on
    /// the connection when the frame boundary was recoverable.
    Protocol,
    /// The server shed this request (accept bound or in-flight bound hit
    /// before execution); retry after the hinted backoff.
    Busy,
    /// The server is draining for shutdown and no longer takes requests.
    ShuttingDown,
    /// An operation exceeded its deadline on the server side.
    Timeout,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::NotFound => 0,
            ErrorCode::Corruption => 1,
            ErrorCode::NotSupported => 2,
            ErrorCode::InvalidArgument => 3,
            ErrorCode::Io => 4,
            ErrorCode::NoSpace => 5,
            ErrorCode::Protocol => 6,
            ErrorCode::Busy => 7,
            ErrorCode::ShuttingDown => 8,
            ErrorCode::Timeout => 9,
        }
    }

    fn from_u8(v: u8) -> Result<ErrorCode> {
        Ok(match v {
            0 => ErrorCode::NotFound,
            1 => ErrorCode::Corruption,
            2 => ErrorCode::NotSupported,
            3 => ErrorCode::InvalidArgument,
            4 => ErrorCode::Io,
            5 => ErrorCode::NoSpace,
            6 => ErrorCode::Protocol,
            7 => ErrorCode::Busy,
            8 => ErrorCode::ShuttingDown,
            9 => ErrorCode::Timeout,
            other => return Err(Error::corruption(format!("unknown error code {other}"))),
        })
    }

    /// The engine error this code maps back to on the client side.
    /// `Busy` and `Timeout` map to the typed retryable variants
    /// ([`Error::Busy`], [`Error::Timeout`]) so callers can classify
    /// without string matching; `Protocol` is the client's own fault and
    /// surfaces as [`Error::InvalidArgument`]; `ShuttingDown` stays
    /// [`Error::Io`] (this server is going away — retrying it is futile).
    pub fn to_error(self, message: &str) -> Error {
        match self {
            ErrorCode::NotFound => Error::not_found(message),
            ErrorCode::Corruption => Error::corruption(message),
            ErrorCode::NotSupported => Error::not_supported(message),
            ErrorCode::InvalidArgument => Error::invalid(message),
            ErrorCode::Io => Error::io(message),
            ErrorCode::NoSpace => Error::no_space(message),
            ErrorCode::Protocol => Error::invalid(format!("protocol error: {message}")),
            ErrorCode::Busy => Error::busy(format!("server busy: {message}")),
            ErrorCode::ShuttingDown => Error::io(format!("server shutting down: {message}")),
            ErrorCode::Timeout => Error::timeout(message),
        }
    }

    /// The code describing an engine error (the server-side direction).
    pub fn of_error(e: &Error) -> ErrorCode {
        match e {
            Error::NotFound(_) => ErrorCode::NotFound,
            Error::Corruption(_) => ErrorCode::Corruption,
            Error::NotSupported(_) => ErrorCode::NotSupported,
            Error::InvalidArgument(_) => ErrorCode::InvalidArgument,
            Error::Io(_) => ErrorCode::Io,
            Error::NoSpace(_) => ErrorCode::NoSpace,
            Error::Busy(_) => ErrorCode::Busy,
            Error::Timeout(_) => ErrorCode::Timeout,
        }
    }
}

/// One hit of a `LOOKUP`/`RANGELOOKUP` response, newest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// Primary key.
    pub key: Vec<u8>,
    /// Sequence number the record was written at (global recency order).
    pub seq: u64,
    /// Serialized JSON document.
    pub doc: Vec<u8>,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success with no payload (`DEL`, `SHUTDOWN`).
    Ok,
    /// `PUT` ack: the committed sequence number.
    Seq(u64),
    /// `GET` result (`None` = key absent; absence is not an error).
    Doc(Option<Vec<u8>>),
    /// `LOOKUP`/`RANGELOOKUP` result, newest first.
    Hits {
        /// The matching records, newest first.
        hits: Vec<Hit>,
        /// Shards that could not be read (degraded mode only; empty means
        /// the result is complete). Shard indexes of the server's router.
        failed_shards: Vec<u64>,
    },
    /// `BATCH` ack.
    Batch {
        /// Writes applied (always `ops.len()` on success).
        applied: u64,
        /// Sequence number of the last committed write in the batch.
        last_seq: u64,
    },
    /// `STATS` result: a JSON object.
    Stats(String),
    /// Any failure; see [`ErrorCode`].
    Err {
        /// Error category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// For `Busy`: how long the client should back off before
        /// retrying, in milliseconds. `0` = no hint.
        retry_after_ms: u64,
    },
}

impl Response {
    /// The error response describing an engine error.
    pub fn from_error(e: &Error) -> Response {
        Response::Err {
            code: ErrorCode::of_error(e),
            message: e.to_string(),
            retry_after_ms: 0,
        }
    }

    /// A `Protocol` error response.
    pub fn protocol_error(message: impl Into<String>) -> Response {
        Response::Err {
            code: ErrorCode::Protocol,
            message: message.into(),
            retry_after_ms: 0,
        }
    }

    /// A complete (non-degraded) hit set.
    pub fn hits(hits: Vec<Hit>) -> Response {
        Response::Hits {
            hits,
            failed_shards: Vec::new(),
        }
    }

    /// The error a reply stands for when it is not the shape the caller
    /// expected: an error reply becomes its engine error, any other
    /// shape a corruption error.
    fn into_error(self) -> Error {
        match self {
            Response::Err { code, message, .. } => code.to_error(&message),
            other => Error::corruption(format!("unexpected response {other:?}")),
        }
    }

    /// Decode a `PUT` ack: the committed sequence number.
    pub(crate) fn into_seq(self) -> Result<u64> {
        match self {
            Response::Seq(seq) => Ok(seq),
            other => Err(other.into_error()),
        }
    }

    /// Decode a `GET` reply (`None` = key absent).
    pub(crate) fn into_doc(self) -> Result<Option<Vec<u8>>> {
        match self {
            Response::Doc(doc) => Ok(doc),
            other => Err(other.into_error()),
        }
    }

    /// Decode a payload-free success (`HELLO`, `DEL`, `SHUTDOWN`).
    pub(crate) fn into_unit(self) -> Result<()> {
        match self {
            Response::Ok => Ok(()),
            other => Err(other.into_error()),
        }
    }

    /// Decode a `LOOKUP`/`RANGELOOKUP` reply: `(hits, failed_shards)`.
    pub(crate) fn into_hits(self) -> Result<(Vec<Hit>, Vec<u64>)> {
        match self {
            Response::Hits {
                hits,
                failed_shards,
            } => Ok((hits, failed_shards)),
            other => Err(other.into_error()),
        }
    }

    /// Decode a `BATCH` ack: `(applied, last_seq)`.
    pub(crate) fn into_batch(self) -> Result<(u64, u64)> {
        match self {
            Response::Batch { applied, last_seq } => Ok((applied, last_seq)),
            other => Err(other.into_error()),
        }
    }

    /// Decode a `STATS` reply: the stats JSON.
    pub(crate) fn into_stats(self) -> Result<String> {
        match self {
            Response::Stats(json) => Ok(json),
            other => Err(other.into_error()),
        }
    }
}

// -- kind bytes -------------------------------------------------------------

const REQ_PUT: u8 = 1;
const REQ_GET: u8 = 2;
const REQ_DEL: u8 = 3;
const REQ_LOOKUP: u8 = 4;
const REQ_RANGELOOKUP: u8 = 5;
const REQ_BATCH: u8 = 6;
const REQ_STATS: u8 = 7;
const REQ_SHUTDOWN: u8 = 8;
const REQ_HELLO: u8 = 9;

const RESP_OK: u8 = 0;
const RESP_SEQ: u8 = 1;
const RESP_DOC: u8 = 2;
const RESP_HITS: u8 = 3;
const RESP_BATCH: u8 = 4;
const RESP_STATS: u8 = 5;
/// Error responses: `0x80 | ErrorCode`.
const RESP_ERR_BIT: u8 = 0x80;

// -- framing ----------------------------------------------------------------

/// Wrap a payload into a full frame (length prefix + payload + masked CRC).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_fixed32(&mut out, (payload.len() + 4) as u32);
    out.extend_from_slice(payload);
    put_fixed32(&mut out, crc32c::mask(crc32c::crc32c(payload)));
    out
}

/// Validate `body` (everything after the length prefix: payload + CRC)
/// and return the payload.
pub fn check_frame(body: &[u8]) -> Result<&[u8]> {
    if body.len() < MIN_FRAME_LEN {
        return Err(Error::corruption(format!(
            "frame too short ({} bytes)",
            body.len()
        )));
    }
    let (payload, crc_bytes) = body.split_at(body.len() - 4);
    let want = crc32c::unmask(decode_fixed32(crc_bytes));
    let got = crc32c::crc32c(payload);
    if want != got {
        return Err(Error::corruption(format!(
            "frame CRC mismatch (stored {want:#010x}, computed {got:#010x})"
        )));
    }
    Ok(payload)
}

/// Read one frame from a blocking stream and return its payload.
///
/// Errors: I/O failures surface as [`Error::Io`], except a read deadline
/// (`WouldBlock`/`TimedOut` from a socket read timeout), which is the
/// typed, retryable [`Error::Timeout`]; a clean EOF before the first
/// length byte is `Error::Io("connection closed")`; truncation mid-frame,
/// an out-of-bounds length, or a CRC mismatch are [`Error::Corruption`].
pub fn read_frame(r: &mut impl std::io::Read) -> Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Err(Error::io("connection closed")),
            Ok(0) => return Err(Error::corruption("connection closed mid frame header")),
            Ok(n) => got += n,
            Err(e) => return Err(io_to_error("read frame header", &e)),
        }
    }
    let len = decode_fixed32(&len_buf) as usize;
    if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
        return Err(Error::corruption(format!(
            "frame length {len} outside [{MIN_FRAME_LEN}, {MAX_FRAME_LEN}]"
        )));
    }
    let mut body = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut body[got..]) {
            Ok(0) => return Err(Error::corruption("connection closed mid frame body")),
            Ok(n) => got += n,
            Err(e) => return Err(io_to_error("read frame body", &e)),
        }
    }
    check_frame(&body).map(<[u8]>::to_vec)
}

/// Map a raw socket error to the typed wire error: a tripped read/write
/// deadline becomes [`Error::Timeout`], everything else [`Error::Io`].
pub fn io_to_error(what: &str, e: &std::io::Error) -> Error {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            Error::timeout(format!("{what}: deadline exceeded"))
        }
        _ => Error::io(format!("{what}: {e}")),
    }
}

// -- body coding helpers ----------------------------------------------------

/// A strict cursor over a payload: every read is bounds-checked and the
/// caller asserts full consumption at the end.
struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, off: 0 }
    }

    fn u8(&mut self) -> Result<u8> {
        let b = *self
            .buf
            .get(self.off)
            .ok_or_else(|| Error::corruption("truncated frame body"))?;
        self.off += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64> {
        let (v, n) = get_varint64(&self.buf[self.off..])?;
        self.off += n;
        Ok(v)
    }

    fn fixed64(&mut self) -> Result<u64> {
        if self.buf.len() - self.off < 8 {
            return Err(Error::corruption("truncated fixed64"));
        }
        let v = decode_fixed64(&self.buf[self.off..]);
        self.off += 8;
        Ok(v)
    }

    fn bytes(&mut self) -> Result<Vec<u8>> {
        let (slice, n) = get_length_prefixed(&self.buf[self.off..])?;
        self.off += n;
        Ok(slice.to_vec())
    }

    fn string(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?).map_err(|_| Error::corruption("string field not UTF-8"))
    }

    fn finish(self) -> Result<()> {
        if self.off != self.buf.len() {
            return Err(Error::corruption(format!(
                "{} trailing byte(s) after message body",
                self.buf.len() - self.off
            )));
        }
        Ok(())
    }
}

fn put_value(dst: &mut Vec<u8>, v: &WireValue) {
    match v {
        WireValue::Str(s) => {
            dst.push(0);
            put_length_prefixed(dst, s.as_bytes());
        }
        WireValue::Int(i) => {
            dst.push(1);
            put_fixed64(dst, *i as u64);
        }
    }
}

fn get_value(c: &mut Cursor<'_>) -> Result<WireValue> {
    match c.u8()? {
        0 => Ok(WireValue::Str(c.string()?)),
        1 => Ok(WireValue::Int(c.fixed64()? as i64)),
        other => Err(Error::corruption(format!("unknown value tag {other}"))),
    }
}

fn put_opt_k(dst: &mut Vec<u8>, k: Option<u64>) {
    match k {
        None => dst.push(0),
        Some(k) => {
            dst.push(1);
            put_varint64(dst, k);
        }
    }
}

fn get_opt_k(c: &mut Cursor<'_>) -> Result<Option<u64>> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(c.varint()?)),
        other => Err(Error::corruption(format!("unknown option tag {other}"))),
    }
}

fn get_bool(c: &mut Cursor<'_>) -> Result<bool> {
    match c.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(Error::corruption(format!("unknown bool tag {other}"))),
    }
}

// -- request coding ---------------------------------------------------------

impl Request {
    /// Encode as a full frame carrying `request_id`.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut p = Vec::new();
        put_varint64(&mut p, request_id);
        match self {
            Request::Put { pk, doc } => {
                p.push(REQ_PUT);
                put_length_prefixed(&mut p, pk);
                put_length_prefixed(&mut p, doc);
            }
            Request::Get { pk } => {
                p.push(REQ_GET);
                put_length_prefixed(&mut p, pk);
            }
            Request::Del { pk } => {
                p.push(REQ_DEL);
                put_length_prefixed(&mut p, pk);
            }
            Request::Lookup {
                attr,
                value,
                k,
                degraded,
            } => {
                p.push(REQ_LOOKUP);
                put_length_prefixed(&mut p, attr.as_bytes());
                put_value(&mut p, value);
                put_opt_k(&mut p, *k);
                p.push(u8::from(*degraded));
            }
            Request::RangeLookup {
                attr,
                lo,
                hi,
                k,
                degraded,
            } => {
                p.push(REQ_RANGELOOKUP);
                put_length_prefixed(&mut p, attr.as_bytes());
                put_value(&mut p, lo);
                put_value(&mut p, hi);
                put_opt_k(&mut p, *k);
                p.push(u8::from(*degraded));
            }
            Request::Batch { ops } => {
                p.push(REQ_BATCH);
                put_varint64(&mut p, ops.len() as u64);
                for op in ops {
                    match op {
                        WriteOp::Put { pk, doc } => {
                            p.push(REQ_PUT);
                            put_length_prefixed(&mut p, pk);
                            put_length_prefixed(&mut p, doc);
                        }
                        WriteOp::Del { pk } => {
                            p.push(REQ_DEL);
                            put_length_prefixed(&mut p, pk);
                        }
                    }
                }
            }
            Request::Stats { include_integrity } => {
                p.push(REQ_STATS);
                p.push(u8::from(*include_integrity));
            }
            Request::Shutdown => p.push(REQ_SHUTDOWN),
            Request::Hello { session_id } => {
                p.push(REQ_HELLO);
                put_varint64(&mut p, *session_id);
            }
        }
        encode_frame(&p)
    }

    /// Decode a request payload into `(request_id, request)`.
    pub fn decode(payload: &[u8]) -> Result<(u64, Request)> {
        let mut c = Cursor::new(payload);
        let id = c.varint()?;
        let kind = c.u8()?;
        let req = match kind {
            REQ_PUT => Request::Put {
                pk: c.bytes()?,
                doc: c.bytes()?,
            },
            REQ_GET => Request::Get { pk: c.bytes()? },
            REQ_DEL => Request::Del { pk: c.bytes()? },
            REQ_LOOKUP => Request::Lookup {
                attr: c.string()?,
                value: get_value(&mut c)?,
                k: get_opt_k(&mut c)?,
                degraded: get_bool(&mut c)?,
            },
            REQ_RANGELOOKUP => Request::RangeLookup {
                attr: c.string()?,
                lo: get_value(&mut c)?,
                hi: get_value(&mut c)?,
                k: get_opt_k(&mut c)?,
                degraded: get_bool(&mut c)?,
            },
            REQ_BATCH => {
                let n = c.varint()?;
                // A batch op costs ≥ 2 bytes on the wire, so any honest
                // count is bounded by the frame cap; reject hostile counts
                // before allocating.
                if n as usize > MAX_FRAME_LEN / 2 {
                    return Err(Error::corruption(format!("batch count {n} implausible")));
                }
                let mut ops = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    ops.push(match c.u8()? {
                        REQ_PUT => WriteOp::Put {
                            pk: c.bytes()?,
                            doc: c.bytes()?,
                        },
                        REQ_DEL => WriteOp::Del { pk: c.bytes()? },
                        other => {
                            return Err(Error::corruption(format!("unknown batch op {other}")))
                        }
                    });
                }
                Request::Batch { ops }
            }
            REQ_STATS => Request::Stats {
                include_integrity: c.u8()? != 0,
            },
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_HELLO => Request::Hello {
                session_id: c.varint()?,
            },
            other => return Err(Error::corruption(format!("unknown opcode {other}"))),
        };
        c.finish()?;
        Ok((id, req))
    }
}

/// Best-effort request id of a payload that failed to decode, so a
/// protocol-error response can still be matched by a pipelining client.
/// Falls back to 0 when even the id prefix is unreadable.
pub fn salvage_request_id(payload: &[u8]) -> u64 {
    get_varint64(payload).map(|(id, _)| id).unwrap_or(0)
}

// -- response coding --------------------------------------------------------

impl Response {
    /// Encode as a full frame echoing `request_id`.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut p = Vec::new();
        put_varint64(&mut p, request_id);
        match self {
            Response::Ok => p.push(RESP_OK),
            Response::Seq(seq) => {
                p.push(RESP_SEQ);
                put_varint64(&mut p, *seq);
            }
            Response::Doc(doc) => {
                p.push(RESP_DOC);
                match doc {
                    None => p.push(0),
                    Some(d) => {
                        p.push(1);
                        put_length_prefixed(&mut p, d);
                    }
                }
            }
            Response::Hits {
                hits,
                failed_shards,
            } => {
                p.push(RESP_HITS);
                put_varint64(&mut p, hits.len() as u64);
                for h in hits {
                    put_length_prefixed(&mut p, &h.key);
                    put_varint64(&mut p, h.seq);
                    put_length_prefixed(&mut p, &h.doc);
                }
                put_varint64(&mut p, failed_shards.len() as u64);
                for s in failed_shards {
                    put_varint64(&mut p, *s);
                }
            }
            Response::Batch { applied, last_seq } => {
                p.push(RESP_BATCH);
                put_varint64(&mut p, *applied);
                put_varint64(&mut p, *last_seq);
            }
            Response::Stats(json) => {
                p.push(RESP_STATS);
                put_length_prefixed(&mut p, json.as_bytes());
            }
            Response::Err {
                code,
                message,
                retry_after_ms,
            } => {
                p.push(RESP_ERR_BIT | code.to_u8());
                put_length_prefixed(&mut p, message.as_bytes());
                put_varint64(&mut p, *retry_after_ms);
            }
        }
        encode_frame(&p)
    }

    /// Decode a response payload into `(request_id, response)`.
    pub fn decode(payload: &[u8]) -> Result<(u64, Response)> {
        let mut c = Cursor::new(payload);
        let id = c.varint()?;
        let kind = c.u8()?;
        let resp = if kind & RESP_ERR_BIT != 0 {
            Response::Err {
                code: ErrorCode::from_u8(kind & !RESP_ERR_BIT)?,
                message: c.string()?,
                retry_after_ms: c.varint()?,
            }
        } else {
            match kind {
                RESP_OK => Response::Ok,
                RESP_SEQ => Response::Seq(c.varint()?),
                RESP_DOC => match c.u8()? {
                    0 => Response::Doc(None),
                    1 => Response::Doc(Some(c.bytes()?)),
                    other => {
                        return Err(Error::corruption(format!("unknown doc-option tag {other}")))
                    }
                },
                RESP_HITS => {
                    let n = c.varint()?;
                    if n as usize > MAX_FRAME_LEN / 3 {
                        return Err(Error::corruption(format!("hit count {n} implausible")));
                    }
                    let mut hits = Vec::with_capacity(n as usize);
                    for _ in 0..n {
                        hits.push(Hit {
                            key: c.bytes()?,
                            seq: c.varint()?,
                            doc: c.bytes()?,
                        });
                    }
                    let nf = c.varint()?;
                    if nf as usize > MAX_FRAME_LEN {
                        return Err(Error::corruption(format!(
                            "failed-shard count {nf} implausible"
                        )));
                    }
                    let mut failed_shards = Vec::with_capacity(nf as usize);
                    for _ in 0..nf {
                        failed_shards.push(c.varint()?);
                    }
                    Response::Hits {
                        hits,
                        failed_shards,
                    }
                }
                RESP_BATCH => Response::Batch {
                    applied: c.varint()?,
                    last_seq: c.varint()?,
                },
                RESP_STATS => Response::Stats(c.string()?),
                other => return Err(Error::corruption(format!("unknown response kind {other}"))),
            }
        };
        c.finish()?;
        Ok((id, resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_crc_guard() {
        let frame = encode_frame(b"hello");
        assert_eq!(decode_fixed32(&frame) as usize, 5 + 4);
        assert_eq!(check_frame(&frame[4..]).unwrap(), b"hello");
        let mut bad = frame.clone();
        bad[5] ^= 0x40;
        assert!(check_frame(&bad[4..]).unwrap_err().is_corruption());
    }

    #[test]
    fn read_frame_rejects_bad_lengths() {
        let mut tiny = Vec::new();
        put_fixed32(&mut tiny, 2);
        tiny.extend_from_slice(&[0, 0]);
        assert!(read_frame(&mut &tiny[..]).unwrap_err().is_corruption());

        let mut huge = Vec::new();
        put_fixed32(&mut huge, (MAX_FRAME_LEN + 1) as u32);
        assert!(read_frame(&mut &huge[..]).unwrap_err().is_corruption());
    }

    #[test]
    fn request_roundtrip_all_kinds() {
        let reqs = [
            Request::Put {
                pk: b"k1".to_vec(),
                doc: b"{}".to_vec(),
            },
            Request::Get { pk: b"k1".to_vec() },
            Request::Del { pk: vec![] },
            Request::Lookup {
                attr: "UserID".into(),
                value: WireValue::Str("u1".into()),
                k: Some(10),
                degraded: false,
            },
            Request::RangeLookup {
                attr: "CreationTime".into(),
                lo: WireValue::Int(-5),
                hi: WireValue::Int(i64::MAX),
                k: None,
                degraded: true,
            },
            Request::Batch {
                ops: vec![
                    WriteOp::Put {
                        pk: b"a".to_vec(),
                        doc: b"{}".to_vec(),
                    },
                    WriteOp::Del { pk: b"b".to_vec() },
                ],
            },
            Request::Stats {
                include_integrity: true,
            },
            Request::Shutdown,
            Request::Hello {
                session_id: u64::MAX,
            },
        ];
        for (i, req) in reqs.iter().enumerate() {
            let frame = req.encode(i as u64 + 7);
            let payload = check_frame(&frame[4..]).unwrap();
            let (id, back) = Request::decode(payload).unwrap();
            assert_eq!(id, i as u64 + 7);
            assert_eq!(&back, req);
        }
    }

    #[test]
    fn response_roundtrip_all_kinds() {
        let resps = [
            Response::Ok,
            Response::Seq(u64::MAX),
            Response::Doc(None),
            Response::Doc(Some(b"{\"a\":1}".to_vec())),
            Response::hits(vec![Hit {
                key: b"k".to_vec(),
                seq: 3,
                doc: b"{}".to_vec(),
            }]),
            Response::Hits {
                hits: vec![],
                failed_shards: vec![1, 3],
            },
            Response::Batch {
                applied: 2,
                last_seq: 99,
            },
            Response::Stats("{}".into()),
            Response::Err {
                code: ErrorCode::NotFound,
                message: "gone".into(),
                retry_after_ms: 0,
            },
            Response::Err {
                code: ErrorCode::Busy,
                message: "shed".into(),
                retry_after_ms: 25,
            },
            Response::Err {
                code: ErrorCode::ShuttingDown,
                message: String::new(),
                retry_after_ms: 0,
            },
        ];
        for (i, resp) in resps.iter().enumerate() {
            let frame = resp.encode(i as u64);
            let payload = check_frame(&frame[4..]).unwrap();
            let (id, back) = Response::decode(payload).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(&back, resp);
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes_and_bad_tags() {
        let mut frame = Request::Get { pk: b"k".to_vec() }.encode(1);
        // Rebuild with one trailing byte inside the payload.
        let payload = check_frame(&frame[4..]).unwrap();
        let mut padded = payload.to_vec();
        padded.push(0xaa);
        frame = encode_frame(&padded);
        let payload = check_frame(&frame[4..]).unwrap();
        assert!(Request::decode(payload).unwrap_err().is_corruption());

        // Unknown opcode.
        let mut p = Vec::new();
        put_varint64(&mut p, 1);
        p.push(0xee);
        let frame = encode_frame(&p);
        let payload = check_frame(&frame[4..]).unwrap();
        assert!(Request::decode(payload).unwrap_err().is_corruption());
        assert_eq!(salvage_request_id(payload), 1);
    }

    #[test]
    fn error_code_roundtrip() {
        for code in [
            ErrorCode::NotFound,
            ErrorCode::Corruption,
            ErrorCode::NotSupported,
            ErrorCode::InvalidArgument,
            ErrorCode::Io,
            ErrorCode::NoSpace,
            ErrorCode::Protocol,
            ErrorCode::Busy,
            ErrorCode::ShuttingDown,
            ErrorCode::Timeout,
        ] {
            assert_eq!(ErrorCode::from_u8(code.to_u8()).unwrap(), code);
        }
        assert!(ErrorCode::from_u8(200).is_err());
    }

    #[test]
    fn busy_and_timeout_codes_map_to_retryable_errors() {
        assert!(ErrorCode::Busy.to_error("shed").is_retryable());
        assert!(ErrorCode::Timeout.to_error("deadline").is_retryable());
        assert!(!ErrorCode::ShuttingDown.to_error("bye").is_retryable());
        assert!(!ErrorCode::Io.to_error("reset").is_retryable());
        assert_eq!(ErrorCode::of_error(&Error::busy("x")), ErrorCode::Busy);
        assert_eq!(
            ErrorCode::of_error(&Error::timeout("x")),
            ErrorCode::Timeout
        );
    }

    #[test]
    fn io_to_error_maps_deadlines_to_timeout() {
        let t = std::io::Error::new(std::io::ErrorKind::WouldBlock, "poll");
        assert!(io_to_error("read", &t).is_timeout());
        let t = std::io::Error::new(std::io::ErrorKind::TimedOut, "poll");
        assert!(io_to_error("read", &t).is_timeout());
        let o = std::io::Error::other("reset");
        assert!(io_to_error("read", &o).is_io());
    }
}
