//! A blocking TCP client for the LevelDB++ wire protocol.
//!
//! One [`Client`] owns one connection and runs one request at a time
//! (send frame, read the matching response). Request ids are assigned
//! from a per-connection counter and verified against the echoed id, so
//! a desynchronized stream is detected instead of silently mismatching
//! answers. After any transport failure (socket error, read deadline,
//! corrupt or mismatched response) the connection is marked *desynced*:
//! further calls fail fast with a typed error instead of reading frames
//! that may belong to an earlier request. [`Client::is_desynced`] lets a
//! retry layer detect this and reconnect. The raw [`Client::send_raw`] /
//! [`Client::read_response`] escape hatches exist for protocol tests
//! that need to put malformed bytes on the wire.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ldbpp_common::{Error, Result};

use crate::wire::{io_to_error, read_frame, Hit, Request, Response, WireValue, WriteOp};

/// Default per-call read timeout. Generous because a `STATS` with
/// integrity check or a `SHUTDOWN` drain can legitimately take seconds.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking connection to an `ldbpp_server`.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    desynced: bool,
}

impl Client {
    /// Connect with the default timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with_timeout(addr, DEFAULT_TIMEOUT)
    }

    /// Connect and apply `timeout` to every read and write on the socket.
    pub fn connect_with_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| Error::io(format!("connect: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| Error::io(format!("set_nodelay: {e}")))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| Error::io(format!("set_read_timeout: {e}")))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| Error::io(format!("set_write_timeout: {e}")))?;
        Ok(Client {
            stream,
            next_id: 1,
            desynced: false,
        })
    }

    /// Change the read/write timeout of an open connection.
    pub fn set_timeout(&mut self, timeout: Duration) -> Result<()> {
        self.stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| self.stream.set_write_timeout(Some(timeout)))
            .map_err(|e| Error::io(format!("set timeout: {e}")))
    }

    /// True once a transport failure (timeout, socket error, corrupt or
    /// mismatched response) has made the framing on this connection
    /// untrustworthy. A desynced client refuses further calls — the only
    /// recovery is a fresh connection.
    pub fn is_desynced(&self) -> bool {
        self.desynced
    }

    /// Mark the connection desynced and pass the error through.
    fn desync(&mut self, e: Error) -> Error {
        self.desynced = true;
        e
    }

    /// Send one request and return the raw [`Response`]. Error responses
    /// are returned as `Ok(Response::Err { .. })`; transport failures as
    /// `Err`. Most callers want the typed wrappers below instead.
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        self.call_with_id(id, req)
    }

    /// Like [`Client::call`] but with a caller-chosen request id, so a
    /// retry layer can resend the *same* id after reconnecting and have
    /// the server's dedup window recognize the attempt.
    pub fn call_with_id(&mut self, id: u64, req: &Request) -> Result<Response> {
        if self.desynced {
            return Err(Error::io(
                "connection desynced by an earlier transport failure; reconnect required",
            ));
        }
        let frame = req.encode(id);
        self.stream
            .write_all(&frame)
            .map_err(|e| self.desync(io_to_error("send request", &e)))?;
        let (got_id, resp) = match self.read_response() {
            Ok(v) => v,
            Err(e) => return Err(self.desync(e)),
        };
        if got_id != id {
            // Response id 0 is reserved: the server uses it for error
            // replies to frames whose id it could not trust or read at
            // all (CRC failure, connection-limit reject). A `Busy`
            // reject is surfaced as such so the retry layer backs off
            // instead of treating it as corruption; every other id-0
            // error stays a (retryable) corruption — e.g. a CRC reject
            // means our frame was garbled in transit and never
            // executed. Either way our request was not the one
            // answered, so the stream is desynced.
            if got_id == 0 {
                if let Response::Err {
                    code: crate::wire::ErrorCode::Busy,
                    message,
                    ..
                } = resp
                {
                    return Err(self.desync(crate::wire::ErrorCode::Busy.to_error(&message)));
                }
            }
            return Err(self.desync(Error::corruption(format!(
                "response id {got_id} does not match request id {id}"
            ))));
        }
        Ok(resp)
    }

    /// Write raw bytes to the connection (test hook for malformed frames).
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<()> {
        self.stream
            .write_all(bytes)
            .map_err(|e| Error::io(format!("send raw: {e}")))
    }

    /// Read and decode one response frame (test hook).
    pub fn read_response(&mut self) -> Result<(u64, Response)> {
        let payload = read_frame(&mut self.stream)?;
        Response::decode(&payload)
    }

    /// Bind this connection to retry session `session_id` (the server
    /// starts deduplicating write request ids under it).
    pub fn hello(&mut self, session_id: u64) -> Result<()> {
        self.call(&Request::Hello { session_id })?.into_unit()
    }

    /// `PUT(k, v)`: store `doc` (serialized JSON) under `pk`, returning
    /// the committed sequence number.
    pub fn put(&mut self, pk: &[u8], doc: &[u8]) -> Result<u64> {
        self.call(&Request::Put {
            pk: pk.to_vec(),
            doc: doc.to_vec(),
        })?
        .into_seq()
    }

    /// `GET(k)`: fetch the serialized document under `pk`, if present.
    pub fn get(&mut self, pk: &[u8]) -> Result<Option<Vec<u8>>> {
        self.call(&Request::Get { pk: pk.to_vec() })?.into_doc()
    }

    /// `DEL(k)`.
    pub fn del(&mut self, pk: &[u8]) -> Result<()> {
        self.call(&Request::Del { pk: pk.to_vec() })?.into_unit()
    }

    /// `LOOKUP(A, a, K)`: top-K newest records with `val(A) = a`.
    pub fn lookup(&mut self, attr: &str, value: WireValue, k: Option<u64>) -> Result<Vec<Hit>> {
        self.lookup_mode(attr, value, k, false)
            .map(|(hits, _)| hits)
    }

    /// `LOOKUP` with an explicit read mode. In degraded mode the second
    /// element lists the shards the server could not read (empty =
    /// complete result).
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

    /// `RANGELOOKUP(A, a, b, K)`: top-K newest with `a ≤ val(A) ≤ b`.
    pub fn range_lookup(
        &mut self,
        attr: &str,
        lo: WireValue,
        hi: WireValue,
        k: Option<u64>,
    ) -> Result<Vec<Hit>> {
        self.range_lookup_mode(attr, lo, hi, k, false)
            .map(|(hits, _)| hits)
    }

    /// `RANGELOOKUP` with an explicit read mode (see
    /// [`Client::lookup_mode`]).
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

    /// Apply several writes in one round trip. Returns
    /// `(applied, last_seq)`.
    pub fn batch(&mut self, ops: Vec<WriteOp>) -> Result<(u64, u64)> {
        self.call(&Request::Batch { ops })?.into_batch()
    }

    /// Fetch the server's stats JSON. With `include_integrity` the server
    /// quiesces background work and runs the structural checker first.
    pub fn stats(&mut self, include_integrity: bool) -> Result<String> {
        self.call(&Request::Stats { include_integrity })?
            .into_stats()
    }

    /// Ask the server to shut down gracefully. Returns once the server
    /// has drained in-flight requests, flushed, and acked.
    pub fn shutdown(&mut self) -> Result<()> {
        self.call(&Request::Shutdown)?.into_unit()
    }
}
