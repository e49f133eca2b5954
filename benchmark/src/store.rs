//! The three ways the benchmark reaches the system under test, behind one
//! trait so that one runner drives all of them: in-process `SecondaryDb`
//! calls, the wire protocol through a blocking `Client`, and a raw
//! un-indexed `Db` (the replay that isolates what the index layer adds).
//!
//! Each call is wrapped in the spans of the layer it enters.

use crate::config::TOP_K;
use crate::trace::Recorder;
use ldbpp_common::json::Value;
use ldbpp_common::{Error, Result};
use ldbpp_core::{Document, LookupHit, SecondaryDb};
use ldbpp_lsm::db::Db;
use ldbpp_proto::{Client, Hit, Request, Response, WireValue};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// The operations of the paper's Table 1, with `K = TOP_K`.
pub trait Store {
    /// `PUT(k, v)`.
    fn put(&mut self, key: &str, doc: &Document, rec: &mut Recorder) -> Result<()>;
    /// `GET(k)`.
    fn get(&mut self, key: &str, rec: &mut Recorder) -> Result<Option<Document>>;
    /// `DEL(k)`.
    fn del(&mut self, key: &str, rec: &mut Recorder) -> Result<()>;
    /// `RANGELOOKUP(attr, lo, hi, K)`; a LOOKUP is the range `lo..=lo`.
    fn range(
        &mut self,
        attr: &str,
        lo: &Value,
        hi: &Value,
        rec: &mut Recorder,
    ) -> Result<Vec<LookupHit>>;
}

/// In-process calls on a shared `SecondaryDb`.
pub struct InProcess(pub Arc<SecondaryDb>);

impl Store for InProcess {
    fn put(&mut self, key: &str, doc: &Document, rec: &mut Recorder) -> Result<()> {
        rec.enter("core.put");
        let r = self.0.put(key, doc).map(|_| ());
        rec.exit();
        r
    }

    fn get(&mut self, key: &str, rec: &mut Recorder) -> Result<Option<Document>> {
        rec.enter("core.get");
        let r = self.0.get(key);
        rec.exit();
        r
    }

    fn del(&mut self, key: &str, rec: &mut Recorder) -> Result<()> {
        rec.enter("core.delete");
        let r = self.0.delete(key);
        rec.exit();
        r
    }

    fn range(
        &mut self,
        attr: &str,
        lo: &Value,
        hi: &Value,
        rec: &mut Recorder,
    ) -> Result<Vec<LookupHit>> {
        let r = if lo == hi {
            rec.enter("core.lookup");
            self.0.lookup(attr, lo, Some(TOP_K))
        } else {
            rec.enter("core.range_lookup");
            self.0.range_lookup(attr, lo, hi, Some(TOP_K))
        };
        rec.exit();
        r
    }
}

/// A raw `Db` without any index: PUT/GET/DEL only.
pub struct RawDb(pub Arc<Db>);

impl Store for RawDb {
    fn put(&mut self, key: &str, doc: &Document, rec: &mut Recorder) -> Result<()> {
        rec.enter("lsm.put");
        let r = self.0.put(key.as_bytes(), &doc.to_bytes()).map(|_| ());
        rec.exit();
        r
    }

    fn get(&mut self, key: &str, rec: &mut Recorder) -> Result<Option<Document>> {
        rec.enter("lsm.get");
        let r = self.0.get(key.as_bytes());
        rec.exit();
        r?.map(|bytes| Document::parse(&bytes)).transpose()
    }

    fn del(&mut self, key: &str, rec: &mut Recorder) -> Result<()> {
        rec.enter("lsm.delete");
        let r = self.0.delete(key.as_bytes()).map(|_| ());
        rec.exit();
        r
    }

    fn range(&mut self, _: &str, _: &Value, _: &Value, _: &mut Recorder) -> Result<Vec<LookupHit>> {
        Err(Error::invalid("a raw Db has no secondary index"))
    }
}

/// One blocking connection to a `Server`.
///
/// An untraced run goes through the typed `Client` methods, the API a
/// user calls. A traced run takes the same round trip apart into the
/// public pieces `Client::call` is made of, to put a span around each:
/// `Request::encode`, then `send_raw` + `read_response`, then turning the
/// response's byte strings back into documents.
pub struct Wire {
    client: Client,
    next_id: u64,
}

impl Wire {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Wire> {
        Ok(Wire {
            client: Client::connect_with_timeout(addr, Duration::from_secs(60))?,
            next_id: 1,
        })
    }

    /// The underlying client, for BATCH, STATS and SHUTDOWN.
    pub fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    fn traced_call(&mut self, req: &Request, rec: &mut Recorder) -> Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        rec.enter("proto.encode");
        let frame = req.encode(id);
        rec.exit();
        rec.enter("proto.roundtrip");
        let sent = self.client.send_raw(&frame);
        let got = sent.and_then(|()| self.client.read_response());
        rec.exit();
        match got? {
            (got_id, _) if got_id != id => Err(Error::corruption(format!(
                "response id {got_id} does not match request id {id}"
            ))),
            (_, Response::Err { code, message, .. }) => Err(code.to_error(&message)),
            (_, resp) => Ok(resp),
        }
    }
}

fn wire_value(v: &Value) -> Result<WireValue> {
    match v {
        Value::Str(s) => Ok(WireValue::Str(s.clone())),
        Value::Int(i) => Ok(WireValue::Int(*i)),
        other => Err(Error::invalid(format!("{other} is not an attribute value"))),
    }
}

fn unexpected<T>(resp: Response) -> Result<T> {
    Err(Error::corruption(format!("unexpected response {resp:?}")))
}

fn decode_hits(hits: Vec<Hit>, rec: &mut Recorder) -> Result<Vec<LookupHit>> {
    rec.enter("proto.decode");
    let r = hits
        .into_iter()
        .map(|h| {
            Ok(LookupHit {
                doc: Document::parse(&h.doc)?,
                key: h.key,
                seq: h.seq,
            })
        })
        .collect();
    rec.exit();
    r
}

impl Store for Wire {
    fn put(&mut self, key: &str, doc: &Document, rec: &mut Recorder) -> Result<()> {
        if !rec.enabled() {
            return self.client.put(key.as_bytes(), &doc.to_bytes()).map(|_| ());
        }
        let req = Request::Put {
            pk: key.as_bytes().to_vec(),
            doc: doc.to_bytes(),
        };
        match self.traced_call(&req, rec)? {
            Response::Seq(_) => Ok(()),
            other => unexpected(other),
        }
    }

    fn get(&mut self, key: &str, rec: &mut Recorder) -> Result<Option<Document>> {
        let bytes = if rec.enabled() {
            let req = Request::Get {
                pk: key.as_bytes().to_vec(),
            };
            match self.traced_call(&req, rec)? {
                Response::Doc(doc) => doc,
                other => return unexpected(other),
            }
        } else {
            self.client.get(key.as_bytes())?
        };
        rec.enter("proto.decode");
        let r = bytes.map(|b| Document::parse(&b)).transpose();
        rec.exit();
        r
    }

    fn del(&mut self, key: &str, rec: &mut Recorder) -> Result<()> {
        if !rec.enabled() {
            return self.client.del(key.as_bytes());
        }
        let req = Request::Del {
            pk: key.as_bytes().to_vec(),
        };
        match self.traced_call(&req, rec)? {
            Response::Ok => Ok(()),
            other => unexpected(other),
        }
    }

    fn range(
        &mut self,
        attr: &str,
        lo: &Value,
        hi: &Value,
        rec: &mut Recorder,
    ) -> Result<Vec<LookupHit>> {
        let k = Some(TOP_K as u64);
        let (lo_w, hi_w) = (wire_value(lo)?, wire_value(hi)?);
        let hits = if !rec.enabled() {
            if lo == hi {
                self.client.lookup(attr, lo_w, k)?
            } else {
                self.client.range_lookup(attr, lo_w, hi_w, k)?
            }
        } else {
            let attr = attr.to_string();
            let req = if lo == hi {
                Request::Lookup {
                    attr,
                    value: lo_w,
                    k,
                    degraded: false,
                }
            } else {
                Request::RangeLookup {
                    attr,
                    lo: lo_w,
                    hi: hi_w,
                    k,
                    degraded: false,
                }
            };
            match self.traced_call(&req, rec)? {
                Response::Hits { hits, .. } => hits,
                other => return unexpected(other),
            }
        };
        decode_hits(hits, rec)
    }
}
