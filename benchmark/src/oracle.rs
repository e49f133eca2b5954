//! The output oracle: an in-benchmark model of what the store must hold,
//! and the checks every result is put through.
//!
//! * GET returns the last written document, or nothing after a DEL.
//! * Every LOOKUP/RANGELOOKUP hit carries an attribute value inside the
//!   queried range, is the record's *current* version (no hit for an
//!   overwritten value), hits come newest first, at most K of them — and,
//!   when one thread has the store to itself, exactly `min(K, matches)`.

use crate::config::TOP_K;
use crate::ops::key_index;
use ldbpp_common::json::Value;
use ldbpp_core::{Document, LookupHit};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// `UserID` of a tweet document.
fn user_of(doc: &Document) -> Option<&str> {
    doc.get("UserID").and_then(Value::as_str)
}

/// `CreationTime` of a tweet document.
fn time_of(doc: &Document) -> Option<i64> {
    doc.get("CreationTime").and_then(Value::as_int)
}

/// A secondary query, as the oracle sees it.
#[derive(Debug, Clone, Copy)]
pub enum Query<'a> {
    /// `UserID` in `lo..=hi` (a LOOKUP has `lo == hi`).
    Users(&'a str, &'a str),
    /// `CreationTime` in `lo..=hi`.
    Time(i64, i64),
}

impl Query<'_> {
    fn matches(&self, doc: &Document) -> bool {
        match *self {
            Query::Users(lo, hi) => user_of(doc).is_some_and(|u| lo <= u && u <= hi),
            Query::Time(lo, hi) => time_of(doc).is_some_and(|t| lo <= t && t <= hi),
        }
    }
}

/// Which keys a model is responsible for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every key: the checking thread is the store's only user, so hit
    /// counts can be checked too.
    All,
    /// The keys whose index is `≡ thread (mod threads)`. Other threads
    /// write the rest concurrently, so hits on their keys are checked for
    /// shape only.
    Owned {
        /// This thread.
        thread: usize,
        /// Driver threads writing concurrently.
        threads: usize,
    },
}

impl Scope {
    fn owns(self, key: &[u8]) -> bool {
        match self {
            Scope::All => true,
            Scope::Owned { thread, threads } => {
                key_index(key).is_some_and(|i| i % threads == thread)
            }
        }
    }
}

struct Rec {
    doc: Arc<Document>,
    size: u32,
}

/// The expected contents of the store.
#[derive(Default)]
pub struct Model {
    live: HashMap<String, Rec>,
    by_user: BTreeMap<String, u32>,
    by_time: BTreeMap<i64, u32>,
    /// User bytes of every write applied so far: the denominator of
    /// write amplification.
    pub written_bytes: u64,
}

impl Model {
    /// Record a PUT.
    pub fn put(&mut self, key: &str, doc: &Arc<Document>, size: u32) {
        self.unindex(key);
        if let Some(u) = user_of(doc) {
            *self.by_user.entry(u.to_string()).or_default() += 1;
        }
        if let Some(t) = time_of(doc) {
            *self.by_time.entry(t).or_default() += 1;
        }
        self.live.insert(
            key.to_string(),
            Rec {
                doc: Arc::clone(doc),
                size,
            },
        );
        self.written_bytes += u64::from(size);
    }

    /// Record a DEL.
    pub fn del(&mut self, key: &str) {
        self.unindex(key);
        self.live.remove(key);
        self.written_bytes += key.len() as u64;
    }

    fn unindex(&mut self, key: &str) {
        let Some(old) = self.live.get(key) else {
            return;
        };
        if let Some(n) = user_of(&old.doc).and_then(|u| self.by_user.get_mut(u)) {
            *n -= 1;
        }
        if let Some(n) = time_of(&old.doc).and_then(|t| self.by_time.get_mut(&t)) {
            *n -= 1;
        }
    }

    /// Live records.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// User bytes of the live records: the denominator of space
    /// amplification.
    pub fn live_bytes(&self) -> u64 {
        self.live.values().map(|r| u64::from(r.size)).sum()
    }

    /// The live keys, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.live.keys().map(String::as_str)
    }

    /// Split into one model per driver thread, each holding the keys its
    /// thread owns.
    pub fn split(self, threads: usize) -> Vec<Model> {
        let mut parts: Vec<Model> = (0..threads).map(|_| Model::default()).collect();
        let written = self.written_bytes;
        for (key, rec) in self.live {
            let owner = key_index(key.as_bytes()).unwrap_or(0) % threads;
            parts[owner].put(&key, &rec.doc, rec.size);
        }
        for p in &mut parts {
            p.written_bytes = 0;
        }
        parts[0].written_bytes = written;
        parts
    }

    /// Inverse of [`Model::split`].
    pub fn merge(parts: Vec<Model>) -> Model {
        let mut all = Model::default();
        let written = parts.iter().map(|p| p.written_bytes).sum();
        for part in parts {
            for (key, rec) in part.live {
                all.put(&key, &rec.doc, rec.size);
            }
        }
        all.written_bytes = written;
        all
    }

    /// Check the result of `GET key`.
    pub fn check_get(&self, key: &str, got: Option<&Document>) -> Result<(), String> {
        match (self.live.get(key), got) {
            (None, None) => Ok(()),
            (Some(rec), Some(doc)) if *rec.doc == *doc => Ok(()),
            (Some(_), Some(_)) => Err(format!("GET {key}: not the last written document")),
            (Some(_), None) => Err(format!("GET {key}: live key not found")),
            (None, Some(_)) => Err(format!("GET {key}: deleted key still readable")),
        }
    }

    fn matching(&self, q: Query) -> u64 {
        match q {
            Query::Users(lo, hi) => self
                .by_user
                .range::<str, _>((Bound::Included(lo), Bound::Included(hi)))
                .map(|(_, &n)| u64::from(n))
                .sum(),
            Query::Time(lo, hi) => self
                .by_time
                .range(lo..=hi)
                .map(|(_, &n)| u64::from(n))
                .sum(),
        }
    }

    /// Check the hits of a LOOKUP or RANGELOOKUP with `K = TOP_K`.
    pub fn check_hits(&self, q: Query, hits: &[LookupHit], scope: Scope) -> Result<(), String> {
        if hits.len() > TOP_K {
            return Err(format!("{q:?}: {} hits for K = {TOP_K}", hits.len()));
        }
        // Ties are legal: a stand-alone index entry carries the sequence
        // its writer *predicted* (`EngineShard::put`), and two concurrent
        // writers can predict the same one.
        if hits.windows(2).any(|w| w[0].seq < w[1].seq) {
            return Err(format!("{q:?}: hits not newest first"));
        }
        for hit in hits {
            if !q.matches(&hit.doc) {
                return Err(format!("{q:?}: hit outside the queried range"));
            }
            if !scope.owns(&hit.key) {
                continue;
            }
            let current = std::str::from_utf8(&hit.key)
                .ok()
                .and_then(|k| self.live.get(k));
            match current {
                Some(rec) if *rec.doc == hit.doc => {}
                Some(_) => return Err(format!("{q:?}: hit carries an overwritten version")),
                None => return Err(format!("{q:?}: hit on a key that is not live")),
            }
        }
        if scope == Scope::All {
            let want = self.matching(q).min(TOP_K as u64);
            if hits.len() as u64 != want {
                return Err(format!("{q:?}: {} hits, expected {want}", hits.len()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(user: &str, time: i64) -> Arc<Document> {
        let mut d = Document::new();
        d.set("UserID", Value::str(user))
            .set("CreationTime", Value::Int(time));
        Arc::new(d)
    }

    fn hit(key: &str, seq: u64, d: &Arc<Document>) -> LookupHit {
        LookupHit {
            key: key.as_bytes().to_vec(),
            seq,
            doc: (**d).clone(),
        }
    }

    #[test]
    fn get_sees_last_write_and_deletes() {
        let mut m = Model::default();
        let (a, b) = (doc("u1", 1), doc("u2", 2));
        m.put("t000000000", &a, 10);
        m.put("t000000000", &b, 12);
        assert!(m.check_get("t000000000", Some(&b)).is_ok());
        assert!(m.check_get("t000000000", Some(&a)).is_err());
        assert!(m.check_get("t000000000", None).is_err());
        m.del("t000000000");
        assert!(m.check_get("t000000000", None).is_ok());
        assert!(m.check_get("t000000000", Some(&b)).is_err());
        assert_eq!(m.written_bytes, 10 + 12 + 10);
        assert_eq!(m.live_bytes(), 0);
    }

    #[test]
    fn hits_are_checked_for_range_version_order_and_count() {
        let mut m = Model::default();
        let (old, new, other) = (doc("u1", 1), doc("u1", 5), doc("u3", 2));
        m.put("t000000000", &old, 10);
        m.put("t000000001", &other, 10);
        m.put("t000000000", &new, 10);
        let q = Query::Users("u1", "u1");
        assert!(m
            .check_hits(q, &[hit("t000000000", 3, &new)], Scope::All)
            .is_ok());
        // The overwritten version must not come back.
        assert!(m
            .check_hits(q, &[hit("t000000000", 1, &old)], Scope::All)
            .is_err());
        // Out of range.
        assert!(m
            .check_hits(q, &[hit("t000000001", 2, &other)], Scope::All)
            .is_err());
        // A missing hit is an error when the model sees every key...
        assert!(m.check_hits(q, &[], Scope::All).is_err());
        // ...but not when other threads own part of the key space.
        let mine = Scope::Owned {
            thread: 1,
            threads: 2,
        };
        assert!(m.check_hits(q, &[], mine).is_ok());
        // Oldest first is wrong.
        let range = Query::Users("u1", "u3");
        let wrong = [hit("t000000001", 2, &other), hit("t000000000", 3, &new)];
        assert!(m.check_hits(range, &wrong, Scope::All).is_err());
        let right = [hit("t000000000", 3, &new), hit("t000000001", 2, &other)];
        assert!(m.check_hits(range, &right, Scope::All).is_ok());
        assert!(m.check_hits(Query::Time(2, 5), &right, Scope::All).is_ok());
        assert!(m.check_hits(Query::Time(3, 5), &right, Scope::All).is_err());
    }

    #[test]
    fn split_and_merge_keep_every_record() {
        let mut m = Model::default();
        for i in 0..10 {
            m.put(&crate::ops::key_of(i), &doc("u1", i as i64), 7);
        }
        let parts = m.split(2);
        assert_eq!(parts[0].len(), 5);
        assert!(parts[1]
            .check_get("t000000003", Some(&doc("u1", 3)))
            .is_ok());
        assert!(parts[0].check_get("t000000003", None).is_ok());
        let all = Model::merge(parts);
        assert_eq!(all.len(), 10);
        assert_eq!(all.written_bytes, 70);
        assert_eq!(all.matching(Query::Users("u1", "u1")), 10);
    }
}
