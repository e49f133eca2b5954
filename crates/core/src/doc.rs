//! The record model: JSON documents with typed secondary attributes.
//!
//! As in the paper, "the secondary attributes and their values are stored
//! inside the value of an entry, which may be in JSON format:
//! `v = {A1: val(A1), …, Al: val(Al)}`".

use ldbpp_common::json::{self, Scalar, Value};
use ldbpp_common::{Error, Result};
use ldbpp_lsm::attr::{AttrExtractor, AttrValue};

/// A JSON-object record value.
#[derive(Debug, Clone, PartialEq)]
pub struct Document(Value);

impl Document {
    /// An empty document (`{}`).
    pub fn new() -> Document {
        Document(Value::object(Vec::<(String, Value)>::new()))
    }

    /// Wrap an existing JSON value; must be an object.
    pub fn from_value(v: Value) -> Result<Document> {
        match v {
            Value::Object(_) => Ok(Document(v)),
            other => Err(Error::invalid(format!(
                "document must be a JSON object, got {other}"
            ))),
        }
    }

    /// Parse serialized bytes into a document.
    pub fn parse(bytes: &[u8]) -> Result<Document> {
        let text =
            std::str::from_utf8(bytes).map_err(|_| Error::corruption("document is not UTF-8"))?;
        Document::from_value(Value::parse(text)?)
    }

    /// Set a field.
    pub fn set(&mut self, key: impl Into<String>, value: Value) -> &mut Self {
        self.0.insert(key, value);
        self
    }

    /// Get a field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    /// The typed secondary-attribute value of a field, if it is a string or
    /// integer (other JSON types are not indexable).
    pub fn attr(&self, key: &str) -> Option<AttrValue> {
        match self.0.get(key)? {
            Value::Str(s) => Some(AttrValue::str(s.clone())),
            Value::Int(i) => Some(AttrValue::Int(*i)),
            _ => None,
        }
    }

    /// Serialize to JSON bytes (the stored record value).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_json().into_bytes()
    }
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Display for Document {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// The typed values of `attrs` in the serialized document `bytes`, read in
/// one pass without building the document ([`json::extract_many`]): entry
/// `i` is what `Document::parse(bytes)?.attr(&attrs[i])` returns, and
/// `bytes` is rejected exactly when [`Document::parse`] rejects it.
pub fn extract_attrs<K: AsRef<str>>(bytes: &[u8], attrs: &[K]) -> Result<Vec<Option<AttrValue>>> {
    Ok(json::extract_many(bytes, attrs)?
        .into_iter()
        .map(|v| {
            v.map(|s| match s {
                Scalar::Str(s) => AttrValue::Str(s),
                Scalar::Int(i) => AttrValue::Int(i),
            })
        })
        .collect())
}

/// [`extract_attrs`] for one attribute.
pub fn extract_attr(bytes: &[u8], attr: &str) -> Result<Option<AttrValue>> {
    Ok(extract_attrs(bytes, &[attr])?.pop().flatten())
}

/// Extracts [`AttrValue`]s from serialized documents — plugged into the
/// primary table's builder so the Embedded Index's per-block filters are
/// computed at SSTable-build time. A record that is not a valid document
/// has no attributes.
#[derive(Debug, Default, Clone, Copy)]
pub struct JsonAttrExtractor;

impl AttrExtractor for JsonAttrExtractor {
    fn extract(&self, attr: &str, value: &[u8]) -> Option<AttrValue> {
        extract_attr(value, attr).ok().flatten()
    }

    fn extract_many(&self, attrs: &[String], value: &[u8]) -> Vec<Option<AttrValue>> {
        extract_attrs(value, attrs).unwrap_or_else(|_| vec![None; attrs.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_serialize() {
        let mut d = Document::new();
        d.set("UserID", Value::str("u1"))
            .set("CreationTime", Value::Int(1234))
            .set("Text", Value::str("hello"));
        let bytes = d.to_bytes();
        let back = Document::parse(&bytes).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.attr("UserID"), Some(AttrValue::str("u1")));
        assert_eq!(back.attr("CreationTime"), Some(AttrValue::Int(1234)));
        assert_eq!(back.attr("Missing"), None);
    }

    #[test]
    fn non_scalar_attrs_not_indexable() {
        let mut d = Document::new();
        d.set("Tags", Value::Array(vec![Value::str("a")]));
        d.set("Score", Value::Float(1.5));
        assert_eq!(d.attr("Tags"), None);
        assert_eq!(d.attr("Score"), None);
    }

    #[test]
    fn rejects_non_objects() {
        assert!(Document::from_value(Value::Int(3)).is_err());
        assert!(Document::parse(b"[1,2]").is_err());
        assert!(Document::parse(b"not json").is_err());
        assert!(Document::parse(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn extractor_matches_doc_attr() {
        let mut d = Document::new();
        d.set("UserID", Value::str("u9"));
        let bytes = d.to_bytes();
        assert_eq!(
            JsonAttrExtractor.extract("UserID", &bytes),
            Some(AttrValue::str("u9"))
        );
        assert_eq!(JsonAttrExtractor.extract("Nope", &bytes), None);
        assert_eq!(JsonAttrExtractor.extract("UserID", b"garbage"), None);
    }

    /// `extract_attrs` against the `Document` it replaces: the same value
    /// for every attribute, or a rejection of the same kind.
    fn agrees_with_document(bytes: &[u8]) {
        const ATTRS: [&str; 5] = ["UserID", "CreationTime", "Text", "Missing", "UserID"];
        let fast = extract_attrs(bytes, &ATTRS);
        let slow = Document::parse(bytes).map(|d| ATTRS.map(|a| d.attr(a)).to_vec());
        let text = String::from_utf8_lossy(bytes);
        match (&fast, &slow) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{text:?}"),
            (Err(a), Err(b)) => assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "{text:?}: {a} vs {b}"
            ),
            _ => panic!("{text:?}: extract_attrs {fast:?}, Document::parse {slow:?}"),
        }
    }

    /// Up to four edits of `bytes` drawn from `rng`: truncation, a bit
    /// flip, an inserted JSON-ish byte, or a deleted byte.
    fn mutate(bytes: &[u8], rng: &mut impl rand::RngExt) -> Vec<u8> {
        const ALPHABET: &[u8] = b"{}[]:,\"\\u0123456789.eE+-tfn \t\x01\xc3\xa9\xff";
        let mut out = bytes.to_vec();
        for _ in 0..rng.random_range(1..5usize) {
            let at = rng.random_range(0..out.len() + 1);
            match rng.random_range(0..4u32) {
                0 => out.truncate(at),
                1 if at < out.len() => out[at] ^= 1 << rng.random_range(0..8u32),
                2 => out.insert(at, ALPHABET[rng.random_range(0..ALPHABET.len())]),
                _ if at < out.len() => {
                    out.remove(at);
                }
                _ => {}
            }
        }
        out
    }

    #[test]
    fn extract_attrs_agrees_with_document_on_tweets_and_mutations() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut gen = ldbpp_workload::TweetGenerator::new(Default::default(), 2_000, 42);
        for tweet in gen.take(2_000) {
            let bytes = Document::from_value(tweet.document()).unwrap().to_bytes();
            agrees_with_document(&bytes);
            for _ in 0..4 {
                agrees_with_document(&mutate(&bytes, &mut rng));
            }
        }
        for odd in [
            &br#"{"UserID":1,"UserID":"u2"}"#[..],
            br#"{"UserID":"u1","UserID":[1]}"#,
            br#"{"UserID":"u1","CreationTime":-0}"#,
            br#"{"CreationTime":1.5,"Text":null}"#,
            br#"{"CreationTime":99999999999999999999}"#,
            br#" { "UserID" : "u1" } "#,
            br#"["UserID","u1"]"#,
            b"42",
            b"{}",
            b"",
            b"{\"UserID\":\"\xff\"}",
        ] {
            agrees_with_document(odd);
        }
    }
}
