//! Operation streams: everything the engine is asked to do, generated
//! from the seed before any clock starts.
//!
//! Mixes are fixed cycles, not per-operation coin flips, so that every
//! repetition and every seed runs exactly the same number of operations
//! of each kind and every latency percentile has a known sample count.

use crate::config::{tweet_stats, Counts, Workload, TIME_SPAN_S, TOP_K, USER_SPAN};
use ldbpp_core::Document;
use ldbpp_workload::{Operation, StaticQueries, Tweet, TweetGenerator, Zipf};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// The kinds of operation a latency is reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// `PUT` of a fresh key or of an existing one.
    Put,
    /// `GET`.
    Get,
    /// `DEL`.
    Del,
    /// `LOOKUP(UserID, u, K)`.
    Lookup,
    /// `RANGELOOKUP(UserID, lo, hi, K)` — a stand-alone index everywhere.
    RangeLookup,
    /// `RANGELOOKUP(CreationTime, lo, hi, K)`.
    TimeRange,
}

impl OpKind {
    /// The metric-name stem of the kind.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Put => "put",
            OpKind::Get => "get",
            OpKind::Del => "del",
            OpKind::Lookup => "lookup",
            OpKind::RangeLookup => "rangelookup",
            OpKind::TimeRange => "timerange",
        }
    }

    /// Position in a per-kind table of six.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One operation, with everything the call needs already built.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Write `doc` under `key` (insert or overwrite).
    Put {
        /// Primary key.
        key: String,
        /// The record.
        doc: Arc<Document>,
        /// User bytes of the write: key plus serialized record.
        size: u32,
    },
    /// Read `key`.
    Get {
        /// Primary key.
        key: String,
    },
    /// Delete `key`.
    Del {
        /// Primary key.
        key: String,
    },
    /// The `TOP_K` newest tweets of `user`.
    Lookup {
        /// `UserID` value.
        user: String,
    },
    /// The `TOP_K` newest tweets of users `lo..=hi`.
    RangeUsers {
        /// Inclusive lower `UserID`.
        lo: String,
        /// Inclusive upper `UserID`.
        hi: String,
    },
    /// The `TOP_K` newest tweets created in `lo..=hi`.
    RangeTime {
        /// Inclusive lower `CreationTime`.
        lo: i64,
        /// Inclusive upper `CreationTime`.
        hi: i64,
    },
}

impl Op {
    /// The kind the operation's latency is filed under.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Put { .. } => OpKind::Put,
            Op::Get { .. } => OpKind::Get,
            Op::Del { .. } => OpKind::Del,
            Op::Lookup { .. } => OpKind::Lookup,
            Op::RangeUsers { .. } => OpKind::RangeLookup,
            Op::RangeTime { .. } => OpKind::TimeRange,
        }
    }
}

/// The primary key of the `i`-th inserted record.
pub fn key_of(i: usize) -> String {
    format!("t{i:09}")
}

/// Inverse of [`key_of`]; `None` for a key the benchmark did not make.
pub fn key_index(key: &[u8]) -> Option<usize> {
    std::str::from_utf8(key.strip_prefix(b"t")?)
        .ok()?
        .parse()
        .ok()
}

fn put_op(key: String, tweet: &Tweet) -> Op {
    let doc = Document::from_value(tweet.document()).expect("a tweet is a JSON object");
    Op::Put {
        size: (key.len() + doc.to_bytes().len()) as u32,
        key,
        doc: Arc::new(doc),
    }
}

fn from_query(q: Operation) -> Op {
    match q {
        Operation::Get { key } => Op::Get { key },
        Operation::LookupUser { user, .. } => Op::Lookup { user },
        Operation::RangeUsers { lo, hi, .. } => Op::RangeUsers { lo, hi },
        Operation::RangeTime { lo, hi, .. } => Op::RangeTime { lo, hi },
        Operation::Put(_) | Operation::Update(_) => unreachable!("StaticQueries draws only reads"),
    }
}

/// What one slot of a mix cycle asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// PUT of a fresh key.
    Insert,
    /// PUT of an existing key with a fresh tweet: the old index entries
    /// go stale.
    Update,
    /// GET of an existing key.
    Get,
    /// DEL of an existing key.
    Del,
    /// LOOKUP on a Zipf-drawn user.
    Lookup,
    /// `UserID` RANGELOOKUP.
    RangeUsers,
    /// `CreationTime` RANGELOOKUP.
    RangeTime,
}

/// `static_load`: 80 % insert, 20 % update.
pub const LOAD_MIX: [(Slot, usize); 2] = [(Slot::Insert, 4), (Slot::Update, 1)];

/// `static_query`: 90 % GET, 6 % LOOKUP, 2 % + 2 % RANGELOOKUP.
pub const QUERY_MIX: [(Slot, usize); 4] = [
    (Slot::Get, 45),
    (Slot::Lookup, 3),
    (Slot::RangeUsers, 1),
    (Slot::RangeTime, 1),
];

/// `net_mixed`: 50 % GET, 35 % PUT of which 40 % update, 10 % LOOKUP,
/// 5 % DEL.
pub const NET_MIX: [(Slot, usize); 5] = [
    (Slot::Get, 50),
    (Slot::Insert, 21),
    (Slot::Update, 14),
    (Slot::Lookup, 10),
    (Slot::Del, 5),
];

/// One period of a mix: each slot exactly as often as its weight, in an
/// order shuffled by `rng`. Streams repeat the period.
pub fn mix_cycle(mix: &[(Slot, usize)], rng: &mut StdRng) -> Vec<Slot> {
    let mut cycle: Vec<Slot> = mix
        .iter()
        .flat_map(|&(slot, n)| std::iter::repeat_n(slot, n))
        .collect();
    for i in (1..cycle.len()).rev() {
        cycle.swap(i, rng.random_range(0..=i));
    }
    cycle
}

/// A writer of tweets over the keys one driver thread owns: thread `t` of
/// `T` owns the key indexes `≡ t (mod T)`, so no two threads ever write
/// the same key and each can check its own reads exactly.
struct KeySpace {
    thread: usize,
    threads: usize,
    /// Keys of this thread that exist so far (deleted ones included).
    owned: usize,
}

impl KeySpace {
    fn nth(&self, m: usize) -> usize {
        m * self.threads + self.thread
    }

    fn fresh(&mut self) -> String {
        self.owned += 1;
        key_of(self.nth(self.owned - 1))
    }

    fn existing(&self, rng: &mut StdRng) -> String {
        key_of(self.nth(rng.random_range(0..self.owned)))
    }
}

/// Everything one repetition of a workload does, in order.
pub struct Plan {
    /// PUTs applied during set-up, not measured.
    pub preload: Vec<Op>,
    /// The measured main phase, one stream per driver thread.
    pub main: Vec<Vec<Op>>,
    /// The probe phase: a fixed number of operations of each kind the main
    /// phase lacks, shuffled, on one thread. It exists so
    /// that every latency metric has a value on every workload; it is
    /// measured but is not part of `throughput_kops`.
    pub probe: Vec<Op>,
}

impl Plan {
    /// Operations in the main phase, all threads together.
    pub fn main_ops(&self) -> usize {
        self.main.iter().map(Vec::len).sum()
    }

    /// Every generated operation.
    pub fn total_ops(&self) -> usize {
        self.preload.len() + self.main_ops() + self.probe.len()
    }
}

/// A stream of `n` inserts and updates in [`LOAD_MIX`] proportion over a
/// fresh key space, users drawn from the pool of a `pool_tweets`-tweet
/// dataset. Returns the operations and the inserted tweets in key order
/// (what a query generator needs to know about the data).
fn load_stream(seed: u64, n: usize, pool_tweets: usize) -> (Vec<Op>, Vec<Tweet>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10ad);
    let mut cycle = mix_cycle(&LOAD_MIX, &mut rng);
    // The first operation has nothing to update yet.
    let first_insert = cycle.iter().position(|&s| s == Slot::Insert).unwrap_or(0);
    cycle.swap(0, first_insert);
    let mut tweets = TweetGenerator::new(tweet_stats(), pool_tweets, seed);
    let mut keys = KeySpace {
        thread: 0,
        threads: 1,
        owned: 0,
    };
    let mut inserted = Vec::new();
    let ops = (0..n)
        .map(|i| {
            let mut tweet = tweets.next_tweet();
            if cycle[i % cycle.len()] == Slot::Insert {
                tweet.id = keys.fresh();
                inserted.push(tweet.clone());
            } else {
                tweet.id = keys.existing(&mut rng);
            }
            put_op(tweet.id.clone(), &tweet)
        })
        .collect();
    (ops, inserted)
}

/// `n` reads in [`QUERY_MIX`] proportion against `loaded`.
fn query_stream(seed: u64, loaded: &[Tweet], n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e7);
    let cycle = mix_cycle(&QUERY_MIX, &mut rng);
    let mut queries = StaticQueries::new(&tweet_stats(), loaded, seed ^ 0x51a7);
    (0..n)
        .map(|i| read_op(&mut queries, cycle[i % cycle.len()]))
        .collect()
}

fn read_op(queries: &mut StaticQueries, slot: Slot) -> Op {
    let k = Some(TOP_K);
    from_query(match slot {
        Slot::Get => queries.get(),
        Slot::Lookup => queries.lookup_user(k),
        Slot::RangeUsers => queries.range_users(USER_SPAN, k),
        Slot::RangeTime => queries.range_time_span(TIME_SPAN_S, k),
        Slot::Insert | Slot::Update | Slot::Del => unreachable!("not a read"),
    })
}

/// `n` reads of each `(slot, n)`, shuffled: every kind is sampled over
/// the whole phase, not in one burst of a few milliseconds that meets the
/// host at a single speed.
fn read_probe(seed: u64, loaded: &[Tweet], slots: &[(Slot, usize)]) -> Vec<Op> {
    let mut queries = StaticQueries::new(&tweet_stats(), loaded, seed ^ 0x960be);
    let mut ops: Vec<Op> = slots
        .iter()
        .flat_map(|&(slot, n)| (0..n).map(move |_| slot))
        .map(|slot| read_op(&mut queries, slot))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ff1e);
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.random_range(0..=i));
    }
    ops
}

/// The main-phase stream of one `net_mixed` connection: [`NET_MIX`] over
/// the keys the thread owns.
fn net_stream(seed: u64, thread: usize, threads: usize, preload: usize, n: usize) -> Vec<Op> {
    let stream_seed = seed ^ ((thread as u64 + 1) << 32);
    let mut rng = StdRng::seed_from_u64(stream_seed ^ 0x2e7);
    let cycle = mix_cycle(&NET_MIX, &mut rng);
    // Same user pool as the preload, so LOOKUPs find old and new tweets.
    let stats = tweet_stats();
    let users = Zipf::new(stats.user_pool(preload.max(1)), stats.user_zipf_exponent);
    let mut tweets = TweetGenerator::new(stats, preload.max(1), stream_seed);
    let mut keys = KeySpace {
        thread,
        threads,
        owned: preload / threads,
    };
    (0..n)
        .map(|i| match cycle[i % cycle.len()] {
            Slot::Insert => {
                let tweet = tweets.next_tweet();
                put_op(keys.fresh(), &tweet)
            }
            Slot::Update => {
                let tweet = tweets.next_tweet();
                put_op(keys.existing(&mut rng), &tweet)
            }
            Slot::Get => Op::Get {
                key: keys.existing(&mut rng),
            },
            Slot::Del => Op::Del {
                key: keys.existing(&mut rng),
            },
            Slot::Lookup => Op::Lookup {
                user: TweetGenerator::user_id(users.sample(&mut rng)),
            },
            Slot::RangeUsers | Slot::RangeTime => unreachable!("not in NET_MIX"),
        })
        .collect()
}

/// The insert-only stream of one `durable_put` writer, and its tweets.
fn insert_stream(seed: u64, thread: usize, threads: usize, n: usize) -> (Vec<Op>, Vec<Tweet>) {
    let stream_seed = seed ^ ((thread as u64 + 1) << 32);
    let mut tweets = TweetGenerator::new(tweet_stats(), n * threads, stream_seed);
    let mut keys = KeySpace {
        thread,
        threads,
        owned: 0,
    };
    let inserted: Vec<Tweet> = (0..n)
        .map(|_| {
            let mut tweet = tweets.next_tweet();
            tweet.id = keys.fresh();
            tweet
        })
        .collect();
    let ops = inserted.iter().map(|t| put_op(t.id.clone(), t)).collect();
    (ops, inserted)
}

/// Merge per-thread insert lists into key order.
fn interleave(per_thread: Vec<Vec<Tweet>>) -> Vec<Tweet> {
    let mut all: Vec<Tweet> = per_thread.into_iter().flatten().collect();
    all.sort_by(|a, b| a.id.cmp(&b.id));
    all
}

/// Generate one repetition of `workload` with `threads` driver threads in
/// its main phase. The same `(workload, seed, counts, threads)` always
/// yields the same plan.
pub fn plan(workload: Workload, seed: u64, counts: Counts, threads: usize) -> Plan {
    // Every read kind; time ranges as often as `scans` says.
    let all_reads = |scans: usize| {
        [
            (Slot::Get, counts.probe_points),
            (Slot::Lookup, counts.probe_lookups),
            (Slot::RangeUsers, counts.probe_lookups),
            (Slot::RangeTime, scans),
        ]
    };
    // Inserts among `load_ops` operations of LOAD_MIX: what sizes the user
    // pool of both Static workloads.
    let load_inserts = (counts.load_ops * 4 / 5).max(1);
    match workload {
        Workload::StaticLoad => {
            let (main, loaded) = load_stream(seed, counts.load_ops, load_inserts);
            Plan {
                preload: Vec::new(),
                main: vec![main],
                probe: read_probe(seed, &loaded, &all_reads(counts.probe_scans)),
            }
        }
        Workload::StaticQuery => {
            // One write stream, cut in two: set-up applies the same
            // operations `static_load` measures, the probe continues it.
            let (mut writes, loaded) =
                load_stream(seed, counts.load_ops + counts.probe_points, load_inserts);
            let probe = writes.split_off(counts.load_ops);
            // Queries may only name what set-up loaded, not what the
            // probe will insert afterwards.
            let loaded = &loaded[..load_inserts.min(loaded.len())];
            Plan {
                main: vec![query_stream(seed, loaded, counts.query_ops)],
                preload: writes,
                probe,
            }
        }
        Workload::NetMixed => {
            // Rounded down so that every thread owns the same number of
            // preloaded keys.
            let preload_n = counts.net_preload / threads * threads;
            let mut preload_tweets =
                TweetGenerator::new(tweet_stats(), preload_n.max(1), seed).take(preload_n);
            for (i, t) in preload_tweets.iter_mut().enumerate() {
                t.id = key_of(i);
            }
            Plan {
                preload: preload_tweets
                    .iter()
                    .map(|t| put_op(t.id.clone(), t))
                    .collect(),
                main: (0..threads)
                    .map(|t| net_stream(seed, t, threads, preload_n, counts.net_ops / threads))
                    .collect(),
                probe: read_probe(
                    seed,
                    &preload_tweets,
                    &[
                        (Slot::RangeUsers, counts.probe_lookups),
                        (Slot::RangeTime, counts.probe_lookups),
                    ],
                ),
            }
        }
        Workload::DurablePut => {
            let (main, inserted): (Vec<_>, Vec<_>) = (0..threads)
                .map(|t| insert_stream(seed, t, threads, counts.durable_ops / threads))
                .unzip();
            Plan {
                preload: Vec::new(),
                main,
                probe: read_probe(
                    seed,
                    &interleave(inserted),
                    &all_reads(counts.probe_lookups),
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(ops: &[Op], kind: OpKind) -> usize {
        ops.iter().filter(|op| op.kind() == kind).count()
    }

    #[test]
    fn keys_round_trip() {
        assert_eq!(key_of(42), "t000000042");
        assert_eq!(key_index(b"t000000042"), Some(42));
        assert_eq!(key_index(b"warm-1"), None);
    }

    #[test]
    fn cycles_hold_their_ratios_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let cycle = mix_cycle(&NET_MIX, &mut rng);
        assert_eq!(cycle.len(), 100);
        assert_eq!(cycle.iter().filter(|&&s| s == Slot::Get).count(), 50);
        assert_eq!(cycle.iter().filter(|&&s| s == Slot::Del).count(), 5);
        assert_eq!(cycle.iter().filter(|&&s| s == Slot::Update).count(), 14);
    }

    #[test]
    fn static_load_is_80_20_and_probes_every_read_kind() {
        let counts = Counts::quick();
        let p = plan(Workload::StaticLoad, 7, counts, 1);
        assert!(p.preload.is_empty());
        assert_eq!(p.main[0].len(), counts.load_ops);
        assert_eq!(count(&p.main[0], OpKind::Put), counts.load_ops);
        let fresh: std::collections::BTreeSet<&str> = p.main[0]
            .iter()
            .map(|op| match op {
                Op::Put { key, .. } => key.as_str(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(fresh.len(), counts.load_ops * 4 / 5);
        assert_eq!(count(&p.probe, OpKind::Get), counts.probe_points);
        assert_eq!(count(&p.probe, OpKind::Lookup), counts.probe_lookups);
        assert_eq!(count(&p.probe, OpKind::RangeLookup), counts.probe_lookups);
        assert_eq!(count(&p.probe, OpKind::TimeRange), counts.probe_scans);
    }

    #[test]
    fn static_query_mix_and_setup_match_static_load() {
        let counts = Counts::quick();
        let q = plan(Workload::StaticQuery, 7, counts, 1);
        let l = plan(Workload::StaticLoad, 7, counts, 1);
        assert_eq!(q.preload, l.main[0], "set-up replays static_load's stream");
        let n = counts.query_ops;
        assert_eq!(count(&q.main[0], OpKind::Get), n * 90 / 100);
        assert_eq!(count(&q.main[0], OpKind::Lookup), n * 6 / 100);
        assert_eq!(count(&q.main[0], OpKind::RangeLookup), n * 2 / 100);
        assert_eq!(count(&q.main[0], OpKind::TimeRange), n * 2 / 100);
        assert_eq!(count(&q.probe, OpKind::Put), counts.probe_points);
    }

    #[test]
    fn net_mixed_threads_own_disjoint_keys() {
        // Whole mix cycles per thread, so that the ratios are exact.
        let counts = Counts {
            net_ops: 1_000,
            ..Counts::quick()
        };
        let p = plan(Workload::NetMixed, 7, counts, 2);
        assert_eq!(p.preload.len(), counts.net_preload);
        assert_eq!(p.main_ops(), counts.net_ops);
        for (t, stream) in p.main.iter().enumerate() {
            for op in stream {
                let key = match op {
                    Op::Put { key, .. } | Op::Get { key } | Op::Del { key } => key,
                    _ => continue,
                };
                assert_eq!(key_index(key.as_bytes()).unwrap() % 2, t);
            }
            let n = stream.len();
            assert_eq!(count(stream, OpKind::Get), n / 2);
            assert_eq!(count(stream, OpKind::Put), n * 35 / 100);
            assert_eq!(count(stream, OpKind::Lookup), n / 10);
            assert_eq!(count(stream, OpKind::Del), n / 20);
        }
    }

    #[test]
    fn durable_put_is_insert_only() {
        let counts = Counts::quick();
        let p = plan(Workload::DurablePut, 7, counts, 2);
        assert_eq!(p.main.len(), 2);
        assert_eq!(p.main_ops(), counts.durable_ops);
        let mut keys: Vec<&str> = p
            .main
            .iter()
            .flatten()
            .map(|op| match op {
                Op::Put { key, .. } => key.as_str(),
                _ => panic!("durable_put writes only"),
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), counts.durable_ops);
    }

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        let counts = Counts::quick();
        for w in Workload::ALL {
            let threads = w.spec().threads;
            let a = plan(w, 42, counts, threads);
            let b = plan(w, 42, counts, threads);
            let c = plan(w, 1337, counts, threads);
            assert!(a.main == b.main && a.preload == b.preload && a.probe == b.probe);
            assert!(a.main != c.main, "{}", w.name());
        }
    }
}
