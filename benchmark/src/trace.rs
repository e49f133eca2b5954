//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! around the calls it makes into `workload`, `core` and `proto` — never
//! from inside the engine. One root span per sampled operation; the spans
//! of one operation share its index as their id. Spans stay in memory and
//! are written out when the run ends.

use ldbpp_common::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, or the operation kind for a root span.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    /// Index of the operation in its stream: the id its spans share.
    pub op: u64,
    /// Driver thread (client connection) that ran the operation.
    pub thread: u32,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records the spans of one driver thread, sampling one operation in
/// `every`. With `every == 0` it records nothing and every call is one
/// branch.
pub struct Recorder {
    epoch: Instant,
    every: u64,
    thread: u32,
    first_op: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Recorder {
    /// A recorder that records nothing (the untraced run).
    pub fn off() -> Recorder {
        Recorder::new(Instant::now(), 0, 0, 0)
    }

    /// A recorder sampling one operation in `every`, timestamps relative
    /// to `epoch` (shared by the threads of one repetition). Operation `i`
    /// of the stream it records gets the id `first_op + i`.
    pub fn new(epoch: Instant, every: u64, thread: u32, first_op: u64) -> Recorder {
        Recorder {
            epoch,
            every,
            thread,
            first_op,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// True when spans are being recorded at all.
    pub fn enabled(&self) -> bool {
        self.every != 0
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start operation `op` of the stream; opens its root span if it is
    /// sampled. Which operations are sampled is a hash of the index, not a
    /// stride: a stride would beat against the engine's own periods
    /// (fixed-size records fill a memtable every so many PUTs exactly).
    pub fn begin_op(&mut self, op: u64, kind: &'static str) {
        let hash = (op ^ (op >> 29)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        if self.every != 0 && hash.is_multiple_of(self.every) {
            self.op = self.first_op + op;
            self.push(kind);
        }
    }

    /// End the current operation, closing whatever it left open.
    pub fn end_op(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Open a child span of the innermost open span. Outside a sampled
    /// operation this does nothing.
    pub fn enter(&mut self, name: &'static str) {
        if !self.open.is_empty() {
            self.push(name);
        }
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i as usize].end_ns = self.now();
        }
    }

    fn push(&mut self, name: &'static str) {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
            thread: self.thread,
        });
        self.open.push(self.spans.len() as u32 - 1);
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Append `more` (one thread's spans) to `all`, keeping parent links valid.
pub fn append(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len() as u32;
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another
/// (their union is taken) and are clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: how many were recorded and their mean self time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NameSummary {
    /// Spans recorded under the name.
    pub count: u64,
    /// Mean self time in microseconds.
    pub mean_self_us: f64,
}

/// What the spans of one repetition add up to.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    /// Per-name counts and mean self times.
    pub by_name: BTreeMap<&'static str, NameSummary>,
    /// Over all sampled operations: the self time of the spans below the
    /// root as a share of the root span's duration. What is missing from
    /// 1.0 is time the benchmark's loop spent outside any layer call.
    pub coverage: f64,
}

/// Summarise spans: self time by name, and how much of each root its
/// descendants account for.
pub fn summarize(spans: &[Span]) -> Summary {
    let selfs = self_times(spans);
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let (mut root_total, mut root_self) = (0u64, 0u64);
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let e = totals.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns;
        if s.parent.is_none() {
            root_total += s.duration();
            root_self += self_ns;
        }
    }
    Summary {
        by_name: totals
            .into_iter()
            .map(|(name, (count, ns))| {
                let mean_self_us = ns as f64 / count as f64 / 1e3;
                (
                    name,
                    NameSummary {
                        count,
                        mean_self_us,
                    },
                )
            })
            .collect(),
        coverage: if root_total == 0 {
            0.0
        } else {
            1.0 - root_self as f64 / root_total as f64
        },
    }
}

/// The span file: one list of spans per workload. A span's `parent` is an
/// index into its own workload's list.
pub fn document(runs: &[(&'static str, Vec<Span>)]) -> Value {
    let list = |spans: &[Span]| {
        spans
            .iter()
            .map(|s| {
                Value::object([
                    ("name", Value::str(s.name)),
                    ("op", Value::Int(s.op as i64)),
                    ("thread", Value::Int(i64::from(s.thread))),
                    ("start_ns", Value::Int(s.start_ns as i64)),
                    ("end_ns", Value::Int(s.end_ns as i64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Int(i64::from(p))),
                    ),
                ])
            })
            .collect()
    };
    Value::object(
        runs.iter()
            .map(|(workload, spans)| (*workload, Value::Array(list(spans)))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child a 10..60 with grandchild 20..30; child b 70..90.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        // Every nanosecond of the root is some span's self time.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Children 10..50 and 30..70 overlap: they cover 60, not 80. A
        // third child sticks out past the parent and is clipped to 90..100.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn recorder_samples_and_links() {
        let mut r = Recorder::new(Instant::now(), 2, 3, 100);
        for op in 0..64u64 {
            r.begin_op(op, "get");
            r.enter("core.get");
            r.exit();
            r.end_op();
        }
        let spans = r.into_spans();
        // About one operation in two is sampled: a root and a child each.
        let roots = spans.iter().filter(|s| s.parent.is_none()).count();
        assert!((16..=48).contains(&roots), "{roots} of 64 sampled");
        assert_eq!(spans.len(), 2 * roots);
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_some()) {
            let root = &spans[i - 1];
            assert_eq!(s.parent, Some(i as u32 - 1));
            assert_eq!((s.op, s.thread), (root.op, 3));
            assert!((100..164).contains(&s.op));
            assert!(s.start_ns >= root.start_ns && s.end_ns <= root.end_ns);
        }

        let mut off = Recorder::off();
        off.begin_op(0, "get");
        off.enter("core.get");
        off.exit();
        off.end_op();
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn append_rebases_parents() {
        let mut all = vec![span("root", 0, 10, None), span("c", 1, 2, Some(0))];
        append(
            &mut all,
            vec![span("root", 0, 10, None), span("c", 1, 2, Some(0))],
        );
        assert_eq!(all[3].parent, Some(2));
    }

    #[test]
    fn summary_coverage_is_children_over_root() {
        let spans = vec![span("put", 0, 100, None), span("core.put", 5, 95, Some(0))];
        let s = summarize(&spans);
        assert!((s.coverage - 0.9).abs() < 1e-9);
        assert_eq!(s.by_name["core.put"].count, 1);
        assert!((s.by_name["core.put"].mean_self_us - 0.09).abs() < 1e-9);
    }
}
