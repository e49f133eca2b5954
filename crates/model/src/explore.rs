//! Bounded depth-first schedule exploration with sleep sets and
//! preemption bounding.
//!
//! The explorer repeatedly runs a fresh [`Instance`] of a bounded model
//! under the cooperative scheduler ([`parking_lot::sched`]), each time
//! forcing a different interleaving. A persistent stack of decision
//! frames implements stateless DFS: every run replays the stack's
//! recorded choices (the current prefix) and extends it with a default
//! policy; backtracking advances the deepest frame to its next untried
//! alternative.
//!
//! Two classic reductions bound the search:
//!
//! * **Sleep sets** (Godefroid): after exploring choice `c` from state
//!   `s`, `c` is put to sleep in `s`; siblings only wake it through a
//!   dependent operation. This prunes schedules that differ only by
//!   commuting adjacent independent operations.
//! * **Preemption bounding** (Musuvathi & Qadeer): schedules may
//!   preempt a runnable thread at most `preemption_bound` times.
//!   Concurrency bugs overwhelmingly need very few preemptions, and the
//!   bound turns an exponential space into a polynomial one.
//!
//! Both reductions trade completeness for tractability; a clean sweep
//! is evidence within the bound, not a proof.
//!
//! Every explored schedule is identified by a **seed** of the form
//! `v1:<choice positions>:<crc32c>`, where the checksum fingerprints
//! the chosen operations (thread, kind, normalized object id). Object
//! ids are normalized per run — raw lock/atomic/channel ids are mapped
//! to dense ids in order of first appearance — so the same logical
//! schedule gets the same seed in every process. [`replay`] re-executes
//! a seed's exact interleaving and fails loudly on any divergence.

use ldbpp_common::crc32c::crc32c;
use parking_lot::sched::{self, ExecReport, OpKind, PendingOp};
use std::collections::HashMap;

/// One disposable run of a bounded model: the scheduled threads plus a
/// post-run invariant check (serial-oracle history validation,
/// integrity scan, ...). The factory handed to [`Explorer::explore`]
/// builds a fresh instance per schedule.
pub struct Instance {
    /// Named model threads handed to the scheduler, in index order.
    pub threads: Vec<(String, Box<dyn FnOnce() + Send>)>,
    /// Invariant check run after a schedule completes without a
    /// scheduler-level failure. `Err` descriptions become violations.
    pub check: Box<dyn FnOnce() -> Result<(), String>>,
}

/// A schedule on which the model misbehaved.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Replayable schedule seed (`v1:...`); feed to [`replay`].
    pub seed: String,
    /// What went wrong: a panic/deadlock/step-budget description from
    /// the scheduler, or the message from the instance's check.
    pub description: String,
}

/// Exploration counters.
#[derive(Debug, Clone, Copy)]
pub struct ExploreStats {
    /// Distinct schedules executed.
    pub schedules: u64,
    /// Whether the bounded space was fully swept (as opposed to the
    /// schedule budget running out first).
    pub exhausted: bool,
}

/// Result of [`Explorer::explore`]: counters plus the first violation
/// found, if any.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// Counters for the sweep.
    pub stats: ExploreStats,
    /// First violating schedule, or `None` if the sweep was clean.
    pub violation: Option<Violation>,
}

/// Exploration budget and bounds.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Stop after this many schedules even if the space is not swept.
    pub max_schedules: u64,
    /// Per-run step budget (livelock backstop), passed to the scheduler.
    pub max_steps: u64,
    /// Maximum preemptions per schedule.
    pub preemption_bound: u32,
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer {
            max_schedules: 1200,
            max_steps: 50_000,
            preemption_bound: 2,
        }
    }
}

impl Explorer {
    /// The CI-budgeted explorer: the default bounds, raised to an
    /// effectively exhaustive schedule budget when `MODEL_FULL=1` is set
    /// (mirroring the crash-sweep's `CRASH_SWEEP_FULL` convention).
    pub fn bounded() -> Explorer {
        let full = std::env::var("MODEL_FULL").is_ok_and(|v| !v.is_empty() && v != "0");
        Explorer {
            max_schedules: if full { 500_000 } else { 1200 },
            ..Explorer::default()
        }
    }

    /// Sweep the model's schedule space, returning on the first
    /// violation or when the budget/space is exhausted.
    ///
    /// The factory must build a *fresh, fully reset* instance per call
    /// (including `ldbpp_lsm::vclock::reset()` and seeded-bug flags);
    /// the previous instance is dropped before the factory runs again.
    ///
    /// Panics if two runs of the same choice prefix observe different
    /// enabled sets — that means the model itself is nondeterministic
    /// (time, randomness, or an unstubbed real dependency) and nothing
    /// it explores would be replayable.
    pub fn explore(&self, factory: &mut dyn FnMut() -> Instance) -> ExploreOutcome {
        let mut stack: Vec<Frame> = Vec::new();
        let mut stats = ExploreStats {
            schedules: 0,
            exhausted: false,
        };
        loop {
            let Instance { threads, check } = factory();
            let res = run(threads, self.max_steps, &mut stack, self.preemption_bound);
            stats.schedules += 1;
            if let Some(msg) = res.diverged {
                panic!("model nondeterminism: {msg}");
            }
            debug_assert_eq!(stack.len(), res.decisions);
            let violation = if let Some(f) = &res.report.failure {
                Some(Violation {
                    seed: seed_of(&stack),
                    description: f.describe(),
                })
            } else {
                check().err().map(|description| Violation {
                    seed: seed_of(&stack),
                    description,
                })
            };
            if violation.is_some() {
                return ExploreOutcome { stats, violation };
            }
            if stats.schedules >= self.max_schedules {
                return ExploreOutcome {
                    stats,
                    violation: None,
                };
            }
            // Backtrack: put the explored choice to sleep, advance the
            // deepest frame with an untried, awake, bound-respecting
            // alternative, and drop everything beneath it.
            loop {
                let Some(top) = stack.last_mut() else {
                    stats.exhausted = true;
                    return ExploreOutcome {
                        stats,
                        violation: None,
                    };
                };
                let done = top.enabled[top.chosen];
                if !top.sleep.contains(&done) {
                    top.sleep.push(done);
                }
                if let Some(p) = next_choice(top, self.preemption_bound) {
                    top.chosen = p;
                    top.tried[p] = true;
                    break;
                }
                stack.pop();
            }
        }
    }
}

/// Re-execute the exact interleaving identified by `seed` on a fresh
/// instance. Returns the reproduced violation (or `None` if the
/// schedule runs clean — e.g. the bug it witnessed has been fixed), or
/// an `Err` describing a divergence: the seed no longer matches the
/// model (different decision count, out-of-range choice, or operation
/// fingerprint mismatch after a code change).
pub fn replay(seed: &str, instance: Instance) -> Result<Option<Violation>, String> {
    let (positions, want_crc) = parse_seed(seed)?;
    let Instance { threads, check } = instance;
    let mut norm = Normalizer::default();
    let mut depth = 0usize;
    let mut diverged: Option<String> = None;
    let mut bytes: Vec<u8> = Vec::new();
    let report = sched::execute(threads, 50_000, &mut |enabled, _last| {
        let e = normalize(&mut norm, enabled);
        let d = depth;
        depth += 1;
        let p = match positions.get(d) {
            Some(&p) if p < e.len() => p,
            Some(&p) => {
                if diverged.is_none() {
                    diverged = Some(format!(
                        "choice {p} out of range at depth {d} ({} ops enabled)",
                        e.len()
                    ));
                }
                0
            }
            None => {
                if diverged.is_none() {
                    diverged = Some(format!("run needs more decisions than the seed has ({d})"));
                }
                0
            }
        };
        fingerprint(&mut bytes, e[p].0, &e[p].1);
        p
    });
    if let Some(msg) = diverged {
        return Err(msg);
    }
    if depth != positions.len() {
        return Err(format!(
            "seed has {} decisions but the run made {depth}",
            positions.len()
        ));
    }
    if crc32c(&bytes) != want_crc {
        return Err(
            "schedule fingerprint mismatch: the model's operations changed since the seed \
             was minted"
                .to_string(),
        );
    }
    if let Some(f) = &report.failure {
        return Ok(Some(Violation {
            seed: seed.to_string(),
            description: f.describe(),
        }));
    }
    Ok(check().err().map(|description| Violation {
        seed: seed.to_string(),
        description,
    }))
}

// ---------------------------------------------------------------------------
// DFS internals
// ---------------------------------------------------------------------------

/// One decision point of the current schedule prefix. `enabled` holds
/// the normalized enabled set observed there; `sleep` the *transitions*
/// (thread, op) already fully explored from this state (or inherited
/// from the parent); `preemptions` the count consumed *before* this
/// decision.
#[derive(Clone, Debug)]
struct Frame {
    enabled: Vec<(usize, PendingOp)>,
    chosen: usize,
    tried: Vec<bool>,
    sleep: Vec<(usize, PendingOp)>,
    last: Option<usize>,
    preemptions: u32,
}

struct RunResult {
    report: ExecReport,
    diverged: Option<String>,
    decisions: usize,
}

/// Execute one schedule: replay the stack's recorded choices, then
/// extend with the default policy (stay on the last-granted thread when
/// allowed), pushing a new frame per fresh decision.
fn run(
    threads: Vec<(String, Box<dyn FnOnce() + Send>)>,
    max_steps: u64,
    stack: &mut Vec<Frame>,
    bound: u32,
) -> RunResult {
    let replay_len = stack.len();
    let mut norm = Normalizer::default();
    let mut depth = 0usize;
    let mut diverged: Option<String> = None;
    let report = sched::execute(threads, max_steps, &mut |enabled, last| {
        let e = normalize(&mut norm, enabled);
        let d = depth;
        depth += 1;
        if d < replay_len {
            let f = &stack[d];
            if f.enabled != e && diverged.is_none() {
                diverged = Some(format!(
                    "at depth {d}: recorded enabled set {:?} but observed {:?}",
                    f.enabled, e
                ));
            }
            return f.chosen.min(e.len() - 1);
        }
        let (sleep, preemptions) = if d == 0 {
            (Vec::new(), 0)
        } else {
            let parent = &stack[d - 1];
            let (pt, pop) = parent.enabled[parent.chosen];
            // A sleeping transition stays asleep across an independent
            // step by another thread: the states commute, so exploring
            // it here would duplicate the sibling subtree where it was
            // already explored.
            let inherited = parent
                .sleep
                .iter()
                .filter(|(st, sop)| *st != pt && sop.independent(&pop))
                .copied()
                .collect();
            (inherited, parent.preemptions + preempt_cost(parent))
        };
        let eligible =
            |p: usize| !sleep.contains(&e[p]) && preemptions + cost_at(&e, last, p) <= bound;
        // Prefer continuing the running thread (preemption-free default),
        // else the first eligible op; if everything is asleep or over
        // budget this subtree is redundant — run op 0 just to finish.
        let choice = (0..e.len())
            .find(|&p| last == Some(e[p].0) && eligible(p))
            .or_else(|| (0..e.len()).find(|&p| eligible(p)))
            .unwrap_or(0);
        let mut tried = vec![false; e.len()];
        tried[choice] = true;
        stack.push(Frame {
            enabled: e,
            chosen: choice,
            tried,
            sleep,
            last,
            preemptions,
        });
        choice
    });
    RunResult {
        report,
        diverged,
        decisions: depth,
    }
}

/// Next untried, awake, bound-respecting alternative in a frame.
fn next_choice(f: &Frame, bound: u32) -> Option<usize> {
    (0..f.enabled.len()).find(|&p| {
        !f.tried[p]
            && !f.sleep.contains(&f.enabled[p])
            && f.preemptions + cost_at(&f.enabled, f.last, p) <= bound
    })
}

/// A choice costs a preemption iff it switches away from the
/// last-granted thread while that thread still has an enabled op.
fn cost_at(enabled: &[(usize, PendingOp)], last: Option<usize>, p: usize) -> u32 {
    match last {
        Some(l) if enabled[p].0 != l && enabled.iter().any(|&(t, _)| t == l) => 1,
        _ => 0,
    }
}

fn preempt_cost(f: &Frame) -> u32 {
    cost_at(&f.enabled, f.last, f.chosen)
}

// ---------------------------------------------------------------------------
// Normalization & seeds
// ---------------------------------------------------------------------------

/// Maps raw scheduler object ids (global counters, different every
/// process) to dense per-run ids keyed by first appearance, so seeds
/// and divergence checks are stable across processes. The `obj` of
/// Start/Yield/Gate ops is already stable and passes through unchanged.
#[derive(Default)]
struct Normalizer {
    map: HashMap<(u8, u64), u64>,
    next: u64,
}

fn obj_namespace(kind: OpKind) -> Option<u8> {
    match kind {
        OpKind::MutexLock
        | OpKind::MutexTryLock
        | OpKind::RwRead
        | OpKind::RwWrite
        | OpKind::CondReacquire => Some(0),
        OpKind::CondNotify => Some(1),
        OpKind::AtomicLoad | OpKind::AtomicStore | OpKind::AtomicRmw => Some(2),
        OpKind::ChanSend | OpKind::ChanRecv => Some(3),
        OpKind::Start | OpKind::Yield | OpKind::Gate => None,
    }
}

impl Normalizer {
    fn norm(&mut self, op: &PendingOp) -> PendingOp {
        let Some(ns) = obj_namespace(op.kind) else {
            return *op;
        };
        let next = &mut self.next;
        let id = *self.map.entry((ns, op.obj)).or_insert_with(|| {
            *next += 1;
            *next
        });
        PendingOp { obj: id, ..*op }
    }
}

fn normalize(norm: &mut Normalizer, enabled: &[sched::EnabledOp]) -> Vec<(usize, PendingOp)> {
    // `execute` presents the enabled set sorted by thread index; keep
    // that order so positions are meaningful across runs.
    enabled
        .iter()
        .map(|o| (o.thread, norm.norm(&o.op)))
        .collect()
}

/// Codes are part of every seed's fingerprint, so they never change; 12
/// is unused.
fn kind_code(kind: OpKind) -> u8 {
    match kind {
        OpKind::Start => 0,
        OpKind::MutexLock => 1,
        OpKind::MutexTryLock => 2,
        OpKind::RwRead => 3,
        OpKind::RwWrite => 4,
        OpKind::CondReacquire => 5,
        OpKind::CondNotify => 6,
        OpKind::AtomicLoad => 7,
        OpKind::AtomicStore => 8,
        OpKind::AtomicRmw => 9,
        OpKind::ChanSend => 10,
        OpKind::ChanRecv => 11,
        OpKind::Gate => 13,
        OpKind::Yield => 14,
    }
}

fn fingerprint(bytes: &mut Vec<u8>, thread: usize, op: &PendingOp) {
    bytes.extend_from_slice(&(thread as u32).to_le_bytes());
    bytes.push(kind_code(op.kind));
    bytes.extend_from_slice(&op.obj.to_le_bytes());
    bytes.push(op.gated as u8);
}

fn seed_of(stack: &[Frame]) -> String {
    let mut bytes = Vec::new();
    let mut positions = String::new();
    for f in stack {
        let (t, op) = f.enabled[f.chosen];
        fingerprint(&mut bytes, t, &op);
        if !positions.is_empty() {
            positions.push('.');
        }
        positions.push_str(&f.chosen.to_string());
    }
    format!("v1:{positions}:{:08x}", crc32c(&bytes))
}

fn parse_seed(seed: &str) -> Result<(Vec<usize>, u32), String> {
    let mut parts = seed.splitn(3, ':');
    let (Some(version), Some(pos), Some(crc)) = (parts.next(), parts.next(), parts.next()) else {
        return Err(format!(
            "malformed seed {seed:?}: want v1:<positions>:<crc>"
        ));
    };
    if version != "v1" {
        return Err(format!("unsupported seed version {version:?}"));
    }
    let positions = if pos.is_empty() {
        Vec::new()
    } else {
        pos.split('.')
            .map(|p| {
                p.parse::<usize>()
                    .map_err(|e| format!("bad position {p:?} in seed: {e}"))
            })
            .collect::<Result<Vec<usize>, String>>()?
    };
    let crc = u32::from_str_radix(crc, 16).map_err(|e| format!("bad checksum in seed: {e}"))?;
    Ok((positions, crc))
}
