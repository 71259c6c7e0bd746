//! The executable ordering oracle.
//!
//! [`check`] judges a dispatch-provenance [`EventLog`] against the libuv
//! phase rules the runtime promises to preserve under *any* legal
//! schedule (DESIGN.md "what fuzzing may and may not reorder"), using the
//! generated program's marker accesses (`run:<id>`, `msg:<chain>:<k>`) to
//! tie dispatches back to DSL nodes. Every rule has a stable identifier
//! so tests can assert *which* invariant a mutated log breaks:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `event-ids` | events are densely numbered in dispatch order |
//! | `access-range` | accesses reference recorded events and sites |
//! | `cause-backward` | causes dispatch before their effects |
//! | `phase-order` | iterations are monotone; within one, phases follow timers → pending → idle → prepare → poll → check → close |
//! | `close-last` | no non-close event after a close event in the same iteration |
//! | `micro-before-macro` | a `nextTick` body runs inside its parent's event, before any macrotask |
//! | `timer-monotone` | timers fire in (deadline, registration seq) order |
//! | `fd-fifo` | per-fd payloads are observed exactly in write order |
//! | `done-after-task` | a pool done callback follows its task's execution |
//! | `mux-done-legal` | with a multiplexed done queue, dones complete in task-finish order |
//! | `spawn-kind` | a node's dispatch has the event kind its op demands |
//! | `immediate-phase` | `setImmediate` runs in the iteration its snapshot semantics dictate |
//! | `run-once` | no node or payload is dispatched twice |
//! | `all-dispatched` | a quiescent run dispatched every node and payload |
//! | `interval-ticks` | a repeating timer's ticks are observed in order, none after its clear |
//! | `barrier-gate` | a barrier body runs inside the last arrival's dispatch, after every arrival |
//! | `series-order` | waterfall steps run in continuation order regardless of their deadlines |
//! | `emit-order` | `emit` dispatches listeners synchronously in registration order; `once` fires once, removed listeners never |
//! | `client-order` | kv/fs client callback chains complete in issue order |

use std::collections::HashMap;
use std::fmt;

use nodefz_rt::{CbId, CbKind, EvDetail, EvKind, EventLog};

use crate::prog::{Op, Prog};

/// Facts about the run the log cannot carry itself.
#[derive(Clone, Copy, Debug)]
pub struct OracleCtx {
    /// Whether the done queue was de-multiplexed (per-task descriptors).
    /// With a multiplexed queue, done order must equal task-finish order.
    pub demux: bool,
    /// Whether the run terminated quiescent — only then may the oracle
    /// demand that everything registered was dispatched.
    pub completed: bool,
}

/// One rule violation: the rule's stable id plus evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule identifier (see the module table).
    pub rule: &'static str,
    /// Human-readable evidence naming the offending events.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.message)
    }
}

/// Phase rank of an event kind within one loop iteration. The synthetic
/// `Setup` event (rank 0) only ever occurs at iteration 0; everything
/// dispatched from the poll phase — fd readiness, pool activity, and
/// nested environment events — shares rank 5.
fn rank(kind: EvKind) -> u8 {
    match kind {
        EvKind::Setup => 0,
        EvKind::Cb(CbKind::Timer) => 1,
        EvKind::Cb(CbKind::Pending) => 2,
        EvKind::Cb(CbKind::Idle) => 3,
        EvKind::Cb(CbKind::Prepare) => 4,
        EvKind::Env
        | EvKind::Cb(
            CbKind::NetAccept
            | CbKind::NetRead
            | CbKind::NetClose
            | CbKind::PoolTask
            | CbKind::PoolDone
            | CbKind::FsDone
            | CbKind::KvReply
            | CbKind::Signal
            | CbKind::ChildIo
            | CbKind::Wakeup
            | CbKind::IoOther,
        ) => 5,
        EvKind::Cb(CbKind::Check) => 6,
        EvKind::Cb(CbKind::Close) => 7,
    }
}

const CHECK_RANK: u8 = 6;

/// First event that accessed each marker site, plus the access count.
fn marker_map(log: &EventLog) -> HashMap<&str, (CbId, usize)> {
    let mut map: HashMap<&str, (CbId, usize)> = HashMap::new();
    for acc in &log.accesses {
        let Some(name) = log.sites.get(acc.site as usize) else {
            continue; // reported separately by access-range
        };
        const PREFIXES: [&str; 8] = [
            "run:", "msg:", "tick:", "arr:", "step:", "lis:", "kv:", "fs:",
        ];
        if !PREFIXES.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        map.entry(name.as_str())
            .and_modify(|(_, n)| *n += 1)
            .or_insert((acc.event, 1));
    }
    map
}

/// Judges `log` against every conformance rule; an empty result means
/// the schedule is legal. Violations cite their rule id and evidence.
pub fn check(prog: &Prog, log: &EventLog, ctx: &OracleCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut fail = |rule: &'static str, message: String| {
        out.push(Violation { rule, message });
    };

    // --- log-structural rules (program-independent) ----------------------
    for (i, ev) in log.events.iter().enumerate() {
        if ev.id.0 as usize != i {
            fail(
                "event-ids",
                format!("event at index {i} has id {:?}", ev.id),
            );
        }
        for cause in [ev.cause, ev.cause2].into_iter().flatten() {
            if cause >= ev.id {
                fail(
                    "cause-backward",
                    format!("event {:?} caused by later event {cause:?}", ev.id),
                );
            }
        }
    }
    for acc in &log.accesses {
        if acc.event.0 as usize >= log.events.len() || acc.site as usize >= log.sites.len() {
            fail(
                "access-range",
                format!("access ({:?}, site {}) out of range", acc.event, acc.site),
            );
        }
    }

    for pair in log.events.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if b.iter < a.iter {
            fail(
                "phase-order",
                format!(
                    "event {:?} in iteration {} after {:?} in iteration {}",
                    b.id, b.iter, a.id, a.iter
                ),
            );
        } else if b.iter == a.iter && rank(b.kind) < rank(a.kind) {
            let rule = if a.kind == EvKind::Cb(CbKind::Close) {
                "close-last"
            } else {
                "phase-order"
            };
            fail(
                rule,
                format!(
                    "iteration {}: {:?} ({:?}) dispatched after {:?} ({:?})",
                    b.iter, b.id, b.kind, a.id, a.kind
                ),
            );
        }
    }

    let mut last_timer: Option<(nodefz_rt::VTime, u64, CbId)> = None;
    for ev in &log.events {
        if let EvDetail::Timer { deadline, seq } = ev.detail {
            if let Some((pd, ps, pid)) = last_timer {
                if (deadline, seq) < (pd, ps) {
                    fail(
                        "timer-monotone",
                        format!(
                            "timer {:?} (deadline {deadline:?}, seq {seq}) fired after \
                             {pid:?} (deadline {pd:?}, seq {ps})",
                            ev.id
                        ),
                    );
                }
            }
            last_timer = Some((deadline, seq, ev.id));
        }
    }

    // --- worker-pool rules ------------------------------------------------
    let mut tasks: Vec<(u64, CbId)> = Vec::new();
    let mut dones: Vec<(u64, CbId)> = Vec::new();
    for ev in &log.events {
        if let EvDetail::Task(task) = ev.detail {
            match ev.kind {
                EvKind::Cb(CbKind::PoolTask) => tasks.push((task, ev.id)),
                EvKind::Cb(CbKind::PoolDone) => dones.push((task, ev.id)),
                _ => {}
            }
        }
    }
    for (i, &(task, done_ev)) in dones.iter().enumerate() {
        match tasks.iter().find(|&&(t, _)| t == task) {
            None => fail(
                "done-after-task",
                format!("done {done_ev:?} for task {task} which never ran"),
            ),
            Some(&(_, task_ev)) if task_ev >= done_ev => fail(
                "done-after-task",
                format!("done {done_ev:?} precedes its task event {task_ev:?}"),
            ),
            Some(_) => {}
        }
        if dones[..i].iter().any(|&(t, _)| t == task) {
            fail("run-once", format!("task {task} completed twice"));
        }
        if !ctx.demux {
            // Multiplexed done queue: the k-th done is the k-th finished
            // task — done order must match task execution order exactly.
            match tasks.get(i) {
                Some(&(t, _)) if t == task => {}
                other => fail(
                    "mux-done-legal",
                    format!(
                        "multiplexed done #{i} is task {task}, expected task \
                         {:?} (task order {:?})",
                        other.map(|&(t, _)| t),
                        tasks.iter().map(|&(t, _)| t).collect::<Vec<_>>()
                    ),
                ),
            }
        }
    }

    // --- program-aware rules ---------------------------------------------
    let markers = marker_map(log);
    let run_of = |id: u32| markers.get(Prog::run_marker(id).as_str()).copied();
    let mut parent = vec![None; prog.nodes.len()];
    for (id, node) in prog.nodes.iter().enumerate() {
        for &c in &node.children {
            parent[c as usize] = Some(id as u32);
        }
    }

    for (&name, &(_, count)) in &markers {
        if count > 1 {
            fail(
                "run-once",
                format!("marker {name} dispatched {count} times"),
            );
        }
    }

    for (id, node) in prog.nodes.iter().enumerate() {
        let id = id as u32;
        let Some((ev, _)) = run_of(id) else {
            if ctx.completed {
                fail(
                    "all-dispatched",
                    format!("quiescent run never dispatched node {id} ({:?})", node.op),
                );
            }
            continue;
        };
        let record = &log.events[ev.0 as usize];
        let expected = match node.op {
            Op::Root => Some(EvKind::Setup),
            Op::Timer { .. } => Some(EvKind::Cb(CbKind::Timer)),
            Op::Immediate => Some(EvKind::Cb(CbKind::Check)),
            Op::Pending => Some(EvKind::Cb(CbKind::Pending)),
            Op::Close => Some(EvKind::Cb(CbKind::Close)),
            Op::Pool { .. } => Some(EvKind::Cb(CbKind::PoolDone)),
            Op::FdChain { .. } => Some(EvKind::Cb(CbKind::NetRead)),
            // Interval/barrier/series bodies all run inside a timer
            // dispatch (the last tick, arrival, or step hop).
            Op::Interval { .. } | Op::Barrier { .. } | Op::Series { .. } => {
                Some(EvKind::Cb(CbKind::Timer))
            }
            Op::Emitter { .. } => Some(EvKind::Cb(CbKind::Check)),
            Op::Kv => Some(EvKind::Cb(CbKind::KvReply)),
            Op::Fs => Some(EvKind::Cb(CbKind::PoolDone)),
            // Checked against the parent's event below instead.
            Op::NextTick => None,
        };
        if let Some(expected) = expected {
            if record.kind != expected {
                fail(
                    "spawn-kind",
                    format!(
                        "node {id} ({:?}) ran in {:?} event {ev:?}, expected {expected:?}",
                        node.op, record.kind
                    ),
                );
            }
        }
        let spawn = parent[id as usize].and_then(|p| run_of(p).map(|(e, _)| e));
        match node.op {
            Op::NextTick => {
                // Microtasks are absorbed into the dispatching event:
                // the child's marker must land in the same event record
                // as the parent's (transitively collapsing tick chains).
                if let Some(parent_ev) = spawn {
                    if parent_ev != ev {
                        fail(
                            "micro-before-macro",
                            format!(
                                "nextTick node {id} ran in event {ev:?}, not inside its \
                                 parent's event {parent_ev:?}"
                            ),
                        );
                    }
                }
            }
            Op::Immediate => {
                // setImmediate snapshot semantics: queued at or after the
                // check phase (or during setup) → next iteration's check;
                // queued in an earlier phase → this iteration's check.
                if let Some(parent_ev) = spawn {
                    let spawn_rec = &log.events[parent_ev.0 as usize];
                    let expected_iter = if spawn_rec.iter == 0 {
                        1
                    } else if rank(spawn_rec.kind) >= CHECK_RANK {
                        spawn_rec.iter + 1
                    } else {
                        spawn_rec.iter
                    };
                    if record.iter != expected_iter {
                        fail(
                            "immediate-phase",
                            format!(
                                "immediate node {id} spawned in iteration {} ({:?}) ran in \
                                 iteration {}, expected {expected_iter}",
                                spawn_rec.iter, spawn_rec.kind, record.iter
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    // --- per-chain FIFO ---------------------------------------------------
    for (id, node) in prog.nodes.iter().enumerate() {
        let Op::FdChain { msgs, .. } = node.op else {
            continue;
        };
        let id = id as u32;
        let prefix = format!("msg:{id}:");
        let mut observed = Vec::new();
        for acc in &log.accesses {
            let Some(name) = log.sites.get(acc.site as usize) else {
                continue;
            };
            if let Some(payload) = name.strip_prefix(&prefix) {
                observed.push(payload.parse::<u32>().unwrap_or(u32::MAX));
            }
        }
        let in_order = observed
            .iter()
            .enumerate()
            .all(|(k, &p)| p == k as u32 && p < msgs as u32);
        if !in_order {
            fail(
                "fd-fifo",
                format!(
                    "chain node {id} observed payloads {observed:?}, expected the \
                     in-order prefix of 0..{msgs}"
                ),
            );
        } else if ctx.completed && observed.len() != msgs as usize {
            fail(
                "all-dispatched",
                format!(
                    "quiescent run delivered {}/{} payloads of chain node {id}",
                    observed.len(),
                    msgs
                ),
            );
        }
    }

    // --- combinator and client rules --------------------------------------
    for (id, node) in prog.nodes.iter().enumerate() {
        let id = id as u32;
        match node.op {
            Op::Interval { ticks, .. } => {
                let obs = ordered_suffixes(log, &format!("tick:{id}:"));
                let in_order = obs
                    .iter()
                    .enumerate()
                    .all(|(k, p)| p.parse() == Ok(k as u32) && (k as u32) < ticks as u32);
                if !in_order {
                    fail(
                        "interval-ticks",
                        format!(
                            "interval node {id} observed ticks {obs:?}, expected the \
                             in-order prefix of 0..{ticks}"
                        ),
                    );
                } else if ctx.completed && obs.len() != ticks as usize {
                    fail(
                        "all-dispatched",
                        format!(
                            "quiescent run fired {}/{} ticks of interval node {id}",
                            obs.len(),
                            ticks
                        ),
                    );
                }
            }
            Op::Barrier { parties } => {
                let arrived: Vec<CbId> = (0..parties)
                    .filter_map(|k| {
                        markers
                            .get(Prog::arr_marker(id, k).as_str())
                            .map(|&(ev, _)| ev)
                    })
                    .collect();
                if let Some((run_ev, _)) = run_of(id) {
                    if arrived.len() != parties as usize {
                        fail(
                            "barrier-gate",
                            format!(
                                "barrier node {id} body ran with {}/{parties} arrivals",
                                arrived.len()
                            ),
                        );
                    } else if run_ev != *arrived.iter().max().unwrap() {
                        fail(
                            "barrier-gate",
                            format!(
                                "barrier node {id} body ran in event {run_ev:?}, not the \
                                 last arrival's event {:?}",
                                arrived.iter().max().unwrap()
                            ),
                        );
                    }
                } else if ctx.completed {
                    fail(
                        "all-dispatched",
                        format!(
                            "quiescent run saw {}/{parties} arrivals at barrier node {id} \
                             and never ran its body",
                            arrived.len()
                        ),
                    );
                }
            }
            Op::Series { steps } => {
                let obs = ordered_suffixes(log, &format!("step:{id}:"));
                let in_order = obs
                    .iter()
                    .enumerate()
                    .all(|(k, p)| p.parse() == Ok(k as u32) && (k as u32) < steps as u32);
                if !in_order {
                    fail(
                        "series-order",
                        format!(
                            "series node {id} observed steps {obs:?}, expected the \
                             in-order prefix of 0..{steps}"
                        ),
                    );
                } else if ctx.completed && obs.len() != steps as usize {
                    fail(
                        "all-dispatched",
                        format!(
                            "quiescent run ran {}/{} steps of series node {id}",
                            obs.len(),
                            steps
                        ),
                    );
                }
                if let (Some((run_ev, _)), Some(&(step_ev, _))) = (
                    run_of(id),
                    markers.get(Prog::step_marker(id, steps - 1).as_str()),
                ) {
                    if run_ev != step_ev {
                        fail(
                            "series-order",
                            format!(
                                "series node {id} body ran in event {run_ev:?}, not the \
                                 final step's event {step_ev:?}"
                            ),
                        );
                    }
                }
            }
            Op::Emitter { listeners } => {
                let obs = ordered_suffixes(log, &format!("lis:{id}:"));
                // Two synchronous rounds: persistents in registration
                // order, the `once` listener only in round 0, the removed
                // listener never.
                let mut expected: Vec<String> = Vec::new();
                for k in 0..listeners {
                    expected.push(format!("0:{k}"));
                }
                expected.push("0:once".to_string());
                for k in 0..listeners {
                    expected.push(format!("1:{k}"));
                }
                if obs.iter().any(|s| s.ends_with(":removed")) {
                    fail(
                        "emit-order",
                        format!("emitter node {id} dispatched a removed listener"),
                    );
                } else if !obs.is_empty() && obs != expected {
                    fail(
                        "emit-order",
                        format!("emitter node {id} dispatch order {obs:?}, expected {expected:?}"),
                    );
                }
            }
            Op::Kv => {
                for v in check_client(log, "kv", id, &["set", "get", "del"], ctx) {
                    fail(v.rule, v.message);
                }
            }
            Op::Fs => {
                for v in check_client(log, "fs", id, &["write", "read"], ctx) {
                    fail(v.rule, v.message);
                }
            }
            _ => {}
        }
    }

    out
}

/// Marker suffixes under `prefix`, in dispatch (access) order.
fn ordered_suffixes(log: &EventLog, prefix: &str) -> Vec<String> {
    let mut v = Vec::new();
    for acc in &log.accesses {
        if let Some(name) = log.sites.get(acc.site as usize) {
            if let Some(rest) = name.strip_prefix(prefix) {
                v.push(rest.to_string());
            }
        }
    }
    v
}

/// Shared `client-order` check: a client node's callbacks must complete
/// as a prefix of `ops` in issue order, and all of them on a quiescent
/// run.
fn check_client(
    log: &EventLog,
    kind: &str,
    id: u32,
    ops: &[&str],
    ctx: &OracleCtx,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let obs = ordered_suffixes(log, &format!("{kind}:{id}:"));
    if obs.len() > ops.len() || obs.iter().zip(ops).any(|(a, b)| a != b) {
        out.push(Violation {
            rule: "client-order",
            message: format!("{kind} node {id} replies {obs:?}, expected a prefix of {ops:?}"),
        });
    } else if ctx.completed && obs.len() != ops.len() {
        out.push(Violation {
            rule: "all-dispatched",
            message: format!(
                "quiescent run completed {}/{} {kind} ops of node {id}",
                obs.len(),
                ops.len()
            ),
        });
    }
    out
}

/// Every rule identifier the oracle can emit, in the module-table order.
pub const RULES: &[&str] = &[
    "event-ids",
    "access-range",
    "cause-backward",
    "phase-order",
    "close-last",
    "micro-before-macro",
    "timer-monotone",
    "fd-fifo",
    "done-after-task",
    "mux-done-legal",
    "spawn-kind",
    "immediate-phase",
    "run-once",
    "all-dispatched",
    "interval-ticks",
    "barrier-gate",
    "series-order",
    "emit-order",
    "client-order",
];

/// The subset of [`RULES`] that checking `prog` against `log` actually
/// put under test — structural rules always, completeness rules when the
/// run quiesced, per-op rules when the program contains the guarded
/// construct. Coverage accounting counts a rule exercised even when no
/// violation fired: the invariant was checkable, and held.
pub fn rules_exercised(prog: &Prog, log: &EventLog, ctx: &OracleCtx) -> Vec<&'static str> {
    let mut out = vec![
        "event-ids",
        "access-range",
        "cause-backward",
        "phase-order",
        "spawn-kind",
        "run-once",
    ];
    if ctx.completed {
        out.push("all-dispatched");
    }
    let timers = log
        .events
        .iter()
        .filter(|e| matches!(e.detail, EvDetail::Timer { .. }))
        .count();
    if timers >= 2 {
        out.push("timer-monotone");
    }
    if log
        .events
        .iter()
        .any(|e| e.kind == EvKind::Cb(CbKind::PoolDone))
    {
        out.push("done-after-task");
        if !ctx.demux {
            out.push("mux-done-legal");
        }
    }
    for node in &prog.nodes {
        let rule = match node.op {
            Op::Close => Some("close-last"),
            Op::NextTick => Some("micro-before-macro"),
            Op::Immediate => Some("immediate-phase"),
            Op::FdChain { .. } => Some("fd-fifo"),
            Op::Interval { .. } => Some("interval-ticks"),
            Op::Barrier { .. } => Some("barrier-gate"),
            Op::Series { .. } => Some("series-order"),
            Op::Emitter { .. } => Some("emit-order"),
            Op::Kv | Op::Fs => Some("client-order"),
            _ => None,
        };
        if let Some(rule) = rule {
            if !out.contains(&rule) {
                out.push(rule);
            }
        }
    }
    out
}

/// Loop-phase label of an event kind, for coverage accounting.
pub fn phase_label(kind: EvKind) -> &'static str {
    match rank(kind) {
        0 => "setup",
        1 => "timers",
        2 => "pending",
        3 => "idle",
        4 => "prepare",
        5 => "poll",
        6 => "check",
        _ => "close",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    use nodefz::Mode;
    use nodefz_rt::EventLogHandle;

    use crate::generate;
    use crate::prog::install;

    fn vanilla_log(seed: u64) -> (Prog, EventLog, bool) {
        let prog = Rc::new(generate(seed));
        let events = EventLogHandle::fresh();
        let cfg = nodefz_apps::common::RunCfg::new(Mode::Vanilla, seed).events(&events);
        let mut el = cfg.build_loop();
        install(&prog, &mut el);
        let report = el.run();
        let completed = matches!(report.termination, nodefz_rt::Termination::Quiescent);
        ((*prog).clone(), events.snapshot(), completed)
    }

    #[test]
    fn vanilla_runs_satisfy_the_oracle() {
        for seed in 0..40 {
            let (prog, log, completed) = vanilla_log(seed);
            assert!(completed, "seed {seed} did not quiesce");
            let violations = check(
                &prog,
                &log,
                &OracleCtx {
                    demux: false,
                    completed,
                },
            );
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn incomplete_context_relaxes_only_completeness() {
        let (prog, log, _) = vanilla_log(7);
        // Claiming the run did not complete must never *add* violations.
        let v = check(
            &prog,
            &log,
            &OracleCtx {
                demux: false,
                completed: false,
            },
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
