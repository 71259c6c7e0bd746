//! Property suite for the ordering oracle.
//!
//! Positive direction: the oracle accepts the vanilla log of the
//! conformance stream's first 1500 programs. Negative direction:
//! hand-mutated logs — a microtask torn out of its parent event, a
//! reordered per-fd FIFO, a close dispatched before poll work, a
//! non-monotone timer pair — are rejected with the *expected* rule id.

use std::rc::Rc;

use nodefz::Mode;
use nodefz_apps::common::RunCfg;
use nodefz_rt::{CbId, CbKind, EvDetail, EvKind, EventLog, EventLogHandle, LoopPool, Termination};

use nodefz_conform::{check, generate, install, stream_seed, Op, OracleCtx, Prog};

fn vanilla_log(pool: &LoopPool, seed: u64) -> (Prog, EventLog) {
    let prog = Rc::new(generate(seed));
    let events = EventLogHandle::fresh();
    let cfg = RunCfg::new(Mode::Vanilla, seed)
        .events(&events)
        .pooled(pool);
    let mut el = cfg.build_loop();
    install(&prog, &mut el);
    let report = el.run();
    assert!(
        matches!(report.termination, Termination::Quiescent),
        "seed {seed} did not quiesce: {:?}",
        report.termination
    );
    ((*prog).clone(), events.snapshot())
}

fn assert_clean(prog: &Prog, log: &EventLog, seed: u64) {
    let violations = check(
        prog,
        log,
        &OracleCtx {
            demux: false,
            completed: true,
        },
    );
    assert!(
        violations.is_empty(),
        "seed {seed} vanilla log rejected:\n{}\nprogram:\n{prog}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn oracle_accepts_vanilla_logs_for_500_programs_across_3_seed_families() {
    let pool = LoopPool::new();
    for i in 0..1500u64 {
        let seed = stream_seed(i);
        let (prog, log) = vanilla_log(&pool, seed);
        assert_clean(&prog, &log, seed);
    }
}

/// Finds the first seed whose vanilla log satisfies `wanted`, mutates
/// the log with `mutate`, and asserts the oracle rejects it citing
/// `rule`. Returns the full violation list for extra assertions.
fn mutation_canary(
    wanted: impl Fn(&Prog, &EventLog) -> bool,
    mutate: impl Fn(&Prog, &mut EventLog),
    rule: &str,
) -> Vec<nodefz_conform::Violation> {
    let pool = LoopPool::new();
    let (prog, mut log) = (0..2_000u64)
        .map(|seed| vanilla_log(&pool, seed))
        .find(|(p, l)| wanted(p, l))
        .unwrap_or_else(|| panic!("no seed in 0..2000 suits the {rule} canary"));
    assert_clean(&prog, &log, u64::MAX); // sanity: legal before mutation
    mutate(&prog, &mut log);
    let violations = check(
        &prog,
        &log,
        &OracleCtx {
            demux: false,
            completed: true,
        },
    );
    assert!(
        violations.iter().any(|v| v.rule == rule),
        "mutated log not rejected under [{rule}]; got: {violations:?}"
    );
    violations
}

/// The event that first accessed `marker`, if any.
fn marker_event(log: &EventLog, marker: &str) -> Option<CbId> {
    let site = log.sites.iter().position(|s| s == marker)? as u32;
    log.accesses
        .iter()
        .find(|a| a.site == site)
        .map(|a| a.event)
}

#[test]
fn swapped_microtask_is_rejected_as_micro_before_macro() {
    // Tear a nextTick body out of its parent's event: reattach its run
    // marker to a different event record.
    let has_ticked_child = |p: &Prog, l: &EventLog| {
        l.events.len() > 2
            && p.nodes.iter().enumerate().any(|(i, n)| {
                matches!(n.op, Op::NextTick)
                    && marker_event(l, &Prog::run_marker(i as u32)).is_some()
            })
    };
    mutation_canary(
        has_ticked_child,
        |p, l| {
            let (id, _) = p
                .nodes
                .iter()
                .enumerate()
                .find(|(_, n)| matches!(n.op, Op::NextTick))
                .unwrap();
            let marker = Prog::run_marker(id as u32);
            let site = l.sites.iter().position(|s| *s == marker).unwrap() as u32;
            let current = marker_event(l, &marker).unwrap();
            // Any *other* event will do: the rule demands equality with
            // the parent's event.
            let other = CbId(if current.0 + 1 < l.events.len() as u32 {
                current.0 + 1
            } else {
                current.0 - 1
            });
            for acc in &mut l.accesses {
                if acc.site == site {
                    acc.event = other;
                }
            }
        },
        "micro-before-macro",
    );
}

#[test]
fn reordered_fd_fifo_is_rejected_as_fd_fifo() {
    // Swap the first two payload observations of a multi-message chain.
    let has_long_chain = |p: &Prog, l: &EventLog| {
        p.nodes.iter().enumerate().any(|(i, n)| {
            matches!(n.op, Op::FdChain { msgs, .. } if msgs >= 2)
                && marker_event(l, &format!("msg:{i}:1")).is_some()
        })
    };
    mutation_canary(
        has_long_chain,
        |p, l| {
            let (id, _) = p
                .nodes
                .iter()
                .enumerate()
                .find(|(i, n)| {
                    matches!(n.op, Op::FdChain { msgs, .. } if msgs >= 2)
                        && marker_event(l, &format!("msg:{i}:1")).is_some()
                })
                .unwrap();
            let site_of =
                |l: &EventLog, name: &str| l.sites.iter().position(|s| s == name).unwrap() as u32;
            let s0 = site_of(l, &format!("msg:{id}:0"));
            let s1 = site_of(l, &format!("msg:{id}:1"));
            let i0 = l.accesses.iter().position(|a| a.site == s0).unwrap();
            let i1 = l.accesses.iter().position(|a| a.site == s1).unwrap();
            // Delivery order becomes 1 then 0.
            l.accesses[i0].site = s1;
            l.accesses[i1].site = s0;
        },
        "fd-fifo",
    );
}

#[test]
fn close_before_poll_is_rejected_as_close_last() {
    // Swap the kinds of a poll-phase event and a later close event in
    // the same iteration: the close now precedes poll work.
    fn close_after_poll(l: &EventLog) -> Option<(usize, usize)> {
        for (j, b) in l.events.iter().enumerate() {
            if b.kind != EvKind::Cb(CbKind::Close) {
                continue;
            }
            for (i, a) in l.events[..j].iter().enumerate() {
                let pollish = matches!(a.kind, EvKind::Env | EvKind::Cb(CbKind::NetRead));
                if a.iter == b.iter && pollish {
                    return Some((i, j));
                }
            }
        }
        None
    }
    mutation_canary(
        |_, l| close_after_poll(l).is_some(),
        |_, l| {
            let (i, j) = close_after_poll(l).unwrap();
            let (ka, kb) = (l.events[i].kind, l.events[j].kind);
            l.events[i].kind = kb;
            l.events[j].kind = ka;
        },
        "close-last",
    );
}

#[test]
fn non_monotone_timers_are_rejected_as_timer_monotone() {
    // Swap the (deadline, seq) payloads of two distinct timer dispatches.
    fn timer_pair(l: &EventLog) -> Option<(usize, usize)> {
        let timers: Vec<usize> = l
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.detail, EvDetail::Timer { .. }))
            .map(|(i, _)| i)
            .collect();
        timers
            .windows(2)
            .find(|w| l.events[w[0]].detail != l.events[w[1]].detail)
            .map(|w| (w[0], w[1]))
    }
    mutation_canary(
        |_, l| timer_pair(l).is_some(),
        |_, l| {
            let (i, j) = timer_pair(l).unwrap();
            let (da, db) = (l.events[i].detail, l.events[j].detail);
            l.events[i].detail = db;
            l.events[j].detail = da;
        },
        "timer-monotone",
    );
}
