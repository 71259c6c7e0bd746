//! Property tests for the campaign pipeline: whatever manifesting run the
//! fuzzer stumbles on, the shrinker's output must replay to the *same* bug
//! signature — and never grow the trace. The campaign shrinks on a
//! worker's pooled loop through a memo of the runs it already replayed
//! ([`RunContext::shrink`]); the fresh-loop replay below is the reference
//! both the pooled and the memoized paths must agree with.

use nodefz_check::forall;

use nodefz::{Mode, ReplayStatusHandle, TraceHandle};
use nodefz_apps::common::{RunCfg, Variant};
use nodefz_campaign::{shrink, RunContext};
use nodefz_trace::BugSignature;

/// Apps with a healthy manifestation rate, so random seeds find bugs fast.
const APPS: [&str; 3] = ["GHO", "MKD", "KUE"];

fn record_manifesting_run(
    app: &str,
    env_seed: u64,
) -> Option<(BugSignature, nodefz::DecisionTrace)> {
    let case = nodefz_apps::by_abbr(app).expect("known app");
    let handle = TraceHandle::fresh();
    let mode = Mode::Record(nodefz::FuzzParams::standard(), handle.clone());
    let out = case.run(&RunCfg::new(mode, env_seed), Variant::Buggy);
    if !out.manifested {
        return None;
    }
    Some((
        BugSignature::new(app, &out.detail, &out.report.schedule),
        handle.snapshot(),
    ))
}

fn replays_to(
    app: &str,
    env_seed: u64,
    trace: &nodefz::DecisionTrace,
    expected: &BugSignature,
) -> bool {
    let case = nodefz_apps::by_abbr(app).expect("known app");
    let mode = Mode::Replay(trace.clone(), ReplayStatusHandle::fresh());
    let out = case.run(&RunCfg::new(mode, env_seed), Variant::Buggy);
    out.manifested && &BugSignature::new(app, &out.detail, &out.report.schedule) == expected
}

#[test]
fn shrunk_traces_replay_to_the_same_signature() {
    forall("shrunk_traces_replay_to_the_same_signature", 24, |g| {
        let app = *g.pick(&APPS);
        let env_seed = g.below(1 << 20);
        let Some((signature, trace)) = record_manifesting_run(app, env_seed) else {
            // This seed didn't manifest; the property is about those that do.
            return;
        };
        // The recorded trace replays to its own signature (baseline).
        assert!(
            replays_to(app, env_seed, &trace, &signature),
            "{app} seed {env_seed}: recorded trace must replay to its signature"
        );
        let mut ctx = RunContext::new();
        let result = shrink(&trace, |t| ctx.replays_to(app, env_seed, t, &signature));
        let fresh = shrink(&trace, |t| replays_to(app, env_seed, t, &signature));
        assert_eq!(
            (&result.trace, result.runs),
            (&fresh.trace, fresh.runs),
            "{app} seed {env_seed}: pooled and fresh replays shrank differently"
        );
        let (memoized, memo_replays) = ctx.shrink(app, env_seed, &trace, &signature);
        assert_eq!(
            (&memoized.trace, memoized.runs),
            (&fresh.trace, fresh.runs),
            "{app} seed {env_seed}: memoized and fresh replays shrank differently"
        );
        assert!(
            memo_replays <= memoized.runs,
            "{app} seed {env_seed}: more replays than oracle calls"
        );
        assert!(
            result.trace.decisions.len() <= trace.decisions.len(),
            "{app} seed {env_seed}: shrink grew the trace"
        );
        assert!(
            replays_to(app, env_seed, &result.trace, &signature),
            "{app} seed {env_seed}: shrunk trace lost the bug ({} -> {} decisions)",
            trace.decisions.len(),
            result.trace.decisions.len()
        );
    });
}

#[test]
fn shrinking_is_idempotent() {
    forall("shrinking_is_idempotent", 8, |g| {
        let app = *g.pick(&APPS);
        let env_seed = g.below(1 << 20);
        let Some((signature, trace)) = record_manifesting_run(app, env_seed) else {
            return;
        };
        let oracle = |t: &nodefz::DecisionTrace| replays_to(app, env_seed, t, &signature);
        let once = shrink(&trace, oracle);
        let twice = shrink(&once.trace, oracle);
        assert!(
            twice.trace.decisions.len() <= once.trace.decisions.len(),
            "{app} seed {env_seed}: re-shrinking grew the trace"
        );
    });
}
