//! Trace minimization by delta debugging.
//!
//! A recorded manifesting run carries hundreds of scheduling decisions, of
//! which only a handful actually order the racing callbacks. The shrinker
//! applies ddmin-style delta debugging to the [`DecisionTrace`]: it removes
//! chunks of decisions and re-runs the workload under the replayer, keeping
//! any candidate that still manifests the *same* bug signature. A second
//! pass rewrites each surviving decision to its inert form (run / identity
//! / no-defer / head) where the bug survives that too, so the persisted
//! repro shows exactly which perturbations matter.
//!
//! Removing decisions makes the replay diverge from its recording — the
//! replayer's documented fallback (inert choices past the end or on kind
//! mismatch) is what makes such candidates runnable at all. The oracle
//! judges only "does the same bug still manifest".

use nodefz::{ddmin, Decision, DecisionTrace};

/// Outcome of a shrink.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The minimized trace (never longer than the input).
    pub trace: DecisionTrace,
    /// Decisions in the original trace.
    pub original_len: usize,
    /// Oracle invocations spent.
    pub runs: u64,
}

/// Minimizes `trace` with respect to `manifests`: the oracle must return
/// `true` iff replaying the candidate still manifests the original bug
/// (same signature).
///
/// The input trace is assumed to manifest; the result is the shortest
/// manifesting candidate found, with each surviving decision additionally
/// simplified to its inert form where possible.
pub fn shrink<F>(trace: &DecisionTrace, mut manifests: F) -> ShrinkResult
where
    F: FnMut(&DecisionTrace) -> bool,
{
    let original_len = trace.decisions.len();

    // Phase 1: ddmin — remove ever-smaller chunks while the bug survives.
    // One reused trace carries each candidate decision list to the oracle.
    let mut candidate = DecisionTrace {
        decisions: Vec::new(),
        ..*trace
    };
    let phase1 = ddmin(&trace.decisions, |decisions| {
        candidate.decisions.clear();
        candidate.decisions.extend_from_slice(decisions);
        manifests(&candidate)
    });
    let mut runs = phase1.runs;
    let mut current = DecisionTrace {
        decisions: phase1.items,
        ..*trace
    };

    // Phase 2: simplify surviving decisions to their inert forms.
    for i in 0..current.decisions.len() {
        let inert = match &current.decisions[i] {
            Decision::Timer(Some(_)) => Some(Decision::Timer(None)),
            Decision::Shuffle(perm) if !is_identity(perm) => {
                Some(Decision::Shuffle((0..perm.len() as u32).collect()))
            }
            Decision::DeferReady(true) => Some(Decision::DeferReady(false)),
            Decision::DeferClose(true) => Some(Decision::DeferClose(false)),
            Decision::PickTask(p) if *p != 0 => Some(Decision::PickTask(0)),
            _ => None,
        };
        if let Some(inert) = inert {
            let mut candidate = current.clone();
            candidate.decisions[i] = inert;
            runs += 1;
            if manifests(&candidate) {
                current = candidate;
            }
        }
    }

    ShrinkResult {
        trace: current,
        original_len,
        runs,
    }
}

fn is_identity(perm: &[u32]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| i as u32 == p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_rt::PoolMode;

    fn trace(decisions: Vec<Decision>) -> DecisionTrace {
        DecisionTrace {
            pool_mode: PoolMode::Concurrent { workers: 4 },
            demux_done: false,
            decisions,
        }
    }

    /// Oracle: manifests iff the trace still defers at least one timer and
    /// still defers a close — two "load-bearing" decisions buried in noise.
    fn needs_defers(t: &DecisionTrace) -> bool {
        t.decisions
            .iter()
            .any(|d| matches!(d, Decision::Timer(Some(_))))
            && t.decisions
                .iter()
                .any(|d| matches!(d, Decision::DeferClose(true)))
    }

    #[test]
    fn noise_is_removed_and_essentials_survive() {
        let mut decisions = vec![Decision::Timer(None); 40];
        decisions.insert(13, Decision::Timer(Some(5_000_000)));
        decisions.insert(29, Decision::DeferClose(true));
        for i in (0..40).step_by(7) {
            decisions.insert(i, Decision::PickTask(2));
        }
        let original = trace(decisions);
        assert!(needs_defers(&original));
        let result = shrink(&original, needs_defers);
        assert!(needs_defers(&result.trace), "shrunk trace still manifests");
        assert_eq!(
            result.trace.decisions.len(),
            2,
            "{:?}",
            result.trace.decisions
        );
        assert_eq!(result.original_len, original.decisions.len());
        assert!(result.runs > 0);
    }

    #[test]
    fn output_is_never_longer_than_input() {
        let original = trace(vec![Decision::DeferClose(true), Decision::Timer(Some(1))]);
        let result = shrink(&original, needs_defers);
        assert!(result.trace.decisions.len() <= original.decisions.len());
    }

    #[test]
    fn simplification_rewrites_irrelevant_decisions_inert() {
        // Oracle only needs the trace non-empty: every decision should be
        // rewritten to (or already be) its inert form, and ddmin will first
        // cut it down to a single decision.
        let original = trace(vec![
            Decision::Shuffle(vec![2, 0, 1].into()),
            Decision::PickTask(3),
            Decision::Timer(Some(9)),
        ]);
        let result = shrink(&original, |t| !t.decisions.is_empty());
        assert_eq!(result.trace.decisions.len(), 1);
        let only = &result.trace.decisions[0];
        let inert = match only {
            Decision::Timer(v) => v.is_none(),
            Decision::Shuffle(p) => is_identity(p),
            Decision::DeferReady(b) | Decision::DeferClose(b) => !b,
            Decision::PickTask(p) => *p == 0,
        };
        assert!(inert, "surviving decision should be inert: {only:?}");
    }

    #[test]
    fn unshrinkable_trace_comes_back_unchanged() {
        let original = trace(vec![Decision::Timer(Some(1)), Decision::DeferClose(true)]);
        let result = shrink(&original, needs_defers);
        assert_eq!(result.trace, original);
    }
}
