//! The conformance arm as a campaign-compatible [`BugCase`].
//!
//! Campaigns fuzz *applications*; the conform arm fuzzes the *runtime
//! itself*. [`ApiConformCase`] regenerates a program from the run's
//! environment seed ([`crate::generate`] is pure, so a finding's
//! `env_seed` is a complete repro key), executes it under whatever mode
//! the campaign drives, and applies the ordering oracle to the dispatch
//! log. A "manifestation" is therefore a **runtime** bug — an illegal
//! schedule, a crash, or a hang — never an application bug, which is why
//! the case ignores the buggy/fixed [`Variant`] distinction.

use std::rc::Rc;

use nodefz::Mode;
use nodefz_apps::common::{BugCase, BugInfo, Outcome, RaceType, RunCfg, Variant};
use nodefz_rt::{EventLogHandle, Termination};

use crate::oracle::{check, OracleCtx};
use crate::prog::install;

/// The campaign abbreviation for the conformance arm.
pub const API_ABBR: &str = "CONFORM-API";

/// The conformance arm: programs come from the API-graph generator
/// ([`crate::generate`]), so the whole enumerated runtime surface —
/// combinators and clients included — goes under the oracle.
pub struct ApiConformCase;

/// Returns the conformance arm as a boxed [`BugCase`].
pub fn api_bug_case() -> Box<dyn BugCase> {
    Box::new(ApiConformCase)
}

impl BugCase for ApiConformCase {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: API_ABBR,
            name: "nodefz runtime (API-graph conformance)",
            bug_ref: "API-graph programs vs the libuv ordering rules",
            race: RaceType::Ov,
            racing_events: "any",
            race_on: "the event loop itself",
            impact: "illegal dispatch order / lost event / hang",
            fix: "n/a (oracle over the runtime, not an app)",
            in_fig6: false,
            novel: false,
        }
    }

    /// Regenerates the program for the run's environment seed, drives
    /// it under the campaign's mode, and judges the dispatch log with the
    /// ordering oracle.
    fn run(&self, cfg: &RunCfg, _variant: Variant) -> Outcome {
        let prog = Rc::new(crate::generate(cfg.env_seed));
        let events = cfg.events.clone().unwrap_or_else(EventLogHandle::fresh);
        let cfg = RunCfg {
            events: Some(events.clone()),
            ..cfg.clone()
        };
        let mut el = cfg.build_loop();
        install(&prog, &mut el);
        let report = el.run();
        let log = events.snapshot();
        let demux = match &cfg.mode {
            Mode::Replay(trace, _) => trace.demux_done,
            Mode::ReplayShared(trace, _) => trace.demux_done,
            mode => mode.params().is_some_and(|p| p.demux_done),
        };
        let completed = matches!(report.termination, Termination::Quiescent);
        let violations = check(&prog, &log, &OracleCtx { demux, completed });
        let manifested =
            !violations.is_empty() || report.crashed() || !report.errors.is_empty() || !completed;
        let detail = if let Some(v) = violations.first() {
            format!("oracle: {v} (program seed {})", cfg.env_seed)
        } else if manifested {
            format!(
                "run failed without an oracle violation: termination {:?}, errors {:?}",
                report.termination, report.errors
            )
        } else {
            format!(
                "{} events conform ({} program nodes)",
                log.events.len(),
                prog.nodes.len()
            )
        };
        Outcome {
            manifested,
            detail,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_conform_case_is_clean_under_every_stock_mode() {
        for seed in 0..20 {
            for mode in [Mode::Vanilla, Mode::NoFuzz, Mode::Fuzz, Mode::Guided] {
                let label = mode.label();
                let out = ApiConformCase.run(&RunCfg::new(mode, seed), Variant::Buggy);
                assert!(!out.manifested, "seed {seed} under {label}: {}", out.detail);
            }
        }
    }

    #[test]
    fn variant_is_ignored() {
        let out_a = ApiConformCase.run(&RunCfg::new(Mode::Fuzz, 7), Variant::Buggy);
        let out_b = ApiConformCase.run(&RunCfg::new(Mode::Fuzz, 7), Variant::Fixed);
        assert_eq!(out_a.manifested, out_b.manifested);
        assert_eq!(out_a.report.dispatched, out_b.report.dispatched);
    }
}
