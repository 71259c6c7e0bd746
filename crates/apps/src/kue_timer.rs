//! KUE (2014) — commit 03736bd7: a "race against time" (§5.2.3).
//!
//! An old kue test assumed timers would *not* be executed with high
//! precision — it crashed if a timer went off too soon after its scheduled
//! deadline. On a busy loop, timers are usually noticed late; a schedule
//! that keeps the loop spinning notices them almost exactly on time.
//!
//! The paper uses this bug to demonstrate *guided* fuzzing: a
//! parameterization that defers worker-pool tasks and event-loop events
//! with high probability makes the loop spin, fires timers accurately, and
//! quadruples the manifestation rate (3/50 → 13/50).
//!
//! Fixed variant: the test tolerates precise timers.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_net::{LatencyModel, SimNet};
use nodefz_rt::VDur;

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The KUE timer-precision reproduction.
pub struct KueTimer;

impl BugCase for KueTimer {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "KUEt",
            name: "kue (2014 test suite)",
            bug_ref: "03736bd7",
            race: RaceType::TimeRace,
            racing_events: "Timer",
            race_on: "Time",
            impact: "Test crashes when a timer fires too precisely",
            fix: "Tolerate precise timers in the assertion",
            in_fig6: true,
            novel: true,
        }
    }

    fn run(&self, cfg: &RunCfg, variant: Variant) -> Outcome {
        let mut el = cfg.build_loop();
        let net = SimNet::with_latency(LatencyModel {
            base: VDur::millis(2),
            jitter: 0.05,
        });
        let delta_seen: Rc<RefCell<Option<VDur>>> = Rc::new(RefCell::new(None));
        let n = net.clone();
        let delta_out = delta_seen.clone();
        el.enter(move |cx| {
            // The suite's other activity keeps the loop busy, which is what
            // normally makes timers late.
            Chatter::spawn(cx, &n, 81, 4, 14, VDur::micros(500), VDur::micros(220));
            let deadline = cx.now() + VDur::millis(5);
            let tolerance = VDur::micros(300);
            cx.set_timeout(VDur::millis(5), move |cx| {
                let delta = cx.now() - deadline;
                *delta_out.borrow_mut() = Some(delta);
                match variant {
                    Variant::Buggy => {
                        // BUGGY assertion: "the timer cannot be this
                        // punctual on a busy system".
                        if delta < tolerance {
                            cx.crash(
                                "timer-too-precise",
                                format!("timer fired {delta} after its deadline"),
                            );
                        }
                    }
                    Variant::Fixed => {
                        // FIX: precision is legal; assert only that the
                        // timer is never early.
                        if cx.now() < deadline {
                            cx.crash("timer-early", "timer fired before its deadline");
                        }
                    }
                }
            });
        });
        el.enter(|cx| net.close_all_listeners_after(cx, VDur::millis(20)));
        let report = el.run();
        let manifested = report.has_error("timer-too-precise");
        Outcome {
            manifested,
            detail: format!("timer lateness: {:?}", *delta_seen.borrow()),
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_case;
    use nodefz::Mode;

    #[test]
    fn kue_timer_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&KueTimer, 20);
    }

    #[test]
    fn kue_timer_guided_fuzzing_raises_rate() {
        // §5.2.3: the guided parameterization should manifest this bug
        // more often than both vanilla and the standard parameterization.
        let runs = 50u64;
        let rate = |mode: Mode| {
            (0..runs)
                .filter(|&seed| {
                    KueTimer
                        .run(&RunCfg::new(mode.clone(), seed), Variant::Buggy)
                        .manifested
                })
                .count()
        };
        let guided = rate(Mode::Guided);
        let vanilla = rate(Mode::Vanilla);
        assert!(
            guided > vanilla,
            "guided ({guided}/{runs}) should beat vanilla ({vanilla}/{runs})"
        );
        assert!(
            guided >= 5,
            "guided should be substantial, got {guided}/{runs}"
        );
    }

    #[test]
    fn kue_timer_is_neither_av_nor_ov() {
        assert_eq!(KueTimer.info().race, RaceType::TimeRace);
    }
}
