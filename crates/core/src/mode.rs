//! Runtime versions under test (§5.1 of the paper).
//!
//! The paper compares three builds: `nodeV` (vanilla Node.js), `nodeNFZ`
//! (Node.fz compiled in but parameterized to make no fuzzing decisions — it
//! still serializes the pool and de-multiplexes the done queue, so its
//! schedule space differs slightly from vanilla), and `nodeFZ` (Node.fz with
//! the standard parameterization). [`Mode`] reifies that choice plus the
//! guided and custom parameterizations used in §5.2.3 and the ablations.

use std::rc::Rc;

use nodefz_rt::{EventLoop, LoopConfig, LoopPool, Scheduler, VanillaScheduler};

use crate::directed::{DirectedScheduler, DirectedSpec};
use crate::params::FuzzParams;
use crate::replay::{
    DecisionTrace, RecordingScheduler, ReplayScheduler, ReplayStatusHandle, TraceHandle,
};
use crate::scheduler::FuzzScheduler;

/// Which runtime build executes a program.
#[derive(Clone, Debug, PartialEq)]
pub enum Mode {
    /// Vanilla Node.js: libuv-faithful scheduler, concurrent pool,
    /// multiplexed done queue.
    Vanilla,
    /// Node.fz infrastructure with no fuzzing ([`FuzzParams::none`]).
    NoFuzz,
    /// Node.fz with the standard parameterization (§5.1.2).
    Fuzz,
    /// Node.fz with the guided accurate-timer parameterization (§5.2.3).
    Guided,
    /// Node.fz with explicit parameters (sweeps, ablations).
    Custom(FuzzParams),
    /// Node.fz with explicit parameters, recording every scheduling
    /// decision into the shared [`TraceHandle`] for later replay or
    /// shrinking (§6, systematic exploration).
    Record(FuzzParams, TraceHandle),
    /// Re-applies a recorded [`DecisionTrace`] decision-for-decision,
    /// reporting divergence through the shared [`ReplayStatusHandle`].
    Replay(DecisionTrace, ReplayStatusHandle),
    /// [`Mode::Replay`] of a shared trace: the replayer reads the caller's
    /// copy instead of cloning its own, so a caller that replays many
    /// traces through one buffer copies each of them once.
    ReplayShared(Rc<DecisionTrace>, ReplayStatusHandle),
    /// Race-directed scheduling: replays the spec's recorded prefix up to
    /// its cut, forces the flipped order for a window, then fuzzes. The
    /// run is recorded into the [`TraceHandle`] so a confirmed race
    /// becomes a replayable repro.
    Directed(DirectedSpec, TraceHandle),
}

impl Mode {
    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Vanilla => "nodeV",
            Mode::NoFuzz => "nodeNFZ",
            Mode::Fuzz => "nodeFZ",
            Mode::Guided => "nodeFZ(guided)",
            Mode::Custom(_) => "nodeFZ(custom)",
            Mode::Record(..) => "nodeFZ(record)",
            Mode::Replay(..) | Mode::ReplayShared(..) => "replay",
            Mode::Directed(..) => "nodeFZ(directed)",
        }
    }

    /// The parameters this mode runs with (`None` for vanilla).
    pub fn params(&self) -> Option<FuzzParams> {
        match self {
            Mode::Vanilla => None,
            Mode::NoFuzz => Some(FuzzParams::none()),
            Mode::Fuzz => Some(FuzzParams::standard()),
            Mode::Guided => Some(FuzzParams::guided_accurate_timers()),
            Mode::Custom(p) => Some(p.clone()),
            Mode::Record(p, _) => Some(p.clone()),
            Mode::Replay(..) | Mode::ReplayShared(..) => None,
            // The directed suffix runs the standard parameterization.
            Mode::Directed(..) => Some(FuzzParams::standard()),
        }
    }

    /// Builds the scheduler for this mode.
    pub fn scheduler(&self, sched_seed: u64) -> Box<dyn Scheduler> {
        match self {
            Mode::Record(p, handle) => Box::new(RecordingScheduler::with_handle(
                FuzzScheduler::new(p.clone(), sched_seed),
                handle,
            )),
            Mode::Replay(trace, status) => {
                Box::new(ReplayScheduler::attached(trace.clone(), status.clone()))
            }
            Mode::ReplayShared(trace, status) => {
                Box::new(ReplayScheduler::attached(Rc::clone(trace), status.clone()))
            }
            Mode::Directed(spec, handle) => Box::new(RecordingScheduler::with_handle(
                DirectedScheduler::new(spec.clone(), sched_seed),
                handle,
            )),
            _ => match self.params() {
                None => Box::new(VanillaScheduler::new()),
                Some(p) => Box::new(FuzzScheduler::new(p, sched_seed)),
            },
        }
    }

    /// Builds an event loop for this mode.
    ///
    /// `cfg.env_seed` controls the modelled environment; `sched_seed`
    /// controls the fuzzer's decisions (ignored by [`Mode::Vanilla`]).
    pub fn build_loop(&self, cfg: LoopConfig, sched_seed: u64) -> EventLoop {
        EventLoop::with_scheduler(cfg, self.scheduler(sched_seed))
    }

    /// [`build_loop`], recycling loop state through `pool`.
    ///
    /// Behaves identically to [`build_loop`] — a pooled loop is reset to
    /// exactly the state a fresh one would have — but reuses the pool's
    /// heap buffers, which matters when a campaign worker executes
    /// thousands of sub-millisecond runs. The loop returns its state to
    /// the pool on drop.
    ///
    /// [`build_loop`]: Mode::build_loop
    pub fn build_loop_pooled(
        &self,
        cfg: LoopConfig,
        sched_seed: u64,
        pool: &LoopPool,
    ) -> EventLoop {
        EventLoop::with_scheduler_pooled(cfg, self.scheduler(sched_seed), pool)
    }

    /// The three headline modes of Figure 6, in presentation order.
    pub fn headline() -> [Mode; 3] {
        [Mode::Vanilla, Mode::NoFuzz, Mode::Fuzz]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_rt::VDur;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Mode::Vanilla.label(), "nodeV");
        assert_eq!(Mode::NoFuzz.label(), "nodeNFZ");
        assert_eq!(Mode::Fuzz.label(), "nodeFZ");
        assert_eq!(Mode::Guided.label(), "nodeFZ(guided)");
    }

    #[test]
    fn params_mapping() {
        assert_eq!(Mode::Vanilla.params(), None);
        assert_eq!(Mode::NoFuzz.params(), Some(FuzzParams::none()));
        assert_eq!(Mode::Fuzz.params(), Some(FuzzParams::standard()));
        let custom = FuzzParams::standard().without_demux();
        assert_eq!(Mode::Custom(custom.clone()).params(), Some(custom));
    }

    #[test]
    fn build_loop_runs_a_program_in_every_mode() {
        for mode in [Mode::Vanilla, Mode::NoFuzz, Mode::Fuzz, Mode::Guided] {
            let mut el = mode.build_loop(LoopConfig::seeded(5), 9);
            el.enter(|cx| {
                cx.set_timeout(VDur::millis(1), |cx| {
                    cx.submit_work(
                        VDur::millis(1),
                        |_| 7u8,
                        |cx, v| {
                            assert_eq!(v, 7);
                            cx.report_error("ok", "");
                        },
                    )
                    .unwrap();
                });
            });
            let report = el.run();
            assert!(report.has_error("ok"), "mode {} failed", mode.label());
        }
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(Mode::Vanilla.scheduler(0).name(), "vanilla");
        assert_eq!(Mode::Fuzz.scheduler(0).name(), "nodefz");
        let handle = crate::TraceHandle::fresh();
        assert_eq!(
            Mode::Record(FuzzParams::standard(), handle)
                .scheduler(0)
                .name(),
            "recording"
        );
    }

    #[test]
    fn record_mode_then_replay_mode_reproduces_the_schedule() {
        fn program(el: &mut EventLoop) {
            el.enter(|cx| {
                for i in 1..6u64 {
                    cx.set_timeout(VDur::micros(i * 173), move |cx| {
                        cx.submit_work(VDur::micros(90), |_| (), |_, ()| {})
                            .unwrap();
                    });
                }
            });
        }
        let handle = crate::TraceHandle::fresh();
        let mode = Mode::Record(FuzzParams::standard(), handle.clone());
        let mut el = mode.build_loop(LoopConfig::seeded(7), 21);
        program(&mut el);
        let original = el.run();

        let status = crate::ReplayStatusHandle::fresh();
        let mode = Mode::Replay(handle.snapshot(), status.clone());
        assert_eq!(mode.label(), "replay");
        assert_eq!(mode.params(), None);
        let mut el = mode.build_loop(LoopConfig::seeded(7), 0);
        program(&mut el);
        let replayed = el.run();

        assert_eq!(original.schedule, replayed.schedule);
        assert_eq!(original.end_time, replayed.end_time);
        status.verdict().expect("faithful replay");
    }
}
