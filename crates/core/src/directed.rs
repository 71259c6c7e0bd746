//! Race-directed scheduling: replay a recorded prefix, then force the flip.
//!
//! The happens-before analyzer (`nodefz-hb`) predicts a racing callback
//! pair from one recorded run and reports the *cut*: the decision-trace
//! prefix length that reproduces everything up to (but not including) the
//! dispatch of the earlier racing event. A [`DirectedScheduler`] replays
//! exactly that prefix by the replayer's rule ([`replay_choice`]), then
//! spends a short *flip window* making the most order-inverting legal
//! choice at every consultation — defer the timer, reverse the ready list,
//! defer the close, pick the youngest task — so the predicted later event
//! overtakes the earlier one. After the window it degenerates to an
//! ordinary seeded [`FuzzScheduler`] so the run still terminates under a
//! legal schedule.
//!
//! Directed runs are deterministic for a fixed ([`DirectedSpec`],
//! `sched_seed`): retrying a prediction means bumping
//! [`DirectedSpec::attempt`], which reseeds only the suffix fuzzer.

use std::sync::Arc;

use nodefz_rt::{PoolMode, ReadyEntry, Scheduler, TimerVerdict, VDur, GOLDEN_GAMMA};

use crate::params::FuzzParams;
use crate::replay::{permute, replay_choice, Consultation, DecisionTrace, Taken};
use crate::scheduler::FuzzScheduler;

/// The delay injected when the flip window defers a timer (the standard
/// parameterization's `timer_defer_delay`).
const FLIP_TIMER_DELAY: VDur = VDur::millis(5);

/// One race-directed scheduling attempt.
///
/// Cloning a spec shares its prefix: a confirmer's retries, every flip
/// cut of one analysis and the scheduler each attempt builds all read one
/// copy of the recorded decisions.
#[derive(Clone, Debug, PartialEq)]
pub struct DirectedSpec {
    /// The recorded decision trace of the run the prediction came from.
    pub prefix: Arc<DecisionTrace>,
    /// Consultations to replay verbatim before flipping (the earlier
    /// racing event's [`decisions`](nodefz_rt::EventRecord::decisions)
    /// stamp).
    pub cut: u64,
    /// Consultations spent forcing order-inverting choices after the cut.
    pub window: u32,
    /// Retry counter; reseeds the suffix fuzzer without touching the
    /// prefix or the flip window.
    pub attempt: u64,
}

impl DirectedSpec {
    /// A spec targeting `cut` within `prefix`, with the default flip
    /// window and first attempt.
    pub fn new(prefix: DecisionTrace, cut: u64) -> DirectedSpec {
        DirectedSpec {
            prefix: Arc::new(prefix),
            cut,
            window: 8,
            attempt: 0,
        }
    }

    /// Returns a copy for the given retry attempt.
    #[must_use]
    pub fn with_attempt(mut self, attempt: u64) -> DirectedSpec {
        self.attempt = attempt;
        self
    }
}

/// Which regime a consultation falls in.
enum Phase {
    Replay(usize),
    Flip,
    Suffix,
}

/// Replays a prefix, flips a window, then fuzzes (see module docs).
pub struct DirectedScheduler {
    spec: DirectedSpec,
    /// Consultations made so far.
    cursor: u64,
    suffix: FuzzScheduler,
    /// Scratch for applying recorded permutations.
    scratch: Vec<ReadyEntry>,
}

impl DirectedScheduler {
    /// Builds the scheduler for one attempt; `sched_seed` matches the
    /// recorded run's seed so prefix divergences stay rare.
    pub fn new(spec: DirectedSpec, sched_seed: u64) -> DirectedScheduler {
        let suffix_seed = sched_seed ^ spec.attempt.wrapping_mul(GOLDEN_GAMMA);
        DirectedScheduler {
            spec,
            cursor: 0,
            suffix: FuzzScheduler::new(FuzzParams::standard(), suffix_seed),
            scratch: Vec::new(),
        }
    }

    /// Advances the consultation counter and classifies the consultation.
    fn phase(&mut self) -> Phase {
        let n = self.cursor;
        self.cursor += 1;
        if n < self.spec.cut {
            Phase::Replay(n as usize)
        } else if n < self.spec.cut + u64::from(self.spec.window) {
            Phase::Flip
        } else {
            Phase::Suffix
        }
    }

    /// The decision the prefix takes at its `i`-th consultation, `at`.
    fn replayed(&self, i: usize, at: Consultation) -> Taken<'_> {
        replay_choice(self.spec.prefix.decisions.get(i), at).0
    }
}

impl Scheduler for DirectedScheduler {
    fn name(&self) -> &'static str {
        "directed"
    }

    fn pool_mode(&self) -> PoolMode {
        self.spec.prefix.pool_mode
    }

    fn demux_done(&self) -> bool {
        self.spec.prefix.demux_done
    }

    fn on_timer(&mut self) -> TimerVerdict {
        match self.phase() {
            Phase::Replay(i) => match self.replayed(i, Consultation::Timer) {
                Taken::Timer(Some(ns)) => TimerVerdict::Defer {
                    delay: VDur::nanos(ns),
                },
                _ => TimerVerdict::Run,
            },
            Phase::Flip => TimerVerdict::Defer {
                delay: FLIP_TIMER_DELAY,
            },
            Phase::Suffix => self.suffix.on_timer(),
        }
    }

    fn shuffle_ready(&mut self, ready: &mut Vec<ReadyEntry>) {
        match self.phase() {
            Phase::Replay(i) => {
                let at = Consultation::Shuffle {
                    len: ready.len() as u32,
                };
                let candidate = self.spec.prefix.decisions.get(i);
                if let Taken::Shuffle(Some(perm)) = replay_choice(candidate, at).0 {
                    permute(ready, perm, &mut self.scratch);
                }
            }
            Phase::Flip => ready.reverse(),
            Phase::Suffix => self.suffix.shuffle_ready(ready),
        }
    }

    fn defer_ready(&mut self, entry: &ReadyEntry) -> bool {
        match self.phase() {
            Phase::Replay(i) => {
                self.replayed(i, Consultation::DeferReady) == Taken::DeferReady(true)
            }
            Phase::Flip => true,
            Phase::Suffix => self.suffix.defer_ready(entry),
        }
    }

    fn defer_close(&mut self) -> bool {
        match self.phase() {
            Phase::Replay(i) => {
                self.replayed(i, Consultation::DeferClose) == Taken::DeferClose(true)
            }
            Phase::Flip => true,
            Phase::Suffix => self.suffix.defer_close(),
        }
    }

    fn pick_task(&mut self, window: usize) -> usize {
        match self.phase() {
            Phase::Replay(i) => {
                let at = Consultation::PickTask {
                    window: window as u32,
                };
                match self.replayed(i, at) {
                    Taken::PickTask(pick) => pick as usize,
                    _ => 0,
                }
            }
            Phase::Flip => window.saturating_sub(1),
            Phase::Suffix => self.suffix.pick_task(window),
        }
    }

    fn decision_count(&self) -> u64 {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{Decision, Perm, RecordingScheduler, TraceHandle};
    use crate::Mode;
    use nodefz_rt::{EventLoop, LoopConfig};

    fn prefix(decisions: Vec<Decision>) -> DecisionTrace {
        DecisionTrace {
            pool_mode: PoolMode::Serialized {
                lookahead: 1,
                max_delay: VDur::ZERO,
            },
            demux_done: true,
            decisions,
        }
    }

    #[test]
    fn replays_prefix_then_flips_then_fuzzes() {
        let trace = prefix(vec![
            Decision::Timer(None),
            Decision::DeferClose(false),
            Decision::PickTask(0),
        ]);
        let spec = DirectedSpec {
            prefix: Arc::new(trace),
            cut: 3,
            window: 2,
            attempt: 0,
        };
        let mut s = DirectedScheduler::new(spec, 7);
        // Prefix: recorded choices.
        assert_eq!(s.on_timer(), TimerVerdict::Run);
        assert!(!s.defer_close());
        assert_eq!(s.pick_task(4), 0);
        // Flip window: everything inverts.
        assert_eq!(
            s.on_timer(),
            TimerVerdict::Defer {
                delay: FLIP_TIMER_DELAY
            }
        );
        assert!(s.defer_close());
        assert_eq!(s.decision_count(), 5);
        // Suffix: delegated to the fuzzer (any legal verdict; just make
        // sure the consultation is counted).
        let _ = s.on_timer();
        assert_eq!(s.decision_count(), 6);
    }

    #[test]
    fn flip_reverses_and_picks_last() {
        let spec = DirectedSpec::new(prefix(vec![]), 0);
        let mut s = DirectedScheduler::new(spec, 1);
        let mut ready: Vec<ReadyEntry> = (0..3)
            .map(|i| ReadyEntry {
                fd: nodefz_rt::Fd(i),
                at: nodefz_rt::VTime(i as u64),
                seq: i as u64,
            })
            .collect();
        s.shuffle_ready(&mut ready);
        assert_eq!(ready.iter().map(|e| e.seq).collect::<Vec<_>>(), [2, 1, 0]);
        assert!(s.defer_ready(&ready[0]));
        assert_eq!(s.pick_task(5), 4);
    }

    #[test]
    fn a_prefix_shuffle_that_is_no_permutation_leaves_the_list_alone() {
        // `[0, 0, 1]` would duplicate entry 0 and drop entry 2; the
        // replayer's rule falls back to the identity instead.
        let perm = Perm::from(vec![0, 0, 1]);
        let spec = DirectedSpec::new(prefix(vec![Decision::Shuffle(perm)]), 1);
        let mut s = DirectedScheduler::new(spec, 1);
        let mut ready: Vec<ReadyEntry> = (0..3)
            .map(|i| ReadyEntry {
                fd: nodefz_rt::Fd(i),
                at: nodefz_rt::VTime(i as u64),
                seq: i as u64,
            })
            .collect();
        s.shuffle_ready(&mut ready);
        assert_eq!(ready.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn kind_mismatch_in_prefix_is_inert() {
        let spec = DirectedSpec::new(prefix(vec![Decision::Shuffle(Perm::new())]), 1);
        let mut s = DirectedScheduler::new(spec, 1);
        assert_eq!(s.on_timer(), TimerVerdict::Run);
    }

    #[test]
    fn attempts_differ_only_in_the_suffix() {
        let spec = DirectedSpec::new(prefix(vec![Decision::Timer(None)]), 1);
        let mut a = DirectedScheduler::new(spec.clone().with_attempt(0), 9);
        let mut b = DirectedScheduler::new(spec.with_attempt(1), 9);
        assert_eq!(a.on_timer(), b.on_timer(), "prefix consultations agree");
        assert_eq!(
            a.on_timer(),
            b.on_timer(),
            "flip-window consultations agree"
        );
    }

    #[test]
    fn directed_mode_records_and_terminates() {
        // Record a no-fuzz run, then re-run it directed at a mid-trace cut;
        // the directed run must terminate and record a fresh trace.
        fn program(el: &mut EventLoop) {
            el.enter(|cx| {
                for i in 1..5u64 {
                    cx.set_timeout(VDur::micros(i * 300), move |cx| {
                        cx.submit_work(VDur::micros(80), |_| (), |_, ()| {})
                            .unwrap();
                    });
                }
            });
        }
        let handle = TraceHandle::fresh();
        let mode = Mode::Record(FuzzParams::none(), handle.clone());
        let mut el = mode.build_loop(LoopConfig::seeded(3), 5);
        program(&mut el);
        el.run();
        let recorded = handle.snapshot();
        assert!(!recorded.is_empty());

        let cut = (recorded.len() / 2) as u64;
        let confirm = TraceHandle::fresh();
        let mode = Mode::Directed(DirectedSpec::new(recorded, cut), confirm.clone());
        assert_eq!(mode.label(), "nodeFZ(directed)");
        let mut el = mode.build_loop(LoopConfig::seeded(3), 5);
        program(&mut el);
        let report = el.run();
        assert!(report.dispatched > 0);
        assert!(!confirm.snapshot().is_empty(), "directed run was recorded");
    }

    #[test]
    fn directed_scheduler_name_via_recording_wrapper() {
        let spec = DirectedSpec::new(prefix(vec![]), 0);
        let s = DirectedScheduler::new(spec.clone(), 0);
        assert_eq!(s.name(), "directed");
        let handle = TraceHandle::fresh();
        let wrapped = RecordingScheduler::with_handle(DirectedScheduler::new(spec, 0), &handle);
        assert_eq!(wrapped.name(), "recording");
        assert_eq!(wrapped.pool_mode(), s.pool_mode());
    }
}
