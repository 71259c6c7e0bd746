//! Loop-phase observability.
//!
//! The event loop can carry an [`ObsHandle`]: per-phase virtual-time and
//! wall-time profiles, per-[`CbKind`] dispatch counts, and an optional
//! [`TraceEventSink`] that receives one event per completed phase span
//! and per dispatched callback (the campaign's `--trace-out` turns those
//! into chrome://tracing JSON). Whether a run is profiled is decided at
//! run time: a loop with no handle attached takes none of the timing
//! paths, it only tests the empty `Option` at each phase and dispatch.
//!
//! The handle is `Rc`-based, like the loop itself: observability is
//! attached per loop on its owning thread, and only aggregated numbers
//! (plain copies) leave it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::time::{VDur, VTime};
use crate::trace::CbKind;

/// A loop phase, in execution order.
///
/// [`Phase::Demux`] is the environment-event drain (done-queue delivery,
/// §4.3.1); structurally it runs *inside* the poll phase, so its time is
/// a subset of [`Phase::Poll`]'s, not a disjoint slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Expired-timer dispatch.
    Timers,
    /// Pending-callback dispatch.
    Pending,
    /// Idle-handle dispatch.
    Idle,
    /// Prepare-handle dispatch.
    Prepare,
    /// I/O readiness dispatch (including blocking in virtual time).
    Poll,
    /// Environment-event delivery nested inside the poll phase.
    Demux,
    /// Check phase: `set_immediate` callbacks plus check handles.
    Check,
    /// Close-callback dispatch.
    Close,
}

impl Phase {
    /// Every phase, in execution order.
    pub fn all() -> &'static [Phase; 8] {
        &[
            Phase::Timers,
            Phase::Pending,
            Phase::Idle,
            Phase::Prepare,
            Phase::Poll,
            Phase::Demux,
            Phase::Check,
            Phase::Close,
        ]
    }

    /// A stable lowercase label (used as the metric / trace-event name).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Timers => "timers",
            Phase::Pending => "pending",
            Phase::Idle => "idle",
            Phase::Prepare => "prepare",
            Phase::Poll => "poll",
            Phase::Demux => "demux",
            Phase::Check => "check",
            Phase::Close => "close",
        }
    }

    /// Index into [`Phase::all`] order.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated timing for one phase across a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// How many times the phase was entered.
    pub entries: u64,
    /// Total virtual time spent in the phase.
    pub vtime: VDur,
    /// Total wall-clock time spent in the phase, in nanoseconds.
    pub wall_ns: u64,
}

/// One completed span: a phase or a dispatched callback.
///
/// Timestamps are virtual — that is what makes traces of the same seed
/// comparable — with the measured wall time carried alongside as an
/// argument.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent<'a> {
    /// Span name (phase label or callback-kind label).
    pub name: &'a str,
    /// `"phase"` or `"callback"`.
    pub cat: &'static str,
    /// Virtual start time.
    pub start: VTime,
    /// Virtual duration.
    pub dur: VDur,
    /// Measured wall-clock duration in nanoseconds.
    pub wall_ns: u64,
}

/// A consumer of [`TraceEvent`]s, e.g. the campaign's chrome-trace
/// exporter.
pub trait TraceEventSink {
    /// Receives one completed span. Called synchronously from the loop.
    fn event(&mut self, ev: &TraceEvent<'_>);
}

/// Observability state for one loop run.
#[derive(Default)]
pub struct LoopObs {
    /// Per-phase profiles, indexed by [`Phase::index`].
    pub phases: [PhaseProfile; 8],
    /// Dispatch counts indexed by [`CbKind::index`].
    pub kind_counts: [u64; CbKind::COUNT],
    /// Optional per-span event consumer.
    pub sink: Option<Rc<RefCell<dyn TraceEventSink>>>,
}

/// A cloneable handle onto a loop's [`LoopObs`].
///
/// Attach with `EventLoop::set_obs`; keep a clone to read the profile
/// back after the run. Not `Send` — create it on the thread that owns
/// the loop.
#[derive(Clone, Default)]
pub struct ObsHandle {
    inner: Rc<RefCell<LoopObs>>,
}

impl ObsHandle {
    /// A fresh handle with no sink.
    pub fn new() -> ObsHandle {
        ObsHandle::default()
    }

    /// A fresh handle forwarding every span to `sink`.
    pub fn with_sink(sink: Rc<RefCell<dyn TraceEventSink>>) -> ObsHandle {
        let handle = ObsHandle::new();
        handle.inner.borrow_mut().sink = Some(sink);
        handle
    }

    /// Copies out the per-phase profiles, in [`Phase::all`] order.
    pub fn phase_profiles(&self) -> [PhaseProfile; 8] {
        self.inner.borrow().phases
    }

    /// Copies out the per-kind dispatch counts, in [`CbKind::all`] order.
    pub fn kind_counts(&self) -> Vec<(CbKind, u64)> {
        let obs = self.inner.borrow();
        CbKind::all()
            .iter()
            .map(|&k| (k, obs.kind_counts[k.index()]))
            .collect()
    }

    /// Total dispatched callbacks seen by this handle.
    pub fn dispatched(&self) -> u64 {
        self.inner.borrow().kind_counts.iter().sum()
    }

    /// Clears profiles and counts (the sink, if any, stays attached).
    pub fn reset(&self) {
        let mut obs = self.inner.borrow_mut();
        obs.phases = Default::default();
        obs.kind_counts = [0; CbKind::COUNT];
    }

    pub(crate) fn record_phase(&self, phase: Phase, start: VTime, end: VTime, wall_ns: u64) {
        let mut obs = self.inner.borrow_mut();
        let p = &mut obs.phases[phase.index()];
        p.entries += 1;
        p.vtime += end.since(start);
        p.wall_ns += wall_ns;
        if let Some(sink) = obs.sink.clone() {
            drop(obs);
            sink.borrow_mut().event(&TraceEvent {
                name: phase.label(),
                cat: "phase",
                start,
                dur: end.since(start),
                wall_ns,
            });
        }
    }

    pub(crate) fn record_dispatch(&self, kind: CbKind, start: VTime, end: VTime, wall_ns: u64) {
        let mut obs = self.inner.borrow_mut();
        obs.kind_counts[kind.index()] += 1;
        if let Some(sink) = obs.sink.clone() {
            drop(obs);
            sink.borrow_mut().event(&TraceEvent {
                name: kind.label(),
                cat: "callback",
                start,
                dur: end.since(start),
                wall_ns,
            });
        }
    }
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandle")
            .field("dispatched", &self.dispatched())
            .finish()
    }
}

/// An open span: virtual start plus the wall-clock stopwatch.
pub(crate) type ObsSpan = Option<(VTime, Instant)>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indexes_match_all_order() {
        for (i, p) in Phase::all().iter().enumerate() {
            assert_eq!(p.index(), i, "{p:?}");
        }
    }

    #[test]
    fn phase_labels_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for p in Phase::all() {
            assert!(seen.insert(p.label()), "duplicate label for {p:?}");
        }
    }

    #[test]
    fn handle_accumulates_phases_and_dispatches() {
        let h = ObsHandle::new();
        h.record_phase(Phase::Poll, VTime(100), VTime(400), 55);
        h.record_phase(Phase::Poll, VTime(500), VTime(600), 5);
        h.record_dispatch(CbKind::Timer, VTime(0), VTime(10), 1);
        h.record_dispatch(CbKind::Timer, VTime(10), VTime(20), 1);
        h.record_dispatch(CbKind::NetRead, VTime(20), VTime(30), 1);
        let polls = h.phase_profiles()[Phase::Poll.index()];
        assert_eq!(polls.entries, 2);
        assert_eq!(polls.vtime, VDur(400));
        assert_eq!(polls.wall_ns, 60);
        assert_eq!(h.dispatched(), 3);
        let counts = h.kind_counts();
        assert!(counts.contains(&(CbKind::Timer, 2)), "{counts:?}");
        assert!(counts.contains(&(CbKind::NetRead, 1)), "{counts:?}");
        h.reset();
        assert_eq!(h.dispatched(), 0);
        assert_eq!(h.phase_profiles()[Phase::Poll.index()].entries, 0);
    }

    #[test]
    fn sink_sees_every_span() {
        struct Collect(Vec<(String, &'static str, u64)>);
        impl TraceEventSink for Collect {
            fn event(&mut self, ev: &TraceEvent<'_>) {
                self.0
                    .push((ev.name.to_string(), ev.cat, ev.dur.as_nanos()));
            }
        }
        let sink = Rc::new(RefCell::new(Collect(Vec::new())));
        let h = ObsHandle::with_sink(sink.clone());
        h.record_phase(Phase::Timers, VTime(0), VTime(7), 1);
        h.record_dispatch(CbKind::Close, VTime(2), VTime(5), 1);
        let got = &sink.borrow().0;
        assert_eq!(
            got,
            &[
                ("timers".to_string(), "phase", 7),
                ("close".to_string(), "callback", 3)
            ]
        );
    }
}
