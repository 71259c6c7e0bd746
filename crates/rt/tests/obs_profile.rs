//! Integration tests for loop-phase profiling: phase profiles, per-kind
//! dispatch counts, sink events, and — critically — that attaching
//! observability does not perturb the run itself.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_rt::obs::{Phase, TraceEvent, TraceEventSink};
use nodefz_rt::{CbKind, EventLoop, LoopConfig, ObsHandle, VDur};

fn program(el: &mut EventLoop) {
    el.enter(|cx| {
        for i in 1..4u64 {
            cx.set_timeout(VDur::millis(i), move |cx| {
                cx.submit_work(VDur::micros(300), |_| (), |_, ()| {})
                    .unwrap();
            });
        }
        cx.set_immediate(|_| {});
    });
}

#[test]
fn profiles_cover_phases_and_dispatches() {
    let mut el = EventLoop::new(LoopConfig::seeded(11));
    let obs = ObsHandle::new();
    el.set_obs(obs.clone());
    program(&mut el);
    let report = el.run();

    let phases = obs.phase_profiles();
    let timers = phases[Phase::Timers.index()];
    assert!(timers.entries > 0, "timer phase never profiled");
    assert!(
        timers.vtime > VDur::ZERO,
        "timer callbacks cost virtual time"
    );
    let poll = phases[Phase::Poll.index()];
    assert!(poll.entries > 0);
    // Demux runs nested inside poll, so its virtual time cannot exceed
    // the poll phase's.
    let demux = phases[Phase::Demux.index()];
    assert!(demux.vtime <= poll.vtime, "{demux:?} vs {poll:?}");
    // Every phase entered at most once per iteration (demux excepted:
    // it re-runs after each poll dispatch).
    for p in [Phase::Timers, Phase::Pending, Phase::Poll, Phase::Check] {
        assert!(
            phases[p.index()].entries <= report.iterations,
            "{p:?} profiled more often than the loop iterated"
        );
    }

    // The handle's per-kind counts must agree with the run report.
    assert_eq!(obs.dispatched(), report.dispatched);
    let counts: std::collections::HashMap<CbKind, u64> = obs.kind_counts().into_iter().collect();
    assert_eq!(counts[&CbKind::Timer], 3);
    assert_eq!(counts[&CbKind::PoolDone], 3);
    assert_eq!(counts[&CbKind::Check], 1);
}

#[test]
fn observed_and_bare_runs_are_identical() {
    let run = |observe: bool| {
        let mut el = EventLoop::new(LoopConfig::seeded(12));
        if observe {
            el.set_obs(ObsHandle::new());
        }
        program(&mut el);
        let r = el.run();
        (r.dispatched, r.end_time, r.iterations, r.schedule)
    };
    assert_eq!(run(false), run(true), "observability perturbed the run");
}

#[test]
fn sink_receives_nested_spans_in_virtual_time() {
    #[derive(Default)]
    struct Collect {
        phases: usize,
        callbacks: usize,
        max_end_ns: u64,
    }
    impl TraceEventSink for Collect {
        fn event(&mut self, ev: &TraceEvent<'_>) {
            match ev.cat {
                "phase" => self.phases += 1,
                "callback" => self.callbacks += 1,
                other => panic!("unexpected category {other}"),
            }
            self.max_end_ns = self.max_end_ns.max(ev.start.as_nanos() + ev.dur.as_nanos());
        }
    }
    let sink = Rc::new(RefCell::new(Collect::default()));
    let mut el = EventLoop::new(LoopConfig::seeded(13));
    el.set_obs(ObsHandle::with_sink(sink.clone()));
    program(&mut el);
    let report = el.run();

    let got = sink.borrow();
    assert!(got.phases > 0, "no phase spans emitted");
    assert_eq!(got.callbacks as u64, report.dispatched);
    assert!(
        got.max_end_ns <= report.end_time.as_nanos(),
        "span past the end of the run"
    );
}

#[test]
fn reset_clears_profiles_between_runs() {
    let mut el = EventLoop::new(LoopConfig::seeded(14));
    let obs = ObsHandle::new();
    el.set_obs(obs.clone());
    program(&mut el);
    el.run();
    assert!(obs.dispatched() > 0);
    obs.reset();
    assert_eq!(obs.dispatched(), 0);
    assert!(obs
        .phase_profiles()
        .iter()
        .all(|p| p.entries == 0 && p.vtime == VDur::ZERO && p.wall_ns == 0));
}
