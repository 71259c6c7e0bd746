//! Integration tests for the event loop's libuv-faithful semantics under the
//! vanilla scheduler: phase ordering, timer guarantees, worker-pool
//! multiplexing, determinism, and termination behaviour.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_rt::{EventLoop, FdKind, LoopConfig, Termination, VDur, VTime};

type Log = Rc<RefCell<Vec<String>>>;

fn log(l: &Log, s: impl Into<String>) {
    l.borrow_mut().push(s.into());
}

#[test]
fn empty_loop_quiesces_immediately() {
    let mut el = EventLoop::new(LoopConfig::seeded(1));
    let report = el.run();
    assert_eq!(report.termination, Termination::Quiescent);
    assert_eq!(report.dispatched, 0);
    assert_eq!(report.end_time, VTime::ZERO);
}

#[test]
fn timer_fires_at_or_after_deadline() {
    let fired_at = Rc::new(RefCell::new(None));
    let mut el = EventLoop::new(LoopConfig::seeded(2));
    let f = fired_at.clone();
    el.enter(move |cx| {
        cx.set_timeout(VDur::millis(10), move |cx| {
            *f.borrow_mut() = Some(cx.now());
        });
    });
    let report = el.run();
    let at = fired_at.borrow().expect("timer must fire");
    assert!(at >= VTime::ZERO + VDur::millis(10), "fired early: {at}");
    assert_eq!(report.termination, Termination::Quiescent);
    assert_eq!(report.schedule.count(nodefz_rt::CbKind::Timer), 1);
}

#[test]
fn timers_fire_in_deadline_then_registration_order() {
    let order: Log = Rc::new(RefCell::new(Vec::new()));
    let mut el = EventLoop::new(LoopConfig::seeded(3));
    let o = order.clone();
    el.enter(move |cx| {
        for (name, ms) in [("c", 30u64), ("a", 10), ("b", 20), ("a2", 10)] {
            let o = o.clone();
            cx.set_timeout(VDur::millis(ms), move |_| log(&o, name));
        }
    });
    el.run();
    assert_eq!(*order.borrow(), vec!["a", "a2", "b", "c"]);
}

#[test]
fn cleared_timer_never_fires() {
    let fired = Rc::new(RefCell::new(false));
    let mut el = EventLoop::new(LoopConfig::seeded(4));
    let f = fired.clone();
    el.enter(move |cx| {
        let id = cx.set_timeout(VDur::millis(5), move |_| *f.borrow_mut() = true);
        assert!(cx.timer_active(id));
        assert!(cx.clear_timer(id));
        assert!(!cx.timer_active(id));
    });
    let report = el.run();
    assert!(!*fired.borrow());
    assert_eq!(report.termination, Termination::Quiescent);
}

#[test]
fn interval_repeats_until_cleared() {
    let count = Rc::new(RefCell::new(0u32));
    let mut el = EventLoop::new(LoopConfig::seeded(5));
    let c = count.clone();
    el.enter(move |cx| {
        let count_in_cb = c.clone();
        let id = Rc::new(RefCell::new(None));
        let id2 = id.clone();
        let tid = cx.set_interval(VDur::millis(5), move |cx| {
            let mut n = count_in_cb.borrow_mut();
            *n += 1;
            if *n == 4 {
                let tid = id2.borrow().expect("interval id set");
                assert!(cx.clear_timer(tid));
            }
        });
        *id.borrow_mut() = Some(tid);
    });
    let report = el.run();
    assert_eq!(*count.borrow(), 4);
    assert_eq!(report.termination, Termination::Quiescent);
}

#[test]
fn next_tick_runs_before_other_callbacks() {
    let order: Log = Rc::new(RefCell::new(Vec::new()));
    let mut el = EventLoop::new(LoopConfig::seeded(6));
    let o = order.clone();
    el.enter(move |cx| {
        let o1 = o.clone();
        let o2 = o.clone();
        let o3 = o.clone();
        cx.set_timeout(VDur::millis(1), move |cx| {
            log(&o1, "timer1");
            let o1b = o1.clone();
            cx.next_tick(move |_| log(&o1b, "tick"));
        });
        cx.set_timeout(VDur::millis(1), move |_| log(&o2, "timer2"));
        let _ = o3;
    });
    el.run();
    // The microtask queued by timer1 drains before timer2 runs.
    assert_eq!(*order.borrow(), vec!["timer1", "tick", "timer2"]);
}

#[test]
fn set_immediate_runs_in_check_phase_after_io() {
    let order: Log = Rc::new(RefCell::new(Vec::new()));
    let mut el = EventLoop::new(LoopConfig::seeded(7));
    let o = order.clone();
    el.enter(move |cx| {
        let o1 = o.clone();
        cx.set_immediate(move |_| log(&o1, "immediate1"));
        let o2 = o.clone();
        cx.set_immediate(move |cx| {
            log(&o2, "immediate2");
            let o2b = o2.clone();
            // Queued during check: must run on the NEXT iteration.
            cx.set_immediate(move |_| log(&o2b, "immediate3"));
        });
    });
    el.run();
    assert_eq!(
        *order.borrow(),
        vec!["immediate1", "immediate2", "immediate3"]
    );
}

#[test]
fn worker_pool_runs_work_then_done() {
    let order: Log = Rc::new(RefCell::new(Vec::new()));
    let mut el = EventLoop::new(LoopConfig::seeded(8));
    let o = order.clone();
    el.enter(move |cx| {
        let o1 = o.clone();
        cx.submit_work(
            VDur::millis(3),
            move |w| {
                // Work executes "on a worker" at a later virtual time.
                assert!(w.now > VTime::ZERO);
                99u32
            },
            move |_, result| {
                assert_eq!(result, 99);
                log(&o1, "done");
            },
        )
        .unwrap();
    });
    let report = el.run();
    assert_eq!(*order.borrow(), vec!["done"]);
    assert_eq!(report.pool.submitted, 1);
    assert_eq!(report.pool.executed, 1);
    assert_eq!(report.pool.completed, 1);
}

#[test]
fn multiplexed_done_queue_drains_back_to_back() {
    // Submit tasks with equal cost; the vanilla pool signals one shared
    // descriptor and drains every completion in a single I/O event, so no
    // timer callback can interleave between done callbacks that completed
    // together.
    let order: Log = Rc::new(RefCell::new(Vec::new()));
    let mut el = EventLoop::new(LoopConfig::seeded(9));
    let o = order.clone();
    el.enter(move |cx| {
        for i in 0..4 {
            let o = o.clone();
            cx.submit_work(
                VDur::millis(5),
                move |_| i,
                move |_, i: i32| log(&o, format!("done{i}")),
            )
            .unwrap();
        }
    });
    let report = el.run();
    let got = order.borrow().clone();
    assert_eq!(got.len(), 4);
    assert_eq!(report.pool.completed, 4);
    // FIFO completion order with a 4-worker pool and identical submission
    // time is not guaranteed (jittered durations), but all must be present.
    let mut sorted = got.clone();
    sorted.sort();
    assert_eq!(sorted, vec!["done0", "done1", "done2", "done3"]);
}

#[test]
fn pool_respects_worker_limit() {
    // With 4 workers and 8 equal tasks, completions come in two waves.
    // Track maximum observed concurrency via completion timestamps.
    let times = Rc::new(RefCell::new(Vec::new()));
    let mut el = EventLoop::new(LoopConfig {
        pool_cost_jitter: 0.0,
        cb_cost_base: VDur::nanos(1),
        cb_cost_jitter: 0.0,
        ..LoopConfig::seeded(10)
    });
    let t = times.clone();
    el.enter(move |cx| {
        for _ in 0..8 {
            let t = t.clone();
            cx.submit_work(
                VDur::millis(10),
                |w| w.now,
                move |_, at: VTime| t.borrow_mut().push(at),
            )
            .unwrap();
        }
    });
    el.run();
    let times = times.borrow();
    assert_eq!(times.len(), 8);
    // First four finish at ~10ms, second four at ~20ms.
    let wave1 = times.iter().filter(|t| t.as_millis() < 15).count();
    let wave2 = times.iter().filter(|t| t.as_millis() >= 15).count();
    assert_eq!(wave1, 4, "first wave should be the 4 workers: {times:?}");
    assert_eq!(wave2, 4);
}

#[test]
fn env_events_drive_io_watchers() {
    let got = Rc::new(RefCell::new(Vec::new()));
    let mut el = EventLoop::new(LoopConfig::seeded(11));
    let g = got.clone();
    el.enter(move |cx| {
        let fd = cx.alloc_fd(FdKind::Other).unwrap();
        let g2 = g.clone();
        cx.register_watcher(fd, move |cx, fd| {
            g2.borrow_mut().push(cx.now());
            if g2.borrow().len() == 2 {
                cx.close_fd(fd).unwrap();
            }
        })
        .unwrap();
        cx.schedule_env(VDur::millis(5), move |cx| {
            cx.mark_ready(fd).unwrap();
        });
        cx.schedule_env(VDur::millis(9), move |cx| {
            let _ = cx.mark_ready(fd);
        });
    });
    let report = el.run();
    assert_eq!(got.borrow().len(), 2);
    assert!(got.borrow()[0] >= VTime::ZERO + VDur::millis(5));
    assert!(got.borrow()[1] >= VTime::ZERO + VDur::millis(9));
    assert_eq!(report.termination, Termination::Quiescent);
}

#[test]
fn close_phase_runs_enqueued_close_callbacks() {
    let order: Log = Rc::new(RefCell::new(Vec::new()));
    let mut el = EventLoop::new(LoopConfig::seeded(12));
    let o = order.clone();
    el.enter(move |cx| {
        let o1 = o.clone();
        cx.set_timeout(VDur::millis(1), move |cx| {
            log(&o1, "timer");
            let o1b = o1.clone();
            cx.enqueue_close(move |_| log(&o1b, "close"));
        });
    });
    let report = el.run();
    assert_eq!(*order.borrow(), vec!["timer", "close"]);
    assert_eq!(report.schedule.count(nodefz_rt::CbKind::Close), 1);
}

#[test]
fn stop_terminates_loop() {
    let mut el = EventLoop::new(LoopConfig::seeded(13));
    el.enter(|cx| {
        cx.set_timeout(VDur::millis(1), |cx| cx.stop());
        // This one would keep the loop alive for an hour otherwise.
        cx.set_timeout(VDur::secs(3_000), |cx| cx.report_error("late", ""));
    });
    let report = el.run();
    assert_eq!(report.termination, Termination::Stopped);
    assert!(!report.has_error("late"));
}

#[test]
fn crash_is_fatal_and_recorded() {
    let mut el = EventLoop::new(LoopConfig::seeded(14));
    el.enter(|cx| {
        cx.set_timeout(VDur::millis(1), |cx| {
            cx.crash("TypeError", "cannot read property of undefined");
        });
        cx.set_timeout(VDur::millis(2), |cx| cx.report_error("after", ""));
    });
    let report = el.run();
    assert!(report.crashed());
    assert!(report.has_error("TypeError"));
    assert!(!report.has_error("after"), "loop must die at the crash");
}

#[test]
fn microtask_storm_is_detected() {
    fn spin(cx: &mut nodefz_rt::Ctx<'_>) {
        cx.next_tick(spin);
    }
    let mut el = EventLoop::new(LoopConfig {
        microtask_limit: 100,
        ..LoopConfig::seeded(15)
    });
    el.enter(|cx| {
        cx.set_timeout(VDur::millis(1), spin);
    });
    let report = el.run();
    assert!(report.has_error("microtask-storm"));
    assert!(report.crashed());
}

#[test]
fn fd_limit_yields_emfile() {
    let mut el = EventLoop::new(LoopConfig {
        fd_limit: 4,
        ..LoopConfig::seeded(16)
    });
    el.enter(|cx| {
        for _ in 0..4 {
            cx.alloc_fd(FdKind::Other).unwrap();
        }
        assert_eq!(cx.alloc_fd(FdKind::Other), Err(nodefz_rt::Errno::Emfile));
        assert_eq!(cx.open_fds(), 4);
        cx.stop();
    });
    el.run();
}

#[test]
fn unrefd_fd_does_not_keep_loop_alive() {
    let mut el = EventLoop::new(LoopConfig::seeded(17));
    el.enter(|cx| {
        let fd = cx.alloc_fd(FdKind::NetListener).unwrap();
        cx.register_watcher(fd, |_, _| {}).unwrap();
        cx.set_fd_refd(fd, false).unwrap();
    });
    let report = el.run();
    assert_eq!(report.termination, Termination::Quiescent);
    assert_eq!(report.iterations, 0);
}

#[test]
fn refd_fd_with_no_possible_wakeup_hangs() {
    let mut el = EventLoop::new(LoopConfig::seeded(18));
    el.enter(|cx| {
        let fd = cx.alloc_fd(FdKind::NetListener).unwrap();
        cx.register_watcher(fd, |_, _| {}).unwrap();
    });
    let report = el.run();
    assert_eq!(report.termination, Termination::Hung);
}

#[test]
fn vtime_cap_terminates() {
    let mut el = EventLoop::new(LoopConfig {
        max_vtime: VTime::ZERO + VDur::millis(100),
        ..LoopConfig::seeded(19)
    });
    el.enter(|cx| {
        cx.set_interval(VDur::millis(30), |_| {});
    });
    let report = el.run();
    assert_eq!(report.termination, Termination::VTimeCap);
}

#[test]
fn same_seed_same_schedule() {
    let run = |seed: u64| {
        let mut el = EventLoop::new(LoopConfig::seeded(seed));
        el.enter(|cx| {
            for i in 1..6u64 {
                cx.set_timeout(VDur::millis(i), move |cx| {
                    cx.submit_work(VDur::millis(i), |_| (), |_, _| {}).unwrap();
                });
            }
        });
        el.run()
    };
    let a = run(123);
    let b = run(123);
    let c = run(124);
    assert_eq!(a.schedule, b.schedule, "same seed must replay identically");
    assert_eq!(a.end_time, b.end_time);
    // A different environment seed almost surely perturbs timing.
    assert!(
        a.schedule != c.schedule || a.end_time != c.end_time,
        "different seeds should differ somewhere"
    );
}

#[test]
fn idle_prepare_check_handles_run_each_iteration() {
    let counts = Rc::new(RefCell::new((0u32, 0u32, 0u32)));
    let mut el = EventLoop::new(LoopConfig::seeded(20));
    let c = counts.clone();
    el.enter(move |cx| {
        let c1 = c.clone();
        let idle_id = Rc::new(RefCell::new(None));
        let idle_id2 = idle_id.clone();
        let id = cx.add_idle(move |cx| {
            let mut t = c1.borrow_mut();
            t.0 += 1;
            if t.0 == 3 {
                let id = idle_id2.borrow().unwrap();
                assert!(cx.remove_idle(id));
            }
        });
        *idle_id.borrow_mut() = Some(id);
        let c2 = c.clone();
        let pid = Rc::new(RefCell::new(None));
        let pid2 = pid.clone();
        let id = cx.add_prepare(move |cx| {
            let mut t = c2.borrow_mut();
            t.1 += 1;
            if t.1 == 3 {
                assert!(cx.remove_prepare(pid2.borrow().unwrap()));
            }
        });
        *pid.borrow_mut() = Some(id);
        let c3 = c.clone();
        let cid = Rc::new(RefCell::new(None));
        let cid2 = cid.clone();
        let id = cx.add_check(move |cx| {
            let mut t = c3.borrow_mut();
            t.2 += 1;
            if t.2 == 3 {
                assert!(cx.remove_check(cid2.borrow().unwrap()));
            }
        });
        *cid.borrow_mut() = Some(id);
    });
    let report = el.run();
    assert_eq!(report.termination, Termination::Quiescent);
    let (i, p, ch) = *counts.borrow();
    assert_eq!((i, p, ch), (3, 3, 3));
}

#[test]
fn repeat_handles_added_by_a_timer_run_in_the_same_iteration() {
    // The idle and check sets are empty when the iteration starts. A timer
    // registers one handle in each; both must run in this iteration's idle
    // and check phases, before its close phase, because a phase takes its
    // set at phase entry.
    let order: Log = Rc::new(RefCell::new(Vec::new()));
    let mut el = EventLoop::new(LoopConfig::seeded(23));
    let o = order.clone();
    el.enter(move |cx| {
        cx.set_timeout(VDur::millis(5), move |cx| {
            log(&o, "timer");
            let (oi, oc, ox) = (o.clone(), o.clone(), o.clone());
            let idle = Rc::new(RefCell::new(None));
            let idle2 = idle.clone();
            *idle.borrow_mut() = Some(cx.add_idle(move |cx| {
                log(&oi, "idle");
                assert!(cx.remove_idle(idle2.borrow().unwrap()));
            }));
            let check = Rc::new(RefCell::new(None));
            let check2 = check.clone();
            *check.borrow_mut() = Some(cx.add_check(move |cx| {
                log(&oc, "check");
                assert!(cx.remove_check(check2.borrow().unwrap()));
            }));
            cx.enqueue_close(move |_| log(&ox, "close"));
        });
    });
    let report = el.run();
    assert_eq!(report.termination, Termination::Quiescent);
    assert_eq!(*order.borrow(), vec!["timer", "idle", "check", "close"]);
}

#[test]
fn busy_advances_time() {
    let mut el = EventLoop::new(LoopConfig::seeded(21));
    el.enter(|cx| {
        cx.set_timeout(VDur::millis(1), |cx| {
            let before = cx.now();
            cx.busy(VDur::millis(50));
            assert_eq!(cx.now(), before + VDur::millis(50));
        });
    });
    let report = el.run();
    assert!(report.end_time >= VTime::ZERO + VDur::millis(51));
}

#[test]
fn chained_timers_preserve_causality() {
    // A chain of 20 timers each scheduling the next: end time must be at
    // least the sum of deadlines, and exactly 20 timer callbacks dispatch.
    fn chain(cx: &mut nodefz_rt::Ctx<'_>, depth: u32) {
        if depth == 0 {
            return;
        }
        cx.set_timeout(VDur::millis(2), move |cx| chain(cx, depth - 1));
    }
    let mut el = EventLoop::new(LoopConfig::seeded(22));
    el.enter(|cx| chain(cx, 20));
    let report = el.run();
    assert_eq!(report.schedule.count(nodefz_rt::CbKind::Timer), 20);
    assert!(report.end_time >= VTime::ZERO + VDur::millis(40));
}

#[test]
fn report_error_is_not_fatal() {
    let mut el = EventLoop::new(LoopConfig::seeded(23));
    el.enter(|cx| {
        cx.set_timeout(VDur::millis(1), |cx| cx.report_error("warn", "x"));
        cx.set_timeout(VDur::millis(2), |cx| cx.report_error("warn", "y"));
    });
    let report = el.run();
    assert!(!report.crashed());
    assert_eq!(report.errors.len(), 2);
    assert_eq!(report.termination, Termination::Quiescent);
}

#[test]
fn pending_phase_runs_deferred_jobs() {
    let order: Log = Rc::new(RefCell::new(Vec::new()));
    let mut el = EventLoop::new(LoopConfig::seeded(24));
    let o = order.clone();
    el.enter(move |cx| {
        let o1 = o.clone();
        cx.set_timeout(VDur::millis(1), move |cx| {
            log(&o1, "timer");
            let o1b = o1.clone();
            cx.defer_pending(move |_| log(&o1b, "pending"));
        });
    });
    let report = el.run();
    assert_eq!(*order.borrow(), vec!["timer", "pending"]);
    assert_eq!(report.schedule.count(nodefz_rt::CbKind::Pending), 1);
}
