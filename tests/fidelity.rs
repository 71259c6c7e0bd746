//! Node.fz fidelity (§4.4 of the paper): the fuzzer makes only *legal*
//! scheduling decisions, so correct programs compute correct results under
//! it — including under an intentionally extreme parameterization — and
//! documented platform guarantees survive. Also reproduces the EMFILE
//! incident the paper hit when de-multiplexing a 10 240-task test.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz::{FuzzParams, Mode};
use nodefz_kv::Kv;
use nodefz_net::{Client, SimNet};
use nodefz_rt::{Barrier, Emitter, LoopConfig, Termination, VDur, VTime};

fn modes_under_test() -> Vec<Mode> {
    vec![
        Mode::Vanilla,
        Mode::NoFuzz,
        Mode::Fuzz,
        Mode::Guided,
        Mode::Custom(FuzzParams::aggressive()),
    ]
}

#[test]
fn echo_server_answers_everything_under_every_mode() {
    for mode in modes_under_test() {
        for seed in 0..10 {
            let mut el = mode.build_loop(LoopConfig::seeded(seed), seed ^ 55);
            let net = SimNet::new();
            let n = net.clone();
            el.enter(move |cx| {
                n.listen(cx, 80, |_cx, conn| {
                    conn.on_data(|cx, conn, msg| {
                        let _ = conn.write(cx, msg.to_vec());
                    });
                })
                .unwrap();
            });
            let clients = el.enter(|cx| {
                let mut clients = Vec::new();
                for c in 0..3 {
                    let client = Client::connect_after(cx, &net, 80, VDur::micros(c * 100));
                    for i in 0..5u8 {
                        client.send_after(cx, VDur::micros(i as u64 * 400), vec![i]);
                    }
                    client.close_after(cx, VDur::millis(60));
                    clients.push(client);
                }
                net.close_all_listeners_after(cx, VDur::millis(80));
                clients
            });
            let report = el.run();
            assert!(
                !report.crashed(),
                "{} seed {seed}: {:?}",
                mode.label(),
                report.errors
            );
            for (i, client) in clients.iter().enumerate() {
                // Every message echoed, in per-connection FIFO order: the
                // guarantee §4.2.1 says fuzzing must not break.
                let got = client.received();
                assert_eq!(
                    got,
                    (0..5u8).map(|i| vec![i]).collect::<Vec<_>>(),
                    "{} seed {seed} client {i}",
                    mode.label()
                );
            }
        }
    }
}

#[test]
fn timers_never_fire_early_under_fuzz() {
    for seed in 0..20 {
        let mut el =
            Mode::Custom(FuzzParams::aggressive()).build_loop(LoopConfig::seeded(seed), seed);
        let violations = Rc::new(RefCell::new(0u32));
        let v = violations.clone();
        el.enter(move |cx| {
            for ms in [1u64, 3, 7, 12] {
                let deadline = cx.now() + VDur::millis(ms);
                let v = v.clone();
                cx.set_timeout(VDur::millis(ms), move |cx| {
                    if cx.now() < deadline {
                        *v.borrow_mut() += 1;
                    }
                });
            }
        });
        el.run();
        assert_eq!(*violations.borrow(), 0, "seed {seed}: a timer fired early");
    }
}

#[test]
fn done_callback_always_after_task_body() {
    // §4.4 guarantee 4: a completion callback is invoked only after its
    // corresponding task has completed.
    for seed in 0..20 {
        let mut el = Mode::Fuzz.build_loop(LoopConfig::seeded(seed), seed);
        let order: Rc<RefCell<Vec<(u32, &'static str)>>> = Rc::new(RefCell::new(Vec::new()));
        let o = order.clone();
        el.enter(move |cx| {
            for task in 0..8u32 {
                let o1 = o.clone();
                let o2 = o.clone();
                cx.submit_work(
                    VDur::micros(100 + task as u64 * 37),
                    move |_| {
                        o1.borrow_mut().push((task, "work"));
                        task
                    },
                    move |_, t| {
                        o2.borrow_mut().push((t, "done"));
                    },
                )
                .unwrap();
            }
        });
        el.run();
        let order = order.borrow();
        for task in 0..8u32 {
            let work_pos = order.iter().position(|&e| e == (task, "work"));
            let done_pos = order.iter().position(|&e| e == (task, "done"));
            let (Some(w), Some(d)) = (work_pos, done_pos) else {
                panic!("seed {seed}: task {task} incomplete: {order:?}");
            };
            assert!(w < d, "seed {seed}: done before work for task {task}");
        }
    }
}

#[test]
fn emitter_listener_order_survives_fuzzing() {
    // §4.3.1: EventEmitter listeners run successively, synchronously, in
    // registration order — multiplexing the fuzzer must NOT break.
    for seed in 0..10 {
        let mut el =
            Mode::Custom(FuzzParams::aggressive()).build_loop(LoopConfig::seeded(seed), seed);
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = order.clone();
        el.enter(move |cx| {
            let em: Emitter<u32> = Emitter::new();
            for tag in 0..6u32 {
                let o = o.clone();
                em.on("evt", move |_, payload| {
                    o.borrow_mut().push((tag, *payload))
                });
            }
            let em2 = em.clone();
            cx.set_timeout(VDur::millis(2), move |cx| {
                em2.emit(cx, "evt", &99);
            });
        });
        el.run();
        assert_eq!(
            *order.borrow(),
            (0..6).map(|t| (t, 99)).collect::<Vec<_>>(),
            "seed {seed}"
        );
    }
}

#[test]
fn ordered_combinators_hold_under_fuzz() {
    for seed in 0..10 {
        let mut el = Mode::Fuzz.build_loop(LoopConfig::seeded(seed), seed + 1);
        let events = Rc::new(RefCell::new(Vec::new()));
        let e = events.clone();
        el.enter(move |cx| {
            let e2 = e.clone();
            let barrier = Barrier::new(4, move |_cx| e2.borrow_mut().push("all-done"));
            for i in 0..4u64 {
                let b = barrier.clone();
                let e3 = e.clone();
                cx.submit_work(
                    VDur::micros(200 + i * 91),
                    |_| (),
                    move |cx, ()| {
                        e3.borrow_mut().push("arrived");
                        b.arrive(cx);
                    },
                )
                .unwrap();
            }
        });
        el.run();
        let events = events.borrow();
        assert_eq!(events.len(), 5, "seed {seed}: {events:?}");
        assert_eq!(events[4], "all-done", "barrier fired last");
    }
}

#[test]
fn kv_single_connection_replies_stay_fifo_under_fuzz() {
    for seed in 0..10 {
        let mut el =
            Mode::Custom(FuzzParams::aggressive()).build_loop(LoopConfig::seeded(seed), seed);
        let order = Rc::new(RefCell::new(Vec::new()));
        let kv = el.enter(|cx| Kv::connect(cx, 1).unwrap());
        let k = kv.clone();
        let o = order.clone();
        el.enter(move |cx| {
            for i in 0..12u32 {
                let o = o.clone();
                k.set(cx, &format!("k{i}"), "v", move |_cx, ()| {
                    o.borrow_mut().push(i);
                });
            }
        });
        el.run();
        assert_eq!(
            *order.borrow(),
            (0..12).collect::<Vec<_>>(),
            "seed {seed}: single-connection replies reordered"
        );
    }
}

#[test]
fn demux_reproduces_the_emfile_incident() {
    // The paper's test-fs-sir-writes-alot story (§4.4): a burst of pool
    // submissions under the de-multiplexed done queue consumes one
    // descriptor per task. With a low descriptor limit, submissions fail
    // with EMFILE; raising the limit (ulimit) fixes it; the multiplexed
    // vanilla pool never needed the descriptors.
    let submit_burst = |mode: Mode, fd_limit: usize| -> usize {
        let cfg = LoopConfig {
            fd_limit,
            ..LoopConfig::seeded(5)
        };
        let mut el = mode.build_loop(cfg, 9);
        let failures = el.enter(|cx| {
            let mut failures = 0;
            for _ in 0..256 {
                if cx
                    .submit_work(VDur::micros(50), |_| (), |_, ()| {})
                    .is_err()
                {
                    failures += 1;
                }
            }
            failures
        });
        el.run();
        failures
    };
    assert!(
        submit_burst(Mode::Fuzz, 64) > 0,
        "demux must hit EMFILE at a low limit"
    );
    assert_eq!(
        submit_burst(Mode::Fuzz, 1_024),
        0,
        "raising the limit (ulimit) resolves it"
    );
    assert_eq!(
        submit_burst(Mode::Vanilla, 64),
        0,
        "the multiplexed pool does not consume per-task descriptors"
    );
}

#[test]
fn fuzzed_runs_are_reproducible() {
    let run = || {
        let mut el = Mode::Fuzz.build_loop(LoopConfig::seeded(77), 88);
        let net = SimNet::new();
        let n = net.clone();
        el.enter(move |cx| {
            n.listen(cx, 80, |_cx, conn| {
                conn.on_data(|cx, conn, msg| {
                    let _ = conn.write(cx, msg.to_vec());
                });
            })
            .unwrap();
        });
        el.enter(|cx| {
            for i in 0..4 {
                let c = Client::connect_after(cx, &net, 80, VDur::micros(i * 150));
                c.send(cx, vec![i as u8]);
                c.close_after(cx, VDur::millis(30));
            }
            net.close_all_listeners_after(cx, VDur::millis(40));
        });
        el.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.schedule, b.schedule, "same seeds must replay identically");
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.dispatched, b.dispatched);
}

#[test]
fn quiescent_termination_is_preserved_by_fuzzing() {
    // A program that terminates cleanly under vanilla also terminates
    // cleanly under fuzzing (no lost wakeups).
    for seed in 0..10 {
        for mode in [Mode::Vanilla, Mode::Fuzz] {
            let mut el = mode.build_loop(LoopConfig::seeded(seed), seed);
            el.enter(|cx| {
                cx.set_timeout(VDur::millis(3), |cx| {
                    cx.submit_work(
                        VDur::millis(1),
                        |_| (),
                        |cx, ()| {
                            cx.set_immediate(|_| {});
                        },
                    )
                    .unwrap();
                });
            });
            let report = el.run();
            assert_eq!(
                report.termination,
                Termination::Quiescent,
                "{} seed {seed}",
                mode.label()
            );
            assert!(report.end_time > VTime::ZERO);
        }
    }
}
