//! SIO — socket.io issue #1862 (AV, NW–NW, array → request hangs).
//!
//! The connection manager of Figure 2 in the paper. `socket()` creates a
//! socket and — in the buggy version — only adds it to the `sockets` array
//! once the asynchronous 'connect' handshake completes. `destroy()` removes
//! a socket and closes the whole manager when the array is empty. A fast
//! connection that connects and disconnects while a slow connection is
//! still mid-handshake finds the array empty, closes the manager, and the
//! slow connection can never complete — its request hangs.
//!
//! Fix (as upstream): read/write in the same callback — register the socket
//! synchronously in `socket()`, before the asynchronous handshake.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_net::{Client, ConnId, LatencyModel, SimNet};
use nodefz_rt::VDur;

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The SIO reproduction.
pub struct Sio;

#[derive(Default)]
struct Manager {
    sockets: Vec<ConnId>,
    closed: bool,
    /// Connections that already said goodbye themselves (their own late
    /// handshake completions are not the studied bug).
    departed: Vec<ConnId>,
}

impl BugCase for Sio {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "SIO",
            name: "socket.io",
            bug_ref: "#1862",
            race: RaceType::Av,
            racing_events: "NW-NW",
            race_on: "Array",
            impact: "Request hangs",
            fix: "Rd/wr in same callback",
            in_fig6: true,
            novel: false,
        }
    }

    fn run(&self, cfg: &RunCfg, variant: Variant) -> Outcome {
        let mut el = cfg.build_loop();
        let net = SimNet::with_latency(LatencyModel {
            base: VDur::millis(2),
            jitter: 0.05,
        });
        let manager = Rc::new(RefCell::new(Manager::default()));
        // Oracle flag: a handshake that was ACCEPTED while the manager was
        // open later found it closed (the studied AV). An open arriving at
        // an already-closed manager is politely rejected and is not the
        // bug.
        let premature = Rc::new(RefCell::new(false));
        let n = net.clone();
        let m = manager.clone();
        let prem = premature.clone();
        el.enter(move |cx| {
            n.listen(cx, 80, move |_cx, conn| {
                let m = m.clone();
                let prem = prem.clone();
                conn.on_data(move |cx, conn, msg| {
                    cx.busy(VDur::micros(150));
                    match msg {
                        b"open:fast" | b"open:slow" => {
                            cx.touch_read("sio:manager");
                            if m.borrow().closed {
                                let _ = conn.write(cx, b"rejected");
                                return;
                            }
                            let slow = msg.ends_with(b"slow");
                            let handshake = if slow {
                                VDur::micros(1_200)
                            } else {
                                VDur::micros(250)
                            };
                            if variant == Variant::Fixed {
                                // FIX: register synchronously, before the
                                // asynchronous handshake.
                                m.borrow_mut().sockets.push(conn.id());
                            }
                            let m2 = m.clone();
                            let me = conn.clone();
                            let prem = prem.clone();
                            let _ = cx.submit_work(
                                handshake,
                                |_| (),
                                move |cx, ()| {
                                    cx.touch_read("sio:manager");
                                    cx.touch_write("sio:manager");
                                    let mut mgr = m2.borrow_mut();
                                    if mgr.closed {
                                        // Manager closed between accepting
                                        // this open and completing its
                                        // handshake: the studied AV —
                                        // unless this socket itself already
                                        // left.
                                        if !mgr.departed.contains(&me.id()) {
                                            *prem.borrow_mut() = true;
                                        }
                                        return;
                                    }
                                    if variant == Variant::Buggy && !mgr.sockets.contains(&me.id())
                                    {
                                        // BUGGY: registration happens only
                                        // on 'connect' completion.
                                        mgr.sockets.push(me.id());
                                    }
                                    drop(mgr);
                                    let _ = me.write(cx, b"connected");
                                },
                            );
                        }
                        b"bye" => {
                            cx.touch_write("sio:manager");
                            let mut mgr = m.borrow_mut();
                            let id = conn.id();
                            mgr.departed.push(id);
                            mgr.sockets.retain(|&s| s != id);
                            if mgr.sockets.is_empty() {
                                // Last socket gone: shut the manager down.
                                mgr.closed = true;
                            }
                        }
                        _ => {}
                    }
                });
            })
            .expect("listen");
            Chatter::spawn(cx, &n, 81, 4, 10, VDur::micros(600), VDur::micros(90));
            crate::common::heartbeat(cx, VDur::micros(800), VDur::millis(12));
        });
        let slow_client = el.enter(|cx| {
            // Fast connection: opens, completes, and says goodbye.
            let fast = Client::connect(cx, &net, 80);
            fast.send(cx, b"open:fast");
            fast.send_after(cx, VDur::micros(3_600), b"bye");
            fast.close_after(cx, VDur::millis(14));
            // Slow connection: its handshake is still in flight when the
            // fast one says goodbye (under an adversarial schedule).
            let slow = Client::connect_after(cx, &net, 80, VDur::micros(200));
            slow.send(cx, b"open:slow");
            slow.close_after(cx, VDur::millis(14));
            net.close_all_listeners_after(cx, VDur::millis(28));
            slow
        });
        let report = el.run();
        let connected = slow_client
            .received()
            .iter()
            .any(|m| m[..] == b"connected"[..]);
        let manifested = *premature.borrow() && !connected;
        Outcome {
            manifested,
            detail: if manifested {
                "slow connection never completed: manager closed mid-handshake".into()
            } else {
                "slow connection completed".into()
            },
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_case;

    #[test]
    fn sio_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&Sio, 20);
    }

    #[test]
    fn sio_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&Sio, 60);
    }

    #[test]
    fn sio_vanilla_rarely_manifests() {
        check_case::vanilla_rarely_manifests(&Sio, 40, 2);
    }

    #[test]
    fn sio_is_figure_2() {
        let info = Sio.info();
        assert_eq!(info.race_on, "Array");
        assert_eq!(info.impact, "Request hangs");
    }
}
