//! NES — nes issue #18 (AV, NW–Timer, variable → crash).
//!
//! A WebSocket layer runs a per-connection heartbeat timer that pings the
//! client. When the client disconnects, the close handler clears the
//! socket reference. The atomicity violation: the heartbeat timer and the
//! disconnect event are unordered, so the timer callback can run after the
//! socket was torn down and dereference null — crashing the server.
//!
//! Fix (as upstream): check the socket still exists in the timer callback.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_net::{Client, Connection, LatencyModel, SimNet};
use nodefz_rt::VDur;

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The NES reproduction.
pub struct Nes;

impl BugCase for Nes {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "NES",
            name: "nes",
            bug_ref: "#18",
            race: RaceType::Av,
            racing_events: "NW-Timer",
            race_on: "Variable",
            impact: "Crash (null dereference)",
            fix: "Check not null before use",
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
        let n = net.clone();
        el.enter(move |cx| {
            n.listen(cx, 80, move |cx, conn| {
                // Per-connection socket slot, cleared on disconnect.
                cx.touch_write("nes:socket");
                let socket: Rc<RefCell<Option<Connection>>> =
                    Rc::new(RefCell::new(Some(conn.clone())));
                let s_timer = socket.clone();
                // Heartbeat: ping the client after the keep-alive interval.
                cx.set_timeout(VDur::millis(4), move |cx| {
                    match variant {
                        Variant::Buggy => {
                            // BUGGY: assumes the socket still exists.
                            cx.touch_read("nes:socket");
                            let slot = s_timer.borrow();
                            match slot.as_ref() {
                                Some(sock) => {
                                    let _ = sock.write(cx, b"ping");
                                }
                                None => {
                                    cx.crash("null-deref", "heartbeat fired after socket teardown")
                                }
                            }
                        }
                        Variant::Fixed => {
                            if let Some(sock) = s_timer.borrow().as_ref() {
                                let _ = sock.write(cx, b"ping");
                            }
                        }
                    }
                });
                let s_close = socket.clone();
                conn.on_close(move |cx, _conn| {
                    cx.touch_write("nes:socket");
                    *s_close.borrow_mut() = None;
                });
            })
            .expect("listen");
            Chatter::spawn(cx, &n, 81, 4, 10, VDur::micros(600), VDur::micros(90));
        });
        el.enter(|cx| {
            let client = Client::connect(cx, &net, 80);
            // The client disconnects shortly AFTER the heartbeat normally
            // fires (heartbeat at ~connect+4ms; EOF reaches the server at
            // ~connect+4ms+margin). A deferred heartbeat (+5 ms) runs
            // after the close handler cleared the slot.
            client.close_after(cx, VDur::micros(4_500));
            net.close_all_listeners_after(cx, VDur::millis(25));
        });
        let report = el.run();
        let manifested = report.has_error("null-deref");
        Outcome {
            manifested,
            detail: if manifested {
                "heartbeat timer dereferenced a cleared socket".into()
            } else {
                "heartbeat and teardown did not interleave".into()
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
    fn nes_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&Nes, 20);
    }

    #[test]
    fn nes_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&Nes, 60);
    }

    #[test]
    fn nes_vanilla_rarely_manifests() {
        check_case::vanilla_rarely_manifests(&Nes, 40, 2);
    }

    #[test]
    fn nes_races_network_against_timer() {
        assert_eq!(Nes.info().racing_events, "NW-Timer");
    }
}
