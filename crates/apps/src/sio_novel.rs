//! SIO (novel) — socket.io PR #2721 (AV, NW–Timer, socket).
//!
//! The novel bug Node.fz found in the socket.io *test suite* (§5.2.1): a
//! test case fails to clean up a client with a repeating reconnect timer.
//! When a leftover reconnect fires during one of the sensitive test cases
//! that share the server, it steals the server's only connection slot and
//! the sensitive test times out.
//!
//! Fix (as the accepted upstream patch): disable automatic reconnection —
//! the earlier test tears its client down.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_net::{Client, LatencyModel, SimNet};
use nodefz_rt::VDur;

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The novel SIO reproduction.
pub struct SioNovel;

impl BugCase for SioNovel {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "SIO*",
            name: "socket.io (novel)",
            bug_ref: "PR #2721",
            race: RaceType::Av,
            racing_events: "NW-Timer",
            race_on: "Socket",
            impact: "Subsequent tests fail because the server's socket is occupied",
            fix: "Disable automatic reconnection",
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
        // The shared test server has a single connection slot.
        let occupied: Rc<RefCell<bool>> = Rc::new(RefCell::new(false));
        let n = net.clone();
        let occ = occupied.clone();
        el.enter(move |cx| {
            n.listen(cx, 80, move |_cx, conn| {
                let occ = occ.clone();
                conn.on_data(move |cx, conn, msg| {
                    cx.busy(VDur::micros(100));
                    cx.touch_read("sio*:slot");
                    cx.touch_write("sio*:slot");
                    let mut slot = occ.borrow_mut();
                    if *slot {
                        // Slot taken: this client gets nothing (the
                        // sensitive test will time out).
                        return;
                    }
                    *slot = true;
                    drop(slot);
                    let _ = conn.write(cx, [&b"served:"[..], msg].concat());
                    // The slot frees once this exchange's session expires.
                    let occ2 = occ.clone();
                    cx.set_timeout(VDur::micros(1_500), move |cx| {
                        cx.touch_write("sio*:slot");
                        *occ2.borrow_mut() = false;
                    });
                });
            })
            .expect("listen");
            Chatter::spawn(cx, &n, 81, 4, 10, VDur::micros(600), VDur::micros(90));
            crate::common::heartbeat(cx, VDur::micros(800), VDur::millis(14));
            // --- Test 1 runs and finishes, but (buggy) leaks a client on a
            // repeating reconnect timer.
            if variant == Variant::Buggy {
                let net2 = n.clone();
                let stray = cx.set_interval(VDur::millis(4), move |cx| {
                    // The leftover client reconnects and briefly occupies
                    // the shared server.
                    let c = Client::connect(cx, &net2, 80);
                    c.send(cx, b"stray");
                    c.close_after(cx, VDur::millis(3));
                });
                // The whole suite ends at 14 ms; the stray timer dies with
                // the process.
                cx.set_timeout(VDur::millis(14), move |cx| {
                    cx.clear_timer(stray);
                });
            }
            // With the fix there is no leftover timer at all (reconnection
            // disabled).
        });
        // --- Test 2 (sensitive): expects to be served promptly.
        let probe = el.enter(|cx| {
            let probe = Client::connect_after(cx, &net, 80, VDur::micros(7_750));
            probe.send(cx, b"probe");
            probe.close_after(cx, VDur::millis(16));
            net.close_all_listeners_after(cx, VDur::millis(26));
            probe
        });
        let report = el.run();
        let served = probe.received().iter().any(|m| m.starts_with(b"served:"));
        let manifested = !served;
        Outcome {
            manifested,
            detail: if manifested {
                "sensitive test timed out: a stray reconnect held the socket".into()
            } else {
                "sensitive test was served".into()
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
    fn sio_novel_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&SioNovel, 20);
    }

    #[test]
    fn sio_novel_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&SioNovel, 60);
    }

    #[test]
    fn sio_novel_vanilla_rarely_manifests() {
        check_case::vanilla_rarely_manifests(&SioNovel, 40, 2);
    }

    #[test]
    fn sio_novel_is_novel() {
        assert!(SioNovel.info().novel);
    }
}
