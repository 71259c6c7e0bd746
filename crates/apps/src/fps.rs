//! FPS — fiware-pep-steelskin issue #269 (AV, NW–NW, variable → hang).
//!
//! A policy-enforcement proxy validates each request against a back-end
//! before answering. The buggy code tracks the in-flight request in a
//! *shared* variable; when a second request arrives while the first is
//! still validating, the incorrect control flow overwrites the shared slot
//! and the first client's response is never sent — the request hangs.
//!
//! Fix (as upstream): correct the control flow so each request's response
//! is routed from its own callback chain.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_kv::{Kv, KvTiming};
use nodefz_net::{Client, Connection, LatencyModel, SimNet};
use nodefz_rt::VDur;

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The FPS reproduction.
pub struct Fps;

impl BugCase for Fps {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "FPS",
            name: "fiware-pep-steelskin",
            bug_ref: "#269",
            race: RaceType::Av,
            racing_events: "NW-NW",
            race_on: "Variable",
            impact: "Request hangs",
            fix: "Fix incorrect control flow",
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
        // The shared in-flight slot (the racy variable).
        let inflight: Rc<RefCell<Option<Connection>>> = Rc::new(RefCell::new(None));
        let n = net.clone();
        let slot = inflight.clone();
        el.enter(move |cx| {
            let kv = Kv::connect_with(
                cx,
                2,
                KvTiming {
                    latency: VDur::millis(1),
                    latency_jitter: 0.05,
                    proc: VDur::micros(200),
                    proc_jitter: 0.1,
                },
            )
            .expect("kv pool");
            kv.set_sync("policy:default", "allow");
            n.listen(cx, 80, move |_cx, conn| {
                let kv = kv.clone();
                let slot = slot.clone();
                conn.on_data(move |cx, conn, msg| {
                    if msg != b"authorize" {
                        return;
                    }
                    cx.busy(VDur::micros(300));
                    match variant {
                        Variant::Buggy => {
                            // BUGGY control flow: the proxy notes "the"
                            // current request in a shared slot...
                            cx.touch_write("fps:inflight");
                            *slot.borrow_mut() = Some(conn.clone());
                            let slot = slot.clone();
                            kv.get(cx, "policy:default", move |cx, verdict| {
                                // ...and answers whatever the slot holds
                                // now. A second request that arrived in
                                // between overwrote it: the first client
                                // never hears back.
                                cx.touch_read("fps:inflight");
                                cx.touch_write("fps:inflight");
                                let target = slot.borrow_mut().take();
                                if let (Some(target), Some(v)) = (target, verdict) {
                                    let _ = target.write(cx, v.into_bytes());
                                }
                            });
                        }
                        Variant::Fixed => {
                            // Fixed control flow: the response is routed
                            // from this request's own chain.
                            let me = conn.clone();
                            kv.get(cx, "policy:default", move |cx, verdict| {
                                if let Some(v) = verdict {
                                    let _ = me.write(cx, v.into_bytes());
                                }
                            });
                        }
                    }
                });
            })
            .expect("listen");
            Chatter::spawn(cx, &n, 81, 4, 10, VDur::micros(600), VDur::micros(90));
            crate::common::heartbeat(cx, VDur::micros(800), VDur::millis(15));
        });
        let clients = el.enter(|cx| {
            let a = Client::connect(cx, &net, 80);
            a.send(cx, b"authorize");
            a.close_after(cx, VDur::millis(30));
            // The second request normally arrives after the first one's
            // validation round trip has completed.
            let b = Client::connect(cx, &net, 80);
            b.send_after(cx, VDur::micros(3_800), b"authorize");
            b.close_after(cx, VDur::millis(30));
            net.close_all_listeners_after(cx, VDur::millis(40));
            [a, b]
        });
        let report = el.run();
        let unanswered: Vec<usize> = clients
            .iter()
            .enumerate()
            .filter(|(_, c)| c.received().is_empty())
            .map(|(i, _)| i)
            .collect();
        let manifested = !unanswered.is_empty();
        Outcome {
            manifested,
            detail: if manifested {
                format!("request(s) {unanswered:?} never received a response")
            } else {
                "every request was answered".into()
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
    fn fps_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&Fps, 20);
    }

    #[test]
    fn fps_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&Fps, 60);
    }

    #[test]
    fn fps_vanilla_rarely_manifests() {
        check_case::vanilla_rarely_manifests(&Fps, 40, 6);
    }

    #[test]
    fn fps_impact_is_hang() {
        assert_eq!(Fps.info().impact, "Request hangs");
    }
}
