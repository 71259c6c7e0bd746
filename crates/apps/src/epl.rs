//! EPL — etherpad-lite issue #2674 (AV, NW–NW, array → crash).
//!
//! A collaborative editor keeps a per-document `pad` object holding its
//! author list. Handling an *edit* message is partitioned into a callback
//! chain: fetch author metadata from the database, then update the author
//! array. Handling a *delete* message destroys the pad immediately. The
//! atomicity violation: a delete can interleave between an edit's database
//! fetch and its array update, so the update dereferences a destroyed pad —
//! a null dereference that crashes the server.
//!
//! Fix (as upstream): check the pad still exists before using it.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_kv::{Kv, KvTiming};
use nodefz_net::{Client, LatencyModel, SimNet};
use nodefz_rt::VDur;

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The EPL reproduction.
pub struct Epl;

struct Pad {
    authors: Vec<String>,
}

impl BugCase for Epl {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "EPL",
            name: "etherpad-lite",
            bug_ref: "#2674",
            race: RaceType::Av,
            racing_events: "NW-NW",
            race_on: "Array",
            impact: "Crash (null dereference)",
            fix: "Check not null before use",
            in_fig6: false, // Excluded in §5.1.1 (browser-driven upstream test).
            novel: false,
        }
    }

    fn run(&self, cfg: &RunCfg, variant: Variant) -> Outcome {
        let mut el = cfg.build_loop();
        let net = SimNet::with_latency(LatencyModel {
            base: VDur::millis(2),
            jitter: 0.05,
        });
        let pad: Rc<RefCell<Option<Pad>>> = Rc::new(RefCell::new(Some(Pad {
            authors: Vec::new(),
        })));
        let n = net.clone();
        let p = pad.clone();
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
            kv.set_sync("color:alice", "blue");
            n.listen(cx, 80, move |_cx, conn| {
                let p = p.clone();
                let kv = kv.clone();
                conn.on_data(move |cx, _conn, msg| {
                    cx.busy(VDur::micros(300));
                    match msg {
                        b"edit" => {
                            // Callback chain link 1: fetch author metadata.
                            let p = p.clone();
                            kv.get(cx, "color:alice", move |cx, _color| {
                                // Link 2: update the author array. BUGGY:
                                // assumes the pad still exists.
                                match variant {
                                    Variant::Buggy => {
                                        let mut pad = p.borrow_mut();
                                        match pad.as_mut() {
                                            Some(pad) => pad.authors.push("alice".into()),
                                            None => cx.crash(
                                                "null-deref",
                                                "edit chain used a deleted pad",
                                            ),
                                        }
                                    }
                                    Variant::Fixed => {
                                        // Upstream fix: not-null check.
                                        if let Some(pad) = p.borrow_mut().as_mut() {
                                            pad.authors.push("alice".into());
                                        }
                                    }
                                }
                            });
                        }
                        b"delete" => {
                            // Destroys the pad synchronously.
                            *p.borrow_mut() = None;
                        }
                        _ => {}
                    }
                });
            })
            .expect("listen");
            // Background suite traffic: long iterations, shared windows.
            Chatter::spawn(cx, &n, 81, 4, 10, VDur::micros(600), VDur::micros(90));
            crate::common::heartbeat(cx, VDur::micros(800), VDur::millis(15));
        });
        el.enter(|cx| {
            let editor = Client::connect(cx, &net, 80);
            editor.send(cx, b"edit");
            editor.close_after(cx, VDur::millis(12));
            // The delete lands normally well after the edit chain finishes.
            let deleter = Client::connect(cx, &net, 80);
            deleter.send_after(cx, VDur::micros(3_800), b"delete");
            deleter.close_after(cx, VDur::millis(12));
            net.close_all_listeners_after(cx, VDur::millis(30));
        });
        let report = el.run();
        let manifested = report.has_error("null-deref");
        Outcome {
            manifested,
            detail: if manifested {
                "server crashed: edit chain dereferenced a deleted pad".into()
            } else {
                format!(
                    "pad intact ({:?} authors)",
                    pad.borrow().as_ref().map(|p| p.authors.len())
                )
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
    fn epl_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&Epl, 20);
    }

    #[test]
    fn epl_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&Epl, 60);
    }

    #[test]
    fn epl_vanilla_rarely_manifests() {
        check_case::vanilla_rarely_manifests(&Epl, 40, 4);
    }

    #[test]
    fn epl_info_is_table2_row() {
        let info = Epl.info();
        assert_eq!(info.abbr, "EPL");
        assert_eq!(info.race, RaceType::Av);
        assert!(!info.in_fig6);
    }
}
