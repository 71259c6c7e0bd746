//! MGS — mongoose issue #2992 ((C)OV, NW–NW, database → incorrect
//! response).
//!
//! The `populate` flow of Figure 4 in the paper: `firstStep` launches N
//! asynchronous `find` queries, binding `isLast = (i == N-1)` into each
//! completion. The promise is resolved when the *last-submitted* query
//! completes — but queries complete in any order, so the result can be
//! returned before all sub-queries have populated it: a commutative
//! ordering violation.
//!
//! Fix (as upstream): a `remaining` counter decremented by every
//! completion; resolve when it reaches zero.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_kv::{Kv, KvTiming};
use nodefz_net::{Client, LatencyModel, SimNet};
use nodefz_rt::VDur;

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The MGS reproduction.
pub struct Mgs;

const QUERIES: usize = 4;

impl BugCase for Mgs {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "MGS",
            name: "mongoose",
            bug_ref: "#2992",
            race: RaceType::Cov,
            racing_events: "NW-NW",
            race_on: "Database",
            impact: "Incorrect response",
            fix: "Global counter",
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
        // Each element: number of sub-queries that had completed when the
        // promise resolved.
        let resolved_with: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let n = net.clone();
        let res = resolved_with.clone();
        el.enter(move |cx| {
            // A 4-connection pool: replies across connections reorder.
            let kv = Kv::connect_with(
                cx,
                4,
                KvTiming {
                    latency: VDur::millis(1),
                    latency_jitter: 0.12,
                    proc: VDur::micros(200),
                    proc_jitter: 0.12,
                },
            )
            .expect("kv pool");
            for i in 0..QUERIES {
                kv.set_sync(&format!("doc:{i}:ref"), &format!("value-{i}"));
            }
            let kv_handler = kv.clone();
            let res = res.clone();
            n.listen(cx, 80, move |_cx, conn| {
                let kv = kv_handler.clone();
                let res = res.clone();
                conn.on_data(move |cx, conn, _msg| {
                    cx.busy(VDur::micros(150));
                    let filled: Rc<RefCell<usize>> = Rc::new(RefCell::new(0));
                    let resolve = {
                        let filled = filled.clone();
                        let res = res.clone();
                        let me = conn.clone();
                        Rc::new(move |cx: &mut nodefz_rt::Ctx<'_>| {
                            let done = *filled.borrow();
                            res.borrow_mut().push(done);
                            let _ = me.write(cx, format!("populated:{done}").into_bytes());
                        })
                    };
                    // The MGS fix: a shared `remaining` counter.
                    let remaining: Rc<RefCell<usize>> = Rc::new(RefCell::new(QUERIES));
                    for i in 0..QUERIES {
                        let filled = filled.clone();
                        let resolve = resolve.clone();
                        let remaining = remaining.clone();
                        let is_last = i == QUERIES - 1;
                        kv.find(cx, &format!("doc:{i}:"), move |cx, _rows| {
                            cx.touch_update("mgs:filled");
                            *filled.borrow_mut() += 1;
                            match variant {
                                Variant::Buggy => {
                                    // BUGGY (Figure 4, before): resolve on
                                    // the last *submitted* query.
                                    if is_last {
                                        resolve(cx);
                                    }
                                }
                                Variant::Fixed => {
                                    // FIX (Figure 4, after): resolve when
                                    // --remaining == 0.
                                    let mut r = remaining.borrow_mut();
                                    *r -= 1;
                                    if *r == 0 {
                                        drop(r);
                                        resolve(cx);
                                    }
                                }
                            }
                        });
                    }
                });
            })
            .expect("listen");
            Chatter::spawn(cx, &n, 81, 4, 10, VDur::micros(600), VDur::micros(90));
            crate::common::heartbeat(cx, VDur::micros(800), VDur::millis(12));
        });
        el.enter(|cx| {
            let c = Client::connect(cx, &net, 80);
            c.send(cx, b"populate");
            c.close_after(cx, VDur::millis(14));
            net.close_all_listeners_after(cx, VDur::millis(25));
        });
        let report = el.run();
        let resolved = resolved_with.borrow();
        let premature = resolved.iter().filter(|&&n| n < QUERIES).count();
        let manifested = premature > 0;
        Outcome {
            manifested,
            detail: format!(
                "promise resolutions with completed sub-queries: {:?} (need {QUERIES})",
                *resolved
            ),
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_case;

    #[test]
    fn mgs_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&Mgs, 20);
    }

    #[test]
    fn mgs_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&Mgs, 60);
    }

    #[test]
    fn mgs_vanilla_rarely_manifests() {
        check_case::vanilla_rarely_manifests(&Mgs, 40, 6);
    }

    #[test]
    fn mgs_is_figure_4() {
        let info = Mgs.info();
        assert_eq!(info.race, RaceType::Cov);
        assert_eq!(info.fix, "Global counter");
    }
}
