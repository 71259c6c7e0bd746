//! KUE — kue issue #483 (OV, NW–NW, database → job runs more than once).
//!
//! The `markFailed` flow of Figure 3 in the paper. When a retryable job
//! fails, `update()` writes state `failed` to Redis and `delayed()` writes
//! state `delayed` plus enqueues the job for retry. Both are asynchronous;
//! the buggy code launches them concurrently, so the writes can land in
//! either order. If `delayed` lands first, the job ends in state `failed`
//! *and* in the retry queue — it runs again from a terminal state, i.e.
//! more than once.
//!
//! Fix (as upstream): order the calls — invoke `delayed()` from `update()`'s
//! completion callback.

use nodefz_kv::{Kv, KvTiming};
use nodefz_net::{Client, LatencyModel, SimNet};
use nodefz_rt::VDur;

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The KUE reproduction.
pub struct Kue;

impl BugCase for Kue {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "KUE",
            name: "kue",
            bug_ref: "#483",
            race: RaceType::Ov,
            racing_events: "NW-NW",
            race_on: "Database",
            impact: "Job runs more than once",
            fix: "Order async. calls using callbacks",
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
        let kv_out = el.enter(move |cx| {
            // A connection pool, as the real redis clients use: replies on
            // different connections are unordered.
            let kv = Kv::connect_with(
                cx,
                2,
                KvTiming {
                    latency: VDur::millis(1),
                    latency_jitter: 0.45,
                    proc: VDur::micros(200),
                    proc_jitter: 0.4,
                },
            )
            .expect("kv pool");
            kv.set_sync("job:1:state", "active");
            let kv_handler = kv.clone();
            n.listen(cx, 80, move |_cx, conn| {
                let kv = kv_handler.clone();
                conn.on_data(move |cx, _conn, msg| {
                    if msg != b"job-failed" {
                        return;
                    }
                    cx.busy(VDur::micros(150));
                    // markFailed(): the job can be retried.
                    // `update()` and `delayed()` are each a fetch-then-save
                    // chain, as in the real module.
                    let update = {
                        let kv = kv.clone();
                        move |cx: &mut nodefz_rt::Ctx<'_>,
                              then: Box<dyn FnOnce(&mut nodefz_rt::Ctx<'_>)>| {
                            let kv2 = kv.clone();
                            kv.get(cx, "job:1:state", move |cx, _cur| {
                                kv2.set(cx, "job:1:state", "failed", move |cx, ()| {
                                    cx.touch_write("kue:job-state");
                                    then(cx);
                                });
                            });
                        }
                    };
                    let delayed = {
                        let kv = kv.clone();
                        move |cx: &mut nodefz_rt::Ctx<'_>| {
                            let kv2 = kv.clone();
                            kv.get(cx, "job:1:state", move |cx, _cur| {
                                let kv3 = kv2.clone();
                                kv2.set(cx, "job:1:state", "delayed", move |cx, ()| {
                                    cx.touch_write("kue:job-state");
                                    kv3.lpush(cx, "q:delayed", "job:1", |_cx, _| {});
                                });
                            });
                        }
                    };
                    match variant {
                        Variant::Buggy => {
                            // BUGGY (Figure 3, before the patch):
                            // `self.update().delayed()` — the two chains
                            // race.
                            update(cx, Box::new(|_cx| {}));
                            delayed(cx);
                        }
                        Variant::Fixed => {
                            // FIX (Figure 3, after the patch): `delayed()`
                            // runs in `update()`'s completion callback.
                            update(cx, Box::new(move |cx| delayed(cx)));
                        }
                    }
                });
            })
            .expect("listen");
            Chatter::spawn(cx, &n, 81, 4, 10, VDur::micros(600), VDur::micros(90));
            crate::common::heartbeat(cx, VDur::micros(800), VDur::millis(12));
            kv
        });
        el.enter(|cx| {
            let worker = Client::connect(cx, &net, 80);
            worker.send(cx, b"job-failed");
            worker.close_after(cx, VDur::millis(12));
            net.close_all_listeners_after(cx, VDur::millis(25));
        });
        let report = el.run();
        let state = kv_out.get_sync("job:1:state");
        let queued = kv_out.list_len_sync("q:delayed");
        // The job must end in state `delayed`; ending `failed` while queued
        // for retry means it will be run again from a terminal state.
        let manifested = state.as_deref() != Some("delayed") && queued > 0;
        Outcome {
            manifested,
            detail: format!("final state {state:?}, {queued} retry queue entr(ies)"),
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_case;
    use nodefz::Mode;

    #[test]
    fn kue_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&Kue, 20);
    }

    #[test]
    fn kue_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&Kue, 60);
    }

    #[test]
    fn kue_manifests_even_under_vanilla() {
        // §5.1.1: "The bugs in KUE and RST manifest frequently even using
        // nodeV" — this ordering violation needs no fuzzer at all.
        let mut hits = 0;
        for seed in 0..60 {
            if Kue
                .run(
                    &RunCfg::new(Mode::Vanilla, seed),
                    crate::common::Variant::Buggy,
                )
                .manifested
            {
                hits += 1;
            }
        }
        assert!(hits >= 3, "expected nonzero vanilla rate, got {hits}/60");
    }

    #[test]
    fn kue_is_an_ordering_violation() {
        assert_eq!(Kue.info().race, RaceType::Ov);
    }
}
