//! KUE (novel) — kue issue #967 (AV → lock-wait timeout).
//!
//! The novel bug Node.fz found in the kue test suite (§5.2.2): a test case
//! times out because a Redis lock cannot be acquired, suggesting a
//! deadlock. The paper could not pin the root cause ("Unknown" in
//! Table 2); we reproduce the *symptom* with one plausible mechanism: a
//! worker's lock release is guarded by a shared `active_job` flag that a
//! concurrently-arriving pause event clears, so an adversarial
//! interleaving skips the release and the lock is held forever.
//!
//! Fixed variant: the completion callback releases the lock it holds
//! unconditionally.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_kv::{Kv, KvTiming};
use nodefz_net::{Client, LatencyModel, SimNet};
use nodefz_rt::VDur;

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The novel KUE reproduction.
pub struct KueNovel;

impl BugCase for KueNovel {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "KUE*",
            name: "kue (novel)",
            bug_ref: "#967",
            race: RaceType::Av,
            racing_events: "Unknown",
            race_on: "Unknown",
            impact: "Tests fail because lock is taken",
            fix: "Unknown (modelled: release in completion callback)",
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
        let active_job: Rc<RefCell<Option<u32>>> = Rc::new(RefCell::new(None));
        let n = net.clone();
        let active = active_job.clone();
        el.enter(move |cx| {
            let kv = Kv::connect_with(
                cx,
                2,
                KvTiming {
                    latency: VDur::micros(500),
                    latency_jitter: 0.1,
                    proc: VDur::micros(150),
                    proc_jitter: 0.1,
                },
            )
            .expect("kv pool");
            let kv_handler = kv.clone();
            let active = active.clone();
            n.listen(cx, 80, move |_cx, conn| {
                let kv = kv_handler.clone();
                let active = active.clone();
                conn.on_data(move |cx, _conn, msg| {
                    cx.busy(VDur::micros(150));
                    match msg {
                        b"run-job" => {
                            let kv2 = kv.clone();
                            let active = active.clone();
                            kv.setnx(cx, "lock:q", "worker-1", move |cx, won| {
                                if !won {
                                    return;
                                }
                                cx.touch_write("kue*:active-job");
                                *active.borrow_mut() = Some(1);
                                let kv3 = kv2.clone();
                                let active2 = active.clone();
                                // Process the job on the worker pool.
                                let _ = cx.submit_work(
                                    VDur::millis(2),
                                    |_| (),
                                    move |cx, ()| match variant {
                                        Variant::Buggy => {
                                            // BUGGY: only release if the
                                            // shared flag says a job is
                                            // still active.
                                            cx.touch_read("kue*:active-job");
                                            cx.touch_write("kue*:active-job");
                                            if active2.borrow_mut().take().is_some() {
                                                kv3.del(cx, "lock:q", |_cx, _| {});
                                            }
                                        }
                                        Variant::Fixed => {
                                            // FIX: this chain acquired the
                                            // lock; release it regardless.
                                            active2.borrow_mut().take();
                                            kv3.del(cx, "lock:q", |_cx, _| {});
                                        }
                                    },
                                );
                            });
                        }
                        b"pause" => {
                            // The pause handler assumes any active job has
                            // already finished and clears the flag.
                            cx.touch_write("kue*:active-job");
                            active.borrow_mut().take();
                        }
                        _ => {}
                    }
                });
            })
            .expect("listen");
            Chatter::spawn(cx, &n, 81, 4, 10, VDur::micros(600), VDur::micros(90));
            crate::common::heartbeat(cx, VDur::micros(800), VDur::millis(12));
            // --- The next test case: poll for the lock, time out if it is
            // still held.
            let kv_probe = kv.clone();
            cx.set_timeout(VDur::millis(9), move |cx| {
                let mut attempts = 0;
                fn try_acquire(cx: &mut nodefz_rt::Ctx<'_>, kv: Kv, attempts: &mut u32) {
                    let n = *attempts;
                    let mut n2 = n;
                    let kv2 = kv.clone();
                    kv.setnx(cx, "lock:q", "worker-2", move |cx, won| {
                        if won {
                            kv2.del(cx, "lock:q", |_cx, _| {});
                            return;
                        }
                        n2 += 1;
                        if n2 >= 5 {
                            cx.report_error(
                                "lock-timeout",
                                "test timed out waiting for the queue lock",
                            );
                            return;
                        }
                        let kv3 = kv2.clone();
                        cx.set_timeout(VDur::millis(2), move |cx| {
                            let mut a = n2;
                            try_acquire(cx, kv3, &mut a);
                        });
                    });
                }
                try_acquire(cx, kv_probe, &mut attempts);
            });
        });
        el.enter(|cx| {
            let worker = Client::connect(cx, &net, 80);
            worker.send(cx, b"run-job");
            // The pause normally arrives after the job completed and the
            // lock was released.
            worker.send_after(cx, VDur::micros(5_800), b"pause");
            worker.close_after(cx, VDur::millis(22));
            net.close_all_listeners_after(cx, VDur::millis(30));
        });
        let report = el.run();
        let manifested = report.has_error("lock-timeout");
        Outcome {
            manifested,
            detail: if manifested {
                "lock never released: next test timed out acquiring it".into()
            } else {
                "lock released and reacquired normally".into()
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
    fn kue_novel_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&KueNovel, 20);
    }

    #[test]
    fn kue_novel_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&KueNovel, 60);
    }

    #[test]
    fn kue_novel_vanilla_rarely_manifests() {
        check_case::vanilla_rarely_manifests(&KueNovel, 40, 2);
    }

    #[test]
    fn kue_novel_cause_is_unknown_upstream() {
        assert_eq!(KueNovel.info().racing_events, "Unknown");
    }
}
