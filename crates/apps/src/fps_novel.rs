//! FPS (novel) — fiware-pep-steelskin PR #339 ((C)OV, NW–NW, variable).
//!
//! The novel commutative ordering violation the paper's authors found in
//! the FPS *test case* while studying the FPS AV (§3.2.2): the test fires
//! several asynchronous operations and asserts its expectations when the
//! last-*submitted* one completes — the same `isLast` anti-pattern as MGS
//! — so the assertion can run before all operations have finished and the
//! test "fails in the wrong place".
//!
//! Fix (as the authors' accepted pull request): a global completion
//! counter.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_fs::SimFs;
use nodefz_kv::{Kv, KvTiming};
use nodefz_net::{LatencyModel, SimNet};
use nodefz_rt::VDur;

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The novel FPS reproduction.
pub struct FpsNovel;

impl BugCase for FpsNovel {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "FPS*",
            name: "fiware-pep-steelskin (novel)",
            bug_ref: "PR #339",
            race: RaceType::Cov,
            racing_events: "NW-NW",
            race_on: "Variable",
            impact: "Test case fails in wrong place",
            fix: "Global counter",
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
        let fs = SimFs::new();
        fs.write_sync("fixture.json", b"{}".to_vec())
            .expect("setup");
        // (completed when the assertion ran, expected).
        let assert_seen: Rc<RefCell<Option<usize>>> = Rc::new(RefCell::new(None));
        let n = net.clone();
        let seen = assert_seen.clone();
        let fs2 = fs.clone();
        el.enter(move |cx| {
            let kv = Kv::connect_with(
                cx,
                3,
                KvTiming {
                    latency: VDur::millis(1),
                    latency_jitter: 0.12,
                    proc: VDur::micros(200),
                    proc_jitter: 0.12,
                },
            )
            .expect("kv pool");
            kv.set_sync("rule:1", "allow");
            kv.set_sync("rule:2", "deny");
            Chatter::spawn(cx, &n, 81, 4, 10, VDur::micros(600), VDur::micros(90));
            crate::common::heartbeat(cx, VDur::micros(800), VDur::millis(12));
            // --- The test body: three async setup operations, assertion
            // on completion.
            let completed: Rc<RefCell<usize>> = Rc::new(RefCell::new(0));
            let remaining: Rc<RefCell<usize>> = Rc::new(RefCell::new(3));
            let run_assert = {
                let completed = completed.clone();
                let seen = seen.clone();
                Rc::new(move |_cx: &mut nodefz_rt::Ctx<'_>| {
                    *seen.borrow_mut() = Some(*completed.borrow());
                })
            };
            let finish = {
                let completed = completed.clone();
                let remaining = remaining.clone();
                let run_assert = run_assert.clone();
                Rc::new(move |cx: &mut nodefz_rt::Ctx<'_>, is_last: bool| {
                    cx.touch_update("fps*:completed");
                    *completed.borrow_mut() += 1;
                    match variant {
                        Variant::Buggy => {
                            // BUGGY: assert when the last-submitted
                            // operation completes.
                            if is_last {
                                run_assert(cx);
                            }
                        }
                        Variant::Fixed => {
                            // FIX (the authors' patch): a global
                            // counter.
                            let mut r = remaining.borrow_mut();
                            *r -= 1;
                            if *r == 0 {
                                drop(r);
                                run_assert(cx);
                            }
                        }
                    }
                })
            };
            // Operation 1: load a fixture from disk.
            let f1 = finish.clone();
            fs2.read_file(cx, "fixture.json", move |cx, _r| f1(cx, false));
            // Operation 2: fetch a policy rule.
            let f2 = finish.clone();
            kv.get(cx, "rule:1", move |cx, _r| f2(cx, false));
            // Operation 3 (submitted last): fetch another rule.
            let f3 = finish.clone();
            kv.get(cx, "rule:2", move |cx, _r| f3(cx, true));
        });
        el.enter(|cx| net.close_all_listeners_after(cx, VDur::millis(24)));
        let report = el.run();
        let seen = *assert_seen.borrow();
        let manifested = matches!(seen, Some(n) if n < 3);
        Outcome {
            manifested,
            detail: match seen {
                Some(n) if n < 3 => {
                    format!("assertion ran with only {n}/3 operations complete")
                }
                Some(_) => "assertion ran after all operations".into(),
                None => "assertion never ran".into(),
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
    fn fps_novel_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&FpsNovel, 20);
    }

    #[test]
    fn fps_novel_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&FpsNovel, 60);
    }

    #[test]
    fn fps_novel_vanilla_rarely_manifests() {
        check_case::vanilla_rarely_manifests(&FpsNovel, 40, 4);
    }

    #[test]
    fn fps_novel_is_the_authors_pr() {
        assert_eq!(FpsNovel.info().bug_ref, "PR #339");
    }
}
