//! WPT — webpack-tapable issue #243 (AV, X–X, variable → error).
//!
//! A plugin framework runs each request through an asynchronous waterfall
//! of plugin steps. The buggy code tracks the remaining step count in a
//! variable *shared by all requests*; when two requests' waterfalls
//! interleave, the counter is corrupted and the framework throws. The
//! racing events are "application-dependent asynchronous steps" (the
//! paper's X–X): immediates and worker-pool hops.
//!
//! Fix (as upstream): keep the counter per request (per callback chain).

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_net::{Client, LatencyModel, SimNet};
use nodefz_rt::{Ctx, VDur};

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The WPT reproduction.
pub struct Wpt;

const STEPS: u32 = 3;

type DoneFn = Rc<dyn Fn(&mut Ctx<'_>, bool)>;

/// Runs one waterfall step asynchronously, then continues.
fn run_step(cx: &mut Ctx<'_>, step: u32, counter: Rc<RefCell<i64>>, done: DoneFn) {
    // Alternate the async hop kind: check-phase immediates and worker-pool
    // tasks, like a real plugin mix.
    let cont = move |cx: &mut Ctx<'_>| {
        cx.busy(VDur::micros(80));
        let mut c = counter.borrow_mut();
        *c -= 1;
        let remaining = *c;
        drop(c);
        if remaining < 0 {
            // The framework's internal invariant broke: throw.
            done(cx, false);
        } else if remaining == 0 {
            done(cx, true);
        } else {
            run_step(cx, step + 1, counter, done);
        }
    };
    if step.is_multiple_of(2) {
        cx.set_immediate(cont);
    } else {
        let _ = cx.submit_work(VDur::micros(150), |_| (), move |cx, ()| cont(cx));
    }
}

impl BugCase for Wpt {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "WPT",
            name: "webpack-tapable",
            bug_ref: "#243",
            race: RaceType::Av,
            racing_events: "X-X",
            race_on: "Variable",
            impact: "Throws error (possible crash)",
            fix: "Counter per request (callback chain)",
            in_fig6: false, // Excluded in §5.1.1 (CoffeeScript upstream test).
            novel: false,
        }
    }

    fn run(&self, cfg: &RunCfg, variant: Variant) -> Outcome {
        let mut el = cfg.build_loop();
        let net = SimNet::with_latency(LatencyModel {
            base: VDur::millis(2),
            jitter: 0.05,
        });
        // The shared (racy) counter used by the buggy variant.
        let shared: Rc<RefCell<i64>> = Rc::new(RefCell::new(0));
        let n = net.clone();
        let sh = shared.clone();
        el.enter(move |cx| {
            n.listen(cx, 80, move |_cx, conn| {
                let shared = sh.clone();
                conn.on_data(move |cx, conn, _msg| {
                    cx.busy(VDur::micros(150));
                    let counter = match variant {
                        Variant::Buggy => {
                            // BUGGY: (re-)arm the shared counter.
                            *shared.borrow_mut() = STEPS as i64;
                            shared.clone()
                        }
                        // FIX: one counter per callback chain.
                        Variant::Fixed => Rc::new(RefCell::new(STEPS as i64)),
                    };
                    let me = conn.clone();
                    let done: DoneFn = Rc::new(move |cx: &mut Ctx<'_>, ok: bool| {
                        if ok {
                            let _ = me.write(cx, b"built");
                        } else {
                            cx.report_error(
                                "waterfall-corrupt",
                                "plugin waterfall counter went negative",
                            );
                        }
                    });
                    run_step(cx, 0, counter, done);
                });
            })
            .expect("listen");
            Chatter::spawn(cx, &n, 81, 4, 10, VDur::micros(600), VDur::micros(90));
            crate::common::heartbeat(cx, VDur::micros(800), VDur::millis(12));
        });
        el.enter(|cx| {
            let a = Client::connect(cx, &net, 80);
            a.send(cx, b"build");
            a.close_after(cx, VDur::millis(14));
            // The second build normally starts after the first waterfall
            // has drained.
            let b = Client::connect(cx, &net, 80);
            b.send_after(cx, VDur::micros(2_600), b"build");
            b.close_after(cx, VDur::millis(14));
            net.close_all_listeners_after(cx, VDur::millis(28));
        });
        let report = el.run();
        let manifested = report.has_error("waterfall-corrupt");
        Outcome {
            manifested,
            detail: if manifested {
                "interleaved waterfalls corrupted the shared step counter".into()
            } else {
                "waterfalls did not interleave".into()
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
    fn wpt_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&Wpt, 20);
    }

    #[test]
    fn wpt_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&Wpt, 60);
    }

    #[test]
    fn wpt_vanilla_rarely_manifests() {
        check_case::vanilla_rarely_manifests(&Wpt, 40, 2);
    }

    #[test]
    fn wpt_races_async_steps() {
        assert_eq!(Wpt.info().racing_events, "X-X");
        assert!(!Wpt.info().in_fig6);
    }
}
