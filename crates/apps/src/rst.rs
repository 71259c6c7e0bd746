//! RST — restify issue #847 ((C)OV, FS–X, array → missing data).
//!
//! A response assembler launches one asynchronous `fs.read` per chunk,
//! each callback writing its slot of a shared buffer. The buggy code
//! responds when the *last-submitted* read completes (the
//! `isLast = i == N-1` anti-pattern): a commutative ordering violation.
//! Reads complete in any order, so the response can ship with empty slots.
//!
//! Fix (as upstream, second attempt): an asynchronous barrier that fires
//! only when *all* reads have completed.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_fs::SimFs;
use nodefz_net::{Client, LatencyModel, SimNet};
use nodefz_rt::{Barrier, VDur};

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The RST reproduction.
pub struct Rst;

const CHUNKS: usize = 4;

impl BugCase for Rst {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "RST",
            name: "restify",
            bug_ref: "#847",
            race: RaceType::Cov,
            racing_events: "FS-X",
            race_on: "Array",
            impact: "Incorrect response (missing data)",
            fix: "Use an \"async barrier\"",
            in_fig6: false, // §5.1.1: manifests frequently even on nodeV.
            novel: false,
        }
    }

    fn run(&self, cfg: &RunCfg, variant: Variant) -> Outcome {
        let mut el = cfg.build_loop();
        let net = SimNet::with_latency(LatencyModel {
            base: VDur::millis(2),
            jitter: 0.05,
        });
        let fs = SimFs::new();
        fs.mkdir_sync("static").expect("setup");
        let responses: Rc<RefCell<Vec<Vec<String>>>> = Rc::new(RefCell::new(Vec::new()));
        let n = net.clone();
        let fs_srv = fs.clone();
        let resp = responses.clone();
        el.enter(move |cx| {
            // Chunk files of very different sizes: completion order is not
            // submission order.
            for i in 0..CHUNKS {
                let body = vec![b'a' + i as u8; 64 * (CHUNKS - i)];
                fs_srv
                    .write_sync(&format!("static/chunk{i}"), body)
                    .expect("setup");
            }
            let fs2 = fs_srv.clone();
            let resp = resp.clone();
            n.listen(cx, 80, move |_cx, conn| {
                let fs = fs2.clone();
                let resp = resp.clone();
                conn.on_data(move |cx, conn, _msg| {
                    cx.busy(VDur::micros(150));
                    // One shared buffer of slots for this response.
                    let buffer: Rc<RefCell<Vec<String>>> =
                        Rc::new(RefCell::new(vec![String::new(); CHUNKS]));
                    let respond = {
                        let buffer = buffer.clone();
                        let resp = resp.clone();
                        let me = conn.clone();
                        move |cx: &mut nodefz_rt::Ctx<'_>| {
                            let snapshot = buffer.borrow().clone();
                            resp.borrow_mut().push(snapshot.clone());
                            let _ = me.write(cx, snapshot.join(",").into_bytes());
                        }
                    };
                    match variant {
                        Variant::Buggy => {
                            let respond = Rc::new(respond);
                            for i in 0..CHUNKS {
                                let buffer = buffer.clone();
                                let respond = respond.clone();
                                let is_last = i == CHUNKS - 1;
                                fs.read_file(cx, &format!("static/chunk{i}"), move |cx, r| {
                                    if let Ok(data) = r {
                                        buffer.borrow_mut()[i] = format!("chunk{i}:{}", data.len());
                                    }
                                    // BUGGY: the last *submitted* read
                                    // is treated as the last completed.
                                    if is_last {
                                        respond(cx);
                                    }
                                });
                            }
                        }
                        Variant::Fixed => {
                            let mut respond = Some(respond);
                            let barrier = Barrier::new(CHUNKS, move |cx| {
                                if let Some(r) = respond.take() {
                                    r(cx);
                                }
                            });
                            for i in 0..CHUNKS {
                                let buffer = buffer.clone();
                                let barrier = barrier.clone();
                                fs.read_file(cx, &format!("static/chunk{i}"), move |cx, r| {
                                    if let Ok(data) = r {
                                        buffer.borrow_mut()[i] = format!("chunk{i}:{}", data.len());
                                    }
                                    barrier.arrive(cx);
                                });
                            }
                        }
                    }
                });
            })
            .expect("listen");
            Chatter::spawn(cx, &n, 81, 2, 6, VDur::micros(800), VDur::micros(80));
        });
        el.enter(|cx| {
            let c = Client::connect(cx, &net, 80);
            c.send(cx, b"GET /bundle");
            c.close_after(cx, VDur::millis(14));
            net.close_all_listeners_after(cx, VDur::millis(25));
        });
        let report = el.run();
        let responses = responses.borrow();
        let incomplete = responses
            .iter()
            .filter(|slots| slots.iter().any(String::is_empty))
            .count();
        let manifested = incomplete > 0;
        Outcome {
            manifested,
            detail: format!(
                "{incomplete}/{} response(s) shipped with missing chunks",
                responses.len()
            ),
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
    fn rst_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&Rst, 20);
    }

    #[test]
    fn rst_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&Rst, 60);
    }

    #[test]
    fn rst_manifests_even_under_vanilla() {
        // §5.1.1: RST manifests frequently even using nodeV (which is why
        // the paper excludes it from Figure 6).
        let mut hits = 0;
        for seed in 0..40 {
            if Rst
                .run(
                    &RunCfg::new(Mode::Vanilla, seed),
                    crate::common::Variant::Buggy,
                )
                .manifested
            {
                hits += 1;
            }
        }
        assert!(hits >= 3, "expected a frequent vanilla rate, got {hits}/40");
    }

    #[test]
    fn rst_is_a_cov() {
        assert_eq!(Rst.info().race, RaceType::Cov);
        assert!(!Rst.info().in_fig6);
    }
}
