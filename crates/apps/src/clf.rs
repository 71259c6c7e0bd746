//! CLF — cinovo-logger-file issue #1 (AV, FS–Call, variable → duplicate
//! file).
//!
//! A rolling-file logger lazily creates its output file on the first write:
//! it checks a `current_file` variable, and if unset, asynchronously
//! creates a file, setting the variable in the completion callback. A
//! second `log()` call arriving before the creation completes repeats the
//! check, sees the variable still unset, and creates a *duplicate* file.
//! The racing events are a file-system completion and a plain API call.
//!
//! Fix (as upstream): read and write the guard variable in the same
//! callback — claim `current_file` synchronously before the async create.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_fs::SimFs;
use nodefz_net::{Client, LatencyModel, SimNet};
use nodefz_rt::{Ctx, VDur};

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The CLF reproduction.
pub struct Clf;

struct Logger {
    fs: SimFs,
    current: Rc<RefCell<Option<String>>>,
    seq: Rc<RefCell<u32>>,
    variant: Variant,
}

impl Logger {
    fn log(&self, cx: &mut Ctx<'_>, msg: &str) {
        cx.touch_read("clf:current-file");
        let current = self.current.borrow().clone();
        match current {
            Some(file) => {
                self.fs
                    .append(cx, &file, format!("{msg}\n").into_bytes(), |_cx, r| {
                        let _ = r;
                    });
            }
            None => {
                let mut seq = self.seq.borrow_mut();
                let name = format!("logs/out-{}.log", *seq);
                *seq += 1;
                drop(seq);
                match self.variant {
                    Variant::Buggy => {
                        // BUGGY: `current` is only set once the async
                        // create completes; a second log() call in the gap
                        // re-runs this branch.
                        let current = self.current.clone();
                        let line = format!("{msg}\n").into_bytes();
                        let name2 = name.clone();
                        self.fs.write_file(cx, &name, line, move |cx, r| {
                            if r.is_ok() {
                                cx.touch_write("clf:current-file");
                                *current.borrow_mut() = Some(name2);
                            }
                        });
                    }
                    Variant::Fixed => {
                        // FIX: read and write in the same callback — claim
                        // the slot before going async.
                        *self.current.borrow_mut() = Some(name.clone());
                        let line = format!("{msg}\n").into_bytes();
                        self.fs.write_file(cx, &name, line, |_cx, r| {
                            let _ = r;
                        });
                    }
                }
            }
        }
    }
}

impl BugCase for Clf {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "CLF",
            name: "cinovo-logger-file",
            bug_ref: "#1",
            race: RaceType::Av,
            racing_events: "FS-Call",
            race_on: "Variable",
            impact: "Creates a duplicate file",
            fix: "Rd/wr in the same callback",
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
        let fs = SimFs::with_costs(nodefz_fs::FsCosts {
            write: VDur::micros(350),
            ..nodefz_fs::FsCosts::default()
        });
        fs.mkdir_sync("logs").expect("setup");
        let logger = Rc::new(Logger {
            fs: fs.clone(),
            current: Rc::new(RefCell::new(None)),
            seq: Rc::new(RefCell::new(0)),
            variant,
        });
        let n = net.clone();
        el.enter(move |cx| {
            let logger = logger.clone();
            n.listen(cx, 80, move |_cx, conn| {
                let logger = logger.clone();
                conn.on_data(move |cx, _conn, msg| {
                    cx.busy(VDur::micros(250));
                    logger.log(cx, &String::from_utf8_lossy(msg));
                });
            })
            .expect("listen");
            // Light background traffic only: this race is between an API
            // call and a pool completion, so the fuzz levers are the
            // serialized pool and done-event shuffling, not long windows.
            Chatter::spawn(cx, &n, 81, 1, 4, VDur::millis(2), VDur::micros(80));
            crate::common::heartbeat(cx, VDur::micros(800), VDur::millis(10));
        });
        el.enter(|cx| {
            // Two requests log in quick succession; in a calm schedule the
            // first create completes before the second log() call.
            let a = Client::connect(cx, &net, 80);
            a.send(cx, b"request A");
            a.close_after(cx, VDur::millis(12));
            let b = Client::connect(cx, &net, 80);
            b.send_after(cx, VDur::micros(1_400), b"request B");
            b.close_after(cx, VDur::millis(12));
            net.close_all_listeners_after(cx, VDur::millis(25));
        });
        let report = el.run();
        let files = fs.readdir_sync("logs").unwrap_or_default();
        let manifested = files.len() > 1;
        Outcome {
            manifested,
            detail: format!("log files created: {files:?}"),
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_case;

    #[test]
    fn clf_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&Clf, 20);
    }

    #[test]
    fn clf_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&Clf, 60);
    }

    #[test]
    fn clf_vanilla_rarely_manifests() {
        check_case::vanilla_rarely_manifests(&Clf, 40, 6);
    }

    #[test]
    fn clf_races_fs_against_call() {
        assert_eq!(Clf.info().racing_events, "FS-Call");
    }
}
