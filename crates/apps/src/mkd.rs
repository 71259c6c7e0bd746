//! MKD — mkdirp issue #2 (AV, FS–FS, file system → incorrect response).
//!
//! `mkdirp(path)` works like `mkdir -p`: create the directory and any
//! missing parents. The buggy version treats `EEXIST` anywhere in the
//! recursion as "the whole path already exists" and reports success. When
//! two `mkdirp` calls sharing a prefix race, one of them hits `EEXIST` on a
//! parent the *other* call just created and returns early — success is
//! reported while the requested leaf directory does not exist. This is a
//! race on file-system state, not on memory (§3.3.2).
//!
//! Fix (as upstream): treat `EEXIST` as success *of that level only* and
//! continue creating the remaining components.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_fs::SimFs;
use nodefz_net::{Client, LatencyModel, SimNet};
use nodefz_rt::{Ctx, Errno, VDur};

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The MKD reproduction.
pub struct Mkd;

fn parent_of(path: &str) -> Option<String> {
    path.rsplit_once('/').map(|(p, _)| p.to_string())
}

/// Continuation for one `mkdirp` level: `Ok(true)` if this call created the
/// directory, `Ok(false)` if it already existed.
type LevelCb = Rc<dyn Fn(&mut Ctx<'_>, Result<bool, Errno>)>;

/// Recursive `mkdir -p`, buggy or fixed in its `EEXIST` handling.
fn mkdirp(cx: &mut Ctx<'_>, fs: SimFs, path: String, variant: Variant, cb: LevelCb) {
    let fs2 = fs.clone();
    let path2 = path.clone();
    fs.mkdir(cx, &path, move |cx, r| match r {
        Ok(()) => {
            cx.touch_write("mkd:fs-tree");
            cb(cx, Ok(true));
        }
        // This level already existed (possibly created concurrently).
        Err(Errno::Eexist) => {
            cx.touch_read("mkd:fs-tree");
            cb(cx, Ok(false));
        }
        Err(Errno::Enoent) => {
            cx.touch_read("mkd:fs-tree");
            // A parent is missing: create it, then retry this level.
            let Some(parent) = parent_of(&path2) else {
                cb(cx, Err(Errno::Enoent));
                return;
            };
            let fs3 = fs2.clone();
            let retry_path = path2.clone();
            let outer_cb = cb.clone();
            let retry: LevelCb = Rc::new(move |cx: &mut Ctx<'_>, r| match r {
                Ok(created) => {
                    if variant == Variant::Buggy && !created {
                        // BUGGY: the parent "already existed" (another
                        // chain created it concurrently), so assume the
                        // whole remaining path exists too — report success
                        // without creating this level.
                        outer_cb(cx, Ok(false));
                        return;
                    }
                    // FIX: the parent exists now, whoever made it; retry
                    // creating this level.
                    let cb2 = outer_cb.clone();
                    fs3.mkdir(cx, &retry_path, move |cx, r| match r {
                        Ok(()) => cb2(cx, Ok(true)),
                        Err(Errno::Eexist) => cb2(cx, Ok(false)),
                        Err(e) => cb2(cx, Err(e)),
                    });
                }
                Err(e) => outer_cb(cx, Err(e)),
            });
            mkdirp(cx, fs2.clone(), parent, variant, retry);
        }
        Err(e) => cb(cx, Err(e)),
    });
}

impl BugCase for Mkd {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "MKD",
            name: "mkdirp",
            bug_ref: "#2",
            race: RaceType::Av,
            racing_events: "FS-FS",
            race_on: "File system",
            impact: "Incorrect response (does not finish mkdir)",
            fix: "Check err code",
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
        let fs = SimFs::new();
        // (path, leaf existed when success was reported).
        let results: Rc<RefCell<Vec<(String, bool)>>> = Rc::new(RefCell::new(Vec::new()));
        let n = net.clone();
        let fs_srv = fs.clone();
        let res = results.clone();
        el.enter(move |cx| {
            let fs_srv = fs_srv.clone();
            let res = res.clone();
            n.listen(cx, 80, move |_cx, conn| {
                let fs = fs_srv.clone();
                let res = res.clone();
                conn.on_data(move |cx, _conn, msg| {
                    let Ok(path) = String::from_utf8(msg.to_vec()) else {
                        return;
                    };
                    cx.busy(VDur::micros(150));
                    let fs2 = fs.clone();
                    let res = res.clone();
                    let check_path = path.clone();
                    let cb: LevelCb = Rc::new(move |_cx: &mut Ctx<'_>, r: Result<bool, Errno>| {
                        if r.is_ok() {
                            // Oracle probe: did mkdirp really finish?
                            res.borrow_mut()
                                .push((check_path.clone(), fs2.exists_sync(&check_path)));
                        }
                    });
                    mkdirp(cx, fs.clone(), path, variant, cb);
                });
            })
            .expect("listen");
            Chatter::spawn(cx, &n, 81, 4, 10, VDur::micros(600), VDur::micros(90));
            crate::common::heartbeat(cx, VDur::micros(800), VDur::millis(12));
        });
        el.enter(|cx| {
            // Two mkdirp calls sharing the "build/cache" prefix; the second
            // normally starts after the first finished its recursion.
            let a = Client::connect(cx, &net, 80);
            a.send(cx, b"build/cache/js");
            a.close_after(cx, VDur::millis(14));
            let b = Client::connect(cx, &net, 80);
            b.send_after(cx, VDur::micros(2_400), b"build/cache/css");
            b.close_after(cx, VDur::millis(14));
            net.close_all_listeners_after(cx, VDur::millis(28));
        });
        let report = el.run();
        let results = results.borrow();
        let premature: Vec<&(String, bool)> =
            results.iter().filter(|(_, existed)| !existed).collect();
        let manifested = !premature.is_empty();
        Outcome {
            manifested,
            detail: if manifested {
                format!(
                    "mkdirp reported success but the directory was missing: {:?}",
                    premature.iter().map(|(p, _)| p).collect::<Vec<_>>()
                )
            } else {
                format!("{} mkdirp call(s) completed correctly", results.len())
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
    fn mkd_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&Mkd, 20);
    }

    #[test]
    fn mkd_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&Mkd, 60);
    }

    #[test]
    fn mkd_vanilla_rarely_manifests() {
        check_case::vanilla_rarely_manifests(&Mkd, 40, 2);
    }

    #[test]
    fn mkd_is_a_file_system_race() {
        assert_eq!(Mkd.info().race_on, "File system");
        assert_eq!(Mkd.info().racing_events, "FS-FS");
    }
}
