//! GHO′ — ghost issue #1834 (AV, NW–NW, database → too many accounts).
//!
//! Registering a username asynchronously checks whether the name exists in
//! the database and asynchronously inserts it if not. Two interleaved
//! registrations can both observe "absent" and both insert — a classic
//! check-then-act atomicity violation on *database state*, invisible to
//! memory-only race detectors (§3.3.2).
//!
//! As in the paper (§5.1.1), the upstream bug could not be triggered
//! externally, so this is the standalone GHO′ replica of the racy code.
//! The upstream "fix" deprecated the endpoint; our fixed variant models the
//! equivalent safe behaviour by funnelling check-and-insert into a single
//! atomic server-side operation (`SETNX`).

use nodefz_kv::{Kv, KvTiming};
use nodefz_net::{Client, LatencyModel, SimNet};
use nodefz_rt::VDur;

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The GHO′ reproduction.
pub struct Gho;

impl BugCase for Gho {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "GHO",
            name: "ghost (GHO')",
            bug_ref: "#1834",
            race: RaceType::Av,
            racing_events: "NW-NW",
            race_on: "Database",
            impact: "Creates too many user accounts",
            fix: "Deprecate functionality (modelled: atomic check-and-insert)",
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
            let kv_handler = kv.clone();
            n.listen(cx, 80, move |cx, conn| {
                let kv = kv_handler.clone();
                cx.busy(VDur::micros(200));
                conn.on_data(move |cx, conn, msg| {
                    let Some(name) = msg.strip_prefix(b"signup:") else {
                        return;
                    };
                    let name = String::from_utf8_lossy(name).to_string();
                    cx.busy(VDur::micros(250));
                    let kv = kv.clone();
                    match variant {
                        Variant::Buggy => {
                            // Async check...
                            let key = format!("user:{name}");
                            let key_inner = key.clone();
                            let kv2 = kv.clone();
                            let who = conn.id();
                            kv.get(cx, &key, move |cx, existing| {
                                cx.touch_read("gho:user-row");
                                if existing.is_none() {
                                    cx.busy(VDur::micros(150));
                                    // ...then async insert: the gap is the
                                    // atomicity violation.
                                    let kv3 = kv2.clone();
                                    kv2.set(cx, &key_inner, "profile", move |cx, ()| {
                                        // One row per successful insert.
                                        cx.touch_write("gho:user-row");
                                        kv3.set(
                                            cx,
                                            &format!("acct:{name}:{who:?}"),
                                            "row",
                                            |_cx, ()| {},
                                        );
                                    });
                                }
                            });
                        }
                        Variant::Fixed => {
                            // Atomic server-side check-and-insert.
                            let key = format!("user:{name}");
                            let kv2 = kv.clone();
                            let who = conn.id();
                            kv.setnx(cx, &key, "profile", move |cx, created| {
                                if created {
                                    kv2.set(
                                        cx,
                                        &format!("acct:{name}:{who:?}"),
                                        "row",
                                        |_cx, ()| {},
                                    );
                                }
                            });
                        }
                    }
                });
            })
            .expect("listen");
            Chatter::spawn(cx, &n, 81, 4, 10, VDur::micros(600), VDur::micros(90));
            crate::common::heartbeat(cx, VDur::micros(800), VDur::millis(15));
            kv
        });
        el.enter(|cx| {
            let first = Client::connect(cx, &net, 80);
            first.send(cx, b"signup:alice");
            first.close_after(cx, VDur::millis(14));
            // The second registration normally arrives after the first
            // one's insert has been applied.
            let second = Client::connect(cx, &net, 80);
            second.send_after(cx, VDur::micros(3_800), b"signup:alice");
            second.close_after(cx, VDur::millis(14));
            net.close_all_listeners_after(cx, VDur::millis(30));
        });
        let report = el.run();
        let rows = kv_out.count_prefix_sync("acct:alice");
        let manifested = rows > 1;
        Outcome {
            manifested,
            detail: format!("{rows} account row(s) for username 'alice'"),
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_case;

    #[test]
    fn gho_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&Gho, 20);
    }

    #[test]
    fn gho_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&Gho, 60);
    }

    #[test]
    fn gho_vanilla_rarely_manifests() {
        check_case::vanilla_rarely_manifests(&Gho, 40, 4);
    }

    #[test]
    fn gho_is_a_database_race() {
        let info = Gho.info();
        assert_eq!(info.race_on, "Database");
        assert!(info.in_fig6);
    }
}
