//! AKA — agentkeepalive issue #23 (AV, NW–Timer, variable → error).
//!
//! A keep-alive HTTP agent returns idle sockets to a free list when their
//! keep-alive timer fires ('timeout' event), and invalidates them when the
//! server actually tears them down ('close' event). The two events are
//! unordered: a request that grabs a socket in the window between 'timeout'
//! and 'close' uses a dead socket and an error is thrown. This is the bug
//! whose reporter wrote the quote that inspired Node.fz: *"I don't know how
//! to artificially expand the delay between the 'timeout' and 'close'
//! events"* (§2.3).
//!
//! Fix (as upstream): handle the state transition in the same callback —
//! validate the socket when taking it from the free list.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use nodefz_net::{Client, LatencyModel, SimNet};
use nodefz_rt::{Ctx, VDur};

use crate::common::{BugCase, BugInfo, Chatter, Outcome, RaceType, RunCfg, Variant};

/// The AKA reproduction.
pub struct Aka;

/// Ground-truth socket state, as the kernel would see it.
#[derive(Default)]
struct AgentState {
    /// Socket id → still actually open.
    open: HashMap<u32, bool>,
    /// Free list of sockets believed reusable.
    free: Vec<u32>,
    /// Errors observed when a dead socket was used.
    used_dead: u32,
}

impl AgentState {
    fn take_socket(&mut self, cx: &mut Ctx<'_>, variant: Variant) -> Option<u32> {
        cx.touch_read("aka:agent-state");
        cx.touch_write("aka:agent-state");
        while let Some(id) = self.free.pop() {
            let alive = *self.open.get(&id).unwrap_or(&false);
            match variant {
                Variant::Buggy => {
                    // BUGGY: trust the free list.
                    if !alive {
                        self.used_dead += 1;
                        cx.report_error(
                            "socket-hang-up",
                            format!("request reused socket {id} after close"),
                        );
                        return None;
                    }
                    return Some(id);
                }
                Variant::Fixed => {
                    // FIX: validate in the same callback that takes it.
                    if alive {
                        return Some(id);
                    }
                    // Dead socket: drop it and keep looking.
                }
            }
        }
        None
    }
}

impl BugCase for Aka {
    fn info(&self) -> BugInfo {
        BugInfo {
            abbr: "AKA",
            name: "agentkeepalive",
            bug_ref: "#23",
            race: RaceType::Av,
            racing_events: "NW-Timer",
            race_on: "Variable",
            impact: "Throws error (possible crash)",
            fix: "Rd/wr in same callback",
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
        let agent = Rc::new(RefCell::new(AgentState::default()));
        let n = net.clone();
        let a = agent.clone();
        el.enter(move |cx| {
            // A previous request finished on socket 7; it is kept alive.
            cx.touch_write("aka:agent-state");
            a.borrow_mut().open.insert(7, true);
            // The keep-alive 'timeout' timer returns it to the free list.
            let a_timer = a.clone();
            cx.set_timeout(VDur::millis(4), move |cx| {
                cx.busy(VDur::micros(50));
                cx.touch_write("aka:agent-state");
                a_timer.borrow_mut().free.push(7);
            });
            // The server's FIN arrives right after the keep-alive window:
            // the kernel-level teardown is immediate, the application-level
            // 'close' handling (which scrubs the free list) runs in the
            // loop's close phase.
            let a_net = a.clone();
            cx.schedule_env_at(nodefz_rt::VTime::ZERO + VDur::micros(5_400), move |cx| {
                cx.touch_write("aka:agent-state");
                a_net.borrow_mut().open.insert(7, false);
                let a2 = a_net.clone();
                cx.enqueue_close(move |cx| {
                    cx.touch_write("aka:agent-state");
                    a2.borrow_mut().free.retain(|&s| s != 7);
                });
            });
            // A new request arrives in between and wants a pooled socket.
            let a_req = a.clone();
            n.listen(cx, 80, move |cx, _conn| {
                cx.busy(VDur::micros(150));
                let _ = a_req.borrow_mut().take_socket(cx, variant);
            })
            .expect("listen");
            Chatter::spawn(cx, &n, 81, 4, 10, VDur::micros(600), VDur::micros(90));
        });
        el.enter(|cx| {
            // The request lands well after both the keep-alive timeout and
            // the FIN have normally been processed (in that order, which
            // leaves the free list empty). A deferred 'timeout' timer
            // re-adds the socket AFTER the close scrub — a stale entry the
            // request then trips over.
            let c = Client::connect_after(cx, &net, 80, VDur::micros(8_500));
            c.close_after(cx, VDur::millis(12));
            net.close_all_listeners_after(cx, VDur::millis(25));
        });
        let report = el.run();
        let dead_uses = agent.borrow().used_dead;
        let manifested = dead_uses > 0;
        Outcome {
            manifested,
            detail: format!("{dead_uses} request(s) threw on a dead keep-alive socket"),
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_case;

    #[test]
    fn aka_fixed_never_manifests_under_fuzz() {
        check_case::fixed_never_manifests(&Aka, 20);
    }

    #[test]
    fn aka_buggy_manifests_under_fuzz() {
        check_case::buggy_manifests_under_fuzz(&Aka, 60);
    }

    #[test]
    fn aka_vanilla_rarely_manifests() {
        check_case::vanilla_rarely_manifests(&Aka, 40, 2);
    }

    #[test]
    fn aka_is_the_motivating_bug() {
        let info = Aka.info();
        assert_eq!(info.bug_ref, "#23");
        assert_eq!(info.fix, "Rd/wr in same callback");
    }
}
