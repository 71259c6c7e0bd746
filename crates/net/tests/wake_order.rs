//! Order and provenance of the network's typed environment wakeups.
//!
//! Every connect, send, close, write and datagram is a typed wakeup
//! (`Ctx::wake_env_at`) instead of a boxed closure. These tests pin what
//! the closures guaranteed:
//! - wakeups due at one virtual time fire in the order they were
//!   scheduled, interleaved with any closure effect scheduled among them;
//! - every read the server dispatches is caused by the `Env` event of its
//!   delivery, and that event by the callback that sent the message;
//! - a connection's client-to-server traffic reaches the server in the
//!   order it was sent, not the order it was scheduled, and no message
//!   before its sampled latency has passed.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_net::{Client, LatencyModel, SimNet, UdpSender};
use nodefz_rt::{
    CbId, CbKind, EvKind, EventLog, EventLogHandle, EventLoop, LoopConfig, VDur, VTime,
};

/// The event that made the first access to `site`.
fn toucher(log: &EventLog, site: &str) -> CbId {
    log.accesses
        .iter()
        .find(|a| log.site_name(a.site) == site)
        .map(|a| a.event)
        .unwrap_or_else(|| panic!("nothing touched {site}"))
}

/// The cause of `event`, which must be an `Env` event.
fn env_cause(log: &EventLog, event: CbId) -> CbId {
    let cause = log.events[event.0 as usize]
        .cause
        .unwrap_or_else(|| panic!("event {event:?} has no cause"));
    assert_eq!(
        log.events[cause.0 as usize].kind,
        EvKind::Env,
        "cause of {event:?}"
    );
    cause
}

fn cause_of(log: &EventLog, event: CbId) -> Option<CbId> {
    log.events[event.0 as usize].cause
}

#[test]
fn wakeups_due_together_fire_in_schedule_order() {
    let mut el = EventLoop::new(LoopConfig::seeded(1));
    let events = EventLogHandle::fresh();
    el.set_event_log(&events);
    // No jitter: everything sent in one callback falls due together.
    let net = SimNet::with_latency(LatencyModel {
        base: VDur::millis(1),
        jitter: 0.0,
    });
    let reads = Rc::new(RefCell::new(Vec::new()));
    let closure_ran_at = Rc::new(RefCell::new(None));
    let sent_at = Rc::new(RefCell::new(None));
    let n = net.clone();
    let r = reads.clone();
    let udp = el.enter(move |cx| {
        let record = move |cx: &mut nodefz_rt::Ctx<'_>, msg: &[u8]| {
            let name = String::from_utf8(msg.to_vec()).unwrap();
            cx.touch_read(&name);
            r.borrow_mut().push(name);
        };
        let on_tcp = record.clone();
        n.listen(cx, 80, move |_cx, conn| {
            let on_tcp = on_tcp.clone();
            conn.on_data(move |cx, _conn, msg| on_tcp(cx, msg));
        })
        .unwrap();
        n.bind_udp(cx, 53, move |cx, _from, msg| record(cx, msg))
            .unwrap()
    });
    let (ran, sent) = (closure_ran_at.clone(), sent_at.clone());
    el.enter(|cx| {
        let clients: Vec<Client> = (0..3).map(|_| Client::connect(cx, &net, 80)).collect();
        let sender = UdpSender::new(&net, 9000);
        // Every connection is accepted long before this timer fires.
        cx.set_timeout(VDur::millis(10), move |cx| {
            *sent.borrow_mut() = Some(cx.now());
            clients[0].send(cx, b"a1");
            clients[1].send(cx, b"b1");
            let at = cx.now() + VDur::millis(1);
            // The boxed effect this crate's code may not schedule is the
            // one this test interleaves with the typed wakeups.
            #[allow(clippy::disallowed_methods)]
            cx.schedule_env_at(at, move |cx| {
                cx.touch_write("closure");
                *ran.borrow_mut() = Some(cx.now());
            });
            clients[2].send(cx, b"c1");
            sender.send_after(cx, VDur::ZERO, 53, b"u1");
            sender.send_after(cx, VDur::ZERO, 53, b"u2");
            for c in &clients {
                c.close_after(cx, VDur::millis(5));
            }
        });
        cx.set_timeout(VDur::millis(30), move |cx| udp.close(cx));
        net.close_all_listeners_after(cx, VDur::millis(30));
    });
    el.run();

    let due: VTime = sent_at.borrow().expect("the sending timer ran") + VDur::millis(1);
    assert_eq!(
        *closure_ran_at.borrow(),
        Some(due),
        "the closure's due time"
    );
    assert_eq!(*reads.borrow(), ["a1", "b1", "c1", "u1", "u2"]);
    let log = events.snapshot();
    let envs: Vec<CbId> = ["a1", "b1", "c1", "u1", "u2"]
        .iter()
        .map(|m| env_cause(&log, toucher(&log, m)))
        .collect();
    let closure = toucher(&log, "closure");
    assert_eq!(log.events[closure.0 as usize].kind, EvKind::Env);
    let order = [envs[0], envs[1], closure, envs[2], envs[3], envs[4]];
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "env events out of schedule order: {order:?}"
    );
}

#[test]
fn reads_are_caused_by_the_callback_that_sent_them() {
    let mut el = EventLoop::new(LoopConfig::seeded(2));
    let events = EventLogHandle::fresh();
    el.set_event_log(&events);
    let net = SimNet::new();
    let n = net.clone();
    el.enter(move |cx| {
        n.listen(cx, 80, |_cx, conn| {
            conn.on_data(|cx, conn, msg| {
                let name = String::from_utf8(msg.to_vec()).unwrap();
                cx.touch_read(&format!("read:{name}"));
                let _ = conn.write(cx, b"ack");
            });
        })
        .unwrap();
    });
    el.enter(|cx| {
        let client = Client::connect(cx, &net, 80);
        // The first reply's `Env` event sends a second message, then
        // closes (a close queues behind every earlier send).
        let again = client.clone();
        let mut replied = false;
        client.on_reply(move |cx, _reply| {
            if !replied {
                replied = true;
                cx.touch_write("send:again");
                again.send(cx, b"again");
                again.close_after(cx, VDur::millis(20));
            }
        });
        let first = client.clone();
        cx.set_timeout(VDur::millis(10), move |cx| {
            cx.touch_write("send:first");
            first.send(cx, b"first");
        });
        net.close_all_listeners_after(cx, VDur::millis(50));
    });
    el.run();
    let log = events.snapshot();

    // Timer → Env (delivery) → NetRead.
    let read_first = toucher(&log, "read:first");
    let delivery = env_cause(&log, read_first);
    assert_eq!(cause_of(&log, delivery), Some(toucher(&log, "send:first")));
    // NetRead (write) → Env (reply reaches the client, which sends) → Env
    // (delivery) → NetRead.
    let reply = toucher(&log, "send:again");
    assert_eq!(log.events[reply.0 as usize].kind, EvKind::Env);
    assert_eq!(cause_of(&log, reply), Some(read_first));
    let read_again = toucher(&log, "read:again");
    assert_eq!(cause_of(&log, env_cause(&log, read_again)), Some(reply));
    // Every read, the EOF included, is caused by an `Env` event.
    let reads: Vec<CbId> = log
        .events
        .iter()
        .filter(|e| e.kind == EvKind::Cb(CbKind::NetRead))
        .map(|e| e.id)
        .collect();
    assert_eq!(reads.len(), 3, "two messages and the EOF");
    for read in reads {
        env_cause(&log, read);
    }
}

#[test]
fn client_traffic_reaches_the_server_in_send_time_order() {
    let mut el = EventLoop::new(LoopConfig::seeded(3));
    let net = SimNet::new();
    let seen = Rc::new(RefCell::new(Vec::new()));
    let (n, s) = (net.clone(), seen.clone());
    el.enter(move |cx| {
        n.listen(cx, 80, move |_cx, conn| {
            let (on_data, on_close) = (s.clone(), s.clone());
            conn.on_data(move |cx, _conn, msg| {
                let msg = String::from_utf8(msg.to_vec()).unwrap();
                on_data.borrow_mut().push((msg, cx.now()));
            });
            conn.on_close(move |cx, _conn| on_close.borrow_mut().push(("EOF".into(), cx.now())));
        })
        .unwrap();
    });
    el.enter(|cx| {
        // Scheduled at setup, in this order: a send at 20 ms and the
        // client's FIN at 40 ms. The 10 ms timer then sends a message that
        // TCP delivers before both.
        let client = Client::connect(cx, &net, 80);
        client.send_after(cx, VDur::millis(20), b"at 20 ms");
        client.close_after(cx, VDur::millis(40));
        cx.set_timeout(VDur::millis(10), move |cx| client.send(cx, b"at 10 ms"));
        net.close_all_listeners_after(cx, VDur::millis(100));
    });
    el.run();

    let seen = seen.borrow();
    let order: Vec<&str> = seen.iter().map(|(what, _)| what.as_str()).collect();
    assert_eq!(order, ["at 10 ms", "at 20 ms", "EOF"]);
    assert!(
        seen[0].1 < VTime::ZERO + VDur::millis(20),
        "the 10 ms message waits behind nothing: {seen:?}"
    );
    assert!(
        seen.windows(2).all(|w| w[0].1 < w[1].1),
        "arrivals keep their order in time: {seen:?}"
    );
}

/// When the server reads "A" and "B", for a client that sends "A" 20 ms
/// into the run, scheduled at setup, and "B" from a 19.5 ms timer. Both go
/// over the first of two connections, or, with `a_apart`, "A" goes over
/// the second; the network draws the same latencies in the same order
/// either way. Callbacks cost no virtual time, so a read happens when its
/// message arrives.
fn arrivals(env_seed: u64, a_apart: bool) -> (VTime, VTime) {
    let mut el = EventLoop::new(LoopConfig {
        cb_cost_base: VDur::ZERO,
        ..LoopConfig::seeded(env_seed)
    });
    let net = SimNet::new();
    let seen = Rc::new(RefCell::new(Vec::new()));
    let (n, s) = (net.clone(), seen.clone());
    el.enter(move |cx| {
        n.listen(cx, 80, move |_cx, conn| {
            let s = s.clone();
            conn.on_data(move |cx, _conn, msg| s.borrow_mut().push((msg.to_vec(), cx.now())));
        })
        .unwrap();
    });
    el.enter(|cx| {
        let (first, second) = (Client::connect(cx, &net, 80), Client::connect(cx, &net, 80));
        let a_over = if a_apart { &second } else { &first };
        a_over.send_after(cx, VDur::millis(20), b"A");
        cx.set_timeout(VDur::micros(19_500), move |cx| first.send(cx, b"B"));
        net.close_all_listeners_after(cx, VDur::millis(100));
    });
    el.run();
    let seen = seen.borrow();
    if !a_apart {
        let order: Vec<&[u8]> = seen.iter().map(|(m, _)| m.as_slice()).collect();
        assert_eq!(order, [b"B", b"A"], "send order, env seed {env_seed}");
    }
    let at = |msg: &[u8]| seen.iter().find(|(m, _)| m == msg).expect("read").1;
    (at(b"A"), at(b"B"))
}

#[test]
fn a_delivery_sent_earlier_but_due_later_holds_back_the_ones_behind_it() {
    let mut held = 0;
    for env_seed in 0..16 {
        // Alone on its connection, each message arrives when it falls due.
        let (a_due, b_due) = arrivals(env_seed, true);
        let (a, b) = arrivals(env_seed, false);
        assert_eq!(b, b_due, "B arrives when due, env seed {env_seed}");
        assert_eq!(
            a,
            a_due.max(b),
            "A arrives when due, or with B, env seed {env_seed}"
        );
        if b_due > a_due {
            held += 1;
        }
    }
    assert!(held > 0, "no env seed drew B a later due time than A");
}
