//! Edge-case tests for the network substrate: DNS, teardown corners,
//! descriptor exhaustion, and heavy concurrency.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_net::{Client, SimNet};
use nodefz_rt::{Errno, EventLoop, LoopConfig, Termination, VDur};

#[test]
fn dns_lookup_resolves_known_hosts() {
    let mut el = EventLoop::new(LoopConfig::seeded(1));
    let net = SimNet::new();
    net.add_host("db.internal", "10.0.0.7");
    let got = Rc::new(RefCell::new(None));
    let n = net.clone();
    let g = got.clone();
    el.enter(move |cx| {
        n.lookup(cx, "db.internal", move |_cx, r| {
            *g.borrow_mut() = Some(r);
        });
    });
    let report = el.run();
    assert_eq!(report.termination, Termination::Quiescent);
    assert_eq!(got.borrow().clone().unwrap(), Ok("10.0.0.7".to_string()));
    // The lookup ran on the worker pool, as in Node.js.
    assert_eq!(report.pool.completed, 1);
}

#[test]
fn dns_lookup_unknown_is_nxdomain() {
    let mut el = EventLoop::new(LoopConfig::seeded(2));
    let net = SimNet::new();
    let n = net.clone();
    el.enter(move |cx| {
        n.lookup(cx, "nope.invalid", |cx, r| {
            assert_eq!(r, Err(Errno::Enoent));
            cx.report_error("nxdomain", "");
        });
    });
    assert!(el.run().has_error("nxdomain"));
}

#[test]
fn concurrent_lookups_all_complete() {
    let mut el = EventLoop::new(LoopConfig::seeded(3));
    let net = SimNet::new();
    for i in 0..8 {
        net.add_host(&format!("host{i}"), &format!("10.0.0.{i}"));
    }
    let hits = Rc::new(RefCell::new(0u32));
    let n = net.clone();
    let h = hits.clone();
    el.enter(move |cx| {
        for i in 0..8 {
            let h = h.clone();
            n.lookup(cx, &format!("host{i}"), move |_cx, r| {
                r.unwrap();
                *h.borrow_mut() += 1;
            });
        }
    });
    el.run();
    assert_eq!(*hits.borrow(), 8);
}

#[test]
fn close_before_connect_completes() {
    // A client that closes immediately after connecting: the server sees
    // accept then EOF; nothing crashes; everything quiesces.
    let mut el = EventLoop::new(LoopConfig::seeded(4));
    let net = SimNet::new();
    let accepts = Rc::new(RefCell::new(0u32));
    let closes = Rc::new(RefCell::new(0u32));
    let n = net.clone();
    let a = accepts.clone();
    let c = closes.clone();
    el.enter(move |cx| {
        n.listen(cx, 80, move |_cx, conn| {
            *a.borrow_mut() += 1;
            let c = c.clone();
            conn.on_close(move |_cx, _conn| *c.borrow_mut() += 1);
        })
        .unwrap();
    });
    el.enter(|cx| {
        let client = Client::connect(cx, &net, 80);
        client.close_after(cx, VDur::ZERO);
        net.close_all_listeners_after(cx, VDur::millis(30));
    });
    let report = el.run();
    assert_eq!(report.termination, Termination::Quiescent);
    assert_eq!(*accepts.borrow(), 1);
    assert_eq!(*closes.borrow(), 1);
}

#[test]
fn double_close_from_client_is_harmless() {
    let mut el = EventLoop::new(LoopConfig::seeded(5));
    let net = SimNet::new();
    let n = net.clone();
    el.enter(move |cx| {
        n.listen(cx, 80, |_cx, _conn| {}).unwrap();
    });
    el.enter(|cx| {
        let client = Client::connect(cx, &net, 80);
        client.close_after(cx, VDur::millis(2));
        client.close_after(cx, VDur::millis(3));
        net.close_all_listeners_after(cx, VDur::millis(20));
    });
    assert_eq!(el.run().termination, Termination::Quiescent);
}

#[test]
fn send_after_close_is_dropped() {
    let mut el = EventLoop::new(LoopConfig::seeded(6));
    let net = SimNet::new();
    let data = Rc::new(RefCell::new(0u32));
    let n = net.clone();
    let d = data.clone();
    el.enter(move |cx| {
        n.listen(cx, 80, move |_cx, conn| {
            let d = d.clone();
            conn.on_data(move |_cx, _conn, _msg| *d.borrow_mut() += 1);
        })
        .unwrap();
    });
    el.enter(|cx| {
        let client = Client::connect(cx, &net, 80);
        client.send(cx, b"before".to_vec());
        client.close_after(cx, VDur::millis(2));
        // Sent after the EOF: the server connection is torn down by then.
        client.send_after(cx, VDur::millis(20), b"after".to_vec());
        net.close_all_listeners_after(cx, VDur::millis(40));
    });
    let report = el.run();
    assert_eq!(report.termination, Termination::Quiescent);
    assert_eq!(*data.borrow(), 1, "only the pre-close message is delivered");
}

#[test]
fn accept_fails_gracefully_at_the_fd_limit() {
    // Listener takes one fd; each accepted connection needs another. With
    // a limit of 1 beyond the listener, only one connection survives.
    let mut el = EventLoop::new(LoopConfig {
        fd_limit: 2,
        ..LoopConfig::seeded(7)
    });
    let net = SimNet::new();
    let accepts = Rc::new(RefCell::new(0u32));
    let n = net.clone();
    let a = accepts.clone();
    el.enter(move |cx| {
        n.listen(cx, 80, move |_cx, _conn| {
            *a.borrow_mut() += 1;
        })
        .unwrap();
    });
    el.enter(|cx| {
        for _ in 0..3 {
            let c = Client::connect(cx, &net, 80);
            c.close_after(cx, VDur::millis(25));
        }
        net.close_all_listeners_after(cx, VDur::millis(30));
    });
    let report = el.run();
    assert_eq!(
        *accepts.borrow(),
        1,
        "descriptor-starved accepts are dropped"
    );
    // The loop still terminates cleanly.
    assert!(matches!(
        report.termination,
        Termination::Quiescent | Termination::Hung
    ));
}

#[test]
fn many_clients_many_messages() {
    let mut el = EventLoop::new(LoopConfig::seeded(8));
    let net = SimNet::new();
    let n = net.clone();
    el.enter(move |cx| {
        n.listen(cx, 80, |_cx, conn| {
            conn.on_data(|cx, conn, msg| {
                let _ = conn.write(cx, msg.to_vec());
            });
        })
        .unwrap();
    });
    let clients = el.enter(|cx| {
        let mut clients = Vec::new();
        for c in 0..12u64 {
            let client = Client::connect_after(cx, &net, 80, VDur::micros(c * 73));
            for m in 0..10u8 {
                client.send_after(cx, VDur::micros(m as u64 * 310), vec![m]);
            }
            client.close_after(cx, VDur::millis(60));
            clients.push(client);
        }
        net.close_all_listeners_after(cx, VDur::millis(80));
        clients
    });
    let report = el.run();
    assert_eq!(report.termination, Termination::Quiescent);
    for (i, client) in clients.iter().enumerate() {
        assert_eq!(client.received().len(), 10, "client {i} lost replies");
    }
    assert_eq!(net.accepted(), 12);
}
