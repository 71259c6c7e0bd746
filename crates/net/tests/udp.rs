//! Tests for datagram (UDP-style) sockets: unordered, lossy, fuzzable.

use std::cell::RefCell;
use std::rc::Rc;

use nodefz_net::{SimNet, UdpSender};
use nodefz_rt::{Errno, EventLoop, LoopConfig, Termination, VDur};

#[test]
fn datagrams_are_delivered() {
    let mut el = EventLoop::new(LoopConfig::seeded(1));
    let net = SimNet::new();
    let got = Rc::new(RefCell::new(Vec::new()));
    let n = net.clone();
    let g = got.clone();
    el.enter(move |cx| {
        let socket = n
            .bind_udp(cx, 5000, move |_cx, from, msg| {
                g.borrow_mut().push((from, msg.to_vec()));
            })
            .unwrap();
        let sender = UdpSender::new(&n, 9001);
        sender.send_after(cx, VDur::millis(1), 5000, b"ping".to_vec());
        let n2 = n.clone();
        cx.set_timeout(VDur::millis(20), move |cx| {
            socket.close(cx);
            let _ = n2;
        });
    });
    let report = el.run();
    assert_eq!(report.termination, Termination::Quiescent);
    assert_eq!(*got.borrow(), vec![(9001u16, b"ping".to_vec())]);
}

#[test]
fn double_bind_is_eaddrinuse() {
    let mut el = EventLoop::new(LoopConfig::seeded(2));
    let net = SimNet::new();
    el.enter(|cx| {
        let s = net.bind_udp(cx, 5000, |_, _, _| {}).unwrap();
        assert!(matches!(
            net.bind_udp(cx, 5000, |_, _, _| {}).err(),
            Some(Errno::Eaddrinuse)
        ));
        s.close(cx);
        // Rebinding after close works.
        let s2 = net.bind_udp(cx, 5000, |_, _, _| {}).unwrap();
        s2.close(cx);
    });
}

#[test]
fn replies_reach_the_sender_mailbox() {
    let mut el = EventLoop::new(LoopConfig::seeded(3));
    let net = SimNet::new();
    let n = net.clone();
    let sender_out = el.enter(move |cx| {
        let reply_net = n.clone();
        let socket = n
            .bind_udp(cx, 53, move |cx, from, msg| {
                // Echo service.
                let mut reply = b"re:".to_vec();
                reply.extend_from_slice(msg);
                reply_net.send_udp(cx, 53, from, reply);
            })
            .unwrap();
        let sender = UdpSender::new(&n, 7777);
        sender.send_after(cx, VDur::millis(1), 53, b"query".to_vec());
        cx.set_timeout(VDur::millis(25), move |cx| socket.close(cx));
        sender
    });
    el.run();
    assert_eq!(sender_out.received(), vec![b"re:query".to_vec()]);
}

#[test]
fn datagrams_reorder_even_under_vanilla() {
    // Two datagrams sent 50us apart: across env seeds, arrival order flips
    // — the §4.2.1 UDP nondeterminism, present even without the fuzzer.
    let mut orders = std::collections::BTreeSet::new();
    for seed in 0..30 {
        let mut el = EventLoop::new(LoopConfig::seeded(seed));
        let net = SimNet::new();
        let got = Rc::new(RefCell::new(Vec::new()));
        let n = net.clone();
        let g = got.clone();
        el.enter(move |cx| {
            let socket = n
                .bind_udp(cx, 5000, move |_cx, _from, msg| {
                    g.borrow_mut().push(msg[0]);
                })
                .unwrap();
            let sender = UdpSender::new(&n, 9001);
            sender.send_after(cx, VDur::micros(1_000), 5000, vec![b'A']);
            sender.send_after(cx, VDur::micros(1_050), 5000, vec![b'B']);
            cx.set_timeout(VDur::millis(20), move |cx| socket.close(cx));
        });
        el.run();
        orders.insert(got.borrow().clone());
    }
    assert!(
        orders.contains(&vec![b'A', b'B']) && orders.contains(&vec![b'B', b'A']),
        "both datagram orders should appear across seeds: {orders:?}"
    );
}

#[test]
fn loss_probability_drops_datagrams() {
    let mut el = EventLoop::new(LoopConfig::seeded(5));
    let net = SimNet::new();
    net.set_udp_loss(0.5);
    let got = Rc::new(RefCell::new(0u32));
    let n = net.clone();
    let g = got.clone();
    el.enter(move |cx| {
        let socket = n
            .bind_udp(cx, 5000, move |_cx, _from, _msg| *g.borrow_mut() += 1)
            .unwrap();
        let sender = UdpSender::new(&n, 9001);
        for i in 0..100u64 {
            sender.send_after(cx, VDur::micros(i * 120), 5000, b"x".to_vec());
        }
        cx.set_timeout(VDur::millis(40), move |cx| socket.close(cx));
    });
    el.run();
    let delivered = *got.borrow();
    assert!(
        (20..=80).contains(&delivered),
        "with 50% loss, ~half of 100 datagrams arrive; got {delivered}"
    );
}

#[test]
fn datagram_to_unbound_port_goes_to_peer_mailbox_not_error() {
    let mut el = EventLoop::new(LoopConfig::seeded(6));
    let net = SimNet::new();
    let n = net.clone();
    el.enter(move |cx| {
        let sender = UdpSender::new(&n, 9001);
        sender.send_after(cx, VDur::millis(1), 6000, b"void".to_vec());
        cx.set_timeout(VDur::millis(10), |_| {});
    });
    let report = el.run();
    assert_eq!(report.termination, Termination::Quiescent);
    assert_eq!(net.udp_peer_received(6000), vec![b"void".to_vec()]);
}

#[test]
fn udp_events_are_fuzzable() {
    // Under the fuzzer, all non-lost datagrams still arrive exactly once.
    use nodefz::Mode;
    for seed in 0..10 {
        let mut el = Mode::Fuzz.build_loop(LoopConfig::seeded(seed), seed);
        let net = SimNet::new();
        let got = Rc::new(RefCell::new(0u32));
        let n = net.clone();
        let g = got.clone();
        el.enter(move |cx| {
            let socket = n
                .bind_udp(cx, 5000, move |_cx, _from, _msg| *g.borrow_mut() += 1)
                .unwrap();
            let sender = UdpSender::new(&n, 9001);
            for i in 0..10u64 {
                sender.send_after(cx, VDur::micros(i * 400), 5000, vec![i as u8]);
            }
            cx.set_timeout(VDur::millis(20), move |cx| socket.close(cx));
        });
        el.run();
        assert_eq!(*got.borrow(), 10, "seed {seed}");
    }
}
