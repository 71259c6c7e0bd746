//! # nodefz-net — simulated network substrate
//!
//! A deterministic stand-in for the TCP stack a Node.js server sees:
//! listeners, accepted connections, and scripted clients whose traffic
//! arrives with jittered latency drawn from the environment RNG.
//!
//! The model preserves exactly the ordering guarantees the paper relies on
//! (§4.2.1): traffic on one connection is FIFO in each direction, while the
//! relative order of traffic across connections — and of connects,
//! disconnects and data against every other event — is nondeterministic and
//! therefore fuzzable.
//!
//! Client-side teardown flows through the event loop's *close phase* (the
//! "closing" stage the paper identifies as racy), so the fuzzer's close
//! deferral applies to socket disconnects just as in Node.fz.
//!
//! Traffic allocates nothing per message: every connect, send, close,
//! write and datagram is a typed environment wakeup ([`EnvTarget`]) whose
//! payload waits in the network's own queues, and a [`Msg`] lends a
//! `'static` literal instead of copying it.
//!
//! ## Example
//!
//! ```
//! use nodefz_net::{Client, SimNet};
//! use nodefz_rt::{EventLoop, LoopConfig, VDur};
//!
//! let mut el = EventLoop::new(LoopConfig::seeded(7));
//! let net = SimNet::new();
//! let n = net.clone();
//! el.enter(move |cx| {
//!     n.listen(cx, 80, |_cx, conn| {
//!         conn.on_data(|cx, conn, data| {
//!             let mut reply = b"echo:".to_vec();
//!             reply.extend_from_slice(data);
//!             conn.write(cx, reply).unwrap();
//!         });
//!     })
//!     .unwrap();
//! });
//! let client = el.enter(|cx| {
//!     let c = Client::connect(cx, &net, 80);
//!     c.send(cx, b"hi");
//!     c.close_after(cx, VDur::millis(50));
//!     c
//! });
//! el.enter(|cx| net.close_all_listeners_after(cx, VDur::millis(60)));
//! el.run();
//! assert_eq!(client.received(), vec![b"echo:hi".to_vec()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;
use std::rc::Rc;

use nodefz_rt::{Ctx, EnvTarget, Errno, Fd, FdKind, Rng, VDur, VTime};

/// A network message (opaque bytes). A `'static` literal is lent, never
/// copied; a built message (`format!(…).into_bytes()`) is owned. Senders
/// take `impl Into<Msg>`, so `b"ping"` and a `Vec<u8>` both pass as is.
pub type Msg = Cow<'static, [u8]>;

/// Latency distribution for message delivery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Nominal one-way latency.
    pub base: VDur,
    /// Jitter fraction (0.5 = ±50%).
    pub jitter: f64,
}

impl Default for LatencyModel {
    fn default() -> LatencyModel {
        LatencyModel {
            base: VDur::millis(2),
            jitter: 0.75,
        }
    }
}

impl LatencyModel {
    /// Samples one delivery latency.
    fn sample(&self, rng: &mut Rng) -> VDur {
        rng.jitter(self.base, self.jitter)
    }
}

/// Identifier of a simulated connection: its index in the connection slab.
/// Ids are sequential and never reused within a [`SimNet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(u64);

enum Delivery {
    Data(Msg),
    Eof,
}

/// A client-to-server delivery, with when the client sent it and when it
/// falls due at the server.
struct Outbound {
    sent: VTime,
    due: VTime,
    delivery: Delivery,
}

type OnConn = Rc<RefCell<dyn FnMut(&mut Ctx<'_>, Connection)>>;
type OnData = Rc<RefCell<dyn FnMut(&mut Ctx<'_>, Connection, &[u8])>>;
type OnClose = Rc<RefCell<dyn FnMut(&mut Ctx<'_>, Connection)>>;
type OnReply = Rc<RefCell<dyn FnMut(&mut Ctx<'_>, &[u8])>>;

struct Listener {
    fd: Fd,
    on_conn: OnConn,
    pending: VecDeque<ConnId>,
}

#[derive(Default)]
struct ClientSide {
    received: Vec<(VTime, Msg)>,
    closed_at: Option<VTime>,
    refused: bool,
    on_reply: Option<OnReply>,
}

struct ConnState {
    port: u16,
    fd: Option<Fd>,
    /// Client-to-server deliveries, from `send`/`close_after` until the
    /// server dispatches them: the first `arrived` have reached the server,
    /// the rest are in flight, ordered by send time. Each delivery has one
    /// wakeup, at its due time, and each wakeup brings in one delivery:
    /// the first in flight, once it has fallen due. So the server reads
    /// them in the order the client sent them, and none before its due
    /// time.
    to_server: VecDeque<Outbound>,
    arrived: usize,
    /// Client-to-server wakeups that came while the first delivery in
    /// flight was not yet due (it was sent earlier than the deliveries
    /// whose wakeups they are, but falls due later). Each is owed an
    /// arrival.
    c2s_owed: usize,
    /// Server-to-client messages in flight, in arrival order.
    to_client: VecDeque<Msg>,
    on_data: Option<OnData>,
    on_close: Option<OnClose>,
    server_open: bool,
    close_queued: bool,
    /// No client-to-server delivery falls due at or before this: the
    /// connect's due time, then each arrival's.
    c2s_floor: VTime,
    /// The server-to-client FIFO clamp.
    last_s2c: VTime,
    client: ClientSide,
}

type OnDatagram = Rc<RefCell<dyn FnMut(&mut Ctx<'_>, u16, &[u8])>>;

struct UdpBinding {
    fd: Fd,
    inbox: VecDeque<(u16, Msg)>,
    on_datagram: OnDatagram,
}

struct UdpPeer {
    received: Vec<(VTime, Msg)>,
}

/// A datagram in flight.
struct Datagram {
    from: u16,
    to: u16,
    msg: Msg,
}

struct NetState {
    /// Listeners by port, in registration order (a server has a handful,
    /// so a scan beats hashing).
    listeners: Vec<(u16, Listener)>,
    /// UDP bindings by port, in registration order.
    udp: Vec<(u16, UdpBinding)>,
    /// Environment-side datagram mailboxes by port, in first-delivery order.
    udp_peers: Vec<(u16, UdpPeer)>,
    /// Probability (0..1) that a datagram is dropped in flight.
    udp_loss: f64,
    /// Datagrams in flight, by the slot their wakeup names; `None` marks a
    /// free slot (listed in `free_datagrams`).
    datagrams: Vec<Option<Datagram>>,
    free_datagrams: Vec<usize>,
    /// Connection slab, indexed by [`ConnId`]. A connection dropped at
    /// accept (EMFILE) leaves `None` in its slot.
    conns: Vec<Option<ConnState>>,
    latency: LatencyModel,
    rng: Option<Rng>,
    accepted: u64,
    /// The simulated DNS zone.
    hosts: BTreeMap<String, String>,
}

/// The entry for `port` in a registration-ordered port table.
fn by_port<T>(table: &[(u16, T)], port: u16) -> Option<&T> {
    table.iter().find(|(p, _)| *p == port).map(|(_, t)| t)
}

fn by_port_mut<T>(table: &mut [(u16, T)], port: u16) -> Option<&mut T> {
    table.iter_mut().find(|(p, _)| *p == port).map(|(_, t)| t)
}

/// Removes and returns the entry for `port`, keeping the others in order.
fn remove_port<T>(table: &mut Vec<(u16, T)>, port: u16) -> Option<T> {
    let idx = table.iter().position(|(p, _)| *p == port)?;
    Some(table.remove(idx).1)
}

impl NetState {
    fn conn(&self, id: ConnId) -> Option<&ConnState> {
        self.conns.get(id.0 as usize)?.as_ref()
    }

    fn conn_mut(&mut self, id: ConnId) -> Option<&mut ConnState> {
        self.conns.get_mut(id.0 as usize)?.as_mut()
    }
}

// What a network wakeup delivers: the low two bits of its token. The rest
// of the token is a connection id or a datagram slot.
/// A connection attempt reaches the listener.
const CONNECT: u64 = 0;
/// The next client-to-server delivery (data or EOF) of a connection.
const TO_SERVER: u64 = 1;
/// The next server-to-client message of a connection.
const TO_CLIENT: u64 = 2;
/// The datagram in a flight slot.
const DATAGRAM: u64 = 3;

fn token(what: u64, index: u64) -> u64 {
    index << 2 | what
}

/// The state every [`SimNet`] clone shares, and the target of the
/// network's environment wakeups. A local newtype, so that it may
/// implement the runtime's [`EnvTarget`].
struct Shared(RefCell<NetState>);

impl Deref for Shared {
    type Target = RefCell<NetState>;

    fn deref(&self) -> &RefCell<NetState> {
        &self.0
    }
}

impl EnvTarget for Shared {
    fn wake(self: Rc<Self>, cx: &mut Ctx<'_>, token: u64) {
        let net = SimNet { inner: self };
        let index = token >> 2;
        match token & 3 {
            CONNECT => net.arrive_connect(cx, ConnId(index)),
            TO_SERVER => net.deliver_c2s(cx, ConnId(index)),
            TO_CLIENT => net.deliver_s2c(cx, ConnId(index)),
            _ => net.deliver_datagram(cx, index as usize),
        }
    }
}

/// The simulated network fabric. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct SimNet {
    inner: Rc<Shared>,
}

impl Default for SimNet {
    fn default() -> SimNet {
        SimNet::new()
    }
}

impl SimNet {
    /// Creates a network with the default latency model.
    pub fn new() -> SimNet {
        SimNet::with_latency(LatencyModel::default())
    }

    /// Creates a network with a custom latency model.
    pub fn with_latency(latency: LatencyModel) -> SimNet {
        SimNet {
            inner: Rc::new(Shared(RefCell::new(NetState {
                listeners: Vec::new(),
                udp: Vec::new(),
                udp_peers: Vec::new(),
                udp_loss: 0.0,
                datagrams: Vec::new(),
                free_datagrams: Vec::new(),
                conns: Vec::new(),
                latency,
                rng: None,
                accepted: 0,
                hosts: BTreeMap::new(),
            }))),
        }
    }

    fn rng_sample(&self, cx: &mut Ctx<'_>) -> VDur {
        let mut st = self.inner.borrow_mut();
        if st.rng.is_none() {
            st.rng = Some(cx.env_rng().fork());
        }
        let latency = st.latency;
        latency.sample(st.rng.as_mut().expect("just initialized"))
    }

    /// Starts a server on `port`; `on_conn` runs for every accepted
    /// connection.
    ///
    /// # Errors
    ///
    /// `EADDRINUSE` if the port already has a listener; `EMFILE` at the
    /// descriptor limit.
    pub fn listen(
        &self,
        cx: &mut Ctx<'_>,
        port: u16,
        on_conn: impl FnMut(&mut Ctx<'_>, Connection) + 'static,
    ) -> Result<Server, Errno> {
        if by_port(&self.inner.borrow().listeners, port).is_some() {
            return Err(Errno::Eaddrinuse);
        }
        let fd = cx.alloc_fd(FdKind::NetListener)?;
        let net = self.clone();
        cx.register_watcher(fd, move |cx, _fd| net.dispatch_accept(cx, port))?;
        self.inner.borrow_mut().listeners.push((
            port,
            Listener {
                fd,
                on_conn: Rc::new(RefCell::new(on_conn)),
                pending: VecDeque::new(),
            },
        ));
        Ok(Server {
            net: self.clone(),
            port,
        })
    }

    /// Total connections accepted so far (diagnostics).
    pub fn accepted(&self) -> u64 {
        self.inner.borrow().accepted
    }

    /// Sets the datagram loss probability (0.0–1.0).
    pub fn set_udp_loss(&self, loss: f64) {
        self.inner.borrow_mut().udp_loss = loss.clamp(0.0, 1.0);
    }

    /// Binds a UDP-style datagram socket on `port`.
    ///
    /// Unlike connections, datagrams have **no ordering guarantee at all**
    /// (§4.2.1 of the paper: "the traffic on UDP sockets … is not
    /// [well-ordered]") and may be silently lost.
    ///
    /// # Errors
    ///
    /// `EADDRINUSE` if the port already has a binding; `EMFILE` at the
    /// descriptor limit.
    pub fn bind_udp(
        &self,
        cx: &mut Ctx<'_>,
        port: u16,
        on_datagram: impl FnMut(&mut Ctx<'_>, u16, &[u8]) + 'static,
    ) -> Result<UdpSocket, Errno> {
        if by_port(&self.inner.borrow().udp, port).is_some() {
            return Err(Errno::Eaddrinuse);
        }
        let fd = cx.alloc_fd(FdKind::NetConn)?;
        let net = self.clone();
        cx.register_watcher(fd, move |cx, _fd| {
            let next = {
                let mut st = net.inner.borrow_mut();
                by_port_mut(&mut st.udp, port)
                    .and_then(|b| b.inbox.pop_front().map(|d| (d, b.on_datagram.clone())))
            };
            if let Some(((from, msg), cb)) = next {
                (cb.borrow_mut())(cx, from, &msg);
            }
        })?;
        self.inner.borrow_mut().udp.push((
            port,
            UdpBinding {
                fd,
                inbox: VecDeque::new(),
                on_datagram: Rc::new(RefCell::new(on_datagram)),
            },
        ));
        Ok(UdpSocket {
            net: self.clone(),
            port,
        })
    }

    fn send_datagram(&self, cx: &mut Ctx<'_>, from: u16, to: u16, msg: Msg, delay: VDur) {
        // Loss and latency are decided at send time from the env RNG.
        let (lost, latency) = {
            let mut st = self.inner.borrow_mut();
            if st.rng.is_none() {
                st.rng = Some(cx.env_rng().fork());
            }
            let loss = st.udp_loss;
            let latency_model = st.latency;
            let rng = st.rng.as_mut().expect("just initialized");
            let lost = loss > 0.0 && rng.unit() < loss;
            (lost, latency_model.sample(rng))
        };
        if lost {
            return;
        }
        // NO per-peer FIFO clamp: datagrams reorder freely.
        let slot = {
            let mut st = self.inner.borrow_mut();
            let datagram = Some(Datagram { from, to, msg });
            match st.free_datagrams.pop() {
                Some(slot) => {
                    st.datagrams[slot] = datagram;
                    slot
                }
                None => {
                    st.datagrams.push(datagram);
                    st.datagrams.len() - 1
                }
            }
        };
        let at = cx.now() + delay + latency;
        cx.wake_env_at(at, &self.inner, token(DATAGRAM, slot as u64));
    }

    /// The datagram in flight slot `slot` arrives.
    fn deliver_datagram(&self, cx: &mut Ctx<'_>, slot: usize) {
        let delivered_to_server = {
            let mut st = self.inner.borrow_mut();
            let Datagram { from, to, msg } = st.datagrams[slot]
                .take()
                .expect("a woken datagram slot holds a datagram");
            st.free_datagrams.push(slot);
            match by_port_mut(&mut st.udp, to) {
                Some(binding) => {
                    binding.inbox.push_back((from, msg));
                    Some(binding.fd)
                }
                None => {
                    // No binding: deliver to an environment-side peer
                    // mailbox (a reply to a client).
                    let at = cx.now();
                    match by_port_mut(&mut st.udp_peers, to) {
                        Some(peer) => peer.received.push((at, msg)),
                        None => st.udp_peers.push((
                            to,
                            UdpPeer {
                                received: vec![(at, msg)],
                            },
                        )),
                    }
                    None
                }
            }
        };
        if let Some(fd) = delivered_to_server {
            let _ = cx.mark_ready(fd);
        }
    }

    /// Sends a datagram from the loop side (a bound socket's port) to `to`.
    pub fn send_udp(&self, cx: &mut Ctx<'_>, from: u16, to: u16, msg: impl Into<Msg>) {
        self.send_datagram(cx, from, to, msg.into(), VDur::ZERO);
    }

    /// Datagrams an environment-side peer port has received (oracle
    /// helper).
    pub fn udp_peer_received(&self, port: u16) -> Vec<Msg> {
        by_port(&self.inner.borrow().udp_peers, port)
            .map(|p| p.received.iter().map(|(_, m)| m.clone()).collect())
            .unwrap_or_default()
    }

    /// Registers a host in the simulated DNS zone.
    pub fn add_host(&self, name: &str, address: &str) {
        self.inner
            .borrow_mut()
            .hosts
            .insert(name.to_string(), address.to_string());
    }

    /// Resolves a host name asynchronously (`dns.lookup`).
    ///
    /// As in Node.js, the lookup runs on the worker pool (§2.2 of the
    /// paper: the libraries use the pool for "asynchronous file system I/O
    /// and DNS queries"), so its completion is a pool event the fuzzer can
    /// reorder. Unknown names resolve to `ENOENT` (NXDOMAIN analog).
    pub fn lookup(
        &self,
        cx: &mut Ctx<'_>,
        name: &str,
        cb: impl FnOnce(&mut Ctx<'_>, Result<String, Errno>) + 'static,
    ) {
        let net = self.clone();
        let name = name.to_string();
        let submit = cx.submit_work(
            VDur::micros(500),
            move |_w| {
                net.inner
                    .borrow()
                    .hosts
                    .get(&name)
                    .cloned()
                    .ok_or(Errno::Enoent)
            },
            move |cx, result| cb(cx, result),
        );
        if submit.is_err() {
            cx.report_error("EMFILE", "dns lookup could not allocate a task descriptor");
        }
    }

    /// Closes every listener after `delay` (test teardown helper).
    pub fn close_all_listeners_after(&self, cx: &mut Ctx<'_>, delay: VDur) {
        let net = self.clone();
        cx.set_timeout(delay, move |cx| {
            let ports: Vec<u16> = net
                .inner
                .borrow()
                .listeners
                .iter()
                .map(|(p, _)| *p)
                .collect();
            for port in ports {
                Server {
                    net: net.clone(),
                    port,
                }
                .close(cx);
            }
        });
    }

    fn dispatch_accept(&self, cx: &mut Ctx<'_>, port: u16) {
        let (id, on_conn) = {
            let mut st = self.inner.borrow_mut();
            let Some(listener) = by_port_mut(&mut st.listeners, port) else {
                return;
            };
            let Some(id) = listener.pending.pop_front() else {
                return;
            };
            let on_conn = listener.on_conn.clone();
            st.accepted += 1;
            (id, on_conn)
        };
        // Allocate the connection descriptor and install its watcher.
        let fd = match cx.alloc_fd(FdKind::NetConn) {
            Ok(fd) => fd,
            Err(_) => {
                // Out of descriptors: the connection is dropped.
                self.inner.borrow_mut().conns[id.0 as usize] = None;
                return;
            }
        };
        let net = self.clone();
        if cx
            .register_watcher(fd, move |cx, _fd| net.dispatch_conn_event(cx, id))
            .is_err()
        {
            return;
        }
        let buffered = {
            let mut st = self.inner.borrow_mut();
            let Some(conn) = st.conn_mut(id) else {
                return;
            };
            conn.fd = Some(fd);
            conn.arrived
        };
        let conn = Connection {
            net: self.clone(),
            id,
        };
        (on_conn.borrow_mut())(cx, conn);
        // Anything that arrived before the accept is now observable.
        for _ in 0..buffered {
            let _ = cx.mark_ready(fd);
        }
    }

    fn dispatch_conn_event(&self, cx: &mut Ctx<'_>, id: ConnId) {
        let (delivery, on_data) = {
            let mut st = self.inner.borrow_mut();
            let Some(conn) = st.conn_mut(id) else {
                return;
            };
            if conn.arrived == 0 {
                return;
            }
            conn.arrived -= 1;
            let delivery = conn
                .to_server
                .pop_front()
                .expect("an arrived delivery")
                .delivery;
            (delivery, conn.on_data.clone())
        };
        let handle = Connection {
            net: self.clone(),
            id,
        };
        match delivery {
            Delivery::Data(msg) => {
                if let Some(cb) = on_data {
                    (cb.borrow_mut())(cx, handle, &msg);
                }
            }
            Delivery::Eof => {
                // Peer teardown flows through the close phase (§4.3.2),
                // where the fuzzer may defer it.
                let queued = {
                    let mut st = self.inner.borrow_mut();
                    match st.conn_mut(id) {
                        Some(c) if !c.close_queued => {
                            c.close_queued = true;
                            true
                        }
                        _ => false,
                    }
                };
                if queued {
                    let net = self.clone();
                    cx.enqueue_close(move |cx| net.finish_close(cx, id, true));
                }
            }
        }
    }

    fn finish_close(&self, cx: &mut Ctx<'_>, id: ConnId, notify_client: bool) {
        let (fd, on_close) = {
            let mut st = self.inner.borrow_mut();
            let Some(conn) = st.conn_mut(id) else {
                return;
            };
            if !conn.server_open {
                return;
            }
            conn.server_open = false;
            (conn.fd.take(), conn.on_close.clone())
        };
        if let Some(fd) = fd {
            let _ = cx.close_fd(fd);
        }
        if let Some(cb) = on_close {
            let handle = Connection {
                net: self.clone(),
                id,
            };
            (cb.borrow_mut())(cx, handle);
        }
        if notify_client {
            let mut st = self.inner.borrow_mut();
            if let Some(conn) = st.conn_mut(id) {
                if conn.client.closed_at.is_none() {
                    conn.client.closed_at = Some(cx.now());
                }
            }
        }
    }

    /// A connection attempt reaches the listener, or is refused.
    fn arrive_connect(&self, cx: &mut Ctx<'_>, id: ConnId) {
        let fd = {
            let mut st = self.inner.borrow_mut();
            let port = st.conn(id).map(|c| c.port);
            let Some(port) = port else { return };
            match by_port_mut(&mut st.listeners, port) {
                Some(listener) => {
                    listener.pending.push_back(id);
                    Some(listener.fd)
                }
                None => {
                    if let Some(conn) = st.conn_mut(id) {
                        conn.client.refused = true;
                        conn.server_open = false;
                    }
                    None
                }
            }
        };
        if let Some(fd) = fd {
            let _ = cx.mark_ready(fd);
        }
    }

    /// A client-to-server wakeup of `id`: brings in the first delivery in
    /// flight, once it has fallen due. A wakeup that comes before then
    /// (the first in flight was sent earlier than the delivery the wakeup
    /// is for, but falls due later) is owed an arrival, and the wakeup
    /// that brings that delivery in also brings in, in send order, one
    /// more per owed wakeup as far as those behind it have fallen due: as
    /// with TCP, a segment held back holds back the ones behind it.
    fn deliver_c2s(&self, cx: &mut Ctx<'_>, id: ConnId) {
        let now = cx.now();
        let (fd, arrivals) = {
            let mut st = self.inner.borrow_mut();
            let Some(conn) = st.conn_mut(id) else {
                return;
            };
            let mut arrivals = 0;
            let mut owed = conn.c2s_owed + 1;
            while owed > 0
                && conn
                    .to_server
                    .get(conn.arrived)
                    .is_some_and(|next| next.due <= now)
            {
                owed -= 1;
                conn.c2s_floor = now;
                if conn.server_open {
                    conn.arrived += 1;
                    arrivals += 1;
                } else {
                    // Nobody reads it any more: drop it in flight.
                    let arrived = conn.arrived;
                    conn.to_server.remove(arrived);
                }
            }
            conn.c2s_owed = owed;
            (conn.fd, arrivals)
        };
        // No fd yet: the connection has not been accepted; the accept path
        // replays buffered events.
        if let Some(fd) = fd {
            for _ in 0..arrivals {
                let _ = cx.mark_ready(fd);
            }
        }
    }

    /// The next in-flight server-to-client message of `id` reaches the
    /// client.
    fn deliver_s2c(&self, cx: &mut Ctx<'_>, id: ConnId) {
        let reply = {
            let mut st = self.inner.borrow_mut();
            let Some(conn) = st.conn_mut(id) else {
                return;
            };
            let msg = conn.to_client.pop_front().expect("a write in flight");
            // A lent literal clones for free; an owned message is copied
            // only for a scripted reply callback.
            let reply = conn.client.on_reply.clone().map(|cb| (cb, msg.clone()));
            conn.client.received.push((cx.now(), msg));
            reply
        };
        if let Some((cb, msg)) = reply {
            (cb.borrow_mut())(cx, &msg);
        }
    }
}

/// Handle to a listening server.
pub struct Server {
    net: SimNet,
    port: u16,
}

impl Server {
    /// The port this server listens on.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Stops accepting connections and releases the listener descriptor.
    pub fn close(&self, cx: &mut Ctx<'_>) {
        let listener = remove_port(&mut self.net.inner.borrow_mut().listeners, self.port);
        if let Some(listener) = listener {
            let _ = cx.close_fd(listener.fd);
        }
    }

    /// Stops the listener from keeping the loop alive (libuv `unref`).
    pub fn unref(&self, cx: &mut Ctx<'_>) {
        if let Some(listener) = by_port(&self.net.inner.borrow().listeners, self.port) {
            let _ = cx.set_fd_refd(listener.fd, false);
        }
    }
}

/// Server-side handle to an accepted connection. Cheap to clone.
#[derive(Clone)]
pub struct Connection {
    net: SimNet,
    id: ConnId,
}

impl Connection {
    /// The connection id (stable across handles).
    pub fn id(&self) -> ConnId {
        self.id
    }

    /// Installs the data callback, invoked once per arriving message.
    pub fn on_data(&self, cb: impl FnMut(&mut Ctx<'_>, Connection, &[u8]) + 'static) {
        if let Some(conn) = self.net.inner.borrow_mut().conn_mut(self.id) {
            conn.on_data = Some(Rc::new(RefCell::new(cb)));
        }
    }

    /// Installs the close callback, invoked from the loop's close phase
    /// when the connection is torn down.
    pub fn on_close(&self, cb: impl FnMut(&mut Ctx<'_>, Connection) + 'static) {
        if let Some(conn) = self.net.inner.borrow_mut().conn_mut(self.id) {
            conn.on_close = Some(Rc::new(RefCell::new(cb)));
        }
    }

    /// Whether the server side still considers the connection open.
    pub fn is_open(&self) -> bool {
        self.net
            .inner
            .borrow()
            .conn(self.id)
            .is_some_and(|c| c.server_open)
    }

    /// Sends a message to the client.
    ///
    /// # Errors
    ///
    /// `ENOTCONN` if the connection is closed.
    pub fn write(&self, cx: &mut Ctx<'_>, msg: impl Into<Msg>) -> Result<(), Errno> {
        if !self.is_open() {
            return Err(Errno::Enotconn);
        }
        let latency = self.net.rng_sample(cx);
        let at = {
            let mut st = self.net.inner.borrow_mut();
            let conn = st.conn_mut(self.id).ok_or(Errno::Enotconn)?;
            let at = (cx.now() + latency).max(conn.last_s2c + VDur::nanos(1));
            conn.last_s2c = at;
            conn.to_client.push_back(msg.into());
            at
        };
        cx.wake_env_at(at, &self.net.inner, token(TO_CLIENT, self.id.0));
        Ok(())
    }

    /// Closes the connection from the server side.
    ///
    /// The server's close callback runs in the close phase; the client
    /// observes the teardown at that point.
    pub fn end(&self, cx: &mut Ctx<'_>) {
        let queued = {
            let mut st = self.net.inner.borrow_mut();
            match st.conn_mut(self.id) {
                Some(c) if c.server_open && !c.close_queued => {
                    c.close_queued = true;
                    true
                }
                _ => false,
            }
        };
        if !queued {
            return;
        }
        let net = self.net.clone();
        let id = self.id;
        cx.enqueue_close(move |cx| net.finish_close(cx, id, true));
    }
}

/// A scripted client: the workload-generation side of the simulation.
///
/// All of its actions (connect, send, close) travel through the environment
/// timeline with jittered latency and per-connection FIFO ordering.
#[derive(Clone)]
pub struct Client {
    net: SimNet,
    id: ConnId,
}

impl Client {
    /// Opens a connection to `port` now.
    pub fn connect(cx: &mut Ctx<'_>, net: &SimNet, port: u16) -> Client {
        Client::connect_after(cx, net, port, VDur::ZERO)
    }

    /// Opens a connection to `port` after `delay`.
    pub fn connect_after(cx: &mut Ctx<'_>, net: &SimNet, port: u16, delay: VDur) -> Client {
        let id = {
            let mut st = net.inner.borrow_mut();
            let id = ConnId(st.conns.len() as u64);
            st.conns.push(Some(ConnState {
                port,
                fd: None,
                to_server: VecDeque::new(),
                arrived: 0,
                c2s_owed: 0,
                to_client: VecDeque::new(),
                on_data: None,
                on_close: None,
                server_open: true,
                close_queued: false,
                c2s_floor: VTime::ZERO,
                last_s2c: VTime::ZERO,
                client: ClientSide::default(),
            }));
            id
        };
        let latency = net.rng_sample(cx);
        let at = {
            let mut st = net.inner.borrow_mut();
            let conn = st.conn_mut(id).expect("just inserted");
            let at = cx.now() + delay + latency;
            conn.c2s_floor = at;
            at
        };
        cx.wake_env_at(at, &net.inner, token(CONNECT, id.0));
        Client {
            net: net.clone(),
            id,
        }
    }

    /// The underlying connection id.
    pub fn id(&self) -> ConnId {
        self.id
    }

    /// Sends a message now.
    pub fn send(&self, cx: &mut Ctx<'_>, msg: impl Into<Msg>) {
        self.send_after(cx, VDur::ZERO, msg);
    }

    /// Sends a message after `delay`.
    pub fn send_after(&self, cx: &mut Ctx<'_>, delay: VDur, msg: impl Into<Msg>) {
        self.deliver_after(cx, delay, Delivery::Data(msg.into()));
    }

    /// Closes the connection from the client side after `delay`.
    ///
    /// The server observes an EOF and its close callback runs in the close
    /// phase.
    pub fn close_after(&self, cx: &mut Ctx<'_>, delay: VDur) {
        self.deliver_after(cx, delay, Delivery::Eof);
    }

    /// Sends `delivery` after `delay`, as TCP would: it reaches the server
    /// no sooner than a sampled latency after it is sent, and in send order
    /// with the connection's other deliveries, whatever order they were
    /// scheduled in.
    ///
    /// It goes in flight behind the deliveries sent no later than it, and
    /// falls due a sampled latency after its send time, but never at or
    /// before the one it follows (or the connect, or the last arrival).
    /// One sent earlier but due later holds it back on arrival
    /// (`SimNet::deliver_c2s`). Traffic scheduled in send-time order
    /// therefore falls due and arrives exactly as a FIFO clamp behind the
    /// last scheduled delivery would have it.
    fn deliver_after(&self, cx: &mut Ctx<'_>, delay: VDur, delivery: Delivery) {
        let latency = self.net.rng_sample(cx);
        let at = {
            let mut st = self.net.inner.borrow_mut();
            let Some(conn) = st.conn_mut(self.id) else {
                return;
            };
            let sent = cx.now() + delay;
            let flight = &mut conn.to_server;
            let mut slot = flight.len();
            while slot > conn.arrived && flight[slot - 1].sent > sent {
                slot -= 1;
            }
            let behind = if slot > conn.arrived {
                flight[slot - 1].due
            } else {
                conn.c2s_floor
            };
            let due = (sent + latency).max(behind + VDur::nanos(1));
            flight.insert(
                slot,
                Outbound {
                    sent,
                    due,
                    delivery,
                },
            );
            due
        };
        cx.wake_env_at(at, &self.net.inner, token(TO_SERVER, self.id.0));
    }

    /// Installs a client-side reply callback (environment-level scripting).
    pub fn on_reply(&self, cb: impl FnMut(&mut Ctx<'_>, &[u8]) + 'static) {
        if let Some(conn) = self.net.inner.borrow_mut().conn_mut(self.id) {
            conn.client.on_reply = Some(Rc::new(RefCell::new(cb)));
        }
    }

    /// Messages the client has received, in arrival order.
    pub fn received(&self) -> Vec<Msg> {
        self.net
            .inner
            .borrow()
            .conn(self.id)
            .map(|c| c.client.received.iter().map(|(_, m)| m.clone()).collect())
            .unwrap_or_default()
    }

    /// Arrival-stamped messages the client has received.
    pub fn received_timed(&self) -> Vec<(VTime, Msg)> {
        self.net
            .inner
            .borrow()
            .conn(self.id)
            .map(|c| c.client.received.clone())
            .unwrap_or_default()
    }

    /// Whether the connection attempt was refused.
    pub fn refused(&self) -> bool {
        self.net
            .inner
            .borrow()
            .conn(self.id)
            .is_some_and(|c| c.client.refused)
    }

    /// When the client observed the teardown, if it has.
    pub fn closed_at(&self) -> Option<VTime> {
        self.net
            .inner
            .borrow()
            .conn(self.id)
            .and_then(|c| c.client.closed_at)
    }
}

/// A bound datagram socket (server side).
pub struct UdpSocket {
    net: SimNet,
    port: u16,
}

impl UdpSocket {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Sends a datagram from this socket to `to` (another binding or an
    /// environment-side peer).
    pub fn send_to(&self, cx: &mut Ctx<'_>, to: u16, msg: impl Into<Msg>) {
        let port = self.port;
        self.net.send_datagram(cx, port, to, msg.into(), VDur::ZERO);
    }

    /// Closes the socket, releasing its descriptor.
    pub fn close(&self, cx: &mut Ctx<'_>) {
        let binding = remove_port(&mut self.net.inner.borrow_mut().udp, self.port);
        if let Some(binding) = binding {
            let _ = cx.close_fd(binding.fd);
        }
    }
}

/// A scripted environment-side datagram sender.
#[derive(Clone)]
pub struct UdpSender {
    net: SimNet,
    port: u16,
}

impl UdpSender {
    /// Creates a sender whose datagrams carry `port` as their source.
    pub fn new(net: &SimNet, port: u16) -> UdpSender {
        UdpSender {
            net: net.clone(),
            port,
        }
    }

    /// The sender's source port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Sends a datagram to `to` after `delay`.
    pub fn send_after(&self, cx: &mut Ctx<'_>, delay: VDur, to: u16, msg: impl Into<Msg>) {
        self.net.send_datagram(cx, self.port, to, msg.into(), delay);
    }

    /// Datagrams this sender's mailbox has received back.
    pub fn received(&self) -> Vec<Msg> {
        self.net.udp_peer_received(self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_rt::{EventLoop, LoopConfig, Termination};

    fn echo_loop(seed: u64) -> (EventLoop, SimNet) {
        let mut el = EventLoop::new(LoopConfig::seeded(seed));
        let net = SimNet::new();
        let n = net.clone();
        el.enter(move |cx| {
            n.listen(cx, 80, |_cx, conn| {
                conn.on_data(|cx, conn, data| {
                    let mut reply = b"echo:".to_vec();
                    reply.extend_from_slice(data);
                    let _ = conn.write(cx, reply);
                });
            })
            .unwrap();
        });
        (el, net)
    }

    #[test]
    fn echo_round_trip() {
        let (mut el, net) = echo_loop(1);
        let client = el.enter(|cx| {
            let c = Client::connect(cx, &net, 80);
            c.send(cx, b"one".to_vec());
            c.send(cx, b"two".to_vec());
            c.close_after(cx, VDur::millis(80));
            c
        });
        el.enter(|cx| net.close_all_listeners_after(cx, VDur::millis(100)));
        let report = el.run();
        assert_eq!(report.termination, Termination::Quiescent);
        // Per-connection FIFO: replies arrive in order.
        assert_eq!(
            client.received(),
            vec![b"echo:one".to_vec(), b"echo:two".to_vec()]
        );
        assert_eq!(net.accepted(), 1);
    }

    #[test]
    fn per_connection_fifo_is_preserved() {
        let (mut el, net) = echo_loop(2);
        let client = el.enter(|cx| {
            let c = Client::connect(cx, &net, 80);
            for i in 0..20u8 {
                c.send(cx, vec![i]);
            }
            c.close_after(cx, VDur::millis(150));
            c
        });
        el.enter(|cx| net.close_all_listeners_after(cx, VDur::millis(200)));
        el.run();
        let got = client.received();
        assert_eq!(got.len(), 20);
        for (i, m) in got.iter().enumerate() {
            assert_eq!(m[5], i as u8, "reply {i} out of order");
        }
    }

    #[test]
    fn connect_to_closed_port_is_refused() {
        let mut el = EventLoop::new(LoopConfig::seeded(3));
        let net = SimNet::new();
        let client = el.enter(|cx| Client::connect(cx, &net, 9999));
        el.run();
        assert!(client.refused());
        assert!(client.received().is_empty());
    }

    #[test]
    fn duplicate_listen_is_eaddrinuse() {
        let mut el = EventLoop::new(LoopConfig::seeded(4));
        let net = SimNet::new();
        el.enter(|cx| {
            let s = net.listen(cx, 80, |_, _| {}).unwrap();
            assert_eq!(net.listen(cx, 80, |_, _| {}).err(), Some(Errno::Eaddrinuse));
            s.close(cx);
            // Port is free again.
            let s2 = net.listen(cx, 80, |_, _| {}).unwrap();
            s2.close(cx);
        });
    }

    #[test]
    fn client_close_triggers_server_close_callback() {
        let mut el = EventLoop::new(LoopConfig::seeded(5));
        let net = SimNet::new();
        let n = net.clone();
        el.enter(move |cx| {
            n.listen(cx, 80, |_cx, conn| {
                conn.on_close(|cx, _conn| cx.report_error("server-close", ""));
            })
            .unwrap();
        });
        let client = el.enter(|cx| {
            let c = Client::connect(cx, &net, 80);
            c.close_after(cx, VDur::millis(5));
            c
        });
        el.enter(|cx| net.close_all_listeners_after(cx, VDur::millis(50)));
        let report = el.run();
        assert!(report.has_error("server-close"));
        assert!(client.closed_at().is_some());
        assert_eq!(report.schedule.count(nodefz_rt::CbKind::Close), 1);
        assert_eq!(report.schedule.count(nodefz_rt::CbKind::NetAccept), 1);
    }

    #[test]
    fn server_end_notifies_client_and_rejects_writes() {
        let mut el = EventLoop::new(LoopConfig::seeded(6));
        let net = SimNet::new();
        let n = net.clone();
        el.enter(move |cx| {
            n.listen(cx, 80, |cx, conn| {
                conn.end(cx);
                // Double-end is a no-op.
                conn.end(cx);
            })
            .unwrap();
        });
        let client = el.enter(|cx| Client::connect(cx, &net, 80));
        el.enter(|cx| net.close_all_listeners_after(cx, VDur::millis(50)));
        el.run();
        assert!(client.closed_at().is_some());
    }

    #[test]
    fn write_after_close_is_enotconn() {
        let mut el = EventLoop::new(LoopConfig::seeded(7));
        let net = SimNet::new();
        let n = net.clone();
        el.enter(move |cx| {
            n.listen(cx, 80, |cx, conn| {
                conn.end(cx);
                // end() queues the close; once it completes, writes fail.
                let c2 = conn.clone();
                cx.set_timeout(VDur::millis(20), move |cx| {
                    assert_eq!(c2.write(cx, b"late".to_vec()), Err(Errno::Enotconn));
                    assert!(!c2.is_open());
                });
            })
            .unwrap();
        });
        el.enter(|cx| {
            let _ = Client::connect(cx, &net, 80);
            net.close_all_listeners_after(cx, VDur::millis(60));
        });
        el.run();
    }

    #[test]
    fn data_sent_before_accept_is_buffered() {
        // The client connects and sends in the same instant; data may reach
        // the server before the accept dispatches, and must not be lost.
        let mut el = EventLoop::new(LoopConfig::seeded(8));
        let net = SimNet::new();
        let n = net.clone();
        let got = Rc::new(RefCell::new(0u32));
        let g = got.clone();
        el.enter(move |cx| {
            n.listen(cx, 80, move |_cx, conn| {
                let g = g.clone();
                conn.on_data(move |_cx, _conn, _| *g.borrow_mut() += 1);
            })
            .unwrap();
        });
        el.enter(|cx| {
            let c = Client::connect(cx, &net, 80);
            c.send(cx, b"a".to_vec());
            c.send(cx, b"b".to_vec());
            c.send(cx, b"c".to_vec());
            c.close_after(cx, VDur::millis(80));
            net.close_all_listeners_after(cx, VDur::millis(100));
        });
        el.run();
        assert_eq!(*got.borrow(), 3);
    }

    #[test]
    fn on_reply_scripting_runs() {
        let (mut el, net) = echo_loop(9);
        let replies = Rc::new(RefCell::new(0u32));
        let r = replies.clone();
        el.enter(move |cx| {
            let c = Client::connect(cx, &net, 80);
            c.on_reply(move |_cx, _msg| *r.borrow_mut() += 1);
            c.send(cx, b"x".to_vec());
            c.close_after(cx, VDur::millis(40));
            net.close_all_listeners_after(cx, VDur::millis(50));
        });
        el.run();
        assert_eq!(*replies.borrow(), 1);
    }

    #[test]
    fn cross_connection_order_varies_with_env_seed() {
        // Two clients each send one message; across seeds, the arrival
        // order differs — the nondeterminism §4.2.1 describes.
        let mut first_arrivals = std::collections::BTreeSet::new();
        for seed in 0..20 {
            let mut el = EventLoop::new(LoopConfig::seeded(seed));
            let net = SimNet::new();
            let n = net.clone();
            let first = Rc::new(RefCell::new(None));
            let f = first.clone();
            el.enter(move |cx| {
                n.listen(cx, 80, move |_cx, conn| {
                    let f = f.clone();
                    conn.on_data(move |_cx, _conn, msg| {
                        f.borrow_mut().get_or_insert(msg.to_vec());
                    });
                })
                .unwrap();
            });
            el.enter(|cx| {
                for tag in [b"A", b"B"] {
                    let c = Client::connect(cx, &net, 80);
                    c.send(cx, tag.to_vec());
                    c.close_after(cx, VDur::millis(40));
                }
                net.close_all_listeners_after(cx, VDur::millis(50));
            });
            el.run();
            let observed = first.borrow().clone();
            if let Some(m) = observed {
                first_arrivals.insert(m);
            }
        }
        assert_eq!(
            first_arrivals.len(),
            2,
            "both orders should appear across seeds"
        );
    }

    #[test]
    fn unclosed_connection_reports_hang() {
        // A connection nobody ever closes keeps the loop alive with no
        // possible wakeup: the run ends as Hung (a "request hangs" impact).
        let (mut el, net) = echo_loop(11);
        el.enter(|cx| {
            let _ = Client::connect(cx, &net, 80);
            net.close_all_listeners_after(cx, VDur::millis(20));
        });
        let report = el.run();
        assert_eq!(report.termination, Termination::Hung);
    }

    #[test]
    fn unref_listener_lets_loop_quiesce() {
        let mut el = EventLoop::new(LoopConfig::seeded(10));
        let net = SimNet::new();
        el.enter(|cx| {
            let server = net.listen(cx, 80, |_, _| {}).unwrap();
            assert_eq!(server.port(), 80);
            server.unref(cx);
        });
        let report = el.run();
        assert_eq!(report.termination, Termination::Quiescent);
    }
}
