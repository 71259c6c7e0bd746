//! # nodefz-kv — simulated key-value back-end
//!
//! A Redis/Mongo-like store as seen from a Node.js process: an external,
//! single-threaded server reached over a small connection pool. Every
//! operation is asynchronous; its reply returns after a jittered round trip,
//! so the *completion order of independent operations differs from their
//! submission order* — the exact nondeterminism behind the database races in
//! the paper's study (GHO's duplicate-insert, KUE's failed/delayed state,
//! MGS's premature populate).
//!
//! Guarantees (and non-guarantees), mirroring real deployments:
//!
//! * The server applies operations atomically, one at a time, in arrival
//!   order (a single-threaded Redis).
//! * Replies on one pooled connection return in request order; replies
//!   *across* connections are unordered.
//!
//! A request and its reply are typed environment wakeups ([`EnvTarget`]):
//! the request waits in the store's own in-flight queue, so the round trip
//! boxes nothing but the caller's reply callback.
//!
//! ## Example
//!
//! ```
//! use nodefz_kv::Kv;
//! use nodefz_rt::{EventLoop, LoopConfig};
//!
//! let mut el = EventLoop::new(LoopConfig::seeded(9));
//! let kv = el.enter(|cx| Kv::connect(cx, 2).unwrap());
//! let k = kv.clone();
//! el.enter(move |cx| {
//!     let k2 = k.clone();
//!     k.set(cx, "user:1", "alice", move |cx, ()| {
//!         k2.get(cx, "user:1", |_cx, v| assert_eq!(v.as_deref(), Some("alice")));
//!     });
//! });
//! el.run();
//! assert_eq!(kv.get_sync("user:1").as_deref(), Some("alice"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;
use std::rc::Rc;

use nodefz_rt::{Ctx, EnvTarget, Errno, Fd, FdKind, Rng, VDur, VTime};

/// Round-trip timing model for the store.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KvTiming {
    /// One-way network latency.
    pub latency: VDur,
    /// Latency jitter fraction.
    pub latency_jitter: f64,
    /// Server per-operation processing time.
    pub proc: VDur,
    /// Processing jitter fraction.
    pub proc_jitter: f64,
}

impl Default for KvTiming {
    fn default() -> KvTiming {
        KvTiming {
            latency: VDur::millis(1),
            latency_jitter: 0.8,
            proc: VDur::micros(200),
            proc_jitter: 0.8,
        }
    }
}

#[derive(Clone, Debug)]
enum Value {
    Str(String),
    List(VecDeque<String>),
}

/// A reply from the store.
#[derive(Clone, Debug, PartialEq)]
enum Reply {
    Nil,
    Str(String),
    Bool(bool),
    Int(i64),
    Rows(Vec<(String, String)>),
    Unit,
}

enum Op {
    Get(String),
    Set(String, String),
    SetNx(String, String),
    Del(String),
    Incr(String),
    LPush(String, String),
    Find(String),
}

type ReplyCb = Box<dyn FnOnce(&mut Ctx<'_>, Reply)>;

struct ConnSlot {
    fd: Fd,
    /// Replies ready for dispatch, FIFO.
    done: VecDeque<(Reply, ReplyCb)>,
    /// FIFO clamp for reply arrival times.
    last_reply: VTime,
}

/// A request on its way to the server.
struct Request {
    op: Op,
    cb: ReplyCb,
    /// The pooled connection it travels on.
    slot: usize,
    /// Earliest time its reply can reach the client.
    reply_base: VTime,
}

struct KvState {
    data: BTreeMap<String, Value>,
    conns: Vec<ConnSlot>,
    /// Requests on their way to the server. The server starts each one
    /// no earlier than it finished the one before, so they arrive in
    /// submission order (ties keep their scheduling order).
    flight: VecDeque<Request>,
    next_conn: usize,
    timing: KvTiming,
    rng: Option<Rng>,
    /// When the single-threaded server frees up.
    server_free_at: VTime,
    requests: u64,
}

/// A wakeup's token: the next request in flight reaches the server, or
/// (odd tokens) a reply reaches the client on connection `token >> 1`.
const ARRIVE: u64 = 0;
const REPLY: u64 = 1;

/// The state every [`Kv`] clone shares, and the target of the store's
/// environment wakeups. A local newtype, so that it may implement the
/// runtime's [`EnvTarget`].
struct Shared(RefCell<KvState>);

impl Deref for Shared {
    type Target = RefCell<KvState>;

    fn deref(&self) -> &RefCell<KvState> {
        &self.0
    }
}

impl EnvTarget for Shared {
    fn wake(self: Rc<Self>, cx: &mut Ctx<'_>, token: u64) {
        let kv = Kv { inner: self };
        if token & 1 == REPLY {
            let fd = kv.inner.borrow().conns[(token >> 1) as usize].fd;
            let _ = cx.mark_ready(fd);
        } else {
            kv.arrive(cx);
        }
    }
}

/// Client handle to the simulated store. Cheap to clone; clones share the
/// pool and data.
#[derive(Clone)]
pub struct Kv {
    inner: Rc<Shared>,
}

impl Kv {
    /// Connects a pool of `pool_size` connections to a fresh store.
    ///
    /// # Errors
    ///
    /// `EMFILE` when descriptors are exhausted; `EINVAL` for an empty pool.
    pub fn connect(cx: &mut Ctx<'_>, pool_size: usize) -> Result<Kv, Errno> {
        Kv::connect_with(cx, pool_size, KvTiming::default())
    }

    /// Connects with a custom timing model.
    ///
    /// # Errors
    ///
    /// `EMFILE` when descriptors are exhausted; `EINVAL` for an empty pool.
    pub fn connect_with(cx: &mut Ctx<'_>, pool_size: usize, timing: KvTiming) -> Result<Kv, Errno> {
        if pool_size == 0 {
            return Err(Errno::Einval);
        }
        let kv = Kv {
            inner: Rc::new(Shared(RefCell::new(KvState {
                data: BTreeMap::new(),
                conns: Vec::new(),
                flight: VecDeque::new(),
                next_conn: 0,
                timing,
                rng: None,
                server_free_at: VTime::ZERO,
                requests: 0,
            }))),
        };
        for _ in 0..pool_size {
            let fd = cx.alloc_fd(FdKind::KvConn)?;
            // Idle pooled connections do not keep the loop alive (the
            // driver would time them out); pending replies do, via the
            // environment queue.
            cx.set_fd_refd(fd, false)?;
            let kvc = kv.clone();
            cx.register_watcher(fd, move |cx, fd| kvc.dispatch(cx, fd))?;
            kv.inner.borrow_mut().conns.push(ConnSlot {
                fd,
                done: VecDeque::new(),
                last_reply: VTime::ZERO,
            });
        }
        Ok(kv)
    }

    fn dispatch(&self, cx: &mut Ctx<'_>, fd: Fd) {
        let next = {
            let mut st = self.inner.borrow_mut();
            let Some(conn) = st.conns.iter_mut().find(|c| c.fd == fd) else {
                return;
            };
            conn.done.pop_front()
        };
        if let Some((reply, cb)) = next {
            cb(cx, reply);
        }
    }

    fn submit(&self, cx: &mut Ctx<'_>, op: Op, cb: ReplyCb) {
        let arrive_at = {
            let mut st = self.inner.borrow_mut();
            if st.rng.is_none() {
                st.rng = Some(cx.env_rng().fork());
            }
            st.requests += 1;
            let timing = st.timing;
            let slot = st.next_conn % st.conns.len();
            st.next_conn = st.next_conn.wrapping_add(1);
            let rng = st.rng.as_mut().expect("just initialized");
            let lat_out = rng.jitter(timing.latency, timing.latency_jitter);
            let proc = rng.jitter(timing.proc, timing.proc_jitter);
            let lat_back = rng.jitter(timing.latency, timing.latency_jitter);
            // Single-threaded server: requests queue behind each other.
            let arrive = cx.now() + lat_out;
            let start = arrive.max(st.server_free_at);
            let done = start + proc;
            st.server_free_at = done;
            st.flight.push_back(Request {
                op,
                cb,
                slot,
                reply_base: done + lat_back,
            });
            done
        };
        // The operation applies atomically on the server at `arrive_at`.
        cx.wake_env_at(arrive_at, &self.inner, ARRIVE);
    }

    /// The next request in flight reaches the server: apply it and send
    /// the reply back on its connection, FIFO.
    fn arrive(&self, cx: &mut Ctx<'_>) {
        let Request {
            op,
            cb,
            slot,
            reply_base,
        } = self
            .inner
            .borrow_mut()
            .flight
            .pop_front()
            .expect("a request is in flight");
        let reply = self.apply(op);
        let reply_at = {
            let mut st = self.inner.borrow_mut();
            let conn = &mut st.conns[slot];
            let at = reply_base.max(conn.last_reply + VDur::nanos(1));
            conn.last_reply = at;
            conn.done.push_back((reply, cb));
            at
        };
        cx.wake_env_at(reply_at, &self.inner, (slot as u64) << 1 | REPLY);
    }

    fn apply(&self, op: Op) -> Reply {
        let mut st = self.inner.borrow_mut();
        match op {
            Op::Get(k) => match st.data.get(&k) {
                Some(Value::Str(s)) => Reply::Str(s.clone()),
                _ => Reply::Nil,
            },
            Op::Set(k, v) => {
                st.data.insert(k, Value::Str(v));
                Reply::Unit
            }
            Op::SetNx(k, v) => {
                if let std::collections::btree_map::Entry::Vacant(e) = st.data.entry(k) {
                    e.insert(Value::Str(v));
                    Reply::Bool(true)
                } else {
                    Reply::Bool(false)
                }
            }
            Op::Del(k) => Reply::Bool(st.data.remove(&k).is_some()),
            Op::Incr(k) => {
                let next = match st.data.get(&k) {
                    Some(Value::Str(s)) => s.parse::<i64>().unwrap_or(0) + 1,
                    _ => 1,
                };
                st.data.insert(k, Value::Str(next.to_string()));
                Reply::Int(next)
            }
            Op::LPush(k, v) => {
                match st
                    .data
                    .entry(k)
                    .or_insert_with(|| Value::List(VecDeque::new()))
                {
                    Value::List(list) => {
                        list.push_front(v);
                        Reply::Int(list.len() as i64)
                    }
                    Value::Str(_) => Reply::Nil,
                }
            }
            Op::Find(prefix) => {
                let rows: Vec<(String, String)> = st
                    .data
                    .range(prefix.clone()..)
                    .take_while(|(k, _)| k.starts_with(&prefix))
                    .filter_map(|(k, v)| match v {
                        Value::Str(s) => Some((k.clone(), s.clone())),
                        Value::List(_) => None,
                    })
                    .collect();
                Reply::Rows(rows)
            }
        }
    }

    // ---- Typed operations ----------------------------------------------------

    /// `GET key` — fetches a string value.
    pub fn get(
        &self,
        cx: &mut Ctx<'_>,
        key: &str,
        cb: impl FnOnce(&mut Ctx<'_>, Option<String>) + 'static,
    ) {
        self.submit(
            cx,
            Op::Get(key.to_string()),
            Box::new(move |cx, r| {
                cb(
                    cx,
                    match r {
                        Reply::Str(s) => Some(s),
                        _ => None,
                    },
                )
            }),
        );
    }

    /// `SET key value`.
    pub fn set(
        &self,
        cx: &mut Ctx<'_>,
        key: &str,
        value: &str,
        cb: impl FnOnce(&mut Ctx<'_>, ()) + 'static,
    ) {
        self.submit(
            cx,
            Op::Set(key.to_string(), value.to_string()),
            Box::new(move |cx, _| cb(cx, ())),
        );
    }

    /// `SETNX key value` — returns whether the key was created.
    pub fn setnx(
        &self,
        cx: &mut Ctx<'_>,
        key: &str,
        value: &str,
        cb: impl FnOnce(&mut Ctx<'_>, bool) + 'static,
    ) {
        self.submit(
            cx,
            Op::SetNx(key.to_string(), value.to_string()),
            Box::new(move |cx, r| cb(cx, r == Reply::Bool(true))),
        );
    }

    /// `DEL key` — returns whether the key existed.
    pub fn del(&self, cx: &mut Ctx<'_>, key: &str, cb: impl FnOnce(&mut Ctx<'_>, bool) + 'static) {
        self.submit(
            cx,
            Op::Del(key.to_string()),
            Box::new(move |cx, r| cb(cx, r == Reply::Bool(true))),
        );
    }

    /// `INCR key` — returns the incremented value.
    pub fn incr(&self, cx: &mut Ctx<'_>, key: &str, cb: impl FnOnce(&mut Ctx<'_>, i64) + 'static) {
        self.submit(
            cx,
            Op::Incr(key.to_string()),
            Box::new(move |cx, r| {
                cb(
                    cx,
                    match r {
                        Reply::Int(i) => i,
                        _ => 0,
                    },
                )
            }),
        );
    }

    /// `LPUSH key value` — returns the new list length.
    pub fn lpush(
        &self,
        cx: &mut Ctx<'_>,
        key: &str,
        value: &str,
        cb: impl FnOnce(&mut Ctx<'_>, i64) + 'static,
    ) {
        self.submit(
            cx,
            Op::LPush(key.to_string(), value.to_string()),
            Box::new(move |cx, r| {
                cb(
                    cx,
                    match r {
                        Reply::Int(i) => i,
                        _ => -1,
                    },
                )
            }),
        );
    }

    /// A Mongo-style `find`: every string key with the given prefix.
    pub fn find(
        &self,
        cx: &mut Ctx<'_>,
        prefix: &str,
        cb: impl FnOnce(&mut Ctx<'_>, Vec<(String, String)>) + 'static,
    ) {
        self.submit(
            cx,
            Op::Find(prefix.to_string()),
            Box::new(move |cx, r| {
                cb(
                    cx,
                    match r {
                        Reply::Rows(rows) => rows,
                        _ => Vec::new(),
                    },
                )
            }),
        );
    }

    // ---- Synchronous inspection (oracles and setup) --------------------------

    /// Reads a string value right now (oracle helper).
    pub fn get_sync(&self, key: &str) -> Option<String> {
        match self.inner.borrow().data.get(key) {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        }
    }

    /// Writes a string value right now (setup helper).
    pub fn set_sync(&self, key: &str, value: &str) {
        self.inner
            .borrow_mut()
            .data
            .insert(key.to_string(), Value::Str(value.to_string()));
    }

    /// Number of string keys with the given prefix (oracle helper).
    pub fn count_prefix_sync(&self, prefix: &str) -> usize {
        self.inner
            .borrow()
            .data
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .count()
    }

    /// Current length of a list key (oracle helper).
    pub fn list_len_sync(&self, key: &str) -> usize {
        match self.inner.borrow().data.get(key) {
            Some(Value::List(l)) => l.len(),
            _ => 0,
        }
    }

    /// Total requests submitted (diagnostics).
    pub fn requests(&self) -> u64 {
        self.inner.borrow().requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_rt::{EventLoop, LoopConfig};

    fn run_kv(seed: u64, pool: usize, setup: impl FnOnce(&mut Ctx<'_>, Kv)) -> Kv {
        let mut el = EventLoop::new(LoopConfig::seeded(seed));
        let kv = el.enter(|cx| Kv::connect(cx, pool).unwrap());
        let k = kv.clone();
        el.enter(move |cx| setup(cx, k));
        el.run();
        kv
    }

    #[test]
    fn set_get_roundtrip() {
        let kv = run_kv(1, 2, |cx, kv| {
            let kv2 = kv.clone();
            kv.set(cx, "a", "1", move |cx, ()| {
                kv2.get(cx, "a", |cx, v| {
                    assert_eq!(v.as_deref(), Some("1"));
                    cx.report_error("got", "");
                });
            });
        });
        assert_eq!(kv.get_sync("a").as_deref(), Some("1"));
    }

    #[test]
    fn get_missing_is_none() {
        run_kv(2, 1, |cx, kv| {
            kv.get(cx, "ghost", |_cx, v| assert!(v.is_none()));
        });
    }

    #[test]
    fn setnx_only_first_wins() {
        let kv = run_kv(3, 1, |cx, kv| {
            let kv2 = kv.clone();
            kv.setnx(cx, "lock", "me", move |cx, won| {
                assert!(won);
                kv2.setnx(cx, "lock", "you", |_cx, won| assert!(!won));
            });
        });
        assert_eq!(kv.get_sync("lock").as_deref(), Some("me"));
    }

    #[test]
    fn del_and_incr() {
        run_kv(5, 2, |cx, kv| {
            let kv2 = kv.clone();
            kv.incr(cx, "n", move |cx, v| {
                assert_eq!(v, 1);
                let kv3 = kv2.clone();
                kv2.incr(cx, "n", move |cx, v| {
                    assert_eq!(v, 2);
                    let kv4 = kv3.clone();
                    kv3.del(cx, "n", move |cx, existed| {
                        assert!(existed);
                        kv4.del(cx, "n", |_cx, existed| assert!(!existed));
                    });
                });
            });
        });
    }

    #[test]
    fn list_push_reports_the_length() {
        let kv = run_kv(6, 1, |cx, kv| {
            let kv2 = kv.clone();
            kv.lpush(cx, "q", "first", move |cx, len| {
                assert_eq!(len, 1);
                kv2.lpush(cx, "q", "second", |_cx, len| assert_eq!(len, 2));
            });
        });
        assert_eq!(kv.list_len_sync("q"), 2);
    }

    #[test]
    fn find_returns_prefix_rows() {
        run_kv(7, 1, |cx, kv| {
            kv.set_sync("user:1", "a");
            kv.set_sync("user:2", "b");
            kv.set_sync("zzz", "c");
            kv.find(cx, "user:", |_cx, rows| {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].0, "user:1");
                assert_eq!(rows[1].0, "user:2");
            });
        });
    }

    #[test]
    fn replies_on_one_conn_are_fifo() {
        // Pool of 1: completion order must equal submission order.
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = order.clone();
        run_kv(8, 1, move |cx, kv| {
            for i in 0..10 {
                let o = o.clone();
                kv.set(cx, &format!("k{i}"), "v", move |_cx, ()| {
                    o.borrow_mut().push(i);
                });
            }
        });
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_replies_can_reorder() {
        // Pool of 4: across seeds, completion order differs from
        // submission order at least once.
        let mut reordered = false;
        for seed in 0..20 {
            let order = Rc::new(RefCell::new(Vec::new()));
            let o = order.clone();
            run_kv(100 + seed, 4, move |cx, kv| {
                for i in 0..8 {
                    let o = o.clone();
                    kv.set(cx, &format!("k{i}"), "v", move |_cx, ()| {
                        o.borrow_mut().push(i);
                    });
                }
            });
            if *order.borrow() != (0..8).collect::<Vec<_>>() {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "pool should reorder completions across seeds");
    }

    #[test]
    fn empty_pool_rejected() {
        let mut el = EventLoop::new(LoopConfig::seeded(9));
        el.enter(|cx| {
            assert_eq!(Kv::connect(cx, 0).err(), Some(Errno::Einval));
        });
    }

    #[test]
    fn counters_track_requests() {
        let kv = run_kv(10, 2, |cx, kv| {
            kv.set(cx, "a", "1", |_cx, ()| {});
            kv.get(cx, "a", |_cx, _| {});
        });
        assert_eq!(kv.requests(), 2);
        assert_eq!(kv.count_prefix_sync("a"), 1);
        assert_eq!(kv.count_prefix_sync("nope"), 0);
    }
}
