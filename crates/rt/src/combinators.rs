//! Callback-composition utilities.
//!
//! These mirror the ordering tools the Node.js community uses to *fix* the
//! ordering violations in the paper's bug study (§3.4): the `async` module's
//! barrier (`async.barrier` / `Promise.all`), explicit completion counters
//! (the MGS patch in Figure 4), sequential waterfalls (nested callbacks, the
//! KUE patch in Figure 3), and the `EventEmitter` whose synchronous,
//! registration-ordered listener dispatch the fuzzer must preserve (§4.3.1).

use std::cell::RefCell;
use std::rc::Rc;

use crate::ctx::Ctx;

/// An asynchronous barrier: runs `done` once `n` parties have arrived.
///
/// The EDA analogue of `MPI_Barrier` the paper mentions for the RST fix; also
/// equivalent to `Promise.all` over `n` promises.
///
/// # Examples
///
/// ```
/// use nodefz_rt::{Barrier, EventLoop, LoopConfig, VDur};
///
/// let mut el = EventLoop::new(LoopConfig::seeded(3));
/// el.enter(|cx| {
///     let barrier = Barrier::new(2, |cx| cx.report_error("all-done", ""));
///     for i in 0..2u64 {
///         let b = barrier.clone();
///         cx.set_timeout(VDur::millis(i + 1), move |cx| b.arrive(cx));
///     }
/// });
/// assert!(el.run().has_error("all-done"));
/// ```
#[derive(Clone)]
pub struct Barrier {
    inner: Rc<RefCell<BarrierState>>,
}

type BarrierCb = Box<dyn FnOnce(&mut Ctx<'_>)>;

struct BarrierState {
    remaining: usize,
    done: Option<BarrierCb>,
}

impl Barrier {
    /// Creates a barrier expecting `n` arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero (an empty barrier has no well-defined firing
    /// point in callback code; call `done` directly instead).
    pub fn new(n: usize, done: impl FnOnce(&mut Ctx<'_>) + 'static) -> Barrier {
        assert!(n > 0, "Barrier::new requires at least one party");
        Barrier {
            inner: Rc::new(RefCell::new(BarrierState {
                remaining: n,
                done: Some(Box::new(done)),
            })),
        }
    }

    /// Records one arrival; the last arrival runs the completion callback
    /// synchronously.
    pub fn arrive(&self, cx: &mut Ctx<'_>) {
        let done = {
            let mut st = self.inner.borrow_mut();
            if st.remaining == 0 {
                return; // Extra arrivals are ignored.
            }
            st.remaining -= 1;
            if st.remaining == 0 {
                st.done.take()
            } else {
                None
            }
        };
        if let Some(done) = done {
            done(cx);
        }
    }

    /// Parties still awaited.
    pub fn remaining(&self) -> usize {
        self.inner.borrow().remaining
    }
}

/// A step in a [`series`]: receives the context and a `next` continuation.
pub type SeriesStep = Box<dyn FnOnce(&mut Ctx<'_>, SeriesNext)>;

/// The continuation a series step calls to advance to the next step.
pub struct SeriesNext {
    rest: Rc<RefCell<Vec<SeriesStep>>>,
}

impl SeriesNext {
    /// Runs the next step (or nothing, if the series is exhausted).
    pub fn call(self, cx: &mut Ctx<'_>) {
        let step = self.rest.borrow_mut().pop();
        if let Some(step) = step {
            let next = SeriesNext { rest: self.rest };
            step(cx, next);
        }
    }
}

/// Runs asynchronous steps strictly in order, each advancing via its `next`
/// continuation — the "nested callbacks" fix pattern (KUE, Figure 3) without
/// the nesting.
pub fn series(cx: &mut Ctx<'_>, steps: Vec<SeriesStep>) {
    let mut rest = steps;
    rest.reverse();
    let next = SeriesNext {
        rest: Rc::new(RefCell::new(rest)),
    };
    next.call(cx);
}

type ListenerCb<E> = Rc<RefCell<dyn FnMut(&mut Ctx<'_>, &E)>>;

/// Identifier of a registered listener.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ListenerId(u64);

type ListenerEntry<E> = (ListenerId, ListenerCb<E>, bool);

struct EmitterState<E> {
    /// Listeners per event name, events in first-registration order.
    listeners: Vec<(&'static str, Vec<ListenerEntry<E>>)>,
    next: u64,
}

impl<E> EmitterState<E> {
    fn listeners_of(&self, event: &str) -> Option<&Vec<ListenerEntry<E>>> {
        self.listeners
            .iter()
            .find(|(name, _)| *name == event)
            .map(|(_, list)| list)
    }

    fn listeners_of_mut(&mut self, event: &str) -> Option<&mut Vec<ListenerEntry<E>>> {
        self.listeners
            .iter_mut()
            .find(|(name, _)| *name == event)
            .map(|(_, list)| list)
    }
}

/// A Node.js-style `EventEmitter`.
///
/// `emit` invokes every listener for the event *successively, synchronously,
/// and in registration order* — the documented contract the paper's fuzzer
/// explicitly refuses to break (§4.3.1), and which our fidelity tests check.
pub struct Emitter<E> {
    inner: Rc<RefCell<EmitterState<E>>>,
}

impl<E> Clone for Emitter<E> {
    fn clone(&self) -> Self {
        Emitter {
            inner: self.inner.clone(),
        }
    }
}

impl<E> Default for Emitter<E> {
    fn default() -> Self {
        Emitter::new()
    }
}

impl<E> Emitter<E> {
    /// Creates an emitter with no listeners.
    pub fn new() -> Emitter<E> {
        Emitter {
            inner: Rc::new(RefCell::new(EmitterState {
                listeners: Vec::new(),
                next: 0,
            })),
        }
    }

    /// Registers a persistent listener; returns its id.
    pub fn on(
        &self,
        event: &'static str,
        cb: impl FnMut(&mut Ctx<'_>, &E) + 'static,
    ) -> ListenerId {
        self.add(event, cb, false)
    }

    /// Registers a listener removed after its first invocation.
    pub fn once(
        &self,
        event: &'static str,
        cb: impl FnMut(&mut Ctx<'_>, &E) + 'static,
    ) -> ListenerId {
        self.add(event, cb, true)
    }

    fn add(
        &self,
        event: &'static str,
        cb: impl FnMut(&mut Ctx<'_>, &E) + 'static,
        once: bool,
    ) -> ListenerId {
        let mut st = self.inner.borrow_mut();
        let id = ListenerId(st.next);
        st.next += 1;
        let entry: ListenerEntry<E> = (id, Rc::new(RefCell::new(cb)), once);
        match st.listeners_of_mut(event) {
            Some(list) => list.push(entry),
            None => st.listeners.push((event, vec![entry])),
        }
        id
    }

    /// Removes a listener. Returns whether it was registered.
    pub fn remove_listener(&self, event: &'static str, id: ListenerId) -> bool {
        let mut st = self.inner.borrow_mut();
        if let Some(list) = st.listeners_of_mut(event) {
            let before = list.len();
            list.retain(|(lid, _, _)| *lid != id);
            return list.len() != before;
        }
        false
    }

    /// Number of listeners currently registered for `event`.
    pub fn listener_count(&self, event: &'static str) -> usize {
        self.inner.borrow().listeners_of(event).map_or(0, Vec::len)
    }

    /// Invokes all listeners for `event` in registration order.
    ///
    /// Returns the number of listeners invoked.
    pub fn emit(&self, cx: &mut Ctx<'_>, event: &'static str, payload: &E) -> usize {
        let snapshot: Vec<(ListenerId, ListenerCb<E>, bool)> = {
            let st = self.inner.borrow();
            st.listeners_of(event).cloned().unwrap_or_default()
        };
        for (id, cb, once) in &snapshot {
            if *once {
                self.remove_listener(event, *id);
            }
            (cb.borrow_mut())(cx, payload);
        }
        snapshot.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::looper::{EventLoop, LoopConfig};
    use crate::time::VDur;

    #[test]
    fn barrier_fires_after_all_arrivals() {
        let mut el = EventLoop::new(LoopConfig::seeded(1));
        el.enter(|cx| {
            let b = Barrier::new(3, |cx| cx.report_error("fired", ""));
            for i in 0..3u64 {
                let b = b.clone();
                cx.set_timeout(VDur::millis(i + 1), move |cx| b.arrive(cx));
            }
        });
        let report = el.run();
        assert!(report.has_error("fired"));
        assert_eq!(
            report.errors.iter().filter(|e| e.code == "fired").count(),
            1
        );
    }

    #[test]
    fn barrier_does_not_fire_early() {
        let mut el = EventLoop::new(LoopConfig::seeded(2));
        el.enter(|cx| {
            let b = Barrier::new(2, |cx| cx.report_error("fired", ""));
            assert_eq!(b.remaining(), 2);
            let b2 = b.clone();
            cx.set_timeout(VDur::millis(1), move |cx| {
                b2.arrive(cx);
                assert_eq!(b2.remaining(), 1);
            });
        });
        assert!(!el.run().has_error("fired"));
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn barrier_zero_rejected() {
        let _ = Barrier::new(0, |_| {});
    }

    #[test]
    fn series_runs_in_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut el = EventLoop::new(LoopConfig::seeded(3));
        el.enter(|cx| {
            let mk = |tag: u32, order: Rc<RefCell<Vec<u32>>>| -> SeriesStep {
                Box::new(move |cx: &mut Ctx<'_>, next: SeriesNext| {
                    // Each step completes via an async hop of varying delay;
                    // the series must still run 1, 2, 3.
                    cx.set_timeout(VDur::millis((4 - tag) as u64), move |cx| {
                        order.borrow_mut().push(tag);
                        next.call(cx);
                    });
                })
            };
            series(
                cx,
                vec![
                    mk(1, order.clone()),
                    mk(2, order.clone()),
                    mk(3, order.clone()),
                ],
            );
        });
        el.run();
        assert_eq!(*order.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn emitter_in_registration_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut el = EventLoop::new(LoopConfig::seeded(4));
        el.enter(|cx| {
            let em: Emitter<u32> = Emitter::new();
            for tag in 0..5u32 {
                let order = order.clone();
                em.on("evt", move |_, payload| {
                    order.borrow_mut().push((tag, *payload));
                });
            }
            assert_eq!(em.emit(cx, "evt", &7), 5);
        });
        let got = order.borrow().clone();
        assert_eq!(got, (0..5).map(|t| (t, 7)).collect::<Vec<_>>());
    }

    #[test]
    fn emitter_once_runs_once() {
        let count = Rc::new(RefCell::new(0));
        let mut el = EventLoop::new(LoopConfig::seeded(5));
        el.enter(|cx| {
            let em: Emitter<()> = Emitter::new();
            let c = count.clone();
            em.once("evt", move |_, _| *c.borrow_mut() += 1);
            em.emit(cx, "evt", &());
            em.emit(cx, "evt", &());
            assert_eq!(em.listener_count("evt"), 0);
        });
        assert_eq!(*count.borrow(), 1);
    }

    #[test]
    fn emitter_remove_listener() {
        let mut el = EventLoop::new(LoopConfig::seeded(6));
        el.enter(|cx| {
            let em: Emitter<()> = Emitter::new();
            let id = em.on("evt", |_, _| panic!("should not run"));
            assert!(em.remove_listener("evt", id));
            assert!(!em.remove_listener("evt", id));
            assert!(!em.remove_listener("other", id));
            assert_eq!(em.emit(cx, "evt", &()), 0);
        });
    }

    #[test]
    fn emitter_unknown_event_is_noop() {
        let mut el = EventLoop::new(LoopConfig::seeded(7));
        el.enter(|cx| {
            let em: Emitter<u8> = Emitter::new();
            assert_eq!(em.emit(cx, "nothing", &0), 0);
            assert_eq!(em.listener_count("nothing"), 0);
        });
    }
}
