//! The timer subsystem.
//!
//! Timers mirror libuv's: a binary heap ordered by `(deadline, registration
//! sequence)`. That secondary ordering is undocumented but relied upon by
//! real test suites, which is why the fuzz scheduler's timer deferral
//! short-circuits instead of reordering (§4.3.4 of the paper).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::ctx::Ctx;
use crate::time::{VDur, VTime};

/// Identifier of a registered timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// A timer callback. Receives the loop context; periodic timers keep their
/// callback across firings.
pub type TimerCb = Rc<RefCell<dyn FnMut(&mut Ctx<'_>)>>;

pub(crate) struct TimerEntry {
    pub id: TimerId,
    pub deadline: VTime,
    pub period: Option<VDur>,
    pub cb: TimerCb,
    pub seq: u64,
}

#[derive(Default)]
pub(crate) struct TimerHeap {
    heap: BinaryHeap<Reverse<(VTime, u64, TimerId)>>,
    /// Timer slab, indexed by `TimerId` (ids are allocated sequentially
    /// from 0). `None` marks a cancelled or currently-popped timer.
    entries: Vec<Option<TimerEntry>>,
    /// Count of `Some` slots.
    live: usize,
    next_seq: u64,
}

impl TimerHeap {
    /// Clears all state for a fresh run, keeping allocated capacity.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.entries.clear();
        self.live = 0;
        self.next_seq = 0;
    }

    fn slot_of(&mut self, id: TimerId) -> Option<&mut Option<TimerEntry>> {
        self.entries.get_mut(id.0 as usize)
    }

    pub fn insert(&mut self, deadline: VTime, period: Option<VDur>, cb: TimerCb) -> TimerId {
        let id = TimerId(self.entries.len() as u64);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((deadline, seq, id)));
        self.entries.push(Some(TimerEntry {
            id,
            deadline,
            period,
            cb,
            seq,
        }));
        self.live += 1;
        id
    }

    /// Cancels a timer. Returns whether it was still registered.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        match self.slot_of(id).and_then(Option::take) {
            Some(_) => {
                self.live -= 1;
                true
            }
            None => false,
        }
    }

    /// Returns whether the timer is still registered.
    pub fn is_active(&self, id: TimerId) -> bool {
        self.entries.get(id.0 as usize).is_some_and(Option::is_some)
    }

    /// Number of live timers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Earliest live deadline, if any.
    pub fn next_deadline(&mut self) -> Option<VTime> {
        self.compact_top();
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Pops the next timer due at or before `now`, in (deadline, seq) order.
    pub fn pop_due(&mut self, now: VTime) -> Option<TimerEntry> {
        loop {
            self.compact_top();
            match self.heap.peek() {
                Some(Reverse((t, _, _))) if *t <= now => {
                    let Reverse((_, _, id)) = self.heap.pop().expect("peeked");
                    if let Some(entry) = self.slot_of(id).and_then(Option::take) {
                        self.live -= 1;
                        return Some(entry);
                    }
                    // Cancelled while queued: keep looking.
                }
                _ => return None,
            }
        }
    }

    /// Re-inserts a (periodic or deferred) entry keeping its identity.
    pub fn reinsert(&mut self, mut entry: TimerEntry, deadline: VTime) {
        entry.deadline = deadline;
        // A fresh sequence number: libuv's repeat timers re-enqueue at the
        // back among equal deadlines.
        entry.seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((deadline, entry.seq, entry.id)));
        self.restore(entry);
    }

    /// Re-inserts a deferred entry, preserving its sequence number so the
    /// libuv {timeout, registration} ordering is unchanged (§4.3.4).
    pub fn reinsert_deferred(&mut self, mut entry: TimerEntry, deadline: VTime) {
        entry.deadline = deadline;
        self.heap.push(Reverse((deadline, entry.seq, entry.id)));
        self.restore(entry);
    }

    /// Puts a popped entry back into its slab slot.
    fn restore(&mut self, entry: TimerEntry) {
        let idx = entry.id.0 as usize;
        debug_assert!(self.entries[idx].is_none(), "restoring a live timer");
        self.entries[idx] = Some(entry);
        self.live += 1;
    }

    /// Drops heap slots whose timers were cancelled.
    fn compact_top(&mut self) {
        while let Some(Reverse((_, seq, id))) = self.heap.peek() {
            match self.entries.get(id.0 as usize).and_then(Option::as_ref) {
                Some(e) if e.seq == *seq => break,
                _ => {
                    self.heap.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> TimerCb {
        Rc::new(RefCell::new(|_: &mut Ctx<'_>| {}))
    }

    #[test]
    fn pops_in_deadline_order() {
        let mut h = TimerHeap::default();
        let b = h.insert(VTime(200), None, noop());
        let a = h.insert(VTime(100), None, noop());
        assert_eq!(h.next_deadline(), Some(VTime(100)));
        assert_eq!(h.pop_due(VTime(500)).unwrap().id, a);
        assert_eq!(h.pop_due(VTime(500)).unwrap().id, b);
        assert!(h.pop_due(VTime(500)).is_none());
    }

    #[test]
    fn equal_deadlines_pop_in_registration_order() {
        let mut h = TimerHeap::default();
        let first = h.insert(VTime(100), None, noop());
        let second = h.insert(VTime(100), None, noop());
        assert_eq!(h.pop_due(VTime(100)).unwrap().id, first);
        assert_eq!(h.pop_due(VTime(100)).unwrap().id, second);
    }

    #[test]
    fn not_due_not_popped() {
        let mut h = TimerHeap::default();
        h.insert(VTime(100), None, noop());
        assert!(h.pop_due(VTime(99)).is_none());
        assert!(h.pop_due(VTime(100)).is_some());
    }

    #[test]
    fn cancel_prevents_pop() {
        let mut h = TimerHeap::default();
        let id = h.insert(VTime(10), None, noop());
        assert!(h.is_active(id));
        assert!(h.cancel(id));
        assert!(!h.is_active(id));
        assert!(!h.cancel(id));
        assert!(h.pop_due(VTime(100)).is_none());
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn cancel_updates_next_deadline() {
        let mut h = TimerHeap::default();
        let early = h.insert(VTime(10), None, noop());
        h.insert(VTime(20), None, noop());
        h.cancel(early);
        assert_eq!(h.next_deadline(), Some(VTime(20)));
    }

    #[test]
    fn reinsert_keeps_id_new_deadline() {
        let mut h = TimerHeap::default();
        let id = h.insert(VTime(10), Some(VDur(5)), noop());
        let e = h.pop_due(VTime(10)).unwrap();
        h.reinsert(e, VTime(15));
        assert!(h.is_active(id));
        assert_eq!(h.next_deadline(), Some(VTime(15)));
        assert_eq!(h.pop_due(VTime(15)).unwrap().id, id);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut h = TimerHeap::default();
        let id = h.insert(VTime(10), None, noop());
        h.insert(VTime(20), Some(VDur(5)), noop());
        h.reset();
        assert_eq!(h.len(), 0);
        assert!(!h.is_active(id));
        assert!(h.next_deadline().is_none());
        // Ids restart from zero after a reset.
        assert_eq!(h.insert(VTime(5), None, noop()), TimerId(0));
        assert_eq!(h.pop_due(VTime(5)).unwrap().id, TimerId(0));
    }

    #[test]
    fn reinserted_ties_go_last() {
        let mut h = TimerHeap::default();
        let a = h.insert(VTime(10), Some(VDur::ZERO), noop());
        let e = h.pop_due(VTime(10)).unwrap();
        h.reinsert(e, VTime(20));
        let b = h.insert(VTime(20), None, noop());
        // `b` registered after the reinsert, so `a` still pops first at the
        // shared deadline.
        assert_eq!(h.pop_due(VTime(20)).unwrap().id, a);
        assert_eq!(h.pop_due(VTime(20)).unwrap().id, b);
    }
}
