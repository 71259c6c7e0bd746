//! The environment timeline.
//!
//! Everything that happens "outside" the process — packets arriving, worker
//! tasks finishing, back-end servers replying — is a timestamped entry in a
//! virtual-time priority queue. Substrates schedule entries (with jittered
//! delays drawn from the environment RNG) and the poll phase drains them,
//! which is how virtual time advances while the loop would block in epoll.
//!
//! The queue is key-only, like the timer heap: the binary heap sifts small
//! `(time, sequence, slot)` keys, and the actions stay put in a slab whose
//! freed slots are recycled through a free list. Entries pop in
//! `(time, sequence)` order — earliest first, FIFO among equal times.
//!
//! Per-message traffic schedules a typed wakeup ([`EnvTarget`]): the
//! substrate keeps the payload in its own state under a token, so the
//! entry costs a reference-count bump instead of a boxed closure.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::ctx::Ctx;
use crate::pool::TaskId;
use crate::time::VTime;

/// A substrate the environment timeline wakes with a token.
///
/// [`Ctx::wake_env_at`] schedules a wakeup; when it falls due, the poll
/// phase calls [`EnvTarget::wake`] exactly where it would have run a
/// [`Ctx::schedule_env_at`] closure: same `(time, sequence)` order, same
/// `Env` event in the event log, caused by the scheduling callback. The
/// token tells the target what arrived — typically the index of a payload
/// the target holds in its own queues.
pub trait EnvTarget {
    /// Handles one due wakeup.
    fn wake(self: Rc<Self>, cx: &mut Ctx<'_>, token: u64);
}

/// A scheduled environment occurrence.
pub(crate) enum EnvAction {
    /// A running worker-pool task reaches its finish time.
    TaskFinish(TaskId),
    /// Re-examine the worker pool (used by the serialized worker's
    /// lookahead wait, §4.3.4 "max delay").
    PoolWakeup,
    /// An arbitrary environment effect (packet delivery, back-end reply…).
    /// Runs with loop context but is not traced as an application callback.
    /// Carries the event that scheduled it (provenance for the event log;
    /// `None` when no log is attached or the scheduling code was untracked).
    Custom(Box<dyn FnOnce(&mut Ctx<'_>)>, Option<crate::events::CbId>),
    /// A typed wakeup of a substrate ([`EnvTarget`]) with its token. Drained
    /// exactly like `Custom`, and carries the same provenance.
    Wake(Rc<dyn EnvTarget>, u64, Option<crate::events::CbId>),
}

/// A popped entry: its due time and action.
pub(crate) struct EnvEntry {
    pub at: VTime,
    pub action: EnvAction,
}

#[derive(Default)]
pub(crate) struct EnvQueue {
    /// `(due time, sequence, slot)`; the sequence makes keys unique, so the
    /// slot never decides the order.
    heap: BinaryHeap<Reverse<(VTime, u64, usize)>>,
    /// Action slab; `None` marks a free slot (listed in `free`).
    slots: Vec<Option<EnvAction>>,
    free: Vec<usize>,
    next_seq: u64,
}

impl EnvQueue {
    pub fn schedule(&mut self, at: VTime, action: EnvAction) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(action);
                slot
            }
            None => {
                self.slots.push(Some(action));
                self.slots.len() - 1
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
    }

    /// Earliest scheduled time, if any.
    pub fn next_time(&self) -> Option<VTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Pops the next entry if it is due at or before `now`.
    pub fn pop_due(&mut self, now: VTime) -> Option<EnvEntry> {
        let &Reverse((at, _, slot)) = self.heap.peek()?;
        if at > now {
            return None;
        }
        self.heap.pop();
        let action = self.slots[slot]
            .take()
            .expect("queued slot holds an action");
        self.free.push(slot);
        Some(EnvEntry { at, action })
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Clears all state for a fresh run, keeping allocated capacity.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
        self.next_seq = 0;
    }

    /// Scheduled entries (due or not).
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_earliest_first() {
        let mut q = EnvQueue::default();
        q.schedule(VTime(30), EnvAction::PoolWakeup);
        q.schedule(VTime(10), EnvAction::PoolWakeup);
        q.schedule(VTime(20), EnvAction::PoolWakeup);
        assert_eq!(q.next_time(), Some(VTime(10)));
        assert_eq!(q.pop_due(VTime(100)).unwrap().at, VTime(10));
        assert_eq!(q.pop_due(VTime(100)).unwrap().at, VTime(20));
        assert_eq!(q.pop_due(VTime(100)).unwrap().at, VTime(30));
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EnvQueue::default();
        q.schedule(VTime(10), EnvAction::TaskFinish(TaskId(1)));
        q.schedule(VTime(10), EnvAction::TaskFinish(TaskId(2)));
        let first = q.pop_due(VTime(10)).unwrap();
        let second = q.pop_due(VTime(10)).unwrap();
        match (first.action, second.action) {
            (EnvAction::TaskFinish(a), EnvAction::TaskFinish(b)) => {
                assert_eq!(a, TaskId(1));
                assert_eq!(b, TaskId(2));
            }
            _ => panic!("unexpected actions"),
        }
    }

    #[test]
    fn not_due_stays_queued() {
        let mut q = EnvQueue::default();
        q.schedule(VTime(50), EnvAction::PoolWakeup);
        assert!(q.pop_due(VTime(49)).is_none());
        assert_eq!(q.len(), 1);
        assert!(q.pop_due(VTime(50)).is_some());
    }

    /// A wake target that never runs: the queue only stores and orders it.
    struct Inert;

    impl EnvTarget for Inert {
        fn wake(self: Rc<Self>, _cx: &mut Ctx<'_>, _token: u64) {}
    }

    /// Random interleavings of `schedule` and `pop_due`, drawing task
    /// finishes and typed wakeups alike, against an ordered map keyed by
    /// `(time, schedule order)`: the pop order must match it exactly, a
    /// wakeup must come back with its token, and freed slots must be
    /// reused so the slab never outgrows the peak number of live entries.
    #[test]
    fn matches_ordered_map_model() {
        nodefz_check::forall("envq_matches_ordered_map_model", 128, |g| {
            let mut q = EnvQueue::default();
            let mut model = std::collections::BTreeMap::new();
            let target = Rc::new(Inert);
            let (mut seq, mut now, mut peak) = (0u64, 0u64, 0usize);
            for _ in 0..g.range_usize(1, 400) {
                if g.below(3) < 2 {
                    // Small time range: plenty of equal-time ties.
                    let at = VTime(now + g.below(8));
                    let wake = g.below(2) == 0;
                    let action = if wake {
                        EnvAction::Wake(target.clone(), seq, None)
                    } else {
                        EnvAction::TaskFinish(TaskId(seq))
                    };
                    q.schedule(at, action);
                    model.insert((at, seq), (wake, seq));
                    seq += 1;
                    peak = peak.max(model.len());
                } else {
                    now += g.below(4);
                    let want = match model.first_key_value() {
                        Some((&(at, _), _)) if at.0 <= now => {
                            model.pop_first().map(|((at, _), entry)| (at, entry))
                        }
                        _ => None,
                    };
                    let got = q.pop_due(VTime(now)).map(|e| match e.action {
                        EnvAction::TaskFinish(TaskId(id)) => (e.at, (false, id)),
                        EnvAction::Wake(_, token, _) => (e.at, (true, token)),
                        _ => panic!("unexpected action"),
                    });
                    assert_eq!(got, want, "pop at {now}");
                }
                assert_eq!(q.len(), model.len());
                assert_eq!(q.next_time(), model.keys().next().map(|(at, _)| *at));
                assert!(
                    q.slots.len() <= peak,
                    "slab {} > peak {peak}",
                    q.slots.len()
                );
            }
            q.reset();
            assert_eq!(q.len(), 0);
            assert!(q.is_empty() && q.next_time().is_none());
            assert_eq!(
                Rc::strong_count(&target),
                1,
                "reset keeps a wake target alive"
            );
        });
    }
}
