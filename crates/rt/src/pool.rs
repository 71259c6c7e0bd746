//! The worker pool (libuv threadpool analog).
//!
//! Applications offload expensive or blocking work (file-system operations,
//! DNS, user tasks) to the pool via [`Ctx::submit_work`]. Each task has a
//! *work* closure that executes "on a worker" at some virtual time and a
//! *done* callback that later executes on the event loop.
//!
//! Two delivery regimes exist, mirroring §4.3.3 of the paper:
//!
//! * **Multiplexed** (vanilla libuv): all completions land in a shared done
//!   queue signalled through a single descriptor; the loop drains the whole
//!   queue in one I/O event, executing done callbacks back-to-back.
//! * **De-multiplexed** (Node.fz): every task gets a private descriptor, so
//!   each done callback is an independent I/O event the scheduler may
//!   reorder or defer — at the cost of descriptor pressure (`EMFILE`).
//!
//! [`Ctx::submit_work`]: crate::Ctx::submit_work

use std::any::Any;
use std::collections::VecDeque;

use crate::ctx::Ctx;
use crate::poll::Fd;
use crate::rng::Rng;
use crate::time::{VDur, VTime};

/// Identifier of a submitted worker-pool task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Context handed to a task's work closure while it runs "on a worker".
pub struct WorkCtx<'a> {
    /// Virtual time at which the work executes.
    pub now: VTime,
    /// Deterministic randomness for the work body.
    pub rng: &'a mut Rng,
}

pub(crate) type WorkFn = Box<dyn FnOnce(&mut WorkCtx<'_>) -> Box<dyn Any>>;
pub(crate) type DoneFn = Box<dyn FnOnce(&mut Ctx<'_>, Box<dyn Any>)>;

pub(crate) struct QueuedTask {
    pub id: TaskId,
    pub work: WorkFn,
    pub done: DoneFn,
    pub cost: VDur,
    pub demux_fd: Option<Fd>,
    /// Submission time, kept for diagnostics.
    #[allow(dead_code)]
    pub submitted: VTime,
}

pub(crate) struct RunningTask {
    pub id: TaskId,
    pub work: WorkFn,
    pub done: DoneFn,
    pub demux_fd: Option<Fd>,
    /// Scheduled completion time (diagnostics; completion is env-driven).
    #[allow(dead_code)]
    pub finish: VTime,
}

pub(crate) struct CompletedTask {
    /// Task identity, kept for diagnostics.
    #[allow(dead_code)]
    pub id: TaskId,
    pub done: DoneFn,
    pub result: Box<dyn Any>,
}

/// Aggregate pool statistics for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks submitted.
    pub submitted: u64,
    /// Task bodies executed.
    pub executed: u64,
    /// Done callbacks delivered.
    pub completed: u64,
}

pub(crate) struct PoolState {
    pub queue: VecDeque<QueuedTask>,
    pub running: Vec<RunningTask>,
    /// Multiplexed completions awaiting the drain of the shared descriptor.
    pub done_mux: VecDeque<CompletedTask>,
    /// De-multiplexed completions keyed by their private descriptor. A flat
    /// vector: the set is small (bounded by in-flight tasks) and scanned
    /// once per delivery, so linear search beats hashing here.
    pub done_demux: Vec<(Fd, CompletedTask)>,
    /// The shared done descriptor (multiplexed mode).
    pub pool_fd: Option<Fd>,
    /// Whether `pool_fd` has an undelivered readiness mark.
    pub pool_fd_armed: bool,
    /// Serialized mode: when the lone worker started waiting for the queue
    /// to fill up to the lookahead.
    pub wait_since: Option<VTime>,
    pub next_id: u64,
    pub stats: PoolStats,
    pub rng: Rng,
    /// Jitter fraction applied to task cost hints.
    pub cost_jitter: f64,
}

impl PoolState {
    pub fn new(rng: Rng, cost_jitter: f64) -> PoolState {
        PoolState {
            queue: VecDeque::new(),
            running: Vec::new(),
            done_mux: VecDeque::new(),
            done_demux: Vec::new(),
            pool_fd: None,
            pool_fd_armed: false,
            wait_since: None,
            next_id: 0,
            stats: PoolStats::default(),
            rng,
            cost_jitter,
        }
    }

    /// Clears all state for a fresh run, keeping allocated capacity.
    pub fn reset(&mut self, rng: Rng, cost_jitter: f64) {
        self.queue.clear();
        self.running.clear();
        self.done_mux.clear();
        self.done_demux.clear();
        self.pool_fd = None;
        self.pool_fd_armed = false;
        self.wait_since = None;
        self.next_id = 0;
        self.stats = PoolStats::default();
        self.rng = rng;
        self.cost_jitter = cost_jitter;
    }

    /// Stores a de-multiplexed completion under its private descriptor.
    pub fn put_done_demux(&mut self, fd: Fd, task: CompletedTask) {
        self.done_demux.push((fd, task));
    }

    /// Removes and returns the completion stored under `fd`, if any.
    pub fn take_done_demux(&mut self, fd: Fd) -> Option<CompletedTask> {
        let idx = self.done_demux.iter().position(|(f, _)| *f == fd)?;
        Some(self.done_demux.swap_remove(idx).1)
    }

    pub fn next_task_id(&mut self) -> TaskId {
        let id = TaskId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Whether any task is queued, running, or awaiting completion delivery.
    pub fn busy(&self) -> bool {
        !self.queue.is_empty()
            || !self.running.is_empty()
            || !self.done_mux.is_empty()
            || !self.done_demux.is_empty()
    }

    /// Earliest finish time among running tasks.
    #[allow(dead_code)] // Exercised by tests; kept as a pool introspection point.
    pub fn next_finish(&self) -> Option<VTime> {
        self.running.iter().map(|t| t.finish).min()
    }

    /// Removes and returns the running task finishing exactly at `id`.
    pub fn take_running(&mut self, id: TaskId) -> Option<RunningTask> {
        let idx = self.running.iter().position(|t| t.id == id)?;
        Some(self.running.swap_remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_pool() -> PoolState {
        PoolState::new(Rng::new(1), 0.3)
    }

    fn mk_task(pool: &mut PoolState, finish: VTime) -> TaskId {
        let id = pool.next_task_id();
        pool.running.push(RunningTask {
            id,
            work: Box::new(|_| Box::new(())),
            done: Box::new(|_, _| {}),
            demux_fd: None,
            finish,
        });
        id
    }

    #[test]
    fn ids_increment() {
        let mut p = mk_pool();
        assert_eq!(p.next_task_id(), TaskId(0));
        assert_eq!(p.next_task_id(), TaskId(1));
    }

    #[test]
    fn busy_tracks_queues() {
        let mut p = mk_pool();
        assert!(!p.busy());
        let id = mk_task(&mut p, VTime(10));
        assert!(p.busy());
        let t = p.take_running(id).unwrap();
        assert_eq!(t.id, id);
        assert!(!p.busy());
    }

    #[test]
    fn next_finish_is_min() {
        let mut p = mk_pool();
        assert_eq!(p.next_finish(), None);
        mk_task(&mut p, VTime(30));
        mk_task(&mut p, VTime(10));
        mk_task(&mut p, VTime(20));
        assert_eq!(p.next_finish(), Some(VTime(10)));
    }

    #[test]
    fn take_running_missing_is_none() {
        let mut p = mk_pool();
        assert!(p.take_running(TaskId(7)).is_none());
    }
}
