//! The scheduler extension point.
//!
//! The event loop consults a [`Scheduler`] at every point of legal
//! nondeterminism: which expired timers to run now, the order of the epoll
//! ready list, whether to defer individual ready descriptors or close
//! events, how the worker pool picks and completes tasks. The stock
//! [`VanillaScheduler`] reproduces libuv's deterministic choices; the Node.fz
//! fuzz scheduler (in the `nodefz` crate) perturbs them within the bounds the
//! documentation permits (§4.4 "Node.fz fidelity").

use crate::poll::ReadyEntry;
use crate::time::VDur;

/// How the worker pool executes tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolMode {
    /// libuv-style pool: `workers` threads consume the task queue FIFO and
    /// completions are multiplexed onto a single done descriptor.
    Concurrent {
        /// Number of simulated worker threads (libuv default: 4).
        workers: usize,
    },
    /// Node.fz-style pool (§4.3.3): a single serialized worker that waits for
    /// the task queue to hold `lookahead` entries (up to `max_delay`) and
    /// then lets the scheduler pick among them; each completion gets a
    /// private descriptor (de-multiplexed done queue).
    Serialized {
        /// Task-queue lookahead ("worker pool degrees of freedom").
        /// `usize::MAX` means unlimited.
        lookahead: usize,
        /// Maximum time the worker waits for the queue to fill.
        max_delay: VDur,
    },
}

/// What to do with the remaining expired timers after examining one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerVerdict {
    /// Run this timer now.
    Run,
    /// Defer this timer (and, by short-circuit, all later expired timers) to
    /// the next loop iteration, injecting the given loop delay.
    ///
    /// The short-circuit preserves libuv's undocumented-but-relied-upon
    /// {timeout, registration} ordering (§4.3.4).
    Defer {
        /// Extra virtual delay injected before the next iteration.
        delay: VDur,
    },
}

/// A pluggable dispatch policy for the event loop and worker pool.
///
/// All methods take `&mut self` so implementations can carry their own
/// deterministic PRNG state.
pub trait Scheduler {
    /// Short human-readable name ("vanilla", "nodefz", …).
    fn name(&self) -> &'static str;

    /// Returns the pool execution mode. Consulted once per loop start.
    fn pool_mode(&self) -> PoolMode {
        PoolMode::Concurrent { workers: 4 }
    }

    /// Whether worker-pool completions are de-multiplexed onto per-task
    /// descriptors (§4.3.3). Consulted once per loop start.
    fn demux_done(&self) -> bool {
        false
    }

    /// Decides whether to run or defer an expired timer.
    fn on_timer(&mut self) -> TimerVerdict {
        TimerVerdict::Run
    }

    /// Reorders the epoll ready list before dispatch.
    fn shuffle_ready(&mut self, _ready: &mut Vec<ReadyEntry>) {}

    /// Decides whether to defer one ready descriptor to the next iteration.
    fn defer_ready(&mut self, _entry: &ReadyEntry) -> bool {
        false
    }

    /// Decides whether to defer one close event to the next iteration.
    fn defer_close(&mut self) -> bool {
        false
    }

    /// Picks the queue index of the next worker-pool task to execute.
    ///
    /// `window` is the number of candidate tasks visible to the worker (the
    /// head of the queue, bounded by the lookahead). Must return a value in
    /// `0..window`.
    fn pick_task(&mut self, window: usize) -> usize {
        let _ = window;
        0
    }

    /// Number of scheduling decisions this scheduler has made so far.
    ///
    /// Recording/replaying schedulers override this so the event log can
    /// stamp each dispatch with the decision-trace prefix that reproduces
    /// it (race-directed scheduling keys on that prefix length). Stateless
    /// schedulers report zero.
    fn decision_count(&self) -> u64 {
        0
    }
}

/// The libuv-faithful scheduler: FIFO everything, multiplexed done queue,
/// four concurrent workers.
#[derive(Clone, Debug, Default)]
pub struct VanillaScheduler {
    workers: usize,
}

impl VanillaScheduler {
    /// Creates the default vanilla scheduler (4 workers, like libuv).
    pub fn new() -> VanillaScheduler {
        VanillaScheduler { workers: 4 }
    }

    /// Creates a vanilla scheduler with a custom worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_workers(workers: usize) -> VanillaScheduler {
        assert!(workers > 0, "worker pool needs at least one worker");
        VanillaScheduler { workers }
    }
}

impl Scheduler for VanillaScheduler {
    fn name(&self) -> &'static str {
        "vanilla"
    }

    fn pool_mode(&self) -> PoolMode {
        PoolMode::Concurrent {
            workers: self.workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::Fd;
    use crate::time::VTime;

    #[test]
    fn vanilla_defaults() {
        let mut s = VanillaScheduler::new();
        assert_eq!(s.name(), "vanilla");
        assert_eq!(s.pool_mode(), PoolMode::Concurrent { workers: 4 });
        assert!(!s.demux_done());
        assert_eq!(s.on_timer(), TimerVerdict::Run);
        assert!(!s.defer_close());
        assert_eq!(s.pick_task(5), 0);
    }

    #[test]
    fn vanilla_never_reorders() {
        let mut s = VanillaScheduler::new();
        let mut ready: Vec<ReadyEntry> = (0..5)
            .map(|i| ReadyEntry {
                fd: Fd(i),
                at: VTime(i as u64),
                seq: i as u64,
            })
            .collect();
        let orig = ready.clone();
        s.shuffle_ready(&mut ready);
        assert_eq!(ready, orig);
        assert!(!s.defer_ready(&orig[0]));
    }

    #[test]
    fn custom_worker_count() {
        let s = VanillaScheduler::with_workers(2);
        assert_eq!(s.pool_mode(), PoolMode::Concurrent { workers: 2 });
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = VanillaScheduler::with_workers(0);
    }
}
