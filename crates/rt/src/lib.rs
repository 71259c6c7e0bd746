//! # nodefz-rt — a deterministic event-driven runtime
//!
//! This crate is the substrate of the Node.fz reproduction: a from-scratch,
//! virtual-time re-implementation of the Asymmetric Multi-Process
//! Event-Driven (AMPED) architecture that libuv gives Node.js — a
//! single-threaded event loop plus a worker pool — with every source of
//! nondeterminism modelled explicitly and driven by seeds.
//!
//! ## Architecture
//!
//! * [`EventLoop`] executes libuv's iteration phases (timers → pending →
//!   idle → prepare → poll → check → close) in virtual time ([`VTime`]).
//! * Callbacks receive a [`Ctx`] exposing the Node-style API: `set_timeout`,
//!   `set_interval`, `next_tick`, `set_immediate`, `submit_work`, and the
//!   poll-layer primitives substrates (network, file system, key-value
//!   store) build on. Substrates schedule their traffic as typed
//!   [`EnvTarget`] wakeups.
//! * The worker pool ([`Ctx::submit_work`]) models libuv's threadpool with
//!   either a multiplexed done queue (vanilla) or a de-multiplexed,
//!   per-task-descriptor done queue (Node.fz mode).
//! * A [`Scheduler`] is consulted at every point of legal nondeterminism.
//!   [`VanillaScheduler`] reproduces libuv's choices; the `nodefz` crate
//!   provides the fuzzing scheduler of the paper.
//! * Every run records a [`TypeSchedule`] — the sequence of callback types —
//!   used by the schedule-diversity experiments (§5.3 of the paper).
//!
//! ## Determinism
//!
//! A run is a pure function of `(program, LoopConfig::env_seed, scheduler)`.
//! The environment seed drives modelled latencies, task durations and
//! callback costs; the fuzz scheduler carries its own decision seed.
//!
//! ## Example
//!
//! ```
//! use nodefz_rt::{EventLoop, LoopConfig, VDur};
//!
//! let mut el = EventLoop::new(LoopConfig::seeded(42));
//! el.enter(|cx| {
//!     cx.set_timeout(VDur::millis(10), |cx| {
//!         let t = cx.now();
//!         cx.submit_work(
//!             VDur::millis(2),
//!             |_work| 21u64 * 2,
//!             move |cx, answer| {
//!                 assert_eq!(answer, 42);
//!                 assert!(cx.now() > t);
//!             },
//!         )
//!         .unwrap();
//!     });
//! });
//! let report = el.run();
//! assert_eq!(report.pool.completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod combinators;
mod ctx;
mod envq;
mod error;
mod events;
mod looper;
pub mod obs;
mod poll;
mod pool;
mod rng;
mod sched;
mod time;
mod timers;
mod trace;

pub use combinators::{series, Barrier, Emitter, ListenerId, SeriesNext, SeriesStep};
pub use ctx::{Ctx, HandleId};
pub use envq::EnvTarget;
pub use error::{AppError, Errno};
pub use events::{
    Access, AccessKind, CbId, EvDetail, EvKind, EventLog, EventLogHandle, EventRecord,
};
pub use looper::{EventLoop, LiveCounts, LoopConfig, LoopPool, RunReport, Termination};
pub use obs::{LoopObs, ObsHandle, Phase, PhaseProfile, TraceEvent, TraceEventSink};
pub use poll::{Fd, FdKind, ReadyEntry};
pub use pool::{PoolStats, TaskId, WorkCtx};
pub use rng::{fnv1a, splitmix64, Rng, ShuffleScratch, GOLDEN_GAMMA};
pub use sched::{PoolMode, Scheduler, TimerVerdict, VanillaScheduler};
pub use time::{VDur, VTime};
pub use timers::TimerId;
pub use trace::{CbKind, TraceRecorder, TypeSchedule};
