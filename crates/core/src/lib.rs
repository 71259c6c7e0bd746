//! # nodefz — a schedule fuzzer for the server-side event-driven architecture
//!
//! A Rust reproduction of *Node.fz: Fuzzing the Server-Side Event-Driven
//! Architecture* (Davis, Thekumparampil, Lee — EuroSys 2017).
//!
//! Node.fz perturbs the execution of an event-driven program so that the
//! same test input explores many more event schedules, manifesting
//! atomicity violations, ordering violations and commutative ordering
//! violations that the stock runtime hides. It makes only *legal*
//! perturbations — reorderings the platform documentation already permits —
//! so a correct program behaves identically (§4.4, "fidelity").
//!
//! The fuzzer controls four sources of nondeterminism (§4.3):
//!
//! * **Timers** — expired timers are probabilistically deferred; deferral
//!   short-circuits the timer phase (preserving the undocumented
//!   {timeout, registration} order real suites rely on) and injects a 5 ms
//!   delay.
//! * **Epoll results** — the ready list is shuffled with a bounded
//!   "degrees of freedom" distance and individual entries are deferred.
//! * **Worker-pool task queue** — the pool is serialized to one simulated
//!   worker that waits (up to a bound) for the queue to fill, then picks a
//!   task at random within the lookahead window.
//! * **Worker-pool done queue** — completions are de-multiplexed onto
//!   per-task descriptors so the scheduler can interleave done callbacks
//!   with any other event.
//!
//! ## Quickstart
//!
//! ```
//! use nodefz::{FuzzParams, Mode};
//! use nodefz_rt::{LoopConfig, VDur};
//!
//! // Run the same program under vanilla and fuzzed schedulers.
//! for mode in [Mode::Vanilla, Mode::Fuzz] {
//!     let mut el = mode.build_loop(LoopConfig::seeded(1), /*sched_seed*/ 7);
//!     el.enter(|cx| {
//!         cx.set_timeout(VDur::millis(1), |cx| cx.report_error("tick", ""));
//!     });
//!     assert!(el.run().has_error("tick"));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod directed;
mod memo;
mod mode;
mod params;
mod replay;
mod scheduler;
mod shrink;

pub use codec::{decode_trace, encode_trace, TraceDecodeError};
pub use directed::{DirectedScheduler, DirectedSpec};
pub use memo::{ConsultLog, ReplayMemo};
pub use mode::Mode;
pub use params::FuzzParams;
pub use replay::{
    is_identity, replay_choice, Consultation, Decision, DecisionTrace, Perm, RecordingScheduler,
    ReplayDivergence, ReplayError, ReplayScheduler, ReplayStatusHandle, Taken, TraceFormatError,
    TraceHandle,
};
pub use scheduler::FuzzScheduler;
pub use shrink::{ddmin, DdminResult};
