//! # nodefz-sa — static race prediction for the event-driven architecture
//!
//! Every other race predictor in this workspace needs at least one
//! execution: `nodefz-hb` analyzes a recorded trace, conform's oracle
//! judges logs after the fact. This crate predicts with **zero**
//! executions. The paper's §3.2 race classes (AV / OV / COV) are
//! properties of the *registration structure* — which callbacks may
//! interleave and which shared sites they touch — and that structure is
//! statically available, both in the `nodefz-prog v1` DSL
//! ([`model_of_prog`]) and in each fig6 app's declarative
//! [`nodefz_apps::statics::StaticModel`].
//!
//! ## Layer 1 — may-happen-in-parallel race prediction
//!
//! [`MhpIndex`] computes the must-happen-before relation a model
//! guarantees in *every* schedule (registration ancestry, explicit
//! ordering edges, and the timer total order) and derives
//! may-happen-in-parallel from its complement. [`candidates`] then pairs
//! MHP atoms sharing an instrumented site and classifies each pair with
//! the *set* of §3.2 classes it can manifest as: a commutative pair is
//! exactly `COV`; a pair with a crossable atomicity region may surface
//! as `AV` or `OV` depending on which way a given run's timer chain
//! points, so both are emitted. This set semantics is what makes the
//! prediction a sound over-approximation of `nodefz-hb`'s per-run
//! verdicts — checked, hard-failing, by the [`soundness`] harness over
//! the conform corpus.
//!
//! ## Layer 2 — schedule-sensitivity lints
//!
//! [`lint_model`] flags race-prone *patterns* with stable rule ids:
//! check-then-act across an async hop, unordered multi-writer commits,
//! close callbacks racing pending reads, and orderings that hold under
//! the vanilla schedule's phase ranks but are not happens-before-forced.
//!
//! Results render as a `nodefz-sa-v1` JSON document ([`sa_report`]) with
//! an interned site table and stable finding ids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lint;
pub mod metrics;
pub mod mhp;
pub mod prog_model;
pub mod races;
pub mod report;
pub mod soundness;

pub use lint::{lint_model, Lint, RULES};
pub use metrics::SaMetrics;
pub use mhp::MhpIndex;
pub use prog_model::{model_of_prog, ProgModel};
pub use races::{candidates, Candidate};
pub use report::{analyze_model, sa_report, ModelAnalysis, SA_SCHEMA};
pub use soundness::{check_prog, sweep, ProgCheck, SweepStats};
