//! Generative conformance oracle + differential schedule testing.
//!
//! Every other crate in this workspace trusts the simulated event loop to
//! *be* a libuv event loop. This crate tests that trust. It generates
//! random event-driven programs from a small DSL ([`prog`], [`apigraph`]),
//! runs them through the real runtime, and judges the resulting dispatch
//! logs against an executable encoding of libuv's ordering rules
//! ([`oracle`]) — every verdict cites the rule it applied. The
//! differential harness ([`harness`]) then cross-checks the whole stack:
//! vanilla, fuzzed, replayed, and race-directed executions of the same
//! program must all produce oracle-legal schedules, replay must
//! reproduce the recorded log byte-for-byte, and every
//! happens-before-predicted race must be confirmed by a directed flip or
//! explicitly classified unconfirmable. Failing programs delta-debug to
//! a minimal printable `nodefz-prog v1` literal ([`shrink`]), and the
//! whole thing plugs into campaigns as the `CONFORM-API` arm ([`case`]).
//!
//! One generator feeds the harness: graph traversal over an explicit API
//! dependency model of the runtime surface ([`generate`]), whose
//! programs are valid by construction and whose surface coverage is
//! accounted per batch as `nodefz-apicov-v1` ([`coverage`]). Every sweep
//! walks one seed sequence, [`stream_seed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apigraph;
pub mod case;
pub mod coverage;
pub mod harness;
pub mod oracle;
pub mod prog;
pub mod shrink;

pub use apigraph::{generate, generate_with, stream_seed, ApiGraph, ApiNode, Resource, API_NODES};
pub use case::{api_bug_case, ApiConformCase, API_ABBR};
pub use coverage::{ApiCovSnapshot, ApiCoverage};
pub use harness::{
    differential, render_log, run_logged, DiffConfig, DiffFailure, DiffReport, RaceOutcome,
};
// The harness API takes a `Mode`; re-exported so binaries that only
// depend on the conform crate can drive `run_logged` without a direct
// edge to the scheduler crate.
pub use nodefz::Mode;
pub use oracle::{check, phase_label, rules_exercised, OracleCtx, Violation, RULES};
pub use prog::{install, Node, Op, Prog, ProgError, Touch, SHARED_SITES};
pub use shrink::{shrink_prog, ShrinkOutcome};
