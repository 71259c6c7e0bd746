//! # nodefz-orchestrate — multi-process campaign orchestration
//!
//! One `campaign` process parallelizes fuzz runs across worker threads;
//! this crate adds the level above: a campaign *of campaigns*. The
//! orchestrator enumerates the full arm space — every app × preset ×
//! mode (fuzz / directed / conform) — and shards budget slices across N
//! child `campaign` worker processes:
//!
//! ```text
//!             ┌► worker proc (KUE/standard/fuzz)  ──► corpus shard ─┐
//! orchestrate ┼► worker proc (KUE/directed)       ──► corpus shard ─┼► merge ─► canonical corpus
//!    ▲        └► worker proc (CONFORM/aggressive) ──► corpus shard ─┘    │
//!    └──────────── campaign-bandit budget reallocation ◄────────────────┘
//! ```
//!
//! Slices are allocated by the same UCB bandit a single campaign uses for
//! its runs ([`nodefz_campaign::bandit::Bandit`]): one pull per slice,
//! rewarded by the new unique bugs the slice added to the merged corpus.
//!
//! * [`worker`] — child-process lifecycle: spawn the same binary in
//!   single-campaign mode, poll, kill past the deadline, classify exits.
//! * [`merge`] — cross-shard corpus merge with [`BugSignature`] dedup;
//!   the merged corpus is canonical and passes `campaign verify`.
//! * [`orch`] — the round loop tying it together, plus the
//!   `nodefz-orch-v1` rollup.
//! * [`report`] — merges the orchestrator's and every worker's
//!   `nodefz-journal-v1` flight recorders plus per-worker chrome traces
//!   into one tagged journal and one unified Perfetto timeline.
//!
//! Work-item seeds derive from (arm, per-arm pull count) only and round
//! results are processed in spawn-index order, so the found-bug set is
//! invariant to the shard count; crashed, stalled, or erroring workers
//! quarantine their arm and have their partial corpus salvaged instead
//! of failing the campaign.
//!
//! [`BugSignature`]: nodefz_trace::BugSignature

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod merge;
pub mod orch;
pub mod report;
pub mod worker;

pub use merge::MergedCorpus;
pub use orch::{
    orchestrate, work_seed, ArmState, OrchConfig, OrchDiscovery, OrchReport, WorkPruning,
    WorkRecord,
};
pub use report::{merge_report, ReportSummary};
pub use worker::{Outcome, WorkItem};
