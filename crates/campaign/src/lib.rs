//! # nodefz-campaign — the fuzzing-campaign engine
//!
//! The paper runs each bug's test case hundreds of times under `nodeFZ`
//! and counts manifestations (§5.1), giving every bug the same budget.
//! This crate turns that loop into a campaign: worker threads fan seeds
//! across (app, parameterization) arms, which take their turns
//! round-robin, manifestations are deduplicated by failure signature, each
//! new bug's decision trace is minimized by delta debugging, and the
//! minimized repro is persisted to a text corpus whose entries replay
//! deterministically. One process runs it all; a case that panics retires
//! its arm instead of ending the campaign.
//!
//! ```text
//! round-robin arms ──► driver (N threads) ──► dedup ──► shrink ──► corpus
//!        ▲                    │
//!        └── quarantine ◄─────┘ (a run panicked)
//! ```
//!
//! See [`run`] / [`run_with_progress`] for the entry points and the
//! `campaign` binary for the command-line front end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod config;
pub mod corpus;
pub mod dedup;
pub mod metrics;
pub mod report;
pub mod shrink;

mod chrome;
mod driver;
#[cfg(test)]
mod pinned;
#[cfg(test)]
mod pinned_shrink;

pub use analyze::{analyze_campaign, AnalyzeConfig, AnalyzeReport, ConfirmedRace};
pub use config::{
    check_apps, preset_index, preset_name, preset_params, CampaignConfig, DIRECTED_PRESET, PRESETS,
};
pub use corpus::{Corpus, CorpusDecodeError, CorpusEntry};
pub use dedup::{BugRecord, Deduper, Finding};
pub use driver::{
    env_scope, resolve_case, run, run_with_progress, verify_entry, BugSummary, CampaignReport,
    Event, FuzzExec, Quarantine, RunContext,
};
pub use metrics::{ArmMetrics, Discovery, MetricsSnapshot, PhaseMetrics};
pub use shrink::{shrink, ShrinkResult};
