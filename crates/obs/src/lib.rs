//! nodefz-obs: telemetry for Node.fz campaigns.
//!
//! The paper's evaluation is built on observables — bug manifestation
//! rates (Fig. 6), schedule diversity (Fig. 7), and runtime overhead
//! (§5.4) — and a long-running fuzzing campaign needs the same signals
//! continuously, not just in a post-mortem summary. This crate provides
//! the shared substrate:
//!
//! * [`Registry`] / [`ShardHandle`] — a lock-free metrics registry of
//!   per-worker sharded counters and fixed-bucket histograms. All hot-path
//!   operations are relaxed `AtomicU64` adds on pre-allocated slots; the
//!   sharded values are only folded together at scrape time.
//! * [`ObsLevel`] — the run-time dial for loop profiling. Every build
//!   compiles the runtime's loop hooks; a run is profiled only when a
//!   handle is attached, which the campaign does above [`ObsLevel::Off`].
//! * [`JsonWriter`] — a dependency-free JSON emitter shared by the
//!   `nodefz-metrics-v1` snapshot writer, the `nodefz-throughput-v2`
//!   bench report, and the campaign's chrome-trace exporter.
//! * [`JsonValue`] — the matching reader: a strict recursive-descent
//!   parser for consumers of those documents in *other* processes (the
//!   campaign orchestrator reading worker snapshots).
//! * [`expect_schema`] / [`expect_header`] — the shared schema-version
//!   gate every persisted-document reader goes through, with a typed
//!   [`SchemaError`] that distinguishes a missing version marker from a
//!   version this build does not understand.
//! * [`write_atomic`] — temp-file-plus-rename snapshot persistence, so a
//!   concurrent reader never observes a torn document.
//! * [`Journal`] — the campaign flight recorder: a bounded single-writer
//!   ring of structured events (arm pulls with bandit state, prune
//!   verdicts, worker lifecycle, discoveries) with the
//!   `nodefz-journal-v1` JSON-lines codec.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod fsio;
mod journal;
mod json;
mod parse;
mod registry;
mod schema;

pub use fsio::write_atomic;
pub use journal::{
    decode_entry, encode_entry, Journal, JournalDecodeError, JournalEntry, JournalEvent,
    PruneOutcome, WorkerState, JOURNAL_CAP, JOURNAL_SCHEMA,
};
pub use json::JsonWriter;
pub use parse::{JsonParseError, JsonValue};
pub use registry::{
    CounterId, CounterSnapshot, HistogramId, HistogramSnapshot, Registry, RegistryBuilder,
    RegistrySnapshot, ShardHandle,
};
pub use schema::{expect_header, expect_schema, SchemaError};

/// How much loop telemetry a campaign's worker runs collect.
///
/// The loop hooks are compiled into every build; this run-time dial
/// decides whether workers attach a profiling handle at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsLevel {
    /// No loop profiling: no handle attached, no phase timing.
    #[default]
    Off,
    /// Per-phase timings and per-kind dispatch counts, folded into the
    /// metrics registry after every run.
    Counters,
}

impl ObsLevel {
    /// Parses the CLI spelling (`off` | `counters`).
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s {
            "off" => Some(ObsLevel::Off),
            "counters" => Some(ObsLevel::Counters),
            _ => None,
        }
    }

    /// The CLI spelling of this level.
    pub fn label(&self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Counters => "counters",
        }
    }

    /// True when no telemetry should be collected at all.
    pub fn is_off(&self) -> bool {
        matches!(self, ObsLevel::Off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_round_trip_through_their_labels() {
        for level in [ObsLevel::Off, ObsLevel::Counters] {
            assert_eq!(ObsLevel::parse(level.label()), Some(level));
        }
        assert_eq!(ObsLevel::parse("verbose"), None);
        assert_eq!(ObsLevel::parse("full"), None);
    }

    #[test]
    fn default_is_off_and_levels_are_ordered() {
        assert!(ObsLevel::default().is_off());
        assert!(ObsLevel::Off < ObsLevel::Counters);
    }
}
