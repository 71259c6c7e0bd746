//! nodefz-obs: telemetry for Node.fz campaigns.
//!
//! The paper's evaluation is built on observables — bug manifestation
//! rates (Fig. 6), schedule diversity (Fig. 7), and runtime overhead
//! (§5.4) — and a long-running fuzzing campaign needs the same signals
//! continuously, not just in a post-mortem summary. This crate provides
//! the shared substrate:
//!
//! * [`ObsLevel`] — the run-time dial for loop profiling. Every build
//!   compiles the runtime's loop hooks; a run is profiled only when a
//!   handle is attached, which the campaign does above [`ObsLevel::Off`].
//!   The campaign's counters themselves need no shared registry: each
//!   fuzz result carries its own counts back to the controller, which
//!   sums them as it applies results in dispatch order.
//! * [`JsonWriter`] — a dependency-free JSON emitter shared by the
//!   `nodefz-metrics-v1` snapshot writer, the races and race-report
//!   documents, and the campaign's chrome-trace exporter.
//! * [`JsonValue`] — the matching reader: a strict recursive-descent
//!   parser for whatever reads those documents back (the benchmark's
//!   result comparison, the format and thread-invariance tests).
//! * [`expect_schema`] / [`expect_header`] — the shared schema-version
//!   gate every persisted-document reader goes through, with a typed
//!   [`SchemaError`] that distinguishes a missing version marker from a
//!   version this build does not understand.
//! * [`write_atomic`] — temp-file-plus-rename snapshot persistence, so a
//!   concurrent reader never observes a torn document.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod fsio;
mod json;
mod parse;
mod schema;

pub use fsio::write_atomic;
pub use json::JsonWriter;
pub use parse::{JsonParseError, JsonValue};
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
    /// Per-phase timings and per-kind dispatch counts: each fuzz run's
    /// profile travels back with its result and is summed into the
    /// campaign's metrics.
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
