//! # nodefz-hb — happens-before race analysis over recorded traces
//!
//! Node.fz (§5) finds races *dynamically*: run the program under many
//! perturbed schedules and wait for an oracle to trip. This crate adds the
//! complementary *predictive* pass: from **one** recorded run it
//! reconstructs the dispatch-provenance event log, builds the
//! happens-before relation every legal schedule preserves
//! ([`HbGraph`]), and reports unordered callback pairs that touch the
//! same instrumented shared site as candidate races, classified
//! AV / OV / (C)OV per the paper's §3.2 taxonomy ([`find_races`]).
//!
//! Each predicted pair carries a *cut* — the decision-trace prefix that
//! reproduces the run up to the earlier racing event — which is exactly
//! the input `nodefz::DirectedSpec` needs to replay the prefix and force
//! the flipped order, turning a static prediction into a dynamically
//! confirmed, replayable repro.
//!
//! ## Pipeline
//!
//! ```text
//! record_vanilla ──▶ nodefz-trace v1 text ──▶ analyze_recorded
//!     (nodeNFZ posture, one run)                  │
//!                                                 ├─ decode + validate (typed errors)
//!                                                 ├─ replay with event-log recording
//!                                                 ├─ HbGraph transitive closure
//!                                                 └─ find_races → AV/OV/COV + cut
//! races_report ──▶ nodefz-races-v1 JSON
//! ```
//!
//! ```
//! use nodefz_hb::{analyze_app, races_report, RaceClass};
//!
//! let app = nodefz_apps::by_abbr("GHO").unwrap();
//! let analysis = analyze_app(app.as_ref(), 11).unwrap();
//! assert!(analysis
//!     .races
//!     .iter()
//!     .any(|r| r.site == "gho:user-row" && r.class == RaceClass::Av));
//! let json = races_report(&[analysis]);
//! assert!(json.starts_with("{\"schema\": \"nodefz-races-v1\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod canon;
mod graph;
mod races;
mod report;

pub use analyze::{
    analyze_app, analyze_recorded, causal_chain, chain_cuts, races_with_cuts, record_vanilla,
    AnalyzeError, AppAnalysis, EventRef, RaceInfo, MAX_FLIPS_PER_RACE,
};
pub use canon::{canon_key, CanonBuilder, CanonKey, SeenSet};
pub use graph::HbGraph;
pub use races::{find_races, find_races_with, RaceClass, RacePair};
pub use report::races_report;
