//! # nodefz-trace — schedule analysis for Node.fz experiments
//!
//! Tools for quantifying how much of the schedule space a set of runs
//! explored (§5.3 of the paper): the Levenshtein distance over recorded
//! [`TypeSchedule`]s, the paper's mean-pairwise-normalized-distance
//! metric (Figure 7), and auxiliary diversity summaries.
//!
//! [`TypeSchedule`]: nodefz_rt::TypeSchedule

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod intern;
mod levenshtein;
mod signature;
mod stats;

pub use intern::{SiteId, SiteInterner};
pub use levenshtein::{levenshtein, normalized_levenshtein};
pub use signature::{kind_fingerprint, normalize_site, normalize_site_into, BugSignature};
pub use stats::{pairwise_normalized_ld, DiversitySummary, PAPER_TRUNCATION};
