//! Failure deduplication.
//!
//! A campaign of thousands of runs manifests the same race over and over;
//! the deduplicator collapses manifestations to one report per underlying
//! bug, keyed on [`BugSignature`] (app + normalized failure site + callback
//! kind fingerprint). Every [`Finding`] already owns its signature, so the
//! table keys on it directly.

use std::collections::BTreeMap;

use nodefz::DecisionTrace;
use nodefz_trace::BugSignature;

/// One manifestation of a failure, as produced by a fuzz run.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The application the failure manifested in.
    pub app: String,
    /// Preset index the run used.
    pub preset: usize,
    /// Environment seed of the manifesting run.
    pub env_seed: u64,
    /// The oracle's raw evidence string.
    pub detail: String,
    /// The dedup key.
    pub signature: BugSignature,
    /// The recorded decision trace of the manifesting run.
    pub trace: DecisionTrace,
}

/// Aggregate record of one deduplicated bug.
#[derive(Clone, Debug)]
pub struct BugRecord {
    /// The first manifestation seen.
    pub first: Finding,
    /// Total manifestations observed (including the first).
    pub hits: u64,
    /// The minimized trace, once shrinking completes.
    pub shrunk: Option<DecisionTrace>,
    /// Calls the shrink made to its oracle (0 with shrinking off).
    pub oracle_calls: u64,
    /// Those calls that ran a replay.
    pub shrink_replays: u64,
    /// How many of the acceptance replays re-manifested the bug.
    pub replays_ok: u32,
}

/// Collapses findings to one [`BugRecord`] per signature.
#[derive(Debug, Default)]
pub struct Deduper {
    bugs: BTreeMap<BugSignature, BugRecord>,
}

impl Deduper {
    /// Creates an empty deduplicator.
    pub fn new() -> Deduper {
        Deduper::default()
    }

    /// Records a manifestation; returns the new record when its signature
    /// is new, `None` when it only counts another hit of a known bug.
    pub fn insert(&mut self, finding: Finding) -> Option<&BugRecord> {
        if let Some(record) = self.bugs.get_mut(&finding.signature) {
            record.hits += 1;
            return None;
        }
        let record = BugRecord {
            first: finding,
            hits: 1,
            shrunk: None,
            oracle_calls: 0,
            shrink_replays: 0,
            replays_ok: 0,
        };
        Some(
            self.bugs
                .entry(record.first.signature.clone())
                .or_insert(record),
        )
    }

    /// Attaches a shrink result to an existing record: the shrunk trace,
    /// the oracle calls and replays the shrink spent, and the acceptance
    /// replays that re-manifested it.
    pub fn attach_shrunk(
        &mut self,
        signature: &BugSignature,
        shrunk: DecisionTrace,
        oracle_calls: u64,
        shrink_replays: u64,
        replays_ok: u32,
    ) {
        if let Some(record) = self.bugs.get_mut(signature) {
            record.shrunk = Some(shrunk);
            record.oracle_calls = oracle_calls;
            record.shrink_replays = shrink_replays;
            record.replays_ok = replays_ok;
        }
    }

    /// The record a signature deduplicates into, if any.
    pub fn record_for(&self, signature: &BugSignature) -> Option<&BugRecord> {
        self.bugs.get(signature)
    }

    /// Number of distinct bugs seen.
    pub fn unique_bugs(&self) -> usize {
        self.bugs.len()
    }

    /// All records, sorted by signature for stable output.
    pub fn records(&self) -> Vec<&BugRecord> {
        self.bugs.values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_rt::{CbKind, PoolMode, TypeSchedule};

    fn finding(app: &str, site: &str) -> Finding {
        let mut schedule = TypeSchedule::new();
        schedule.push(CbKind::Timer);
        Finding {
            app: app.to_string(),
            preset: 0,
            env_seed: 7,
            detail: site.to_string(),
            signature: BugSignature::new(app, site, &schedule),
            trace: DecisionTrace {
                pool_mode: PoolMode::Concurrent { workers: 4 },
                demux_done: false,
                decisions: vec![],
            },
        }
    }

    #[test]
    fn same_site_different_numbers_dedup_to_one() {
        let mut d = Deduper::new();
        assert!(d.insert(finding("KUE", "lost 3 of 12 jobs")).is_some());
        assert!(d.insert(finding("KUE", "lost 9 of 12 jobs")).is_none());
        assert_eq!(d.unique_bugs(), 1);
        assert_eq!(d.records()[0].hits, 2);
    }

    #[test]
    fn different_apps_stay_separate() {
        let mut d = Deduper::new();
        assert!(d.insert(finding("KUE", "lost jobs")).is_some());
        assert!(d.insert(finding("MKD", "lost jobs")).is_some());
        assert_eq!(d.unique_bugs(), 2);
    }

    #[test]
    fn shrunk_traces_attach_to_their_record() {
        let mut d = Deduper::new();
        let f = finding("KUE", "lost jobs");
        let sig = f.signature.clone();
        d.insert(f);
        let mini = DecisionTrace {
            pool_mode: PoolMode::Concurrent { workers: 4 },
            demux_done: false,
            decisions: vec![],
        };
        d.attach_shrunk(&sig, mini, 12, 5, 10);
        let rec = d.records()[0];
        assert!(rec.shrunk.is_some());
        assert_eq!((rec.oracle_calls, rec.shrink_replays), (12, 5));
        assert_eq!(rec.replays_ok, 10);
    }
}
