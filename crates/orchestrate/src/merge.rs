//! Cross-shard corpus merge.
//!
//! Every worker process persists its minimized repros into a private
//! corpus directory; the orchestrator folds those shards into one
//! canonical corpus. Dedup is by [`BugSignature`] via the re-interning
//! [`SigSet`], exactly the key the in-process deduplicator uses — so N
//! shards that each rediscover the same race still merge to one entry.
//! On collision the merge keeps the *shortest* trace (the best shrink any
//! shard achieved), sums manifestation hits, and keeps the best replay
//! acceptance count.
//!
//! [`BugSignature`]: nodefz_trace::BugSignature

use std::path::Path;

use nodefz_campaign::{Corpus, CorpusEntry};
use nodefz_trace::{BugSignature, SigSet};

/// Accumulates shard corpora into one deduplicated set of entries.
#[derive(Default)]
pub struct MergedCorpus {
    seen: SigSet,
    entries: Vec<CorpusEntry>,
}

impl MergedCorpus {
    /// An empty merge.
    pub fn new() -> MergedCorpus {
        MergedCorpus::default()
    }

    /// Folds one entry in; returns the signature when it was new.
    pub fn insert(&mut self, entry: CorpusEntry) -> Option<BugSignature> {
        let signature = entry.signature();
        if self.seen.insert(&signature) {
            self.entries.push(entry);
            return Some(signature);
        }
        let existing = self
            .entries
            .iter_mut()
            .find(|e| e.signature() == signature)
            .expect("seen signatures have a stored entry");
        existing.hits += entry.hits;
        existing.replays_ok = existing.replays_ok.max(entry.replays_ok);
        if entry.trace.decisions.len() < existing.trace.decisions.len() {
            let (hits, replays_ok) = (existing.hits, existing.replays_ok);
            *existing = entry;
            existing.hits = hits;
            existing.replays_ok = replays_ok;
        }
        None
    }

    /// Folds a whole shard corpus in leniently: undecodable entries (a
    /// reaped worker can leave none, thanks to atomic writes, but a
    /// missing directory is normal for a crashed-at-start worker) are
    /// skipped, not fatal. Returns the signatures that were new, in
    /// entry-name order, plus the skipped file names.
    ///
    /// # Errors
    ///
    /// Only on I/O failures opening a directory that exists.
    pub fn fold_shard(&mut self, dir: &Path) -> std::io::Result<(Vec<BugSignature>, Vec<String>)> {
        if !dir.is_dir() {
            return Ok((Vec::new(), Vec::new()));
        }
        let corpus = Corpus::open(dir)?;
        let (entries, skipped) = corpus.load_salvage()?;
        let mut new = Vec::new();
        for entry in entries {
            if let Some(signature) = self.insert(entry) {
                new.push(signature);
            }
        }
        Ok((new, skipped))
    }

    /// Distinct bugs merged so far.
    pub fn unique_bugs(&self) -> usize {
        self.entries.len()
    }

    /// The merged entries, sorted by signature for stable output.
    pub fn entries(&self) -> Vec<&CorpusEntry> {
        let mut out: Vec<&CorpusEntry> = self.entries.iter().collect();
        out.sort_by_key(|e| e.signature());
        out
    }

    /// Writes the merged set into `dir` as a canonical corpus.
    ///
    /// # Errors
    ///
    /// On the first entry that fails to persist.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<Corpus> {
        let corpus = Corpus::open(dir)?;
        for entry in self.entries() {
            corpus.save(entry)?;
        }
        Ok(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_campaign::CorpusEntry;

    fn entry(app: &str, site: &str, kinds: u32, decisions: usize) -> CorpusEntry {
        CorpusEntry {
            app: app.to_string(),
            env_seed: 9,
            site: site.to_string(),
            kinds,
            hits: 1,
            replays_ok: 10,
            trace: nodefz::DecisionTrace {
                pool_mode: nodefz_rt::PoolMode::Concurrent { workers: 4 },
                demux_done: false,
                decisions: vec![nodefz::Decision::DeferReady(false); decisions],
            },
        }
    }

    #[test]
    fn duplicate_signatures_merge_keeping_the_shortest_trace() {
        let mut m = MergedCorpus::new();
        assert!(m.insert(entry("KUE", "lost N jobs", 3, 8)).is_some());
        assert!(m.insert(entry("KUE", "lost N jobs", 3, 5)).is_none());
        assert!(m.insert(entry("KUE", "lost N jobs", 3, 7)).is_none());
        assert_eq!(m.unique_bugs(), 1);
        let merged = m.entries()[0];
        assert_eq!(merged.trace.decisions.len(), 5, "best shrink wins");
        assert_eq!(merged.hits, 3, "hits sum across shards");
    }

    #[test]
    fn distinct_bugs_stay_distinct() {
        let mut m = MergedCorpus::new();
        m.insert(entry("KUE", "lost N jobs", 3, 4));
        m.insert(entry("MKD", "lost N jobs", 3, 4));
        m.insert(entry("KUE", "double callback", 3, 4));
        assert_eq!(m.unique_bugs(), 3);
    }

    #[test]
    fn fold_missing_directory_is_empty_not_fatal() {
        let mut m = MergedCorpus::new();
        let (new, skipped) = m
            .fold_shard(Path::new("/nonexistent/shard/corpus"))
            .unwrap();
        assert!(new.is_empty() && skipped.is_empty());
    }

    #[test]
    fn round_trips_through_disk_shards() {
        let base = std::env::temp_dir().join(format!("nodefz-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let shard_a = Corpus::open(&base.join("a")).unwrap();
        let shard_b = Corpus::open(&base.join("b")).unwrap();
        // Corpus entries carry already-normalized sites, so the same bug
        // found by two shards has byte-identical site text.
        shard_a.save(&entry("KUE", "lost N jobs", 3, 6)).unwrap();
        shard_b.save(&entry("KUE", "lost N jobs", 3, 4)).unwrap();
        shard_b.save(&entry("GHO", "stale read", 5, 4)).unwrap();

        let mut m = MergedCorpus::new();
        let (new_a, _) = m.fold_shard(&base.join("a")).unwrap();
        let (new_b, _) = m.fold_shard(&base.join("b")).unwrap();
        assert_eq!(new_a.len(), 1);
        assert_eq!(new_b.len(), 1, "the KUE dupe dedups across shards");

        let merged = m.write_to(&base.join("merged")).unwrap();
        assert_eq!(merged.load_all().unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn a_shard_file_naming_a_path_as_its_app_is_skipped_not_saved_outside() {
        let base = std::env::temp_dir().join(format!("nodefz-merge-escape-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let shard = Corpus::open(&base.join("shard")).unwrap();
        let good = entry("KUE", "lost N jobs", 3, 4);
        shard.save(&good).unwrap();
        let hostile = good
            .encode()
            .replacen("app KUE\n", "app ../../escaped\n", 1);
        std::fs::write(base.join("shard").join("evil.repro"), hostile).unwrap();

        let mut m = MergedCorpus::new();
        let (new, skipped) = m.fold_shard(&base.join("shard")).unwrap();
        assert_eq!((new.len(), skipped), (1, vec!["evil.repro".to_string()]));
        m.write_to(&base.join("a").join("corpus")).unwrap();
        let mut top: Vec<String> = std::fs::read_dir(&base)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        top.sort();
        assert_eq!(top, ["a", "shard"], "a save escaped the merged corpus");
        let merged = std::fs::read_dir(base.join("a")).unwrap().count();
        assert_eq!(merged, 1, "only the corpus directory lives under a/");
        let _ = std::fs::remove_dir_all(&base);
    }
}
