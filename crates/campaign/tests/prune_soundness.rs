//! Soundness invariance of schedule-space pruning: a pruned campaign
//! must find the *byte-identical* deduplicated bug set an unpruned
//! campaign finds at the same seed. Pruning classifies runs into
//! happens-before equivalence classes on the side; it must never change
//! which seeds are dispatched, which schedules execute, or which repros
//! are persisted. Fuzz and race-directed runs both record an event log
//! when pruning is on, so both arm kinds are diffed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use nodefz_campaign::{run, CampaignConfig, DIRECTED_PRESET};
use nodefz_obs::JsonValue;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nodefz-prunesound-{tag}-{}", std::process::id()))
}

/// Reads every file in a corpus directory into (name, bytes) pairs.
fn corpus_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("corpus dir exists") {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            files.insert(
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).unwrap(),
            );
        }
    }
    files
}

fn campaign(prune: bool, presets: &[usize], tag: &str) -> (BTreeMap<String, Vec<u8>>, PathBuf) {
    let corpus_dir = temp_dir(tag);
    let metrics_path = corpus_dir.with_extension("metrics.json");
    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_file(&metrics_path);
    let cfg = CampaignConfig {
        apps: vec!["GHO".into(), "AKA".into(), "KUE".into()],
        budget: 120,
        threads: 4,
        base_seed: 7,
        shrink: true,
        corpus_dir: Some(corpus_dir.clone()),
        metrics_out: Some(metrics_path.clone()),
        presets: presets.to_vec(),
        prune,
        ..CampaignConfig::default()
    };
    let report = run(&cfg).expect("campaign runs");
    assert_eq!(report.runs, 120);
    let files = corpus_files(&corpus_dir);
    std::fs::remove_dir_all(&corpus_dir).unwrap();
    (files, metrics_path)
}

#[test]
fn pruned_and_unpruned_campaigns_persist_byte_identical_corpora() {
    let fuzz = CampaignConfig::default().presets;
    let directed = [0, 1, 2, DIRECTED_PRESET];
    for (presets, tag) in [(&fuzz[..], "fuzz"), (&directed[..], "directed")] {
        let (plain, plain_metrics) = campaign(false, presets, &format!("{tag}-off"));
        let (pruned, pruned_metrics) = campaign(true, presets, &format!("{tag}-on"));

        assert!(
            !pruned.is_empty(),
            "{tag}: the fixed-seed campaign must find at least one bug for the diff to mean anything"
        );
        let plain_names: Vec<&String> = plain.keys().collect();
        let pruned_names: Vec<&String> = pruned.keys().collect();
        assert_eq!(
            plain_names, pruned_names,
            "{tag}: pruning changed which repros were persisted"
        );
        for (name, bytes) in &plain {
            assert_eq!(
                Some(bytes),
                pruned.get(name),
                "{tag}: repro {name} differs between pruned and unpruned campaigns"
            );
        }

        // The unpruned campaign's metrics carry no pruning block; the
        // pruned one's does, and it counts every run.
        let read = |path: &Path| JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert!(read(&plain_metrics).get("pruning").is_none(), "{tag}");
        let pruned_doc = read(&pruned_metrics);
        let block = pruned_doc.get("pruning").expect("pruned metrics block");
        assert_eq!(
            block.get("runs").and_then(|v| v.as_u64()),
            Some(120),
            "{tag}"
        );
        let distinct = block.get("distinct").and_then(|v| v.as_u64()).unwrap();
        let redundant = block.get("redundant").and_then(|v| v.as_u64()).unwrap();
        assert_eq!(
            distinct + redundant,
            120,
            "{tag}: every run must be classified"
        );
        assert!(distinct > 0, "{tag}: at least one class must be fresh");

        std::fs::remove_file(&plain_metrics).unwrap();
        std::fs::remove_file(&pruned_metrics).unwrap();
    }
}
