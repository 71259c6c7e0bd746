//! Campaign output is a function of the flags that choose work, not of
//! `--threads`: the controller applies results in slot (dispatch) order,
//! so corpora and the metrics' counters must be identical at 1, 2 and 4
//! worker threads. Only wall-clock fields may differ.

use std::collections::BTreeMap;
use std::path::Path;

use nodefz_campaign::{run, CampaignConfig, DIRECTED_PRESET};
use nodefz_obs::{JsonValue, ObsLevel};

/// What one campaign wrote, with every wall-clock field dropped.
struct Output {
    corpus: BTreeMap<String, Vec<u8>>,
    metrics: JsonValue,
}

fn drop_keys(value: &mut JsonValue, keys: &[&str]) {
    if let JsonValue::Obj(fields) = value {
        fields.retain(|(key, _)| !keys.contains(&key.as_str()));
    }
}

fn parse(text: &str) -> JsonValue {
    JsonValue::parse(text).unwrap_or_else(|e| panic!("{e:?} in {text}"))
}

fn corpus_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("corpus dir exists")
        .map(|entry| {
            let entry = entry.unwrap();
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).unwrap(),
            )
        })
        .collect()
}

/// CI's prune config with every arm kind and every telemetry output on.
fn campaign(threads: usize) -> Output {
    let dir =
        std::env::temp_dir().join(format!("nodefz-threadinv-{threads}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = CampaignConfig {
        threads,
        apps: vec!["GHO".into(), "AKA".into(), "KUE".into()],
        budget: 120,
        base_seed: 7,
        replay_checks: 2,
        presets: vec![0, 1, 2, DIRECTED_PRESET],
        prune: true,
        obs_level: ObsLevel::Counters,
        corpus_dir: Some(dir.join("corpus")),
        metrics_out: Some(dir.join("metrics.json")),
        ..CampaignConfig::default()
    };
    let report = run(&cfg).expect("campaign runs");
    assert_eq!(report.runs, 120);

    let mut metrics = parse(&std::fs::read_to_string(dir.join("metrics.json")).unwrap());
    drop_keys(&mut metrics, &["elapsed_ms", "execs_per_sec"]);
    let JsonValue::Obj(fields) = &mut metrics else {
        panic!("metrics is an object")
    };
    for (key, value) in fields {
        let timed = match key.as_str() {
            "discovery" => "first_ms",
            "phases" => "wall_ns",
            _ => continue,
        };
        let JsonValue::Arr(rows) = value else {
            panic!("{key} is an array")
        };
        for row in rows {
            drop_keys(row, &[timed]);
        }
    }
    let output = Output {
        corpus: corpus_files(&dir.join("corpus")),
        metrics,
    };
    std::fs::remove_dir_all(&dir).unwrap();
    output
}

#[test]
fn output_is_identical_at_one_two_and_four_threads() {
    let one = campaign(1);
    assert!(!one.corpus.is_empty(), "the campaign must find a bug");
    let phases = one.metrics.get("phases").and_then(JsonValue::as_array);
    assert!(phases.is_some_and(|p| !p.is_empty()), "profiled runs");
    let arms = one.metrics.get("arms").and_then(JsonValue::as_array);
    assert!(
        arms.is_some_and(|rows| rows
            .iter()
            .all(|row| row.get("quarantine").is_some_and(JsonValue::is_null))),
        "no arm is quarantined"
    );
    for threads in [2, 4] {
        let other = campaign(threads);
        assert_eq!(
            one.corpus, other.corpus,
            "corpus at {threads} threads differs"
        );
        assert_eq!(
            one.metrics, other.metrics,
            "metrics at {threads} threads differ"
        );
    }
}
