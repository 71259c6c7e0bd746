//! Damaged files: a trace, repro or JSON document cut off at any byte (a
//! torn write, a full disk, a partial copy) must decode to a typed error,
//! never panic and never decode to a different value. The one prefix
//! allowed to decode is the document minus its trailing newline, which must
//! give the original. A repro with a hostile payload spliced into any token
//! must decode to a typed error or to an entry that round-trips, never
//! panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nodefz::{decode_trace, encode_trace, Decision, DecisionTrace, Perm};
use nodefz_campaign::{run, CampaignConfig, CorpusEntry};
use nodefz_check::{check_prefixes, mutants, payload_classes};
use nodefz_obs::{JsonValue, ObsLevel};
use nodefz_rt::{PoolMode, VDur};

/// A trace holding all five decision kinds, with one shuffle wider than
/// the inline permutation storage.
fn sample_trace() -> DecisionTrace {
    let wide: Vec<u32> = (0..Perm::INLINE as u32 + 4).rev().collect();
    DecisionTrace {
        pool_mode: PoolMode::Serialized {
            lookahead: 4,
            max_delay: VDur::micros(250),
        },
        demux_done: true,
        decisions: vec![
            Decision::Timer(None),
            Decision::Timer(Some(5_000_000)),
            Decision::Shuffle(wide.into()),
            Decision::Shuffle(vec![1, 0, 2].into()),
            Decision::DeferReady(true),
            Decision::DeferClose(false),
            Decision::PickTask(3),
        ],
    }
}

#[test]
fn every_trace_prefix_is_a_typed_error() {
    let trace = sample_trace();
    let doc = encode_trace(&trace);
    assert_eq!(decode_trace(&doc).as_ref(), Ok(&trace));
    check_prefixes(&doc, &trace, decode_trace);
}

fn sample_entry() -> CorpusEntry {
    CorpusEntry {
        app: "KUE".into(),
        env_seed: 12_345,
        site: "lost # of # jobs".into(),
        kinds: 1042,
        hits: 17,
        replays_ok: 10,
        trace: sample_trace(),
    }
}

#[test]
fn every_repro_prefix_is_a_typed_error() {
    let entry = sample_entry();
    let doc = entry.encode();
    assert_eq!(CorpusEntry::decode(&doc).as_ref(), Ok(&entry));
    check_prefixes(&doc, &entry, CorpusEntry::decode);
}

/// A `nodefz-metrics-v1` snapshot as a campaign writes it, with every
/// block filled: arms with schedule diversity, the discovery curve, loop
/// phases and callbacks, and pruning.
fn metrics_document() -> String {
    let dir = std::env::temp_dir().join(format!("nodefz-truncated-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    run(&CampaignConfig {
        threads: 1,
        budget: 24,
        apps: vec!["GHO".into(), "KUE".into()],
        shrink: false,
        replay_checks: 1,
        prune: true,
        obs_level: ObsLevel::Counters,
        metrics_out: Some(path.clone()),
        ..CampaignConfig::default()
    })
    .unwrap();
    let doc = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    doc
}

/// Every JSON value kind, nested: empty and non-empty arrays and objects,
/// escapes, and numbers in every spelling the grammar allows.
const EVERY_JSON_KIND: &str = r#"{"null": null, "bools": [true, false], "nums": [0, -7, 2.5, -0.125, 1e-3, 6.02E+23], "str": "tab\t \"quoted\" \\ \u00e9 \/", "empty": [{}, [], ""], "nested": {"a": [[1, [2, [3, {"deep": null}]]]], "b": {"c": {"d": false}}}}
"#;

#[test]
fn every_json_prefix_is_a_typed_error() {
    let metrics = metrics_document();
    let parsed = JsonValue::parse(&metrics).unwrap();
    assert!(
        parsed.get("pruning").is_some() && parsed.get("discovery").is_some(),
        "{metrics}"
    );
    for doc in [metrics.as_str(), EVERY_JSON_KIND] {
        check_prefixes(doc, &JsonValue::parse(doc).unwrap(), JsonValue::parse);
    }
}

#[test]
fn hostile_repros_are_errors_or_round_trip_never_panics() {
    let doc = sample_entry().encode();
    let (mut decoded, mut accepted) = (0usize, 0usize);
    for (class, payloads) in payload_classes() {
        for payload in &payloads {
            for m in mutants(&doc, payload) {
                let result = catch_unwind(AssertUnwindSafe(|| CorpusEntry::decode(&m.text)))
                    .unwrap_or_else(|_| panic!("{class}: decode panicked on {:?}", m.text));
                decoded += 1;
                let Ok(entry) = result else { continue };
                accepted += 1;
                assert_eq!(
                    CorpusEntry::decode(&entry.encode()).as_ref(),
                    Ok(&entry),
                    "{class}: accepted entry does not round-trip"
                );
            }
        }
    }
    assert!(decoded > 4_000, "only {decoded} mutants");
    assert!(
        accepted > 0,
        "no mutant was accepted, so the round trip went unchecked"
    );
}
