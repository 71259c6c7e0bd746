//! Every workload at a tiny size through the library entry point: the
//! metric names and units are exactly the ones `BENCHMARK.json` lists,
//! and the seed-determined counts repeat at a seed and move with it.

use std::path::PathBuf;

use nfzbench::{run, Config, Counts, Outcome, Workload, END_TO_END, PER_LAYER};
use nodefz_obs::JsonValue;

/// A run of a few operations (one per arm or app where that applies).
fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let ops = match workload {
        Workload::Fuzz => 39,
        Workload::Dedup => 200,
        Workload::Repro => 1,
        Workload::Directed => 12,
    };
    let cfg = Config {
        ops: Some(ops),
        trace,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{seed}-{trace}")),
        ..Config::new(workload, seed)
    };
    let outcome = run(&cfg).expect("the benchmark runs");
    assert!(
        outcome.correct(),
        "{} seed {seed}: {:?}",
        workload.name(),
        outcome.violations
    );
    assert!(outcome.attempted >= ops);
    outcome
}

/// (name, unit) of every entry of one of `BENCHMARK.json`'s metric lists.
fn listed(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|&(name, _, unit)| (name.to_string(), unit.to_string()))
        .collect()
}

#[test]
fn every_listed_metric_is_emitted_with_its_unit_and_nothing_else() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(own(&END_TO_END), end_to_end);
    assert_eq!(own(&PER_LAYER), per_layer);
    for workload in Workload::ALL {
        let plain = tiny(workload, 1, false);
        assert_eq!(emitted(&plain), end_to_end, "{}", workload.name());
        for &(name, value, _) in &plain.metrics {
            assert!(
                value.is_finite() && value > 0.0,
                "{} {name} = {value}",
                workload.name()
            );
        }
        let traced = tiny(workload, 1, true);
        assert_eq!(emitted(&traced), per_layer, "{}", workload.name());
        for &(name, value, _) in &traced.metrics {
            assert!(value.is_finite(), "{} {name} = {value}", workload.name());
        }
    }
}

#[test]
fn counts_repeat_at_a_seed_and_move_with_it() {
    for workload in Workload::ALL {
        let counts = |seed| {
            let o = tiny(workload, seed, false);
            (o.counts.clone(), o.metric("execs_per_find").unwrap())
        };
        let (first, per_find) = counts(1);
        let (again, per_find_again) = counts(1);
        let (other, _) = counts(2);
        assert_eq!(first, again, "{} is not deterministic", workload.name());
        assert_eq!(per_find, per_find_again);
        assert_ne!(first, Counts::default());
        assert_ne!(
            first.digest,
            other.digest,
            "{} ignores its seed",
            workload.name()
        );
    }
}
