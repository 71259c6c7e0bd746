//! Deterministic smoke tests for race-directed scheduling: the
//! predict-then-confirm pipeline must beat an undirected fuzzing baseline
//! on executions-to-first-manifestation, at the same environment seed.

use nodefz::{FuzzParams, Mode, TraceHandle};
use nodefz_apps::common::{RunCfg, Variant};
use nodefz_campaign::{analyze_campaign, run, AnalyzeConfig, CampaignConfig, DIRECTED_PRESET};

/// Executions a plain seeded fuzzing sweep needs before `app`'s bug first
/// manifests at `env_seed` — the §5-style baseline the directed mode is
/// measured against.
fn undirected_execs(app: &str, env_seed: u64, max: u64) -> Option<u64> {
    let case = nodefz_apps::by_abbr(app).expect("known app");
    for s in 0..max {
        let mut cfg = RunCfg::new(
            Mode::Record(FuzzParams::standard(), TraceHandle::fresh()),
            env_seed,
        );
        cfg.sched_seed = s;
        if case.run(&cfg, Variant::Buggy).manifested {
            return Some(s + 1);
        }
    }
    None
}

fn directed_execs(app: &str, env_seed: u64) -> u64 {
    let cfg = AnalyzeConfig {
        apps: vec![app.into()],
        env_seed,
        ..AnalyzeConfig::default()
    };
    let report = analyze_campaign(&cfg).expect("pipeline runs");
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    let confirmed = report
        .confirmed
        .iter()
        .find(|c| c.app == app)
        .unwrap_or_else(|| panic!("{app}: no confirmed race"));
    confirmed.execs
}

#[test]
fn directed_beats_undirected_on_aka() {
    let directed = directed_execs("AKA", 11);
    let undirected = undirected_execs("AKA", 11, 400).expect("baseline manifests");
    assert!(
        directed < undirected,
        "directed {directed} execs vs undirected {undirected}"
    );
}

#[test]
fn directed_beats_undirected_on_gho() {
    let directed = directed_execs("GHO", 11);
    let undirected = undirected_execs("GHO", 11, 400).expect("baseline manifests");
    assert!(
        directed < undirected,
        "directed {directed} execs vs undirected {undirected}"
    );
}

#[test]
fn directed_campaign_arm_runs_end_to_end() {
    let campaign = |presets: Vec<usize>| {
        run(&CampaignConfig {
            apps: vec!["GHO".into()],
            presets,
            budget: 24,
            threads: 2,
            base_seed: 11,
            shrink: false,
            ..CampaignConfig::default()
        })
        .expect("campaign runs")
    };
    let report = campaign(vec![0, 1, 2, DIRECTED_PRESET]);
    assert_eq!(report.runs, 24);
    assert!(
        report
            .arms
            .iter()
            .any(|(_, preset, _)| *preset == "directed"),
        "arms: {:?}",
        report.arms
    );
    // An app's directed arm follows its fuzz arms wherever the preset
    // list names it, so naming it first runs the same campaign.
    let first = campaign(vec![DIRECTED_PRESET, 0, 1, 2]);
    assert_eq!(first.arms, report.arms);
    assert_eq!(format!("{:?}", first.bugs), format!("{:?}", report.bugs));
}
