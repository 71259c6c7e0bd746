//! End-to-end campaign smoke test: a small-budget, 2-thread campaign over
//! three planted bugs must find each, dedup to one report per bug, shrink
//! without growing any trace, and persist a corpus whose entries replay
//! deterministically.

use std::time::{Duration, Instant};

use nodefz_campaign::{run, verify_entry, CampaignConfig, Corpus};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("nodefz-smoke-{tag}-{}", std::process::id()))
}

#[test]
fn small_campaign_finds_dedups_shrinks_and_persists() {
    let corpus_dir = temp_dir("corpus");
    let _ = std::fs::remove_dir_all(&corpus_dir);
    let cfg = CampaignConfig {
        threads: 2,
        budget: 60,
        apps: vec!["KUE".into(), "MKD".into(), "GHO".into()],
        corpus_dir: Some(corpus_dir.clone()),
        base_seed: 3,
        ..CampaignConfig::default()
    };

    let start = Instant::now();
    let report = run(&cfg).expect("campaign runs");
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "smoke campaign exceeded its timeout: {:?}",
        start.elapsed()
    );

    assert_eq!(report.runs, 60, "the whole budget is spent");
    // Each planted bug is found and dedups to exactly one report.
    assert_eq!(report.unique_bugs(), 3, "bugs: {:#?}", report.bugs);
    let mut apps: Vec<&str> = report.bugs.iter().map(|b| b.app.as_str()).collect();
    apps.sort_unstable();
    assert_eq!(apps, ["GHO", "KUE", "MKD"]);
    for bug in &report.bugs {
        assert!(
            bug.shrunk_len <= bug.original_len,
            "{}: shrink grew the trace ({} -> {})",
            bug.app,
            bug.original_len,
            bug.shrunk_len
        );
        assert_eq!(
            bug.replays_ok, cfg.replay_checks,
            "{}: shrunk repro must re-manifest in every acceptance replay",
            bug.app
        );
    }

    // The persisted corpus replays deterministically.
    let corpus = Corpus::open(&corpus_dir).unwrap();
    let entries = corpus.load_all().unwrap();
    assert_eq!(entries.len(), 3);
    for entry in &entries {
        verify_entry(entry).expect("corpus entry re-manifests its bug");
        // Twice: replay must be deterministic, not merely likely.
        verify_entry(entry).expect("corpus entry re-manifests on a second replay");
    }
    std::fs::remove_dir_all(&corpus_dir).unwrap();
}

/// Above `--obs-level off`, worker loop-phase profiling lands in the
/// metrics document, and `--trace-out` emits a chrome://tracing timeline.
#[test]
fn instrumented_campaign_profiles_phases_and_exports_a_trace() {
    let metrics_path = temp_dir("obs-metrics").with_extension("json");
    let trace_path = temp_dir("obs-trace").with_extension("json");
    let cfg = CampaignConfig {
        threads: 2,
        budget: 20,
        apps: vec!["GHO".into()],
        base_seed: 9,
        shrink: false,
        replay_checks: 1,
        metrics_out: Some(metrics_path.clone()),
        trace_out: Some(trace_path.clone()),
        obs_level: nodefz_obs::ObsLevel::Counters,
        ..CampaignConfig::default()
    };
    run(&cfg).expect("campaign runs");

    let doc = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(
        doc.contains("\"phase\": \"timers\", \"entries\": "),
        "phase rows must be populated: {doc}"
    );
    assert!(
        !doc.contains("\"phase\": \"timers\", \"entries\": 0,"),
        "timer phase must have been profiled: {doc}"
    );
    assert!(
        doc.contains("\"kind\": \"timer\""),
        "per-kind dispatch counts must be present: {doc}"
    );

    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.contains("\"traceEvents\": ["), "{trace}");
    assert!(
        trace.contains("\"ph\": \"X\"") && trace.contains("\"cat\": \"phase\""),
        "complete events with phase spans expected: {trace}"
    );
    std::fs::remove_file(&metrics_path).unwrap();
    std::fs::remove_file(&trace_path).unwrap();
}

#[test]
fn deadline_drains_gracefully() {
    let cfg = CampaignConfig {
        threads: 2,
        budget: 1_000_000,
        apps: vec!["GHO".into()],
        deadline: Some(Duration::from_millis(200)),
        shrink: false,
        replay_checks: 1,
        ..CampaignConfig::default()
    };
    let start = Instant::now();
    let report = run(&cfg).expect("campaign runs");
    assert!(report.hit_deadline, "deadline must trip");
    assert!(report.runs < cfg.budget, "budget cannot complete in 200ms");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "drain must be prompt, took {:?}",
        start.elapsed()
    );
}

#[test]
fn metrics_snapshot_is_written_and_telemetry_does_not_perturb_findings() {
    let metrics_path = temp_dir("metrics").with_extension("json");
    let run_once = |metrics_out: Option<std::path::PathBuf>| {
        let cfg = CampaignConfig {
            threads: 2,
            budget: 40,
            apps: vec!["KUE".into(), "GHO".into()],
            base_seed: 5,
            shrink: false,
            replay_checks: 1,
            metrics_out,
            ..CampaignConfig::default()
        };
        let report = run(&cfg).expect("campaign runs");
        let mut sigs: Vec<(String, String)> = report
            .bugs
            .iter()
            .map(|b| (b.app.clone(), b.site.clone()))
            .collect();
        sigs.sort();
        sigs
    };

    let observed = run_once(Some(metrics_path.clone()));
    let bare = run_once(None);
    assert_eq!(observed, bare, "telemetry must not change what is found");
    assert!(!observed.is_empty(), "the planted bugs must be found");

    let doc = std::fs::read_to_string(&metrics_path).expect("snapshot written");
    for needle in [
        "\"schema\": \"nodefz-metrics-v1\"",
        "\"finished\": true",
        "\"runs\": 40",
        "\"arms\": [",
        "\"discovery\": [",
        "\"first_exec\":",
        "\"truncation\": 20000",
        "\"run_dispatched\":",
    ] {
        assert!(doc.contains(needle), "snapshot missing {needle}: {doc}");
    }
    // Loop-phase rows exist only above `--obs-level off`; this campaign
    // ran at the default level, so both loop-profile arrays are empty.
    assert!(doc.contains("\"phases\": []"), "{doc}");
    assert!(doc.contains("\"callbacks\": []"), "{doc}");
    std::fs::remove_file(&metrics_path).unwrap();
}

#[test]
fn campaigns_with_the_same_seed_find_the_same_bugs() {
    let run_once = || {
        let cfg = CampaignConfig {
            threads: 2,
            budget: 30,
            apps: vec!["MKD".into(), "GHO".into()],
            base_seed: 7,
            shrink: false,
            replay_checks: 1,
            ..CampaignConfig::default()
        };
        let report = run(&cfg).expect("campaign runs");
        let mut sigs: Vec<(String, String)> = report
            .bugs
            .iter()
            .map(|b| (b.app.clone(), b.site.clone()))
            .collect();
        sigs.sort();
        sigs
    };
    assert_eq!(run_once(), run_once(), "finding set is seed-determined");
}

#[test]
fn conform_arm_runs_clean_in_a_campaign() {
    // The CONFORM arm fuzzes the runtime itself: generated programs
    // judged against the ordering oracle. On a correct runtime a
    // campaign over it must spend its whole budget without a finding —
    // any finding here would be a runtime bug, not an application bug.
    let cfg = CampaignConfig {
        threads: 2,
        budget: 40,
        apps: vec!["CONFORM".into()],
        base_seed: 11,
        replay_checks: 1,
        ..CampaignConfig::default()
    };
    let report = run(&cfg).expect("campaign runs");
    assert_eq!(report.runs, 40, "the whole budget is spent");
    assert_eq!(
        report.unique_bugs(),
        0,
        "the runtime violated its own ordering oracle: {:#?}",
        report.bugs
    );
}
