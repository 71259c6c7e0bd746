//! End-to-end tests of the orchestrator through the real binary: child
//! processes, cross-shard merge, crash quarantine, and the
//! machine-readable documents the binary prints.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn campaign_bin() -> &'static str {
    env!("CARGO_BIN_EXE_campaign")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nodefz-orch-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(campaign_bin())
        .args(args)
        .output()
        .expect("campaign binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Sorted `.repro` file names of a corpus directory — the signature-
/// stable identity of the found-bug set.
fn corpus_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".repro"))
        .collect();
    names.sort();
    names
}

#[test]
fn list_json_emits_a_parseable_arm_space() {
    let out = run(&["--list", "--json", "--apps", "KUE,GHO", "--conform"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = nodefz_obs::JsonValue::parse(&stdout(&out)).unwrap();
    nodefz_obs::expect_schema(&doc, "nodefz-arms-v1").unwrap();
    let printed: Vec<(&str, &str, &str)> = doc
        .get("arms")
        .and_then(|a| a.as_array())
        .unwrap()
        .iter()
        .map(|arm| {
            let field = |key| arm.get(key).and_then(|v| v.as_str()).unwrap();
            (field("app"), field("preset"), field("mode"))
        })
        .collect();
    // --conform appends both conform pseudo-apps to the listed apps.
    let apps = ["KUE", "GHO", "CONFORM", "CONFORM-API"].map(String::from);
    let space = nodefz_campaign::arm_space(&apps);
    let expected: Vec<(&str, &str, &str)> = space
        .iter()
        .map(|a| (a.app.as_str(), a.preset.as_str(), a.mode.label()))
        .collect();
    assert_eq!(printed, expected);
}

/// A flag that only means something under a mode is rejected without
/// that mode, before anything runs. Ignoring it would silently run
/// something else: `--shards` a one-process campaign, `--races-out` no
/// analysis at all, `--json` a campaign instead of a listing.
#[test]
fn mode_only_flags_are_rejected_without_their_mode() {
    let dir = scratch("mode-only");
    let races = dir.join("races.json");
    let races = races.to_str().unwrap();
    let cases: [(&[&str], &str); 5] = [
        (
            &[
                "--shards", "4", "--rounds", "9", "--budget", "5", "--apps", "GHO",
            ],
            "--shards needs --orchestrate",
        ),
        (
            &["--induce-crash", "0", "--budget", "5", "--apps", "GHO"],
            "--induce-crash needs --orchestrate",
        ),
        (
            &["--races-out", races, "--attempts", "3", "--apps", "GHO"],
            "--races-out needs --analyze",
        ),
        (
            &["--attempts", "3", "--budget", "5", "--apps", "GHO"],
            "--attempts needs --analyze",
        ),
        (
            &["--json", "--budget", "5", "--apps", "GHO"],
            "--json needs --list",
        ),
    ];
    for (args, error) in cases {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(error), "{args:?}: {stderr}");
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
    }
    assert!(
        !Path::new(races).exists(),
        "report written without --analyze"
    );
    // Under its mode the same flag is accepted.
    let out = run(&[
        "--analyze",
        "--apps",
        "GHO",
        "--attempts",
        "0",
        "--races-out",
        races,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(Path::new(races).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn presets_flag_restricts_a_worker_to_one_arm() {
    let dir = scratch("presets");
    let metrics = dir.join("metrics.json");
    let out = run(&[
        "--apps",
        "KUE",
        "--presets",
        "aggressive",
        "--budget",
        "20",
        "--seed",
        "5",
        "--threads",
        "1",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Atomic-write regression: the snapshot is complete, strict JSON and
    // leaves no temp sibling behind.
    let doc = nodefz_obs::JsonValue::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("nodefz-metrics-v1")
    );
    assert!(
        !dir.join(".metrics.json.tmp").exists(),
        "temp file left behind"
    );
    let arms = doc.get("arms").and_then(|a| a.as_array()).unwrap();
    assert_eq!(arms.len(), 1, "one preset means one arm");
    assert_eq!(
        arms[0].get("preset").and_then(|p| p.as_str()),
        Some("aggressive")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance-criteria core: the same orchestration at 1, 2, and 4
/// shards finds the identical deduplicated bug set, and the merged
/// corpus passes `--verify`.
#[test]
fn found_bug_set_is_invariant_to_shard_count() {
    let mut sets = Vec::new();
    for shards in ["1", "2", "4"] {
        let dir = scratch(&format!("invariance-{shards}"));
        let workdir = dir.join("work");
        let orch_out = dir.join("orch.json");
        let out = run(&[
            "--orchestrate",
            "--apps",
            "KUE,GHO",
            "--shards",
            shards,
            "--rounds",
            "2",
            "--round-budget",
            "25",
            "--seed",
            "5",
            "--workdir",
            workdir.to_str().unwrap(),
            "--orch-out",
            orch_out.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let merged = workdir.join("corpus");
        let files = corpus_files(&merged);
        assert!(
            !files.is_empty(),
            "planted bugs should manifest at this budget: {}",
            stdout(&out)
        );

        let verify = run(&["--verify", merged.to_str().unwrap()]);
        assert!(
            verify.status.success(),
            "merged corpus must verify: {}",
            stdout(&verify)
        );

        let doc =
            nodefz_obs::JsonValue::parse(&std::fs::read_to_string(&orch_out).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some("nodefz-orch-v1")
        );
        assert_eq!(
            doc.get("unique_bugs").and_then(|v| v.as_u64()),
            Some(files.len() as u64)
        );
        sets.push((shards, files));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (_, baseline) = &sets[0];
    for (shards, files) in &sets[1..] {
        assert_eq!(
            files, baseline,
            "bug set at {shards} shards diverged from 1 shard"
        );
    }
}

/// Crash robustness: a worker that dies mid-slice gets its arm
/// quarantined and its partial corpus salvaged; the orchestration still
/// exits zero and the remaining arms keep running.
#[test]
fn induced_worker_crash_quarantines_the_arm_without_failing_the_run() {
    let dir = scratch("crash");
    let workdir = dir.join("work");
    let orch_out = dir.join("orch.json");
    let out = run(&[
        "--orchestrate",
        "--apps",
        "KUE",
        "--shards",
        "2",
        "--rounds",
        "2",
        "--round-budget",
        "20",
        "--seed",
        "5",
        "--induce-crash",
        "0",
        "--workdir",
        workdir.to_str().unwrap(),
        "--orch-out",
        orch_out.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "a crashed worker must not fail the campaign: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = nodefz_obs::JsonValue::parse(&std::fs::read_to_string(&orch_out).unwrap()).unwrap();
    let arms = doc.get("arms").and_then(|a| a.as_array()).unwrap();
    let quarantined: Vec<&nodefz_obs::JsonValue> = arms
        .iter()
        .filter(|a| a.get("quarantined").and_then(|q| q.as_bool()) == Some(true))
        .collect();
    assert_eq!(quarantined.len(), 1, "exactly the sabotaged arm");
    assert_eq!(
        quarantined[0]
            .get("quarantine_reason")
            .and_then(|r| r.as_str()),
        Some("crashed")
    );
    // Work item 0 is the sabotaged one; the round still ran the others.
    let work = doc.get("work").and_then(|w| w.as_array()).unwrap();
    assert_eq!(
        work[0].get("outcome").and_then(|o| o.as_str()),
        Some("crashed")
    );
    let ok_items = work
        .iter()
        .filter(|w| w.get("outcome").and_then(|o| o.as_str()) == Some("ok"))
        .count();
    assert!(ok_items > 0, "healthy arms keep running");
    // Quarantine shrinks the arm pool but the campaign finishes its rounds.
    assert_eq!(doc.get("finished").and_then(|f| f.as_bool()), Some(true));
    let _ = std::fs::remove_dir_all(&dir);
}
