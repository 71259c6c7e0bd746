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
    let out = run(&["list", "--json", "--apps", "KUE,GHO,CONFORM,CONFORM-API"]);
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
    let apps = ["KUE", "GHO", "CONFORM", "CONFORM-API"].map(String::from);
    let space = nodefz_campaign::arm_space(&apps);
    let expected: Vec<(&str, &str, &str)> = space
        .iter()
        .map(|a| (a.app.as_str(), a.preset.as_str(), a.mode.label()))
        .collect();
    assert_eq!(printed, expected);
}

/// The usage block headers on `text`: lines opening a command's block.
fn block_headers(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| l.starts_with("campaign") && l.contains(" — "))
        .collect()
}

/// Every command takes only the flags it honours. Any other flag is
/// rejected before anything runs — exit 1, nothing on stdout, no file
/// written — by a message naming the flag and the commands that take it,
/// followed by the failing command's usage block alone. Ignoring the flag
/// would silently run something else: `--shards` a one-process campaign,
/// `--races-out` no analysis at all, `--budget` an orchestration whose
/// slices are sized by `--round-budget`.
#[test]
fn no_command_silently_ignores_a_flag() {
    let dir = scratch("foreign-flags");
    let races = dir.join("races.json");
    let races = races.to_str().unwrap();
    let corpus = dir.to_str().unwrap();
    // (arguments, the rejected flag, every command that takes it).
    let orch = "`campaign orchestrate`";
    let foreign: [(&[&str], &str, &str); 13] = [
        (
            &[
                "--shards", "4", "--rounds", "9", "--budget", "5", "--apps", "GHO",
            ],
            "--shards",
            orch,
        ),
        (
            &["--induce-crash", "0", "--budget", "5", "--apps", "GHO"],
            "--induce-crash",
            orch,
        ),
        (
            &["--races-out", races, "--attempts", "3", "--apps", "GHO"],
            "--races-out",
            "`campaign analyze`",
        ),
        (
            &["--attempts", "3", "--budget", "5", "--apps", "GHO"],
            "--attempts",
            "`campaign analyze`, `campaign explain`",
        ),
        (
            &["--json", "--budget", "5", "--apps", "GHO"],
            "--json",
            "`campaign list`",
        ),
        (&["list", "--threads", "0"], "--threads", "`campaign`"),
        (
            &["verify", corpus, "--budget", "5"],
            "--budget",
            "`campaign`",
        ),
        (
            &[
                "analyze",
                "--threads",
                "0",
                "--apps",
                "GHO",
                "--races-out",
                races,
            ],
            "--threads",
            "`campaign`",
        ),
        (
            &["orchestrate", "--budget", "400", "--apps", "GHO"],
            "--budget",
            "`campaign`",
        ),
        (&["report", "--orch-out", races], "--orch-out", orch),
        (
            &["explain", "x.repro", "--seed", "5"],
            "--seed",
            "`campaign`, `campaign analyze`, `campaign orchestrate`",
        ),
        (
            &["sa", "--prune", "--out", races],
            "--prune",
            "`campaign`, `campaign orchestrate`",
        ),
        (
            &["lint", "--out", races],
            "--out",
            "`campaign report`, `campaign sa`",
        ),
    ];
    for (args, flag, owners) in foreign {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
        let this = match args[0] {
            row if !row.starts_with('-') => format!("campaign {row}"),
            _ => "campaign".to_string(),
        };
        let error = format!("{this}: {flag} belongs to {owners}, not to `{this}`");
        assert_eq!(stderr.lines().next(), Some(error.as_str()), "{args:?}");
        let headers = block_headers(&stderr);
        assert_eq!(headers.len(), 1, "{args:?}: {stderr}");
        assert!(
            headers[0].starts_with(&format!("{this} ")),
            "{args:?}: {stderr}"
        );
    }
    assert!(
        !Path::new(races).exists(),
        "a rejected command wrote a file"
    );

    // The old spellings of the modes are gone, as are the bad values the
    // verify skill probes by hand; each fails before anything runs.
    let rejected: [&[&str]; 12] = [
        &["--verify", corpus],
        &["--list"],
        &["--analyze", "--apps", "GHO"],
        &["--orchestrate", "--apps", "GHO"],
        &["--directed", "--apps", "GHO"],
        &["--conform", "--apps", "GHO"],
        &["--bogus"],
        &["--budget", "xyz"],
        &["--seed"],
        &["--apps", "NOPE"],
        &["--threads", "0"],
        &["verify"],
    ];
    for args in rejected {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
        assert!(!stderr.is_empty(), "{args:?} failed without a word");
    }

    // `--help` prints the requested command's block to stdout and exits 0;
    // bare `campaign --help` prints the overview of every command.
    let rows = [
        "verify",
        "list",
        "analyze",
        "orchestrate",
        "report",
        "explain",
        "sa",
        "lint",
    ];
    for row in rows {
        let out = run(&[row, "--help"]);
        assert_eq!(out.status.code(), Some(0), "{row}");
        assert!(out.stderr.is_empty(), "{row}");
        let text = stdout(&out);
        assert_eq!(block_headers(&text).len(), 1, "{row}: {text}");
        assert!(
            text.starts_with(&format!("campaign {row} ")),
            "{row}: {text}"
        );
    }
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let overview = stdout(&out);
    for row in rows {
        assert!(
            overview.contains(&format!("\n  campaign {row} ")),
            "{row}: {overview}"
        );
    }
    for hook in [
        "campaign --crash-after-runs N",
        "campaign orchestrate --induce-crash K",
        "campaign sa --canary",
    ] {
        assert!(overview.contains(hook), "{hook}: {overview}");
    }

    // Under the command that takes it, the same flag is honoured.
    let out = run(&[
        "analyze",
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
/// corpus passes `campaign verify`.
#[test]
fn found_bug_set_is_invariant_to_shard_count() {
    let mut sets = Vec::new();
    for shards in ["1", "2", "4"] {
        let dir = scratch(&format!("invariance-{shards}"));
        let workdir = dir.join("work");
        let orch_out = dir.join("orch.json");
        let out = run(&[
            "orchestrate",
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

        let verify = run(&["verify", merged.to_str().unwrap()]);
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
        "orchestrate",
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
