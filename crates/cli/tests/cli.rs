//! End-to-end tests of the `campaign` binary: every command's flag
//! parsing and help, and the documents a campaign writes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn campaign_bin() -> &'static str {
    env!("CARGO_BIN_EXE_campaign")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nodefz-cli-test-{}-{name}", std::process::id()));
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
/// would silently run something else: `--races-out` a campaign that writes
/// no analysis at all, `--prune` a static analysis that prunes nothing.
#[test]
fn no_command_silently_ignores_a_flag() {
    let dir = scratch("foreign-flags");
    let races = dir.join("races.json");
    let races = races.to_str().unwrap();
    let corpus = dir.to_str().unwrap();
    // (arguments, the rejected flag, every command that takes it).
    let foreign: [(&[&str], &str, &str); 9] = [
        (
            &["--canary", "--budget", "5", "--apps", "GHO"],
            "--canary",
            "`campaign sa`",
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
            &["explain", "x.repro", "--seed", "5"],
            "--seed",
            "`campaign`, `campaign analyze`",
        ),
        (&["sa", "--prune", "--out", races], "--prune", "`campaign`"),
        (&["lint", "--out", races], "--out", "`campaign sa`"),
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

    // The old spellings of the modes are gone, as are the deleted commands
    // and the bad values the verify skill probes by hand; each fails
    // before anything runs.
    let rejected: [&[&str]; 15] = [
        &["--verify", corpus],
        &["--list"],
        &["--analyze", "--apps", "GHO"],
        &["--orchestrate", "--apps", "GHO"],
        &["--directed", "--apps", "GHO"],
        &["--conform", "--apps", "GHO"],
        &["orchestrate", "--apps", "GHO"],
        &["report"],
        &["list", "--json"],
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
    let rows = ["verify", "list", "analyze", "explain", "sa", "lint"];
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
    assert!(overview.contains("campaign sa --canary"), "{overview}");
    for gone in [
        "campaign orchestrate",
        "campaign report",
        "--crash-after-runs",
        "--induce-crash",
    ] {
        assert!(!overview.contains(gone), "{gone}: {overview}");
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

/// Conformance testing is one program stream and one campaign arm: the
/// seed-family and gated-sweep flags are unknown to `campaign sa`,
/// `CONFORM` is an unknown app to every command that takes `--apps`, and
/// `campaign list` has one conformance row.
#[test]
fn conformance_is_one_stream_and_one_arm() {
    // The deleted seed-family, gated-sweep and tripwire flags, by name.
    for (name, value) in [
        ("family", Some("3")),
        ("gated", None),
        ("tripwire", Some("8")),
    ] {
        let flag = format!("--{name}");
        let mut args = vec!["sa", flag.as_str()];
        args.extend(value);
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
        let error = format!("campaign sa: unknown flag {flag}");
        assert_eq!(stderr.lines().next(), Some(error.as_str()), "{args:?}");
    }

    let mut errors = Vec::new();
    for args in [
        &["--apps", "CONFORM", "--budget", "5"][..],
        &["analyze", "--apps", "CONFORM"],
        &["list", "--apps", "CONFORM"],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
        assert!(stderr.contains("unknown app 'CONFORM'"), "{stderr}");
        errors.push(stderr);
    }
    assert!(errors.windows(2).all(|w| w[0] == w[1]), "{errors:?}");

    let out = run(&["list"]);
    assert!(out.status.success());
    let listing = stdout(&out);
    let rows: Vec<&str> = listing
        .lines()
        .filter(|l| l.contains("conformance"))
        .collect();
    assert_eq!(rows.len(), 1, "{listing}");
    assert!(rows[0].starts_with("CONFORM-API "), "{listing}");
}

/// `campaign list` aligns its columns however long an abbreviation or
/// a name is: every row's bug reference starts at the same column.
#[test]
fn list_aligns_every_bug_reference() {
    let out = run(&["list"]);
    assert!(out.status.success());
    let listing = stdout(&out);
    let mut refs: Vec<&str> = nodefz_apps::registry()
        .iter()
        .map(|c| c.info().bug_ref)
        .collect();
    refs.push(nodefz_conform::api_bug_case().info().bug_ref);
    let rows: Vec<&str> = listing.lines().collect();
    assert_eq!(rows.len(), refs.len(), "{listing}");
    let columns: Vec<usize> = rows
        .iter()
        .zip(&refs)
        .map(|(row, bug_ref)| {
            assert!(row.ends_with(bug_ref), "{row:?} lacks {bug_ref:?}");
            row.chars().count() - bug_ref.chars().count()
        })
        .collect();
    assert!(columns.windows(2).all(|w| w[0] == w[1]), "{listing}");
}

#[test]
fn presets_flag_restricts_a_campaign_to_one_arm() {
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
