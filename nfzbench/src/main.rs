//! The `nfzbench` command line.
//!
//! ```text
//! nfzbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//! nfzbench run   [--seed N] [--seconds S] [--out DIR]
//! nfzbench trace [--seed N] [--seconds S] [--out DIR]
//! nfzbench compare [--benchmark FILE] PARENT.json... -- CHANGE.json...
//! ```
//!
//! The first form runs one workload and ends its output with a one-line
//! JSON summary. `run` and `trace` run all four workloads in this process
//! and, with `--out`, write `results.json` (and, traced, one Chrome-trace
//! span file per workload, with the spans of its first operations); they
//! exit 1 when any output fails its check.

use std::path::PathBuf;
use std::process::ExitCode;

use nfzbench::compare::{compare, read_specs};
use nfzbench::results::{parse_results, results_json, summary_line};
use nfzbench::spans::{chrome_json, Lane};
use nfzbench::{Config, Outcome, Workload};

/// Operations whose spans a span file keeps (it keeps every probe span),
/// so that files stay a few MB where a traced pass runs 10^5 operations.
const SPAN_FILE_OPS: u64 = 2_000;

const USAGE: &str = "usage:
  nfzbench --workload fuzz|dedup|repro|directed --seed N [--seconds S] [--trace 0|1]
  nfzbench run   [--seed N] [--seconds S] [--out DIR]
  nfzbench trace [--seed N] [--seconds S] [--out DIR]
  nfzbench compare [--benchmark FILE] PARENT.json... -- CHANGE.json...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => all_workloads(&args[1..], false),
        Some("trace") => all_workloads(&args[1..], true),
        Some("compare") => compare_cmd(&args[1..]),
        Some(_) => one_workload(&args),
        None => Err("no arguments".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("nfzbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// Flags shared by the run forms.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unexpected argument '{flag}'"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => flags.out = Some(PathBuf::from(value)),
            _ => unreachable!("allowed flags are all handled"),
        }
    }
    Ok(flags)
}

fn config(flags: &Flags, workload: Workload, trace: bool) -> Config {
    let default = Config::new(workload, flags.seed);
    Config {
        seconds: flags.seconds.unwrap_or(default.seconds),
        trace,
        ..default
    }
}

/// Prints `workload metric value unit` lines, `ops`/`failed`/
/// `false_positives`, and every violation and false positive (on stderr).
fn print_outcome(o: &Outcome) {
    let w = o.workload.name();
    for &(name, value, unit) in &o.metrics {
        println!("{w} {name} {value} {unit}");
    }
    println!("{w} ops {} count", o.attempted);
    println!("{w} failed {} count", o.failed);
    println!("{w} false_positives {} count", o.false_positives.len());
    for v in &o.violations {
        eprintln!("{w}: FAIL {v}");
    }
    for v in &o.false_positives {
        eprintln!("{w}: false positive: {v}");
    }
}

fn one_workload(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let workload = flags.workload.ok_or("--workload is required")?;
    let outcome = nfzbench::run(&config(&flags, workload, flags.trace))?;
    print_outcome(&outcome);
    println!("{}", summary_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

fn all_workloads(args: &[String], trace: bool) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["--seed", "--seconds", "--out"])?;
    if let Some(dir) = &flags.out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut outcomes = Vec::new();
    for workload in Workload::ALL {
        let outcome = nfzbench::run(&config(&flags, workload, trace))?;
        print_outcome(&outcome);
        if let (Some(dir), true) = (&flags.out, trace) {
            let kept: Vec<_> = outcome
                .spans
                .iter()
                .filter(|s| s.lane == Lane::Probe || s.trial < SPAN_FILE_OPS)
                .cloned()
                .collect();
            let path = dir.join(format!("{}.trace.json", workload.name()));
            std::fs::write(&path, chrome_json(workload.name(), &kept))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        outcomes.push(outcome);
    }
    if let Some(dir) = &flags.out {
        let path = dir.join("results.json");
        std::fs::write(&path, results_json(flags.seed, trace, &outcomes))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    if failed > 0 {
        eprintln!("nfzbench: {failed} operations failed their checks");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Up to five significant digits, for the comparison table.
fn sig(v: f64) -> String {
    let digits = if v == 0.0 || !v.is_finite() {
        0
    } else {
        (4 - v.abs().log10().floor() as i32).clamp(0, 9) as usize
    };
    format!("{v:.digits$}")
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs PARENT files, '--', then CHANGE files")?;
    let (mut parent_args, change_args) = (&args[..split], &args[split + 1..]);
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    if parent_args.first().map(String::as_str) == Some("--benchmark") {
        benchmark = PathBuf::from(parent_args.get(1).ok_or("--benchmark needs a value")?);
        parent_args = &parent_args[2..];
    }
    if parent_args.is_empty() || change_args.is_empty() {
        return Err("compare needs at least one file on each side".into());
    }
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| parse_results(&text).map_err(|e| format!("{path}: {e}")))
    };
    let specs = std::fs::read_to_string(&benchmark)
        .map_err(|e| format!("cannot read {}: {e}", benchmark.display()))
        .and_then(|text| read_specs(&text).map_err(|e| format!("{}: {e}", benchmark.display())))?;
    let parent = parent_args
        .iter()
        .map(read)
        .collect::<Result<Vec<_>, _>>()?;
    let change = change_args
        .iter()
        .map(read)
        .collect::<Result<Vec<_>, _>>()?;
    let cmp = compare(&specs, &parent, &change);
    println!(
        "{:<9} {:<31} {:>32} {:>32} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for r in &cmp.rows {
        let side = |(m, q1, q3): (f64, f64, f64)| format!("{} [{}, {}]", sig(m), sig(q1), sig(q3));
        println!(
            "{:<9} {:<31} {:>32} {:>32} {:>6}  {}",
            r.workload,
            r.metric,
            side(r.parent),
            side(r.change),
            format!("{}/{}", r.wins, r.pairs),
            r.verdict.label()
        );
    }
    for (workload, p, c) in &cmp.fail_fracs {
        let verdict = if c > p { "MORE FAILURES" } else { "ok" };
        println!("{workload:<9} fail_frac parent {p} change {c} {verdict}");
    }
    for (workload, p, c) in &cmp.fp_fracs {
        let verdict = if c > p { "MORE FALSE POSITIVES" } else { "ok" };
        println!("{workload:<9} false_positive_frac parent {p} change {c} {verdict}");
    }
    Ok(if cmp.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
