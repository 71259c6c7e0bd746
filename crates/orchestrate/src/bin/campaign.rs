//! Command-line front end for fuzzing campaigns — single-process and
//! orchestrated.
//!
//! ```text
//! campaign [--threads N] [--budget N] [--apps KUE,MKD,...] [--corpus DIR]
//!          [--deadline-secs S] [--no-shrink] [--replay-checks N]
//!          [--seed N] [--presets LIST] [--verify DIR] [--list [--json]]
//!          [--directed] [--conform] [--prune] [--analyze] [--races-out PATH]
//!          [--attempts N] [--metrics-out PATH] [--trace-out PATH]
//!          [--obs-level LEVEL] [--bench-execs] [--bench-window-ms N]
//!          [--bench-warmup-ms N] [--bench-out PATH]
//!          [--orchestrate | --bench-orchestrate] [--shards N] [--rounds N]
//!          [--round-budget N] [--slices N] [--scheduler thompson|ucb]
//!          [--workdir DIR] [--merged-corpus DIR] [--orch-out PATH]
//!          [--worker-deadline-secs S] [--induce-crash K]
//!          [--bench-orch-out PATH]
//! ```
//!
//! Plain `std::env::args` parsing — no argument-parsing dependency.
//! Under `--orchestrate` this binary becomes the parent of N copies of
//! itself, each running one (app, preset, mode) arm in single-campaign
//! mode.

use std::process::ExitCode;

use nodefz_campaign::{report, run_with_progress, BenchConfig, CampaignConfig, Corpus, Event};
use nodefz_orchestrate::{OrchConfig, SchedulerKind};

const USAGE: &str = "usage: campaign [options]
       campaign report [--workdir DIR] [--out DIR]
       campaign explain REPRO [options]
       campaign sa [--apps LIST] [--conform N] [--family F] [--out PATH]
                   [--soundness] [--gated] [--tripwire N] [--canary]
                   [--apicov PATH]
       campaign lint [--apps LIST]
  --threads N        worker threads (default 4)
  --budget N         total fuzz runs (default 400)
  --apps A,B,C       bug abbreviations to target (default: the fig6 set)
  --presets LIST     comma-separated fuzz presets to arm (standard,
                     aggressive, guided); the special name 'directed'
                     enables the race-directed arm, alone it means a
                     directed-only campaign
  --corpus DIR       persist minimized repros into DIR
  --deadline-secs S  wall-clock budget; drain gracefully when exceeded
  --no-shrink        skip delta-debugging of new findings
  --replay-checks N  acceptance replays per repro (default 10)
  --seed N           base environment seed (default 1)
  --verify DIR       replay every corpus entry in DIR and exit
  --list             list known bug abbreviations and exit
  --json             with --list: print the nodefz-arms-v1 arm space for
                     the targeted apps instead of the human listing
  --directed         add a race-directed bandit arm per app, fed by
                     happens-before analysis of one recorded run
  --conform          add the CONFORM and CONFORM-API arms: generated
                     event-driven programs (independent sampling and
                     API-graph traversal) judged against the runtime's
                     ordering oracle; campaigns that pull CONFORM-API
                     embed a nodefz-apicov-v1 coverage block in the final
                     metrics snapshot
  --prune            classify every run into its happens-before
                     equivalence class online and report pruning counters
                     (distinct/redundant and redundancy ratio) in metrics
                     snapshots; the dispatched run stream is unchanged,
                     so found bugs and corpora are byte-identical with or
                     without the flag
  --analyze          predict races from one recorded run per app, confirm
                     them with race-directed runs, and exit
  --races-out PATH   where --analyze writes the nodefz-races-v1 report
                     (default RACES_report.json)
  --attempts N       directed confirmation attempts per predicted flip
                     under --analyze (default 24; 0 = predict only)
  --unranked         with --analyze: chase predicted races in plain
                     happens-before order instead of ranking them by
                     static-candidate priority (the A/B baseline)
  --metrics-out PATH write nodefz-metrics-v1 telemetry snapshots to PATH,
                     refreshed every ~500ms and finalized at drain
  --journal-out PATH write the nodefz-journal-v1 flight recorder (arm
                     pulls with bandit state, prune verdicts, bug
                     discoveries) to PATH at drain
  --trace-out PATH   after the campaign, record one profiled run as a
                     chrome://tracing timeline
  --obs-level LEVEL  worker loop profiling: off | counters (default off)
  --bench-execs      measure execs/sec per (app, preset) and exit
  --bench-window-ms N  measurement window per arm (default 400)
  --bench-warmup-ms N  warmup per arm, excluded from measurement (default 100)
  --bench-out PATH   where to write the JSON report
                     (default BENCH_throughput.json)
  --orchestrate      run the multi-process orchestrator: shard budget
                     slices of the full app x preset x mode arm space
                     across child campaign processes and merge their
                     corpora with cross-shard dedup
  --shards N         concurrent worker processes (default 2)
  --rounds N         budget rounds incl. the initial coverage round
                     (default 3)
  --round-budget N   fuzz runs per budget slice (default 40)
  --slices N         slices per post-coverage round (default: arm count)
  --scheduler S      round allocation policy: thompson | ucb
                     (default thompson)
  --workdir DIR      orchestrator scratch dir (default nodefz-orch)
  --merged-corpus DIR  canonical merged corpus (default WORKDIR/corpus)
  --orch-out PATH    nodefz-orch-v1 rollup, refreshed per round
                     (default ORCH_report.json)
  --worker-deadline-secs S  kill-and-quarantine deadline per worker
                     (default 120)
  --induce-crash K   deliberately crash the K-th work item's worker
                     (crash-robustness testing)
  --bench-orchestrate  run the same orchestration under thompson and ucb
                     and write the execs-to-discovery comparison
  --bench-orch-out PATH  where --bench-orchestrate writes the report
                     (default BENCH_orchestrate.json)

campaign report — merge an orchestrated workdir's flight recorders
  --workdir DIR      the orchestrator workdir to read (default nodefz-orch)
  --out DIR          where to write the merged journal.jsonl and
                     timeline.json (default WORKDIR/report)

campaign sa — static race prediction without executing a schedule
  --apps A,B,C       apps whose static models to analyze (default: every
                     registered app, buggy and fixed variants)
  --conform N        also model and analyze the first N generated
                     programs of a conform seed family (default 0; the
                     soundness/gated/canary sweeps default to 200 when
                     this is unset)
  --family F         conform seed family for --conform and the sweeps
                     (default 0, the CI smoke family; 3 is the API-graph
                     family)
  --apicov PATH      run the family's first N programs (N as for the
                     sweeps) under vanilla scheduling and write their
                     nodefz-apicov-v1 API-coverage document to PATH
  --out PATH         where to write the nodefz-sa-v1 report
                     (default SA_report.json)
  --soundness        run the dynamic soundness gate over the conform
                     programs: every dynamically predicted race must be
                     covered by a static candidate, else exit nonzero
  --gated            run the static-first differential sweep: programs
                     the analyzer proves race-free skip the differential
                     harness, tripwires re-check every Nth skip
  --tripwire N       tripwire cadence under --gated (default 8)
  --canary           sabotage the analyzer (drop one candidate per
                     program) and exit zero only if the soundness gate
                     trips — proves the gate can fail

campaign lint — schedule-sensitivity lints over app static models
  --apps A,B,C       apps to lint (default: every registered app);
                     advisory only, always exits zero

campaign explain REPRO — explain one confirmed bug's race causally
  REPRO              a corpus .repro file (see --corpus / --verify)
  --report-out PATH  write the nodefz-race-report-v1 JSON to PATH
  --html-out PATH    also render a self-contained HTML report
  --check            replay only the explained flip and verify the bug
                     still manifests (exit nonzero when it does not)
  --attempts N       directed replays per flip cut under --check
                     (default 24)
  --no-color         plain output (also honored: NO_COLOR)";

/// What to run instead of a campaign, if anything.
struct AltMode {
    verify: Option<String>,
    list: bool,
    /// With `list`: emit the machine-readable arm enumeration.
    list_json: bool,
    bench: Option<BenchOpts>,
    analyze: Option<AnalyzeOpts>,
    /// Append the CONFORM arm to the targeted apps (after the default
    /// set is filled in, so `--conform` alone fuzzes fig6 + CONFORM).
    conform: bool,
    orchestrate: bool,
    bench_orchestrate: bool,
    orch: OrchOpts,
    /// Undocumented worker sabotage: abort the process after N runs.
    crash_after_runs: Option<u64>,
}

struct OrchOpts {
    shards: usize,
    rounds: u32,
    round_budget: u64,
    slices: Option<usize>,
    scheduler: SchedulerKind,
    workdir: String,
    merged_corpus: Option<String>,
    orch_out: String,
    worker_deadline_secs: u64,
    induce_crash: Option<usize>,
    bench_out: String,
}

impl Default for OrchOpts {
    fn default() -> OrchOpts {
        OrchOpts {
            shards: 2,
            rounds: 3,
            round_budget: 40,
            slices: None,
            scheduler: SchedulerKind::Thompson,
            workdir: "nodefz-orch".into(),
            merged_corpus: None,
            orch_out: "ORCH_report.json".into(),
            worker_deadline_secs: 120,
            induce_crash: None,
            bench_out: "BENCH_orchestrate.json".into(),
        }
    }
}

struct AnalyzeOpts {
    races_out: String,
    attempts: u64,
    /// Keep the happens-before race order instead of static ranking.
    unranked: bool,
}

impl Default for AnalyzeOpts {
    fn default() -> AnalyzeOpts {
        AnalyzeOpts {
            races_out: "RACES_report.json".into(),
            attempts: 24,
            unranked: false,
        }
    }
}

struct BenchOpts {
    window_ms: u64,
    warmup_ms: u64,
    out: String,
}

impl Default for BenchOpts {
    fn default() -> BenchOpts {
        BenchOpts {
            window_ms: 400,
            warmup_ms: 100,
            out: "BENCH_throughput.json".into(),
        }
    }
}

fn parse_presets(cfg: &mut CampaignConfig, spec: &str) -> Result<(), String> {
    let mut presets = Vec::new();
    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if name.eq_ignore_ascii_case("directed") {
            cfg.directed = true;
        } else {
            let index = nodefz_campaign::preset_index(name).ok_or_else(|| {
                format!(
                    "--presets: unknown preset '{name}' (known: {}, directed)",
                    nodefz_campaign::PRESETS.join(", ")
                )
            })?;
            if !presets.contains(&index) {
                presets.push(index);
            }
        }
    }
    cfg.presets = presets;
    Ok(())
}

fn parse_args(args: &[String]) -> Result<(CampaignConfig, AltMode), String> {
    let mut cfg = CampaignConfig::default();
    let mut alt = AltMode {
        verify: None,
        list: false,
        list_json: false,
        bench: None,
        analyze: None,
        conform: false,
        orchestrate: false,
        bench_orchestrate: false,
        orch: OrchOpts::default(),
        crash_after_runs: None,
    };
    let mut bench_opts = BenchOpts::default();
    let mut bench = false;
    let mut analyze_opts = AnalyzeOpts::default();
    let mut analyze = false;
    let mut conform = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        fn num<T: std::str::FromStr>(name: &str, raw: String) -> Result<T, String> {
            raw.parse().map_err(|_| format!("{name}: not a number"))
        }
        match arg.as_str() {
            "--threads" => cfg.threads = num("--threads", value("--threads")?)?,
            "--budget" => cfg.budget = num("--budget", value("--budget")?)?,
            "--apps" => {
                cfg.apps = value("--apps")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--presets" => {
                let spec = value("--presets")?;
                parse_presets(&mut cfg, &spec)?;
            }
            "--corpus" => cfg.corpus_dir = Some(value("--corpus")?.into()),
            "--deadline-secs" => {
                let secs: u64 = num("--deadline-secs", value("--deadline-secs")?)?;
                cfg.deadline = Some(std::time::Duration::from_secs(secs));
            }
            "--no-shrink" => cfg.shrink = false,
            "--replay-checks" => {
                cfg.replay_checks = num("--replay-checks", value("--replay-checks")?)?;
            }
            "--seed" => cfg.base_seed = num("--seed", value("--seed")?)?,
            "--verify" => alt.verify = Some(value("--verify")?),
            "--list" => alt.list = true,
            "--json" => alt.list_json = true,
            "--directed" => cfg.directed = true,
            "--conform" => conform = true,
            "--prune" => cfg.prune = true,
            "--analyze" => analyze = true,
            "--races-out" => analyze_opts.races_out = value("--races-out")?,
            "--attempts" => analyze_opts.attempts = num("--attempts", value("--attempts")?)?,
            "--unranked" => analyze_opts.unranked = true,
            "--metrics-out" => cfg.metrics_out = Some(value("--metrics-out")?.into()),
            "--journal-out" => cfg.journal_out = Some(value("--journal-out")?.into()),
            "--trace-out" => cfg.trace_out = Some(value("--trace-out")?.into()),
            "--obs-level" => {
                let spelled = value("--obs-level")?;
                cfg.obs_level = nodefz_obs::ObsLevel::parse(&spelled)
                    .ok_or_else(|| format!("--obs-level: unknown level '{spelled}'"))?;
            }
            "--bench-execs" => bench = true,
            "--bench-window-ms" => {
                bench_opts.window_ms = num("--bench-window-ms", value("--bench-window-ms")?)?;
            }
            "--bench-warmup-ms" => {
                bench_opts.warmup_ms = num("--bench-warmup-ms", value("--bench-warmup-ms")?)?;
            }
            "--bench-out" => bench_opts.out = value("--bench-out")?,
            "--orchestrate" => alt.orchestrate = true,
            "--bench-orchestrate" => alt.bench_orchestrate = true,
            "--shards" => alt.orch.shards = num("--shards", value("--shards")?)?,
            "--rounds" => alt.orch.rounds = num("--rounds", value("--rounds")?)?,
            "--round-budget" => {
                alt.orch.round_budget = num("--round-budget", value("--round-budget")?)?;
            }
            "--slices" => alt.orch.slices = Some(num("--slices", value("--slices")?)?),
            "--scheduler" => {
                let spelled = value("--scheduler")?;
                alt.orch.scheduler = SchedulerKind::parse(&spelled)
                    .ok_or_else(|| format!("--scheduler: unknown policy '{spelled}'"))?;
            }
            "--workdir" => alt.orch.workdir = value("--workdir")?,
            "--merged-corpus" => alt.orch.merged_corpus = Some(value("--merged-corpus")?),
            "--orch-out" => alt.orch.orch_out = value("--orch-out")?,
            "--worker-deadline-secs" => {
                alt.orch.worker_deadline_secs =
                    num("--worker-deadline-secs", value("--worker-deadline-secs")?)?;
            }
            "--induce-crash" => {
                alt.orch.induce_crash = Some(num("--induce-crash", value("--induce-crash")?)?);
            }
            "--bench-orch-out" => alt.orch.bench_out = value("--bench-orch-out")?,
            "--crash-after-runs" => {
                alt.crash_after_runs =
                    Some(num("--crash-after-runs", value("--crash-after-runs")?)?);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if bench {
        alt.bench = Some(bench_opts);
    }
    if analyze {
        alt.analyze = Some(analyze_opts);
    }
    if conform {
        alt.conform = true;
    }
    Ok((cfg, alt))
}

/// The fig6 experiment set: every reproduced bug the paper fuzzes.
fn default_apps() -> Vec<String> {
    nodefz_apps::registry()
        .iter()
        .map(|c| c.info())
        .filter(|i| i.in_fig6)
        .map(|i| i.abbr.to_string())
        .collect()
}

fn verify_corpus(dir: &str) -> ExitCode {
    // Opening would create a missing directory, and an empty corpus
    // verifies vacuously — so a typo'd path must not look like a pass.
    if !std::path::Path::new(dir).is_dir() {
        eprintln!("campaign: corpus {dir} does not exist");
        return ExitCode::FAILURE;
    }
    let corpus = match Corpus::open(std::path::Path::new(dir)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("campaign: cannot open corpus {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let entries = match corpus.load_all() {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("campaign: cannot load corpus {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0;
    for entry in &entries {
        match nodefz_campaign::verify_entry(entry) {
            Ok(()) => println!("ok   {}", entry.file_name()),
            Err(e) => {
                failures += 1;
                println!("FAIL {e}");
            }
        }
    }
    println!(
        "verified {}/{} entries",
        entries.len() - failures,
        entries.len()
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_bench(cfg: &CampaignConfig, opts: &BenchOpts) -> ExitCode {
    let bench_cfg = BenchConfig {
        apps: cfg.apps.clone(),
        warmup: std::time::Duration::from_millis(opts.warmup_ms),
        window: std::time::Duration::from_millis(opts.window_ms),
        base_seed: cfg.base_seed,
    };
    println!(
        "bench: {} apps x {} presets, {}ms warmup + {}ms window per arm",
        bench_cfg.apps.len(),
        nodefz_campaign::PRESETS.len(),
        opts.warmup_ms,
        opts.window_ms,
    );
    let report = match nodefz_campaign::measure(&bench_cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::FAILURE;
        }
    };
    for arm in &report.arms {
        println!(
            "  {:<4} {:<10} {:>8} runs  {:>9.1} execs/s  {:>8.1} distinct/s  {:>5.3} redundancy",
            arm.app,
            arm.preset,
            arm.runs,
            arm.execs_per_sec(),
            arm.canon.distinct_per_sec(),
            arm.canon.redundancy_ratio(),
        );
    }
    println!(
        "  total: {} runs, {:.1} execs/s, {:.1} distinct/s ({:.3} redundancy)",
        report.total_runs(),
        report.total_execs_per_sec(),
        report.total_distinct_per_sec(),
        report.total_redundancy_ratio(),
    );
    if let Err(e) = std::fs::write(&opts.out, report.to_json()) {
        eprintln!("campaign: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("  wrote {}", opts.out);
    ExitCode::SUCCESS
}

fn run_analyze(cfg: &CampaignConfig, opts: &AnalyzeOpts) -> ExitCode {
    let analyze_cfg = nodefz_campaign::AnalyzeConfig {
        apps: cfg.apps.clone(),
        env_seed: cfg.base_seed,
        attempts: opts.attempts,
        races_out: Some(opts.races_out.clone().into()),
        corpus_dir: cfg.corpus_dir.clone(),
        replay_checks: cfg.replay_checks,
        ranked: !opts.unranked,
    };
    println!(
        "analyze: {} apps at env seed {}, {} directed attempts per flip ({})",
        analyze_cfg.apps.len(),
        analyze_cfg.env_seed,
        analyze_cfg.attempts,
        if analyze_cfg.ranked {
            "static-ranked"
        } else {
            "unranked"
        },
    );
    let started = std::time::Instant::now();
    let report = match nodefz_campaign::analyze_campaign(&analyze_cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::FAILURE;
        }
    };
    for analysis in &report.analyses {
        println!(
            "  {:<4} {} events, {} accesses, {} predicted pair(s)",
            analysis.app,
            analysis.events,
            analysis.accesses,
            analysis.races.len(),
        );
        for race in &analysis.races {
            println!(
                "       {:<3} {:<20} {} x {} (cut {}, chain {})",
                race.class.label(),
                race.site,
                race.a.kind,
                race.b.kind,
                race.cut,
                race.chain_cut,
            );
        }
    }
    for c in &report.confirmed {
        println!(
            "  confirmed {:<4} {:<3} {:<20} in {} directed exec(s)",
            c.app, c.class, c.site, c.execs,
        );
    }
    for (app, error) in &report.failed {
        println!("  FAILED {app}: {error}");
    }
    println!(
        "analyze: {} predicted, {} confirmed, {} failed in {} directed exec(s); wrote {}",
        report.analyses.iter().map(|a| a.races.len()).sum::<usize>(),
        report.confirmed.len(),
        report.failed.len(),
        report.directed_execs,
        opts.races_out,
    );
    if report.sa.models > 0 {
        println!(
            "analyze: static models for {} app(s): {} candidate(s) ({} AV-capable, {} OV, {} COV), {} dynamically confirmed",
            report.sa.models,
            report.sa.candidates,
            report.sa.av,
            report.sa.ov,
            report.sa.cov,
            report.sa.confirmed,
        );
    }
    if let Some(path) = &cfg.metrics_out {
        let snapshot = nodefz_campaign::MetricsSnapshot {
            elapsed: started.elapsed(),
            budget: report.directed_execs,
            runs: report.directed_execs,
            dispatched: 0,
            manifested: report.confirmed.len() as u64,
            unique_bugs: report.confirmed.len() as u64,
            finished: true,
            arms: Vec::new(),
            discovery: Vec::new(),
            phases: Vec::new(),
            callbacks: Vec::new(),
            run_dispatched: None,
            pruning: None,
            prune_health: None,
            sa: Some(report.sa),
            apicov: None,
        };
        if let Err(e) = nodefz_obs::write_atomic(path, &snapshot.to_json()) {
            eprintln!("campaign: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote metrics {}", path.display());
    }
    if report.failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn orch_config(cfg: &CampaignConfig, opts: &OrchOpts) -> Result<OrchConfig, String> {
    let worker_bin = std::env::current_exe()
        .map_err(|e| format!("cannot resolve own binary for worker spawns: {e}"))?;
    Ok(OrchConfig {
        apps: cfg.apps.clone(),
        shards: opts.shards,
        rounds: opts.rounds,
        slices_per_round: opts.slices,
        slice_budget: opts.round_budget,
        base_seed: cfg.base_seed,
        scheduler: opts.scheduler,
        workdir: opts.workdir.clone().into(),
        merged_corpus: opts.merged_corpus.clone().map(Into::into),
        orch_out: Some(opts.orch_out.clone().into()),
        worker_deadline: std::time::Duration::from_secs(opts.worker_deadline_secs),
        worker_bin,
        induce_crash: opts.induce_crash,
        replay_checks: cfg.replay_checks,
        prune: cfg.prune,
    })
}

fn run_orchestrate(cfg: &CampaignConfig, opts: &OrchOpts) -> ExitCode {
    let orch = match orch_config(cfg, opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "orchestrate: {} apps, {} scheduler, {} rounds x {} runs/slice on {} shard(s)",
        orch.apps.len(),
        orch.scheduler.label(),
        orch.rounds,
        orch.slice_budget,
        orch.shards,
    );
    match nodefz_orchestrate::orchestrate(&orch, |line| println!("{line}")) {
        Ok(report) => {
            let arm_pruning = report.arm_pruning();
            for (arm, pruning) in report.arms.iter().zip(&arm_pruning) {
                println!(
                    "  {:<28} {:>3} slice(s)  {:>3} new bug(s)  {:>6} runs{}{}",
                    arm.spec.label(),
                    arm.pulls,
                    arm.new_bugs,
                    arm.runs,
                    pruning
                        .map(|p| format!("  {} distinct / {} redundant", p.distinct, p.redundant))
                        .unwrap_or_default(),
                    arm.quarantined
                        .as_ref()
                        .map(|r| format!("  QUARANTINED ({r})"))
                        .unwrap_or_default(),
                );
            }
            if let Some(p) = report.pruning_totals() {
                println!(
                    "orchestrate: pruning saw {} runs, {} distinct class(es), {} redundant",
                    p.runs, p.distinct, p.redundant,
                );
            }
            println!(
                "orchestrate: {} unique bug(s) in merged corpus {} after {} runs",
                report.unique_bugs(),
                report.merged_dir.display(),
                report.total_runs,
            );
            println!("wrote {}", opts.orch_out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_bench_orchestrate(cfg: &CampaignConfig, opts: &OrchOpts) -> ExitCode {
    let orch = match orch_config(cfg, opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::FAILURE;
        }
    };
    match nodefz_orchestrate::bench_orchestrate(&orch, |line| println!("{line}")) {
        Ok(bench) => {
            for report in [&bench.thompson, &bench.ucb] {
                println!(
                    "  {:<9} {} unique bug(s) in {} runs, full discovery at {}",
                    report.scheduler.label(),
                    report.unique_bugs(),
                    report.total_runs,
                    report
                        .execs_to_full_discovery()
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "-".into()),
                );
            }
            if let Err(e) =
                nodefz_obs::write_atomic(std::path::Path::new(&opts.bench_out), &bench.to_json())
            {
                eprintln!("campaign: cannot write {}: {e}", opts.bench_out);
                return ExitCode::FAILURE;
            }
            println!("wrote {}", opts.bench_out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `campaign report`: merge an orchestrated workdir's journals and
/// worker traces into one tagged journal plus a unified timeline.
fn run_report(args: &[String]) -> ExitCode {
    let mut workdir = "nodefz-orch".to_string();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let result = match arg.as_str() {
            "--workdir" => value("--workdir").map(|v| workdir = v),
            "--out" => value("--out").map(|v| out = Some(v)),
            "--help" | "-h" => Err(USAGE.to_string()),
            other => Err(format!("report: unknown argument '{other}'\n{USAGE}")),
        };
        if let Err(message) = result {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    let workdir = std::path::PathBuf::from(workdir);
    let out = out.map_or_else(|| workdir.join("report"), std::path::PathBuf::from);
    match nodefz_orchestrate::merge_report(&workdir, &out) {
        Ok(summary) => {
            println!(
                "report: merged {} worker journal(s) + orchestrator ({} events), {} timeline span(s) from {} traced worker(s)",
                summary.workers, summary.events, summary.spans, summary.traced,
            );
            println!("wrote {}", summary.journal_out.display());
            println!("wrote {}", summary.timeline_out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `campaign explain REPRO`: render one corpus entry's causal race
/// report, optionally validating it with a directed-flip replay.
fn run_explain(args: &[String]) -> ExitCode {
    let mut repro: Option<String> = None;
    let mut report_out: Option<String> = None;
    let mut html_out: Option<String> = None;
    let mut color = std::env::var_os("NO_COLOR").is_none();
    let mut explain_cfg = nodefz_explain::ExplainConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let result = match arg.as_str() {
            "--report-out" => value("--report-out").map(|v| report_out = Some(v)),
            "--html-out" => value("--html-out").map(|v| html_out = Some(v)),
            "--check" => {
                explain_cfg.check = true;
                Ok(())
            }
            "--no-color" => {
                color = false;
                Ok(())
            }
            "--attempts" => value("--attempts").and_then(|v| {
                v.parse()
                    .map(|n| explain_cfg.attempts = n)
                    .map_err(|_| "--attempts: not a number".to_string())
            }),
            "--help" | "-h" => Err(USAGE.to_string()),
            other if !other.starts_with('-') && repro.is_none() => {
                repro = Some(other.to_string());
                Ok(())
            }
            other => Err(format!("explain: unknown argument '{other}'\n{USAGE}")),
        };
        if let Err(message) = result {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    let Some(repro) = repro else {
        eprintln!("explain: a REPRO file is required\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&repro) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("campaign: cannot read {repro}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let entry = match nodefz_campaign::CorpusEntry::decode(&text) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("campaign: {repro} is not a nodefz-repro document: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match nodefz_explain::explain_entry(&entry, &explain_cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", nodefz_explain::render_ansi(&report, color));
    if let Some(path) = &report_out {
        if let Err(e) = nodefz_obs::write_atomic(
            std::path::Path::new(path),
            &nodefz_explain::to_json(&report),
        ) {
            eprintln!("campaign: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = &html_out {
        if let Err(e) = nodefz_obs::write_atomic(
            std::path::Path::new(path),
            &nodefz_explain::render_html(&report),
        ) {
            eprintln!("campaign: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if explain_cfg.check && !report.check.is_some_and(|c| c.manifested) {
        eprintln!("campaign: --check failed: the explained flip did not re-manifest the bug");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Splits a `--apps` value into trimmed, non-empty abbreviations.
fn split_apps(spec: &str) -> Vec<String> {
    spec.split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Every registered app abbreviation, fig6 or not — the static analyzer
/// costs nothing to run, so it defaults to full coverage.
fn all_apps() -> Vec<String> {
    nodefz_apps::registry()
        .iter()
        .map(|c| c.info().abbr.to_string())
        .collect()
}

struct SaOpts {
    apps: Option<Vec<String>>,
    conform: u64,
    family: u64,
    out: String,
    soundness: bool,
    gated: bool,
    tripwire: u64,
    canary: bool,
    /// Where to write the family's `nodefz-apicov-v1` coverage document,
    /// if requested.
    apicov: Option<String>,
}

impl Default for SaOpts {
    fn default() -> SaOpts {
        SaOpts {
            apps: None,
            conform: 0,
            family: 0,
            out: "SA_report.json".into(),
            soundness: false,
            gated: false,
            tripwire: 8,
            canary: false,
            apicov: None,
        }
    }
}

fn parse_sa_args(args: &[String]) -> Result<SaOpts, String> {
    let mut opts = SaOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        fn num(name: &str, raw: String) -> Result<u64, String> {
            raw.parse().map_err(|_| format!("{name}: not a number"))
        }
        match arg.as_str() {
            "--apps" => opts.apps = Some(split_apps(&value("--apps")?)),
            "--conform" => opts.conform = num("--conform", value("--conform")?)?,
            "--family" => opts.family = num("--family", value("--family")?)?,
            "--out" => opts.out = value("--out")?,
            "--soundness" => opts.soundness = true,
            "--gated" => opts.gated = true,
            "--tripwire" => opts.tripwire = num("--tripwire", value("--tripwire")?)?,
            "--canary" => opts.canary = true,
            "--apicov" => opts.apicov = Some(value("--apicov")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("sa: unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// `campaign sa`: analyze app static models (and optionally generated
/// conform programs) without executing a single schedule, write the
/// `nodefz-sa-v1` report, and optionally run the dynamic soundness
/// gate, the static-first gated differential sweep, or the
/// broken-analyzer canary.
fn run_sa(args: &[String]) -> ExitCode {
    use nodefz_apps::common::Variant;

    let opts = match parse_sa_args(args) {
        Ok(o) => o,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let apps = opts.apps.clone().unwrap_or_else(all_apps);
    let mut analyses = Vec::new();
    for abbr in &apps {
        let Some(case) = nodefz_apps::by_abbr(abbr) else {
            eprintln!("sa: unknown app '{abbr}'");
            return ExitCode::FAILURE;
        };
        let mut modeled = false;
        for variant in [Variant::Buggy, Variant::Fixed] {
            let Some(model) = case.static_model(variant) else {
                continue;
            };
            modeled = true;
            let analysis = nodefz_sa::analyze_model(model);
            println!(
                "  {:<4} {:<6} {:>3} atom(s)  {:>3} candidate(s)  {:>3} lint(s)",
                analysis.model.name,
                analysis.model.variant,
                analysis.model.atoms.len(),
                analysis.candidates.len(),
                analysis.lints.len(),
            );
            analyses.push(analysis);
        }
        if !modeled {
            println!("  {abbr:<4} (no static model)");
        }
    }

    let pool = Some(nodefz_rt::LoopPool::new());
    let sweep_count = if opts.conform > 0 { opts.conform } else { 200 };
    if opts.conform > 0 {
        let mut race_free = 0u64;
        let mut candidates = 0usize;
        for i in 0..opts.conform {
            let seed = nodefz_sa::family_seed(opts.family, i);
            let prog = std::rc::Rc::new(nodefz_conform::generate_family(opts.family, seed));
            let pm = nodefz_sa::model_of_prog(&prog, &format!("conform-{seed:016x}"));
            let analysis = nodefz_sa::analyze_model(pm.model);
            race_free += u64::from(analysis.candidates.is_empty());
            candidates += analysis.candidates.len();
            analyses.push(analysis);
        }
        println!(
            "sa: modeled {} conform program(s) of family {}: {} candidate(s), {} proven race-free",
            opts.conform, opts.family, candidates, race_free,
        );
    }

    let report = nodefz_sa::sa_report(&analyses);
    if let Err(e) = nodefz_obs::write_atomic(std::path::Path::new(&opts.out), &report) {
        eprintln!("campaign: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!(
        "sa: {} model(s), {} candidate(s), {} lint finding(s); wrote {}",
        analyses.len(),
        analyses.iter().map(|a| a.candidates.len()).sum::<usize>(),
        analyses.iter().map(|a| a.lints.len()).sum::<usize>(),
        opts.out,
    );

    if let Some(path) = &opts.apicov {
        // Coverage accounting over the same seed stream the sweeps walk:
        // run each program once under vanilla scheduling and fold it into
        // one `nodefz-apicov-v1` document.
        let mut cov = nodefz_conform::ApiCoverage::default();
        for i in 0..sweep_count {
            let seed = nodefz_sa::family_seed(opts.family, i);
            let prog = std::rc::Rc::new(nodefz_conform::generate_family(opts.family, seed));
            let (report, log) =
                nodefz_conform::run_logged(&prog, seed, nodefz_conform::Mode::Vanilla, &pool);
            let completed = matches!(report.termination, nodefz_rt::Termination::Quiescent);
            cov.record(
                &prog,
                &log,
                &nodefz_conform::OracleCtx {
                    demux: false,
                    completed,
                },
            );
        }
        let snap = cov.snapshot();
        if let Err(e) =
            nodefz_obs::write_atomic(std::path::Path::new(path), &format!("{}\n", snap.to_json()))
        {
            eprintln!("campaign: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "apicov: {} program(s) of family {}: {}/{} nodes, {}/{} edges, {}/{} rules; wrote {path}",
            snap.programs,
            opts.family,
            snap.nodes_covered,
            snap.nodes_total,
            snap.edges_covered,
            snap.edges_total,
            snap.rules_covered,
            snap.rules_total,
        );
    }

    if opts.soundness {
        let stats = match nodefz_sa::sweep_family(opts.family, sweep_count, &pool) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("campaign: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "soundness: {} program(s), {} dynamic race(s), {} candidate(s) ({} confirmed), {} race-free",
            stats.programs,
            stats.dynamic,
            stats.metrics.candidates,
            stats.metrics.confirmed,
            stats.race_free,
        );
        if !stats.missing.is_empty() {
            for miss in stats.missing.iter().take(10) {
                eprintln!("  MISS {miss}");
            }
            eprintln!(
                "sa: soundness gate FAILED — {} dynamic prediction(s) uncovered",
                stats.missing.len()
            );
            return ExitCode::FAILURE;
        }
        println!("soundness: gate holds — every dynamic prediction is statically covered");
    }

    if opts.gated {
        let diff_cfg = nodefz_conform::DiffConfig {
            pool: Some(nodefz_rt::LoopPool::new()),
            ..nodefz_conform::DiffConfig::default()
        };
        match nodefz_sa::static_gated_sweep(opts.family, sweep_count, opts.tripwire, &diff_cfg) {
            Ok(s) => println!(
                "gated: {} program(s): {} race-free, {} skipped, {} tripwire(s), {} differential(s)",
                s.programs, s.race_free, s.skipped, s.tripwires, s.differentials,
            ),
            Err(e) => {
                eprintln!("campaign: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.canary {
        let mut tripped = false;
        for i in 0..sweep_count {
            let seed = nodefz_sa::family_seed(opts.family, i);
            let prog = std::rc::Rc::new(nodefz_conform::generate_family(opts.family, seed));
            match nodefz_sa::check_prog(&prog, seed, &pool, true) {
                Ok(check) if !check.missing.is_empty() => {
                    println!(
                        "canary: gate tripped at seed {seed:#018x} after {} program(s) ({} miss(es))",
                        i + 1,
                        check.missing.len(),
                    );
                    tripped = true;
                    break;
                }
                Ok(_) => {}
                Err(e) => {
                    eprintln!("campaign: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if !tripped {
            eprintln!(
                "sa: canary FAILED — the sabotaged analyzer never tripped the \
                 soundness gate across {sweep_count} program(s)"
            );
            return ExitCode::FAILURE;
        }
    }

    ExitCode::SUCCESS
}

/// `campaign lint`: run the schedule-sensitivity lint pass over app
/// static models. Advisory only — findings are printed, never fatal.
fn run_lint(args: &[String]) -> ExitCode {
    use nodefz_apps::common::Variant;

    let mut apps: Option<Vec<String>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let result = match arg.as_str() {
            "--apps" => match it.next() {
                Some(spec) => {
                    apps = Some(split_apps(spec));
                    Ok(())
                }
                None => Err("--apps needs a value".to_string()),
            },
            "--help" | "-h" => Err(USAGE.to_string()),
            other => Err(format!("lint: unknown argument '{other}'\n{USAGE}")),
        };
        if let Err(message) = result {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    let apps = apps.unwrap_or_else(all_apps);
    let mut findings = 0usize;
    let mut models = 0usize;
    for abbr in &apps {
        let Some(case) = nodefz_apps::by_abbr(abbr) else {
            eprintln!("lint: unknown app '{abbr}'");
            return ExitCode::FAILURE;
        };
        for variant in [Variant::Buggy, Variant::Fixed] {
            let Some(model) = case.static_model(variant) else {
                continue;
            };
            models += 1;
            let idx = nodefz_sa::MhpIndex::build(&model);
            let lints = nodefz_sa::lint_model(&model, &idx);
            for lint in &lints {
                let atoms = lint
                    .atoms
                    .iter()
                    .map(|&a| model.atoms[a as usize].label.as_str())
                    .collect::<Vec<_>>()
                    .join(" ~ ");
                println!(
                    "  {:<12} {:<24} {:<14} {} ({})",
                    format!("{}/{}", model.name, model.variant),
                    lint.rule,
                    lint.site,
                    lint.detail,
                    atoms,
                );
            }
            findings += lints.len();
        }
    }
    println!("lint: {findings} finding(s) over {models} model(s); advisory only");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => return run_report(&args[1..]),
        Some("explain") => return run_explain(&args[1..]),
        Some("sa") => return run_sa(&args[1..]),
        Some("lint") => return run_lint(&args[1..]),
        _ => {}
    }
    let (mut cfg, alt) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = alt.verify {
        return verify_corpus(&dir);
    }
    if cfg.apps.is_empty() {
        cfg.apps = default_apps();
    }
    if alt.conform {
        for abbr in [nodefz_conform::ABBR, nodefz_conform::API_ABBR] {
            if !cfg.apps.iter().any(|a| a.eq_ignore_ascii_case(abbr)) {
                cfg.apps.push(abbr.into());
            }
        }
    }
    if alt.list {
        if alt.list_json {
            // The machine-readable contract an orchestrating process
            // consumes: the arm space for the *resolved* app set.
            print!(
                "{}",
                nodefz_campaign::arms_to_json(&nodefz_campaign::arm_space(&cfg.apps))
            );
            return ExitCode::SUCCESS;
        }
        for case in nodefz_apps::registry() {
            let info = case.info();
            println!("{:<4} {:<16} {}", info.abbr, info.name, info.bug_ref);
        }
        let conform = nodefz_conform::bug_case().info();
        println!(
            "{:<4} {:<16} {}",
            conform.abbr, "conformance arm", conform.bug_ref
        );
        let api = nodefz_conform::api_bug_case().info();
        println!("{:<4} {:<16} {}", api.abbr, "API-graph arm", api.bug_ref);
        return ExitCode::SUCCESS;
    }
    if let Some(opts) = &alt.bench {
        return run_bench(&cfg, opts);
    }
    if let Some(opts) = &alt.analyze {
        return run_analyze(&cfg, opts);
    }
    if alt.bench_orchestrate {
        return run_bench_orchestrate(&cfg, &alt.orch);
    }
    if alt.orchestrate {
        return run_orchestrate(&cfg, &alt.orch);
    }

    println!(
        "campaign: {} runs over {} apps on {} threads{}",
        cfg.budget,
        cfg.apps.len(),
        cfg.threads,
        cfg.corpus_dir
            .as_ref()
            .map(|d| format!(", corpus {}", d.display()))
            .unwrap_or_default(),
    );
    let crash_after = alt.crash_after_runs;
    let outcome = run_with_progress(&cfg, |event| {
        if let Event::Run { completed, budget } = event {
            // Deliberate mid-campaign death for orchestrator
            // crash-robustness tests: die hard (no exit code, no drain),
            // exactly like a segfaulting worker would.
            if crash_after.is_some_and(|n| *completed >= n) {
                std::process::abort();
            }
            // Sample run ticks so a large budget does not flood the console.
            let step = (budget / 20).max(1);
            if completed % step == 0 || completed == budget {
                println!("  {completed}/{budget} runs");
            }
            return;
        }
        if let Some(line) = report::render_event(event) {
            println!("{line}");
        }
    });
    match outcome {
        Ok(report_data) => {
            print!("{}", report::render_summary(&report_data));
            if let Some(path) = &cfg.metrics_out {
                println!("wrote metrics {}", path.display());
            }
            if let Some(path) = &cfg.trace_out {
                println!("wrote trace {}", path.display());
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("campaign: {message}");
            ExitCode::FAILURE
        }
    }
}
