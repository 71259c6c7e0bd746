//! Command-line front end for fuzzing campaigns.
//!
//! Every command is one row of [`COMMANDS`]: its name, its usage block
//! and its entry point. The fuzz campaign is the unnamed default row
//! (`campaign [flags]`); the rest are subcommands (`campaign verify DIR`,
//! `campaign analyze`, ...). A row takes exactly the flags its usage
//! block lists, and fills its library config from that config's
//! `Default`. [`Args`], the one argument cursor, rejects any other flag
//! before anything runs and names the rows that take it, so no command
//! silently ignores a flag. Plain `std::env::args` parsing — no
//! argument-parsing dependency.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use nodefz_campaign::{report, run_with_progress, AnalyzeConfig, CampaignConfig, Corpus, Event};
use nodefz_explain::ExplainConfig;

/// One row of the command table.
struct Command {
    /// The subcommand word; empty for the default fuzz campaign.
    name: &'static str,
    /// What `--help` prints: a header line, then one line per flag, which
    /// opens with two spaces and the flag; deeper-indented lines continue
    /// the one above.
    usage: &'static str,
    /// Parses the row's arguments through the cursor, then runs it.
    run: fn(&mut Args) -> Result<ExitCode, CliError>,
}

impl Command {
    /// How a user spells the row.
    fn invocation(&self) -> String {
        if self.name.is_empty() {
            "campaign".into()
        } else {
            format!("campaign {}", self.name)
        }
    }

    /// Whether the row takes `flag`: its usage block lists it.
    fn takes(&self, flag: &str) -> bool {
        self.usage
            .lines()
            .any(|line| line.strip_prefix("  ").and_then(|l| l.split(' ').next()) == Some(flag))
    }

    /// What `--help` prints: the row's block, or for the default row the
    /// overview of every command and its own block.
    fn help(&self) -> String {
        if !self.name.is_empty() {
            return self.usage.to_string();
        }
        let mut text = String::from(
            "usage: campaign [COMMAND] [flags]; `campaign COMMAND --help` prints one command's flags\n",
        );
        for command in &COMMANDS {
            text += "  ";
            text += command.usage.lines().next().unwrap_or_default();
            text += "\n";
        }
        format!("{text}\n{}", self.usage)
    }
}

/// The commands. The first row is the default: it runs when the first
/// argument names no other row.
static COMMANDS: [Command; 5] = [
    Command {
        name: "",
        usage: "campaign [flags] — fuzz the targeted apps under the Node.fz scheduler
  --threads N        worker threads (default 4); changes speed, not
                     results
  --budget N         total fuzz runs (default 400)
  --apps A,B,C       bug abbreviations to target (default: the fig6 set);
                     CONFORM-API is the generated-program arm judged
                     against the runtime's ordering oracle, and a
                     campaign that pulls it embeds a nodefz-apicov-v1
                     coverage block in its final metrics snapshot
  --presets LIST     comma-separated fuzz presets to arm (default
                     standard,aggressive,guided); 'directed' adds a
                     race-directed arm per app, fed by happens-before
                     analysis of one recorded run, and alone means a
                     directed-only campaign
  --corpus DIR       persist minimized repros into DIR
  --deadline-secs S  wall-clock budget; drain gracefully when exceeded.
                     A wall-clock cut: the one setting under which the
                     same flags can give different corpora
  --no-shrink        skip delta-debugging of new findings
  --replay-checks N  acceptance replays per repro (default 10); a repro
                     is written only if every one re-manifests it
  --seed N           base environment seed (default 1)
  --prune            classify every run by its happens-before canonical
                     key and count distinct/redundant classes and the
                     redundancy ratio in the metrics (needs
                     --metrics-out); the dispatched run stream is
                     unchanged, so found bugs and corpora are
                     byte-identical with or without the flag
  --metrics-out PATH write nodefz-metrics-v1 telemetry snapshots to PATH,
                     refreshed every ~500ms and finalized at drain
  --trace-out PATH   after the campaign, record one profiled run as a
                     chrome://tracing timeline
  --obs-level LEVEL  worker loop profiling into the metrics: off |
                     counters (default off; counters needs --metrics-out)",
        run: fuzz,
    },
    Command {
        name: "verify",
        usage: "campaign verify DIR — replay every corpus entry in DIR; exit 1 if any fails
  DIR                a corpus directory (see --corpus); a missing one is an
                     error, never an empty pass",
        run: verify,
    },
    Command {
        name: "list",
        usage: "campaign list [flags] — list the apps a campaign can target
  --apps A,B,C       list only these apps (default: every app, then
                     CONFORM-API)",
        run: list,
    },
    Command {
        name: "analyze",
        usage: "campaign analyze [flags] — predict races from one recorded run per app, then confirm them
  --apps A,B,C       apps to analyze (default: the fig6 set)
  --seed N           environment seed of each recorded run (default 11)
  --attempts N       directed confirmation attempts per predicted flip
                     (default 24; 0 = predict only)
  --races-out PATH   where to write the nodefz-races-v1 report
                     (default RACES_report.json)
  --corpus DIR       persist confirmed repros into DIR
  --replay-checks N  acceptance replays per confirmed repro (default 3);
                     a repro is written only if every one re-manifests it",
        run: analyze,
    },
    Command {
        name: "explain",
        usage: "campaign explain REPRO [flags] — explain one confirmed bug's race causally
  REPRO              a corpus .repro file (see --corpus)
  --report-out PATH  write the nodefz-race-report-v1 JSON to PATH
  --html-out PATH    also render a self-contained HTML report
  --check            replay only the explained flip and verify the bug
                     still manifests (exit nonzero when it does not)
  --attempts N       directed replays per flip cut under --check
                     (default 24)
  --no-color         plain output (also honored: NO_COLOR)",
        run: explain,
    },
];

/// Why a command stopped without an exit code of its own.
enum CliError {
    /// `--help` or `-h`: the row's help goes to stdout, exit 0.
    Help,
    /// The arguments are wrong: the message and the row's usage block go
    /// to stderr, exit 1, before anything has run.
    Usage(String),
    /// The command ran and failed: the message goes to stderr, exit 1.
    Failed(String),
}

/// The argument cursor every row parses through.
struct Args {
    argv: std::vec::IntoIter<String>,
    command: &'static Command,
}

impl Args {
    /// Selects the row the first argument names, or the default row when
    /// it names none.
    fn new(argv: Vec<String>) -> Args {
        let named = argv
            .first()
            .and_then(|first| COMMANDS[1..].iter().find(|c| c.name == first.as_str()));
        let mut args = Args {
            argv: argv.into_iter(),
            command: named.unwrap_or(&COMMANDS[0]),
        };
        if named.is_some() {
            args.take();
        }
        args
    }

    /// Advances argv by one argument; the only function that does.
    fn take(&mut self) -> Option<String> {
        self.argv.next()
    }

    /// The next argument: a flag the row takes, or a positional one.
    fn next(&mut self) -> Result<Option<String>, CliError> {
        match self.take() {
            Some(arg) if arg == "--help" || arg == "-h" => Err(CliError::Help),
            Some(arg) if arg.starts_with('-') && !self.command.takes(&arg) => {
                let owners: Vec<String> = COMMANDS
                    .iter()
                    .filter(|c| c.takes(&arg))
                    .map(|c| format!("`{}`", c.invocation()))
                    .collect();
                Err(CliError::Usage(if owners.is_empty() {
                    format!("unknown flag {arg}")
                } else {
                    format!(
                        "{arg} belongs to {}, not to `{}`",
                        owners.join(", "),
                        self.command.invocation()
                    )
                }))
            }
            next => Ok(next),
        }
    }

    /// The value that follows `flag`, parsed.
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let raw = self
            .take()
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
        raw.parse()
            .map_err(|_| CliError::Usage(format!("{flag}: invalid value '{raw}'")))
    }

    /// A comma-separated value of `flag`: trimmed, empty items dropped.
    fn list(&mut self, flag: &str) -> Result<Vec<String>, CliError> {
        let raw: String = self.value(flag)?;
        Ok(raw
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect())
    }
}

/// The error for an argument the row has no place for.
fn unexpected(arg: &str) -> CliError {
    CliError::Usage(format!("unexpected argument '{arg}'"))
}

/// Wraps a runtime failure.
fn failed(message: impl std::fmt::Display) -> CliError {
    CliError::Failed(message.to_string())
}

fn parse_presets(cfg: &mut CampaignConfig, names: &[String]) -> Result<(), CliError> {
    let mut presets = Vec::new();
    for name in names {
        let index = if name.eq_ignore_ascii_case("directed") {
            nodefz_campaign::DIRECTED_PRESET
        } else {
            nodefz_campaign::preset_index(name).ok_or_else(|| {
                CliError::Usage(format!(
                    "--presets: unknown preset '{name}' (known: {}, directed)",
                    nodefz_campaign::PRESETS.join(", ")
                ))
            })?
        };
        if !presets.contains(&index) {
            presets.push(index);
        }
    }
    cfg.presets = presets;
    Ok(())
}

/// `apps`, or when it is empty the fig6 experiment set: the bugs the
/// paper fuzzes.
fn or_fig6(apps: Vec<String>) -> Vec<String> {
    if !apps.is_empty() {
        return apps;
    }
    nodefz_apps::registry()
        .iter()
        .map(|c| c.info())
        .filter(|i| i.in_fig6)
        .map(|i| i.abbr.to_string())
        .collect()
}

/// `campaign [flags]`: one fuzzing campaign.
fn fuzz(args: &mut Args) -> Result<ExitCode, CliError> {
    let mut cfg = CampaignConfig::default();
    while let Some(arg) = args.next()? {
        match arg.as_str() {
            "--threads" => cfg.threads = args.value(&arg)?,
            "--budget" => cfg.budget = args.value(&arg)?,
            "--apps" => cfg.apps = args.list(&arg)?,
            "--presets" => parse_presets(&mut cfg, &args.list(&arg)?)?,
            "--corpus" => cfg.corpus_dir = Some(args.value(&arg)?),
            "--deadline-secs" => cfg.deadline = Some(Duration::from_secs(args.value(&arg)?)),
            "--no-shrink" => cfg.shrink = false,
            "--replay-checks" => cfg.replay_checks = args.value(&arg)?,
            "--seed" => cfg.base_seed = args.value(&arg)?,
            "--prune" => cfg.prune = true,
            "--metrics-out" => cfg.metrics_out = Some(args.value(&arg)?),
            "--trace-out" => cfg.trace_out = Some(args.value(&arg)?),
            "--obs-level" => {
                let spelled: String = args.value(&arg)?;
                cfg.obs_level = nodefz_obs::ObsLevel::parse(&spelled).ok_or_else(|| {
                    CliError::Usage(format!("--obs-level: unknown level '{spelled}'"))
                })?;
            }
            other => return Err(unexpected(other)),
        }
    }
    cfg.apps = or_fig6(cfg.apps);
    cfg.validate().map_err(failed)?;

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
    let report_data = run_with_progress(&cfg, |event| {
        if let Event::Run { completed, budget } = event {
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
    })
    .map_err(failed)?;
    print!("{}", report::render_summary(&report_data));
    if let Some(path) = &cfg.metrics_out {
        println!("wrote metrics {}", path.display());
    }
    if let Some(path) = &cfg.trace_out {
        println!("wrote trace {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// `campaign verify DIR`: replay every corpus entry.
fn verify(args: &mut Args) -> Result<ExitCode, CliError> {
    let mut dir: Option<PathBuf> = None;
    while let Some(arg) = args.next()? {
        if dir.is_some() {
            return Err(unexpected(&arg));
        }
        dir = Some(arg.into());
    }
    let dir = dir.ok_or_else(|| CliError::Usage("a corpus DIR is required".into()))?;
    // Opening would create a missing directory, and an empty corpus
    // verifies vacuously — so a typo'd path must not look like a pass.
    if !dir.is_dir() {
        return Err(failed(format!("corpus {} does not exist", dir.display())));
    }
    let corpus = Corpus::open(&dir)
        .map_err(|e| failed(format!("cannot open corpus {}: {e}", dir.display())))?;
    let entries = corpus
        .load_all()
        .map_err(|e| failed(format!("cannot load corpus {}: {e}", dir.display())))?;
    let mut ctx = nodefz_campaign::RunContext::new();
    let mut failures = 0;
    for entry in &entries {
        match ctx.verify(entry) {
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
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `campaign list`: the targetable apps.
fn list(args: &mut Args) -> Result<ExitCode, CliError> {
    let mut apps = Vec::new();
    while let Some(arg) = args.next()? {
        match arg.as_str() {
            "--apps" => apps = args.list(&arg)?,
            other => return Err(unexpected(other)),
        }
    }
    nodefz_campaign::check_apps(&apps).map_err(failed)?;
    let mut rows: Vec<(&str, &str, &str)> = nodefz_apps::registry()
        .iter()
        .map(|c| c.info())
        .map(|i| (i.abbr, i.name, i.bug_ref))
        .collect();
    let info = nodefz_conform::api_bug_case().info();
    rows.push((info.abbr, "conformance arm", info.bug_ref));
    let abbr_w = rows.iter().map(|r| r.0.chars().count()).max().unwrap_or(0);
    let name_w = rows.iter().map(|r| r.1.chars().count()).max().unwrap_or(0);
    for (abbr, name, bug_ref) in rows {
        if apps.is_empty() || apps.iter().any(|a| a.eq_ignore_ascii_case(abbr)) {
            println!("{abbr:<abbr_w$} {name:<name_w$} {bug_ref}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `campaign analyze`: predict races, confirm them with directed runs.
fn analyze(args: &mut Args) -> Result<ExitCode, CliError> {
    let mut cfg = AnalyzeConfig::default();
    let mut races_out = PathBuf::from("RACES_report.json");
    while let Some(arg) = args.next()? {
        match arg.as_str() {
            "--apps" => cfg.apps = args.list(&arg)?,
            "--seed" => cfg.env_seed = args.value(&arg)?,
            "--attempts" => cfg.attempts = args.value(&arg)?,
            "--races-out" => races_out = args.value(&arg)?,
            "--corpus" => cfg.corpus_dir = Some(args.value(&arg)?),
            "--replay-checks" => cfg.replay_checks = args.value(&arg)?,
            other => return Err(unexpected(other)),
        }
    }
    cfg.apps = or_fig6(cfg.apps);
    nodefz_campaign::check_apps(&cfg.apps).map_err(failed)?;
    cfg.races_out = Some(races_out.clone());
    println!(
        "analyze: {} apps at env seed {}, {} directed attempts per flip",
        cfg.apps.len(),
        cfg.env_seed,
        cfg.attempts,
    );
    let report = nodefz_campaign::analyze_campaign(&cfg).map_err(failed)?;
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
    for (signature, replays_ok) in &report.not_persisted {
        println!(
            "  NOT PERSISTED {signature} \"{}\": {replays_ok} of {} acceptance replays re-manifested it",
            signature.site, cfg.replay_checks,
        );
    }
    println!(
        "analyze: {} predicted, {} confirmed, {} failed in {} directed exec(s); wrote {}",
        report.analyses.iter().map(|a| a.races.len()).sum::<usize>(),
        report.confirmed.len(),
        report.failed.len(),
        report.directed_execs,
        races_out.display(),
    );
    Ok(if report.failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `campaign explain REPRO`: render one corpus entry's causal race
/// report, optionally validating it with a directed-flip replay.
fn explain(args: &mut Args) -> Result<ExitCode, CliError> {
    let mut repro: Option<String> = None;
    let mut report_out: Option<PathBuf> = None;
    let mut html_out: Option<PathBuf> = None;
    let mut color = std::env::var_os("NO_COLOR").is_none();
    let mut cfg = ExplainConfig::default();
    while let Some(arg) = args.next()? {
        match arg.as_str() {
            "--report-out" => report_out = Some(args.value(&arg)?),
            "--html-out" => html_out = Some(args.value(&arg)?),
            "--check" => cfg.check = true,
            "--no-color" => color = false,
            "--attempts" => cfg.attempts = args.value(&arg)?,
            other if repro.is_none() && !other.starts_with('-') => repro = Some(other.into()),
            other => return Err(unexpected(other)),
        }
    }
    let repro = repro.ok_or_else(|| CliError::Usage("a REPRO file is required".into()))?;
    let text =
        std::fs::read_to_string(&repro).map_err(|e| failed(format!("cannot read {repro}: {e}")))?;
    let entry = nodefz_campaign::CorpusEntry::decode(&text)
        .map_err(|e| failed(format!("{repro} is not a nodefz-repro document: {e}")))?;
    let report = nodefz_explain::explain_entry(&entry, &cfg).map_err(failed)?;
    print!("{}", nodefz_explain::render_ansi(&report, color));
    for (path, render) in [
        (report_out, nodefz_explain::to_json as fn(&_) -> _),
        (html_out, nodefz_explain::render_html),
    ] {
        if let Some(path) = path {
            nodefz_obs::write_atomic(&path, &render(&report))
                .map_err(|e| failed(format!("cannot write {}: {e}", path.display())))?;
            println!("wrote {}", path.display());
        }
    }
    if cfg.check && !report.check.is_some_and(|c| c.manifested) {
        return Err(failed(
            "--check failed: the explained flip did not re-manifest the bug",
        ));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut args = Args::new(std::env::args().skip(1).collect());
    let command = args.command;
    match (command.run)(&mut args) {
        Ok(code) => code,
        Err(CliError::Help) => {
            println!("{}", command.help());
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(message)) => {
            eprintln!("{}: {message}\n\n{}", command.invocation(), command.usage);
            ExitCode::FAILURE
        }
        Err(CliError::Failed(message)) => {
            eprintln!("campaign: {message}");
            ExitCode::FAILURE
        }
    }
}
