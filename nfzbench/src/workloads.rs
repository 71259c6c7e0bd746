//! The four workloads and the operation each one repeats.
//!
//! | workload   | one operation                                                   | a find            |
//! |------------|-----------------------------------------------------------------|-------------------|
//! | `fuzz`     | `fuzz_once` on one (app, preset) arm until it manifests (cap)   | a manifestation   |
//! | `dedup`    | one `fuzz_once` with pruning on, its canon key into a `SeenSet` | a new HB class    |
//! | `repro`    | one campaign, then its corpus re-loaded and every entry verified | a verified repro  |
//! | `directed` | one `analyze_campaign` (record, predict, directed flips)        | a confirmed race  |
//!
//! Every input (arm, environment seed, campaign seed) comes from the
//! run's `--seed` through [`input_seed`], never through the campaign's
//! own seed mixers, so a change to those cannot change what is measured.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nodefz::{DecisionTrace, Mode};
use nodefz_apps::common::{RunCfg, Variant};
use nodefz_campaign::{
    analyze_campaign, preset_params, run_with_progress, verify_entry, AnalyzeConfig,
    CampaignConfig, Corpus, CorpusEntry, Event, Finding, RunContext, PRESETS,
};
use nodefz_hb::{CanonKey, SeenSet};
use nodefz_trace::BugSignature;

use crate::spans::{Lane, Tracer};
use crate::Workload;

/// Executions one `fuzz` trial may spend before it counts as a miss.
const FUZZ_CAP: u64 = 200;
/// Every `dedup` execution with this index stride is re-run at the same
/// inputs, and must give the same canon key and outcome.
const RECHECK_EVERY: u64 = 64;
/// Every `directed` trial with this index stride is re-run with a corpus
/// directory, and its repros must verify.
const DIRECTED_RECHECK_EVERY: u64 = 16;
/// Fuzz runs per `repro` campaign.
const REPRO_BUDGET: u64 = 600;
/// Acceptance replays per shrunk repro in a `repro` campaign.
const REPRO_REPLAY_CHECKS: u32 = 10;
/// `dedup` executions per arm in one round. Each round starts a fresh
/// `SeenSet` (sized so nothing is evicted), so the rate of new classes
/// does not depend on how many rounds a run gets through.
const DEDUP_PER_ARM: u64 = 128;
/// The one fig6 bug left out of `directed`: KUEt is a race against time
/// with no racing callback pair to predict.
const NOT_DIRECTED: &str = "KUEt";

/// splitmix64: the benchmark's own mixer for deriving inputs.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds a path of integers (seed, workload, operation, step, …) into
/// one input seed.
pub fn input_seed(parts: &[u64]) -> u64 {
    parts.iter().fold(0, |h, &p| splitmix(h ^ p))
}

/// The campaign one `repro` operation runs; the layer probe runs the same.
pub(crate) fn repro_config(
    apps: Vec<String>,
    base_seed: u64,
    corpus_dir: PathBuf,
) -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        budget: REPRO_BUDGET,
        apps,
        presets: (0..PRESETS.len()).collect(),
        shrink: true,
        replay_checks: REPRO_REPLAY_CHECKS,
        corpus_dir: Some(corpus_dir),
        base_seed,
        ..CampaignConfig::default()
    }
}

/// Whether `trace`, replayed at `env_seed`, re-manifests `signature`: the
/// check `verify_entry` makes on a corpus entry, applied to a trace that
/// is not on disk (a finding's, or a shrink candidate's).
pub(crate) fn replays_to(signature: &BugSignature, env_seed: u64, trace: DecisionTrace) -> bool {
    verify_entry(&CorpusEntry {
        app: signature.app.clone(),
        env_seed,
        site: signature.site.clone(),
        kinds: signature.kinds,
        hits: 1,
        replays_ok: 0,
        trace,
    })
    .is_ok()
}

/// The 13 bugs of the paper's Figure 6 experiment, in registry order.
pub fn fig6_apps() -> Vec<&'static str> {
    nodefz_apps::registry()
        .iter()
        .map(|c| c.info())
        .filter(|i| i.in_fig6)
        .map(|i| i.abbr)
        .collect()
}

/// An execution the layer probe re-runs: app, preset index, env seed.
#[derive(Clone, Debug)]
pub(crate) struct Input {
    pub app: String,
    pub preset: usize,
    pub env: u64,
}

/// What one operation did.
#[derive(Default)]
pub(crate) struct Op {
    /// Program executions it spent.
    pub execs: u64,
    /// Results it produced.
    pub finds: u64,
    /// Wall time to each result, in ms.
    pub ttb_ms: Vec<f64>,
    /// Wall time of the operation itself.
    pub wall: Duration,
    /// Why the operation failed (empty when it did not).
    pub failures: Vec<String>,
    /// Executions the layer probe may re-run.
    pub inputs: Vec<Input>,
    /// An exact, seed-determined fingerprint of what it produced.
    pub digest: u64,
    check: Check,
}

/// Work for the correctness check that follows an operation, outside
/// the measured time.
#[derive(Default)]
enum Check {
    #[default]
    None,
    /// A `fuzz` finding: must replay to its signature.
    Finding(Finding),
    /// A `dedup` execution to re-run.
    Recheck {
        input: Input,
        key: CanonKey,
        manifested: bool,
    },
    /// A `repro` corpus: one entry per bug found, then deleted.
    Corpus { dir: PathBuf, bugs: usize },
    /// A `directed` trial to re-run with a corpus directory.
    Directed {
        cfg: AnalyzeConfig,
        signatures: Vec<BugSignature>,
    },
}

/// One workload's state, built by [`Bench::setup`].
pub(crate) struct Bench {
    pub workload: Workload,
    seed: u64,
    scratch: PathBuf,
    arms: Vec<(&'static str, usize)>,
    directed_apps: Vec<&'static str>,
    ctx: RunContext,
    seen: SeenSet,
    /// Measured time since the last new class (`dedup`).
    since_find: Duration,
    /// Distinguishes the corpus directories of the two traced passes.
    pass: u32,
    /// Fixed variants that manifested at a finding's inputs.
    pub false_positives: Vec<String>,
}

impl Bench {
    /// Builds the workload's state in `scratch` and warms it up with
    /// `warmup` executions per (app, preset) arm.
    pub fn setup(
        workload: Workload,
        seed: u64,
        scratch: &Path,
        warmup: u64,
    ) -> Result<Bench, String> {
        std::fs::create_dir_all(scratch)
            .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
        let apps = fig6_apps();
        let arms: Vec<(&'static str, usize)> = apps
            .iter()
            .flat_map(|&app| (0..PRESETS.len()).map(move |p| (app, p)))
            .collect();
        let mut ctx = RunContext::new();
        if workload == Workload::Dedup {
            ctx.enable_prune();
        }
        for (a, &(app, preset)) in arms.iter().enumerate() {
            for k in 0..warmup {
                let env = input_seed(&[seed, 0, a as u64, k]);
                std::hint::black_box(ctx.fuzz_once(app, preset, env));
            }
        }
        Ok(Bench {
            workload,
            seed,
            scratch: scratch.to_path_buf(),
            arms,
            directed_apps: apps.into_iter().filter(|&a| a != NOT_DIRECTED).collect(),
            ctx,
            seen: SeenSet::new(1),
            since_find: Duration::ZERO,
            pass: 0,
            false_positives: Vec::new(),
        })
    }

    /// Prepares to run the same operations again (operation 0 starts a
    /// new `dedup` round) without reusing the first pass's corpora.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    fn tag(&self) -> u64 {
        self.workload as u64 + 1
    }

    /// Runs operation `i`.
    pub fn op(&mut self, i: u64, tr: &mut Tracer) -> Op {
        tr.set_trial(i, Lane::Workload);
        match self.workload {
            Workload::Fuzz => self.fuzz_trial(i, tr),
            Workload::Dedup => self.dedup_exec(i, tr),
            Workload::Repro => self.repro_campaign(i, tr),
            Workload::Directed => self.directed_trial(i, tr),
        }
    }

    fn arm(&self, i: u64) -> (&'static str, usize) {
        self.arms[(i % self.arms.len() as u64) as usize]
    }

    fn fuzz_trial(&mut self, i: u64, tr: &mut Tracer) -> Op {
        let (app, preset) = self.arm(i);
        let mut op = Op::default();
        let root = tr.begin("bench.trial");
        let start = Instant::now();
        let mut env = 0;
        for k in 0..FUZZ_CAP {
            env = input_seed(&[self.seed, self.tag(), i, k]);
            let exec = tr.leaf("campaign.fuzz_once", || {
                self.ctx.fuzz_once(app, preset, env)
            });
            op.execs += 1;
            if let Some(finding) = exec.finding {
                op.finds = 1;
                op.ttb_ms.push(ms(start.elapsed()));
                op.check = Check::Finding(finding);
                break;
            }
        }
        op.wall = start.elapsed();
        tr.end(root);
        op.digest = op.execs;
        op.inputs.push(Input {
            app: app.to_string(),
            preset,
            env,
        });
        op
    }

    fn dedup_exec(&mut self, i: u64, tr: &mut Tracer) -> Op {
        let (app, preset) = self.arm(i);
        let env = input_seed(&[self.seed, self.tag(), i]);
        let round = DEDUP_PER_ARM * self.arms.len() as u64;
        if i.is_multiple_of(round) {
            self.seen = SeenSet::new(round as usize);
            self.since_find = Duration::ZERO;
        }
        let mut op = Op {
            execs: 1,
            ..Op::default()
        };
        let root = tr.begin("bench.exec");
        let start = Instant::now();
        let exec = tr.leaf("campaign.fuzz_once", || {
            self.ctx.fuzz_once(app, preset, env)
        });
        let key = exec.canon.map(|(key, _scope)| key);
        let fresh = key.map(|key| tr.leaf("hb.seen_insert", || self.seen.insert(key)));
        op.wall = start.elapsed();
        tr.end(root);
        let input = Input {
            app: app.to_string(),
            preset,
            env,
        };
        let Some(key) = key else {
            op.failures.push(format!(
                "dedup: no canon key for {app} seed {env} preset {preset}"
            ));
            return op;
        };
        self.since_find += op.wall;
        if fresh == Some(true) {
            op.finds = 1;
            op.ttb_ms.push(ms(self.since_find));
            self.since_find = Duration::ZERO;
        }
        op.digest = key.0 as u64 ^ (key.0 >> 64) as u64;
        if i.is_multiple_of(RECHECK_EVERY) {
            op.check = Check::Recheck {
                input: input.clone(),
                key,
                manifested: exec.finding.is_some(),
            };
        }
        op.inputs.push(input);
        op
    }

    fn repro_campaign(&mut self, i: u64, tr: &mut Tracer) -> Op {
        let dir = self.scratch.join(format!("corpus-{}-{i}", self.pass));
        let cfg = repro_config(
            fig6_apps().into_iter().map(String::from).collect(),
            input_seed(&[self.seed, self.tag(), i]),
            dir.clone(),
        );
        let mut op = Op::default();
        let root = tr.begin("bench.campaign");
        let start = Instant::now();
        let mut ttr = Vec::new();
        let mut inputs = Vec::new();
        let report = tr.leaf("campaign.run_with_progress", || {
            run_with_progress(&cfg, |ev| match ev {
                Event::NewBug {
                    signature,
                    env_seed,
                } => inputs.push(Input {
                    app: signature.app.clone(),
                    preset: 0,
                    env: *env_seed,
                }),
                Event::Shrunk { .. } => ttr.push(ms(start.elapsed())),
                _ => {}
            })
        });
        let loaded = tr.leaf("campaign.corpus_load", || {
            Corpus::open(&dir).and_then(|c| c.load_all())
        });
        let mut bugs = 0;
        match (report, loaded) {
            (Ok(report), Ok(entries)) => {
                op.execs = report.runs;
                bugs = report.bugs.len();
                for entry in &entries {
                    match tr.leaf("campaign.verify_entry", || verify_entry(entry)) {
                        Ok(()) => {
                            op.finds += 1;
                            op.digest = splitmix(
                                op.digest ^ entry.env_seed ^ entry.trace.decisions.len() as u64,
                            ) ^ entry.signature().digest();
                        }
                        Err(e) => op.failures.push(format!(
                            "repro: {e} (app {}, seed {}, campaign seed {})",
                            entry.app, entry.env_seed, cfg.base_seed
                        )),
                    }
                }
            }
            (Err(e), _) => op
                .failures
                .push(format!("repro: campaign seed {}: {e}", cfg.base_seed)),
            (_, Err(e)) => op.failures.push(format!(
                "repro: corpus of campaign seed {}: {e}",
                cfg.base_seed
            )),
        }
        op.wall = start.elapsed();
        tr.end(root);
        op.ttb_ms = ttr;
        op.inputs = inputs;
        op.check = Check::Corpus { dir, bugs };
        op
    }

    fn directed_trial(&mut self, i: u64, tr: &mut Tracer) -> Op {
        let app = self.directed_apps[(i % self.directed_apps.len() as u64) as usize];
        let env = input_seed(&[self.seed, self.tag(), i]);
        let cfg = AnalyzeConfig {
            apps: vec![app.to_string()],
            env_seed: env,
            ..AnalyzeConfig::default()
        };
        let mut op = Op::default();
        let root = tr.begin("bench.trial");
        let start = Instant::now();
        let report = tr.leaf("campaign.analyze_campaign", || analyze_campaign(&cfg));
        op.wall = start.elapsed();
        tr.end(root);
        op.inputs.push(Input {
            app: app.to_string(),
            preset: 0,
            env,
        });
        match report {
            Ok(report) if report.failed.is_empty() => {
                op.execs = report.directed_execs;
                op.finds = report.confirmed.len() as u64;
                if op.finds > 0 {
                    op.ttb_ms.push(ms(op.wall));
                }
                let signatures: Vec<BugSignature> = report
                    .confirmed
                    .iter()
                    .map(|c| c.signature.clone())
                    .collect();
                op.digest = signatures
                    .iter()
                    .fold(op.execs, |h, s| splitmix(h ^ s.digest()));
                if i.is_multiple_of(DIRECTED_RECHECK_EVERY) {
                    op.check = Check::Directed { cfg, signatures };
                }
            }
            Ok(report) => op.failures.extend(
                report
                    .failed
                    .iter()
                    .map(|(app, e)| format!("directed: {app} seed {env}: {e}")),
            ),
            Err(e) => op.failures.push(format!("directed: {app} seed {env}: {e}")),
        }
        op
    }

    /// Checks an operation's outputs; returns what is wrong with them.
    pub fn check(&mut self, i: u64, op: &mut Op) -> Vec<String> {
        match std::mem::take(&mut op.check) {
            Check::None => Vec::new(),
            Check::Finding(f) => check_finding(f, &mut self.false_positives),
            Check::Recheck {
                input,
                key,
                manifested,
            } => {
                let again = self.ctx.fuzz_once(&input.app, input.preset, input.env);
                let same_key = again.canon.map(|(k, _)| k) == Some(key);
                if same_key && again.finding.is_some() == manifested {
                    Vec::new()
                } else {
                    vec![format!(
                        "dedup: re-run of {} seed {} preset {} (exec {i}) changed its {}",
                        input.app,
                        input.env,
                        PRESETS[input.preset],
                        if same_key { "outcome" } else { "canon key" }
                    )]
                }
            }
            Check::Corpus { dir, bugs } => {
                let mut wrong = Vec::new();
                let entries = Corpus::open(&dir)
                    .and_then(|c| c.load_all())
                    .map_or(0, |e| e.len());
                if entries != bugs {
                    wrong.push(format!(
                        "repro: campaign {i} found {bugs} bugs but persisted {entries} repros"
                    ));
                }
                let _ = std::fs::remove_dir_all(&dir);
                wrong
            }
            Check::Directed { cfg, signatures } => self.recheck_directed(i, cfg, &signatures),
        }
    }

    fn recheck_directed(
        &self,
        i: u64,
        mut cfg: AnalyzeConfig,
        signatures: &[BugSignature],
    ) -> Vec<String> {
        let dir = self.scratch.join(format!("directed-{}-{i}", self.pass));
        cfg.corpus_dir = Some(dir.clone());
        let what = format!("directed: {} seed {}", cfg.apps[0], cfg.env_seed);
        let mut wrong = Vec::new();
        match analyze_campaign(&cfg) {
            Ok(again) => {
                let same: Vec<&BugSignature> =
                    again.confirmed.iter().map(|c| &c.signature).collect();
                if same != signatures.iter().collect::<Vec<_>>() {
                    wrong.push(format!("{what}: re-run confirmed different races"));
                }
                match Corpus::open(&dir).and_then(|c| c.load_all()) {
                    Ok(entries) => {
                        for entry in &entries {
                            if let Err(e) = verify_entry(entry) {
                                wrong.push(format!("{what}: {e}"));
                            }
                        }
                    }
                    Err(e) => wrong.push(format!("{what}: corpus: {e}")),
                }
            }
            Err(e) => wrong.push(format!("{what}: re-run failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
        wrong
    }
}

/// A `fuzz` finding must replay to the same signature. The fixed variant
/// is then run at the same seeds and preset; if it manifests too, that is
/// a false positive of the bug model (the fixed FPS and SIO* variants can
/// time out under fuzzing), not a failed operation: it is named in
/// `false_positives` instead, and `compare` fails a change that has more.
fn check_finding(f: Finding, false_positives: &mut Vec<String>) -> Vec<String> {
    let Some(case) = nodefz_apps::by_abbr(&f.app) else {
        return vec![format!("fuzz: finding names unknown app {}", f.app)];
    };
    let what = format!(
        "fuzz: {} seed {} preset {}",
        f.app, f.env_seed, PRESETS[f.preset]
    );
    let fixed = Mode::Custom(preset_params(f.preset));
    let out = case.run(&RunCfg::new(fixed, f.env_seed), Variant::Fixed);
    if out.manifested {
        false_positives.push(format!("{what}: fixed variant manifested: {}", out.detail));
    }
    if replays_to(&f.signature, f.env_seed, f.trace) {
        Vec::new()
    } else {
        vec![format!("{what}: replay did not reproduce {}", f.signature)]
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
