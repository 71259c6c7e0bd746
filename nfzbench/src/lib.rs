//! # nfzbench — time to bug for the Node.fz reproduction
//!
//! The paper sells bugs manifested per unit of testing time. This crate
//! measures that, end to end, on four workloads ([`Workload`]), and in a
//! traced run attributes the time to the layers (crates) it passes
//! through. It drives the system only through public calls: `RunContext`
//! `fuzz_once`/`fuzz_directed`, `BugCase::run`, the campaign's
//! `run_with_progress`, `shrink`, `verify_entry`, `analyze_campaign`,
//! `Corpus` and `Deduper`, the HB crate's `record_vanilla`,
//! `analyze_recorded`, `CanonBuilder` and `SeenSet`, and
//! `BugSignature::new`.
//!
//! A run sets its workload up [`SETUPS`] times (reporting the median as
//! `setup_s`), then repeats the workload's operation until both the
//! measured time reaches the requested seconds and the fixed prefix of
//! [`Workload::min_ops`] operations is done. Timings cover every
//! operation; counts (`execs_per_find`, [`Counts`]) cover the prefix
//! only, so they are exact at a seed. Correctness checks run after each
//! operation, outside the measured time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
mod probe;
pub mod reference;
pub mod results;
pub mod spans;
pub mod stats;
mod workloads;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use spans::Tracer;
use workloads::{splitmix, Bench, Input};

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 5;
/// Warm-up executions per (app, preset) arm in each set-up.
pub const WARMUP_PER_ARM: u64 = 200;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("execs_per_s", "1/s"),
    ("finds_per_s", "1/s"),
    ("ttb_ms_p50", "ms"),
    ("ttb_ms_p90", "ms"),
    ("execs_per_find", "execs"),
];

/// The per-layer metrics every traced run reports, with units.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("rt.exec_us", "us"),
    ("rt.cb_ns", "ns"),
    ("rt.cbs_per_exec", "count"),
    ("rt.provenance_ns_per_cb", "ns"),
    ("core.nofuzz_ns_per_cb", "ns"),
    ("core.fuzz_ns_per_cb", "ns"),
    ("core.record_ns_per_cb", "ns"),
    ("core.replay_us", "us"),
    ("core.decisions_per_exec", "count"),
    ("core.directed_us", "us"),
    ("hb.canon_ns_per_event", "ns"),
    ("hb.seen_insert_ns", "ns"),
    ("hb.distinct_ratio", "ratio"),
    ("hb.record_vanilla_us", "us"),
    ("hb.analyze_us", "us"),
    ("hb.races_per_analysis", "count"),
    ("trace.signature_ns", "ns"),
    ("campaign.fuzz_once_us", "us"),
    ("campaign.fuzz_once_residual_us", "us"),
    ("campaign.shrink_ms", "ms"),
    ("campaign.shrink_replays", "count"),
    ("campaign.shrink_keep_ratio", "ratio"),
    ("campaign.dedup_ns", "ns"),
    ("campaign.corpus_save_us", "us"),
    ("campaign.corpus_load_us", "us"),
    ("campaign.verify_us", "us"),
    ("campaign.run_ms", "ms"),
    ("campaign.runs_per_campaign", "count"),
    ("campaign.newbug_to_repro_ms", "ms"),
    ("campaign.analyze_ms", "ms"),
    ("campaign.directed_execs_per_trial", "count"),
    ("bench.attributed_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 13 fig6 bugs × 3 presets; each trial fuzzes one arm until the bug
    /// manifests (at most 200 executions).
    Fuzz,
    /// The same 39 arms with event-log provenance and canonicalization
    /// on; each execution's HB class key goes into one `SeenSet`.
    Dedup,
    /// Whole campaigns over the 13 fig6 bugs (one worker, budget 600,
    /// shrink on, 10 acceptance replays), each followed by re-loading and
    /// verifying its corpus.
    Repro,
    /// Predict-then-confirm: one `analyze_campaign` per trial over 12
    /// fig6 bugs (KUEt has no racing pair to predict).
    Directed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Fuzz,
        Workload::Dedup,
        Workload::Repro,
        Workload::Directed,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fuzz => "fuzz",
            Workload::Dedup => "dedup",
            Workload::Repro => "repro",
            Workload::Directed => "directed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations every untraced run completes, however long they take;
    /// the counts cover exactly these. Sized to finish within about
    /// 60% of a 20 s run on a 2-CPU x86-64 container.
    pub fn min_ops(self) -> u64 {
        match self {
            Workload::Fuzz => 12_000,
            Workload::Dedup => 250_000,
            Workload::Repro => 130,
            Workload::Directed => 36_000,
        }
    }

    /// Threads an operation keeps busy: a campaign runs one worker
    /// beside its controller.
    pub fn threads(self) -> usize {
        match self {
            Workload::Repro => 2,
            _ => 1,
        }
    }

    /// The layer probe re-runs every this-many-th input of a traced run.
    fn probe_stride(self) -> usize {
        match self {
            // A campaign yields one input per bug it finds, not one per
            // execution, so every one is kept.
            Workload::Repro => 1,
            _ => 8,
        }
    }
}

/// Measured time between two reference-kernel timings, in ns.
const INTERVAL_NS: f64 = 50e6;

/// Inputs the layer probe re-runs, at most.
const PROBE_SAMPLES: usize = 256;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Measured seconds (a traced run spends half untraced, half traced
    /// on the same operations).
    pub seconds: f64,
    /// Run exactly this many operations instead of measuring for
    /// `seconds`, for tests: the prefix the counts cover becomes all of
    /// them, and each set-up warms every arm up once instead of
    /// [`WARMUP_PER_ARM`] times.
    pub ops: Option<u64>,
    /// Whether to run traced and report the per-layer metrics.
    pub trace: bool,
    /// Directory for corpora and other scratch files; removed at the end.
    pub scratch: PathBuf,
}

impl Config {
    /// The settings of a benchmark run of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Config {
        Config {
            workload,
            seed,
            seconds: 20.0,
            ops: None,
            trace: false,
            scratch: PathBuf::from(".nfzbench-tmp"),
        }
    }
}

/// Seed-determined counts over the run's fixed prefix of operations:
/// identical on every run at one seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Operations in the prefix.
    pub ops: u64,
    /// Executions they spent.
    pub execs: u64,
    /// Results they produced.
    pub finds: u64,
    /// `fuzz` findings whose fixed variant manifested too.
    pub false_positives: u64,
    /// A fold of every operation's own fingerprint (execs per trial,
    /// canon keys, repro lengths and signatures, confirmed races).
    pub digest: u64,
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Which workload ran.
    pub workload: Workload,
    /// Operations run (all of them, not only the prefix).
    pub attempted: u64,
    /// Operations that failed or whose outputs failed a check.
    pub failed: u64,
    /// Every failure, naming its app, seed and preset.
    pub violations: Vec<String>,
    /// `fuzz` findings whose fixed variant manifested at the same inputs
    /// (observed, not failures; see the README).
    pub false_positives: Vec<String>,
    /// (name, value, unit): [`END_TO_END`] untraced, [`PER_LAYER`] traced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The prefix counts.
    pub counts: Counts,
    /// The traced pass's spans, then the probe's (empty untraced).
    pub spans: Vec<spans::Span>,
    /// Measured time of the traced pass's operations, in ns (0
    /// untraced): the denominator of `bench.attributed_frac`.
    pub traced_wall_ns: u64,
}

impl Outcome {
    /// Whether every operation succeeded and every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Everything a measuring loop saw.
#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
    violations: Vec<String>,
    execs: u64,
    finds: u64,
    measured: Duration,
    ttb_ms: Vec<f64>,
    prefix: Counts,
    inputs: Vec<Input>,
    /// `measured`, at the reference speed (see [`reference`]), in ns.
    norm_ns: f64,
    /// Threads the workload keeps busy (the kernel runs on as many).
    threads: usize,
    /// The open interval: raw measured ns and time-to-bug samples not yet
    /// scaled, and the kernel time at its start.
    open_ns: f64,
    open_ttb_ms: Vec<f64>,
    last_kernel_ns: f64,
}

impl Tally {
    /// Closes the open interval: times the reference kernel and scales
    /// the interval's timings by the kernel times at its two ends.
    fn close_interval(&mut self) {
        let now = reference::time_kernel(self.threads);
        let scale = reference::scale((self.last_kernel_ns + now) / 2.0);
        self.last_kernel_ns = now;
        self.norm_ns += self.open_ns * scale;
        self.ttb_ms
            .extend(self.open_ttb_ms.drain(..).map(|ms| ms * scale));
        self.open_ns = 0.0;
    }
}

/// When a measuring loop stops.
enum Until {
    /// After this many operations.
    Ops(u64),
    /// Once the measured time reaches `seconds` and `min_ops` are done.
    Time { seconds: f64, min_ops: u64 },
}

/// Repeats the workload's operation, checking each one's outputs outside
/// the measured time.
fn measure(bench: &mut Bench, until: &Until, tr: &mut Tracer) -> Tally {
    let threads = bench.workload.threads();
    let mut t = Tally {
        threads,
        last_kernel_ns: reference::time_kernel(threads),
        ..Tally::default()
    };
    let prefix = match *until {
        Until::Ops(n) => n,
        Until::Time { min_ops, .. } => min_ops,
    };
    loop {
        let done = match *until {
            Until::Ops(n) => t.ops >= n,
            Until::Time { seconds, min_ops } => {
                t.ops >= min_ops && t.measured.as_secs_f64() >= seconds
            }
        };
        if done {
            if t.open_ns > 0.0 {
                t.close_interval();
            }
            return t;
        }
        let i = t.ops;
        let mut op = bench.op(i, tr);
        let mut wrong = std::mem::take(&mut op.failures);
        let false_positives = bench.false_positives.len();
        wrong.extend(bench.check(i, &mut op));
        t.ops += 1;
        t.failed += u64::from(!wrong.is_empty());
        t.violations.extend(wrong);
        t.execs += op.execs;
        t.finds += op.finds;
        t.measured += op.wall;
        if i < prefix {
            t.prefix.ops += 1;
            t.prefix.execs += op.execs;
            t.prefix.finds += op.finds;
            t.prefix.false_positives += (bench.false_positives.len() - false_positives) as u64;
            t.prefix.digest = splitmix(t.prefix.digest ^ op.digest);
        }
        t.inputs.append(&mut op.inputs);
        t.open_ns += op.wall.as_nanos() as f64;
        t.open_ttb_ms.extend_from_slice(&op.ttb_ms);
        if t.open_ns >= INTERVAL_NS {
            t.close_interval();
        }
    }
}

/// Runs one workload and reports its metrics.
///
/// # Errors
///
/// Fails when the scratch directory cannot be created or the layer probe
/// cannot run. Failed operations are not errors: they are counted in
/// [`Outcome::failed`].
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // Unique per run, so concurrent runs never share a corpus directory.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let scratch = cfg.scratch.join(format!(
        "{}-{}-{}",
        cfg.workload.name(),
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let result = run_in(cfg, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    // Leave no empty parent behind either (fails harmlessly when another
    // run still uses it).
    let _ = std::fs::remove_dir(&cfg.scratch);
    result
}

fn run_in(cfg: &Config, scratch: &std::path::Path) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench = None;
    let warmup = if cfg.ops.is_some() { 1 } else { WARMUP_PER_ARM };
    // Set-up is single-threaded whatever the workload.
    for _ in 0..SETUPS {
        let before = reference::time_kernel(1);
        let start = Instant::now();
        bench = Some(Bench::setup(cfg.workload, cfg.seed, scratch, warmup)?);
        let secs = start.elapsed().as_secs_f64();
        let after = reference::time_kernel(1);
        setup_s.push(secs * reference::scale((before + after) / 2.0));
    }
    let mut bench = bench.expect("SETUPS is at least 1");

    if !cfg.trace {
        let until = match cfg.ops {
            Some(n) => Until::Ops(n),
            None => Until::Time {
                seconds: cfg.seconds,
                min_ops: cfg.workload.min_ops(),
            },
        };
        let t = measure(&mut bench, &until, &mut Tracer::new(false));
        let false_positives = std::mem::take(&mut bench.false_positives);
        let secs = (t.norm_ns / 1e9).max(f64::EPSILON);
        let values = [
            stats::median(&setup_s).unwrap_or(0.0),
            t.execs as f64 / secs,
            t.finds as f64 / secs,
            stats::quantile(&t.ttb_ms, 0.5).unwrap_or(0.0),
            stats::quantile(&t.ttb_ms, 0.9).unwrap_or(0.0),
            t.prefix.execs as f64 / t.prefix.finds.max(1) as f64,
        ];
        return Ok(Outcome {
            workload: cfg.workload,
            attempted: t.ops,
            failed: t.failed,
            violations: t.violations,
            false_positives,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect(),
            counts: t.prefix,
            spans: Vec::new(),
            traced_wall_ns: 0,
        });
    }

    // Traced: the same operations twice, untraced then traced (both
    // checked, so the passes differ only in tracing), then the probe.
    let until = match cfg.ops {
        Some(n) => Until::Ops(n),
        None => Until::Time {
            seconds: cfg.seconds / 2.0,
            min_ops: 1,
        },
    };
    let plain = measure(&mut bench, &until, &mut Tracer::new(false));
    let false_positives = std::mem::take(&mut bench.false_positives);
    bench.next_pass();
    let mut tr = Tracer::new(true);
    let traced = measure(&mut bench, &Until::Ops(plain.ops), &mut tr);
    let traced_wall_ns = traced.measured.as_nanos() as u64;
    drop(bench);

    let samples: Vec<Input> = plain
        .inputs
        .iter()
        .step_by(cfg.workload.probe_stride())
        .take(PROBE_SAMPLES)
        .cloned()
        .collect();
    let mut layers = probe::probe(&samples, scratch, &mut tr)?;
    let spans = tr.spans().to_vec();
    layers.push((
        "bench.attributed_frac",
        spans::attributed_frac(&spans, traced_wall_ns),
    ));
    layers.push((
        "bench.trace_overhead_frac",
        traced.norm_ns / plain.norm_ns.max(f64::EPSILON) - 1.0,
    ));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = layers
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .expect("the probe measures every per-layer metric");
            (name, v, unit)
        })
        .collect();
    Ok(Outcome {
        workload: cfg.workload,
        attempted: plain.ops,
        failed: plain.failed,
        violations: plain.violations,
        false_positives,
        metrics,
        counts: plain.prefix,
        spans,
        traced_wall_ns,
    })
}
