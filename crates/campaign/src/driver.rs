//! The parallel campaign driver.
//!
//! The event-loop simulator is single-threaded by design (`Rc` handles,
//! deterministic virtual time), so a campaign parallelizes across *runs*:
//! worker OS threads block on one job queue, instantiate the bug case
//! locally (via [`resolve_case`] — `Box<dyn BugCase>` is not `Send`), and
//! report results back over a channel. The controller thread owns the
//! arms, the deduplicator, the run tally, and the corpus:
//!
//! ```text
//! controller ── round-robin picks (app, preset) ──► job queue ──► workers
//!      ▲                                                             │
//!      └── results, applied in slot order ◄──── channel ◄────────────┘
//! ```
//!
//! Every fuzz job carries its slot, the index it was dispatched at, and
//! the controller applies results strictly in slot order, holding back
//! any that arrive early: HB-class count, dedup, quarantine, metrics and
//! the next pick all see the same sequence however many threads ran the
//! jobs. Findings, corpora and the metrics' counters are therefore a
//! function of the seed, budget, apps and presets alone; only a
//! wall-clock deadline can cut two runs of the same flags differently.
//!
//! A new signature triggers a shrink job (delta debugging + acceptance
//! replays) at the front of the queue. The shrunk repro is persisted only
//! when every acceptance replay re-manifested it; otherwise nothing is
//! written, and the report and summary name the bug as not persisted.
//! The campaign drains gracefully when the run budget is spent, the
//! wall-clock deadline passes, or every arm is quarantined.
//!
//! A case that panics does not end the campaign. [`RunContext`] catches
//! the panic and rebuilds its pooled state, a panicking fuzz run reaches
//! the controller as a crash, and the controller retires that run's arm
//! in slot order: the arm's `nodefz-metrics-v1` row carries the
//! quarantine, and the summary names it. A replay that panics counts as
//! not reproducing, and a directed arm whose up-front analysis run (on
//! the controller's own context) panics is retired before its first
//! pull, with the same record. Only an
//! `abort()`, a stack overflow or running out of memory still ends the
//! process, and the runtime's caps on loop iterations and virtual time
//! bound every run whose callbacks return.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nodefz::{DecisionTrace, DirectedSpec, Mode, ReplayMemo, ReplayStatusHandle, TraceHandle};
use nodefz_apps::common::{BugCase, Outcome, RunCfg, Variant};
use nodefz_hb::{AppAnalysis, CanonBuilder, CanonKey, SeenSet};
use nodefz_rt::{EventLogHandle, TypeSchedule};
use nodefz_trace::BugSignature;

use crate::analyze::directed_specs;
use crate::config::{preset_name, preset_params, CampaignConfig, DIRECTED_PRESET};
use crate::corpus::{Corpus, CorpusEntry};
use crate::dedup::{BugRecord, Deduper, Finding};
use crate::metrics::{self, Discovery, LoopProfile, Tally};
use crate::shrink::{shrink, ShrinkResult};
use nodefz_obs::ObsLevel;

/// How many early runs of each arm have their type schedule sampled for
/// the per-arm diversity summary in `--metrics-out` snapshots. Pairwise
/// Levenshtein is quadratic in samples, so the curve stays cheap.
const SCHEDULE_SAMPLES: u64 = 8;

/// Fuzz runs in flight at once. Deep enough that sub-millisecond runs
/// never starve a worker while a result round-trips through the controller
/// (with 8, four threads ran the campaign bench 15% slower on a 2-CPU
/// host). It bounds the queued work, and so how many runs of an arm are
/// already dispatched when its panic is applied and the arm retires. A
/// constant, so the picks do not depend on the thread count.
const WINDOW: u64 = 32;

/// How often the controller rewrites the `--metrics-out` snapshot while
/// the campaign runs (a final snapshot is always written at the end).
const METRICS_INTERVAL: Duration = Duration::from_millis(500);

/// Capacity of the `--prune` seen-set: large enough that a campaign's
/// working set never thrashes, small enough to bound memory (~16 bytes a
/// key).
const SEEN_CAP: usize = 1 << 20;

/// Resolves a campaign app abbreviation to its bug case. Beyond the
/// studied application bugs ([`nodefz_apps::by_abbr`]), campaigns can run
/// the conformance arm — generated programs judged against the runtime's
/// ordering oracle — under the `CONFORM-API` abbreviation.
pub fn resolve_case(app: &str) -> Option<Box<dyn BugCase>> {
    #[cfg(test)]
    if app.eq_ignore_ascii_case(tests::PANICKY) {
        return Some(Box::new(tests::Panicky));
    }
    #[cfg(test)]
    if app.eq_ignore_ascii_case(tests::FLAKY) {
        return Some(Box::new(tests::Flaky));
    }
    if app.eq_ignore_ascii_case(nodefz_conform::API_ABBR) {
        return Some(nodefz_conform::api_bug_case());
    }
    nodefz_apps::by_abbr(app)
}

/// One (app, preset) pair the campaign can spend runs on, known by its
/// index in the campaign's arm list.
#[derive(Clone, Debug)]
pub(crate) struct Arm {
    /// Bug abbreviation ("KUE", …).
    pub app: String,
    /// Index into [`crate::config::PRESETS`], or [`DIRECTED_PRESET`].
    pub preset: usize,
    /// Runs dispatched to the arm so far: its position in its seed stream.
    pub pulls: u64,
    /// Set once a run of the arm panicked: why the arm was retired.
    /// [`pick`] skips a retired arm.
    pub quarantine: Option<Quarantine>,
}

impl Arm {
    fn new(app: String, preset: usize) -> Arm {
        Arm {
            app,
            preset,
            pulls: 0,
            quarantine: None,
        }
    }

    /// Retires the arm because its run at `env_seed` failed with
    /// `message`; returns the quarantine when the arm was still live.
    fn retire(&mut self, env_seed: u64, message: String) -> Option<&Quarantine> {
        if self.quarantine.is_some() {
            return None;
        }
        Some(self.quarantine.insert(Quarantine {
            app: self.app.clone(),
            preset: preset_name(self.preset),
            env_seed,
            message,
        }))
    }
}

/// Picks the arm for the next run and counts the pull: the live arm with
/// the fewest pulls, ties to the later arm, so the campaign cycles its live
/// arms from the last to the first. `None` once every arm is retired.
fn pick(arms: &mut [Arm]) -> Option<usize> {
    let (i, arm) = arms
        .iter_mut()
        .enumerate()
        .rev()
        .filter(|(_, arm)| arm.quarantine.is_none())
        .min_by_key(|(_, arm)| arm.pulls)?;
    arm.pulls += 1;
    Some(i)
}

/// One unit of worker work.
enum Job {
    /// Run the app once under a recording fuzz scheduler — or, when a
    /// directed spec is attached, under a race-directed scheduler that
    /// replays the spec's prefix and forces the predicted flip.
    Fuzz {
        /// The job's dispatch index; results are applied in slot order.
        slot: u64,
        /// Index of the arm in the campaign's arm list.
        arm: usize,
        app: String,
        preset: usize,
        env_seed: u64,
        directed: Option<DirectedSpec>,
        /// Whether to ship the run's type schedule back for the per-arm
        /// diversity summary (the first few runs of each arm).
        want_schedule: bool,
    },
    /// Minimize a manifesting trace, then acceptance-replay it.
    Shrink {
        app: String,
        env_seed: u64,
        trace: DecisionTrace,
        signature: BugSignature,
        do_shrink: bool,
        replay_checks: u32,
    },
}

/// A finished fuzz run, as its worker reports it.
struct FuzzDone {
    /// The job's dispatch index.
    slot: u64,
    /// Index of the arm the run was dispatched for.
    arm: usize,
    /// The run's environment seed, reported if the run panicked.
    env_seed: u64,
    finding: Option<Finding>,
    /// Callbacks the run dispatched.
    dispatched: u64,
    /// The run's type schedule, when the job asked for it.
    schedule: Option<TypeSchedule>,
    /// The run's HB canonical key, when pruning is on.
    canon: Option<CanonKey>,
    /// The run's loop profile, above `--obs-level off`.
    profile: Option<Box<LoopProfile>>,
    /// The panic message, when the run panicked.
    crash: Option<String>,
}

/// Worker → controller messages.
enum Msg {
    FuzzDone(FuzzDone),
    ShrinkDone {
        signature: BugSignature,
        shrunk: DecisionTrace,
        original_len: usize,
        /// Shrink oracle calls, and the replays they ran.
        oracle_calls: u64,
        shrink_replays: u64,
        replays_ok: u32,
    },
}

/// The campaign's one job queue. Fuzz jobs join at the back; a shrink job
/// goes to the front, so a new bug's repro never waits behind the fuzz
/// window. Workers block in [`JobQueue::pop`] until a job arrives or the
/// controller closes the queue.
#[derive(Default)]
struct JobQueue {
    /// Pending jobs, and whether the queue is closed.
    jobs: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    fn push(&self, job: Job) {
        let mut jobs = self.jobs.lock().expect("queue lock");
        match job {
            Job::Shrink { .. } => jobs.0.push_front(job),
            Job::Fuzz { .. } => jobs.0.push_back(job),
        }
        drop(jobs);
        self.ready.notify_one();
    }

    /// Ends the workers: every later [`JobQueue::pop`] returns `None`.
    fn close(&self) {
        self.jobs.lock().expect("queue lock").1 = true;
        self.ready.notify_all();
    }

    /// The next job, waiting while there is none; `None` once closed.
    fn pop(&self) -> Option<Job> {
        let jobs = self.jobs.lock().expect("queue lock");
        let mut jobs = self
            .ready
            .wait_while(jobs, |(queued, closed)| queued.is_empty() && !*closed)
            .expect("queue lock");
        if jobs.1 {
            None
        } else {
            jobs.0.pop_front()
        }
    }
}

/// Progress events, for live reporting.
#[derive(Clone, Debug)]
pub enum Event {
    /// A fuzz run finished.
    Run {
        /// Runs completed so far.
        completed: u64,
        /// Total run budget.
        budget: u64,
    },
    /// A previously unseen bug signature manifested.
    NewBug {
        /// The new bug's dedup key.
        signature: BugSignature,
        /// Environment seed of the manifesting run.
        env_seed: u64,
    },
    /// A bug's trace finished shrinking.
    Shrunk {
        /// Which bug.
        signature: BugSignature,
        /// Decisions before shrinking.
        from: usize,
        /// Decisions after shrinking.
        to: usize,
        /// Acceptance replays that re-manifested it.
        replays_ok: u32,
        /// Calls the shrink made to its oracle (0 with shrinking off).
        oracle_calls: u64,
        /// Those calls that ran a replay; the others were answered from
        /// runs the same shrink had already replayed.
        shrink_replays: u64,
        /// Whether every acceptance replay re-manifested it, so that its
        /// repro is written to the corpus (when the campaign has one).
        persisted: bool,
    },
    /// The wall-clock deadline passed; the campaign is draining.
    DeadlineHit,
}

/// Summary of one deduplicated bug, for the final report.
#[derive(Clone, Debug)]
pub struct BugSummary {
    /// Bug abbreviation.
    pub app: String,
    /// Normalized failure site.
    pub site: String,
    /// Manifestations observed.
    pub hits: u64,
    /// Environment seed of the first manifestation.
    pub first_seed: u64,
    /// Decisions in the first manifesting trace.
    pub original_len: usize,
    /// Decisions after shrinking (== `original_len` when shrinking is off).
    pub shrunk_len: usize,
    /// Acceptance replays that re-manifested the bug.
    pub replays_ok: u32,
    /// Calls the shrink made to its oracle (0 with shrinking off).
    pub oracle_calls: u64,
    /// Those calls that ran a replay.
    pub shrink_replays: u64,
    /// Whether every acceptance replay re-manifested the bug. A bug that
    /// failed one stays in the report, but its repro is not written.
    pub persisted: bool,
}

/// What a finished campaign reports.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Fuzz runs completed.
    pub runs: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// One summary per deduplicated bug, in stable signature order.
    pub bugs: Vec<BugSummary>,
    /// (app, preset name, pulls) per arm.
    pub arms: Vec<(String, &'static str, u64)>,
    /// Whether the deadline cut the campaign short.
    pub hit_deadline: bool,
    /// The arms retired because a run panicked, in the order they were.
    pub quarantined: Vec<Quarantine>,
}

/// An arm retired because one of its runs panicked: a fuzz run, or a
/// directed arm's up-front analysis run. An analysis that fails without
/// panicking retires the directed arm the same way, with its error as the
/// message.
#[derive(Clone, Debug, PartialEq)]
pub struct Quarantine {
    /// Bug abbreviation.
    pub app: String,
    /// Preset name.
    pub preset: &'static str,
    /// Environment seed of the run that panicked.
    pub env_seed: u64,
    /// The panic message.
    pub message: String,
}

impl CampaignReport {
    /// Number of distinct bugs found.
    pub fn unique_bugs(&self) -> usize {
        self.bugs.len()
    }
}

/// The observable result of one fuzzed execution.
pub struct FuzzExec {
    /// The finding, when the bug manifested.
    pub finding: Option<Finding>,
    /// Callbacks dispatched during the run.
    pub dispatched: u64,
    /// The run's type schedule, when sampling was requested.
    pub schedule: Option<TypeSchedule>,
    /// The run's HB-equivalence canonical key plus its environment scope
    /// ([`env_scope`]), when the context prunes
    /// ([`RunContext::enable_prune`]).
    pub canon: Option<(CanonKey, u64)>,
    /// The panic message, when the case panicked; the run then has no
    /// finding, schedule or canonical key.
    pub crash: Option<String>,
}

/// The environment scope [`FuzzExec::canon`] pairs with a run's key: FNV
/// of the app name folded with the environment seed. Two runs share a
/// scope exactly when they execute the same callbacks on the same inputs.
pub fn env_scope(app: &str, env_seed: u64) -> u64 {
    nodefz_rt::fnv1a(app.as_bytes()) ^ env_seed
}

impl FuzzExec {
    /// A run with nothing to show: an unknown app, or a panic.
    fn empty(crash: Option<String>) -> FuzzExec {
        FuzzExec {
            finding: None,
            dispatched: 0,
            schedule: None,
            canon: None,
            crash,
        }
    }
}

/// Per-worker reusable execution state: the campaign's hot path.
///
/// One `RunContext` lives for a worker's whole lifetime and executes
/// thousands of runs, so anything that can be reset-and-reused across runs
/// instead of rebuilt belongs here: the [`LoopPool`] recycles the event
/// loop's heap buffers (timer wheel, poll set, pool queues, scratch
/// vectors), and the [`TraceHandle`] recycles the decision buffer — its
/// contents are only snapshotted when a run actually manifests a bug.
/// Replays ([`RunContext::replays_to`]) recycle the same pool, one
/// [`ReplayStatusHandle`], one decision buffer for the replayed trace
/// (which the replayer reads in place, [`Mode::ReplayShared`]) and one
/// string for checking the expected signature; shrinks
/// ([`RunContext::shrink`]) replay through a second handle that logs each
/// replay's consultations. A race analysis records its one run on the same
/// pool, into the same trace handle, with the context's event log
/// attached.
///
/// Every case runs under `catch_unwind`. After a panic the context
/// rebuilds its pool and handles, so nothing of the panicked run carries
/// into the next one.
///
/// [`LoopPool`]: nodefz_rt::LoopPool
pub struct RunContext {
    pool: nodefz_rt::LoopPool,
    handle: TraceHandle,
    status: ReplayStatusHandle,
    /// The shrink oracle's replay handle: it logs each consultation.
    logged: ReplayStatusHandle,
    /// The replayed trace, copied in for each replay and shared with its
    /// replayer, which reads it in place.
    replaying: Rc<DecisionTrace>,
    /// Scratch for normalizing a replay's failure site when checking it
    /// against the expected signature.
    site: String,
    /// The event log a race analysis records, and every fuzz run when
    /// pruning is on. Recording never changes seeds or schedules.
    events: EventLogHandle,
    /// HB-canonicalization kit attached when pruning is on: the reusable
    /// canon builder and its scratch buffer, allocation-free at steady
    /// state. With it, every fuzz run records into `events`; recording is
    /// observational, so the executed run stream is identical with pruning
    /// on or off.
    prune: Option<PruneKit>,
    /// Loop-observability handle attached to every fuzz run (profiling
    /// only — it never changes seeds, decisions, or schedules).
    obs: Option<nodefz_rt::ObsHandle>,
}

/// The per-worker state [`RunContext::enable_prune`] attaches.
struct PruneKit {
    canon: CanonBuilder,
    scratch: Vec<u64>,
}

impl Default for RunContext {
    fn default() -> RunContext {
        RunContext::new()
    }
}

impl RunContext {
    /// Creates a fresh context.
    pub fn new() -> RunContext {
        RunContext {
            pool: nodefz_rt::LoopPool::new(),
            handle: TraceHandle::fresh(),
            status: ReplayStatusHandle::fresh(),
            logged: ReplayStatusHandle::logging(),
            replaying: Rc::new(DecisionTrace {
                pool_mode: nodefz_rt::PoolMode::Concurrent { workers: 4 },
                demux_done: false,
                decisions: Vec::new(),
            }),
            site: String::new(),
            events: EventLogHandle::fresh(),
            prune: None,
            obs: None,
        }
    }

    /// Attaches the pruning kit: every subsequent fuzz run records an
    /// event log and reports its HB canonical key in
    /// [`FuzzExec::canon`].
    pub fn enable_prune(&mut self) {
        self.prune = Some(PruneKit {
            canon: CanonBuilder::new(),
            scratch: Vec::new(),
        });
    }

    /// Attaches a loop-observability handle to every subsequent fuzz run.
    pub fn set_obs(&mut self, obs: nodefz_rt::ObsHandle) {
        self.obs = Some(obs);
    }

    /// Runs one fuzz job: the buggy variant under a recording fuzz
    /// scheduler. Unknown apps count as a non-manifesting run; a case that
    /// panics reports its message in [`FuzzExec::crash`].
    pub fn fuzz_once(&mut self, app: &str, preset: usize, env_seed: u64) -> FuzzExec {
        self.fuzz_once_sampled(app, preset, env_seed, false)
    }

    /// Runs one race-directed job: the buggy variant under a
    /// [`DirectedSpec`]'s replay-then-flip scheduler, recorded so a
    /// confirming run is immediately a replayable repro. The env seed
    /// must match the spec's recorded run — the prefix replays against
    /// the same modelled environment.
    pub fn fuzz_directed(&mut self, app: &str, spec: DirectedSpec, env_seed: u64) -> FuzzExec {
        self.exec(app, DIRECTED_PRESET, env_seed, Some(spec), false)
    }

    /// Like [`RunContext::fuzz_once`], optionally cloning the run's type
    /// schedule out for diversity telemetry.
    pub fn fuzz_once_sampled(
        &mut self,
        app: &str,
        preset: usize,
        env_seed: u64,
        want_schedule: bool,
    ) -> FuzzExec {
        self.exec(app, preset, env_seed, None, want_schedule)
    }

    fn exec(
        &mut self,
        app: &str,
        preset: usize,
        env_seed: u64,
        directed: Option<DirectedSpec>,
        want_schedule: bool,
    ) -> FuzzExec {
        let Some(case) = resolve_case(app) else {
            return FuzzExec::empty(None);
        };
        // The recording scheduler resets the shared handle in place, so
        // reusing it across runs keeps the decision buffer's capacity.
        let mode = match directed {
            Some(spec) => Mode::Directed(spec, self.handle.clone()),
            None => Mode::Record(preset_params(preset), self.handle.clone()),
        };
        let mut run_cfg = RunCfg::new(mode, env_seed).pooled(&self.pool);
        if self.prune.is_some() {
            run_cfg = run_cfg.events(&self.events);
        }
        if let Some(obs) = &self.obs {
            run_cfg = run_cfg.observed(obs);
        }
        let out = match self.run_caught(&*case, &run_cfg) {
            Ok(out) => out,
            Err(message) => return FuzzExec::empty(Some(message)),
        };
        let dispatched = out.report.dispatched;
        let schedule = want_schedule.then(|| out.report.schedule.clone());
        let finding = out.manifested.then(|| Finding {
            app: app.to_string(),
            preset,
            env_seed,
            signature: BugSignature::new(app, &out.detail, &out.report.schedule),
            detail: out.detail,
            trace: self.handle.snapshot(),
        });
        let canon = self.prune.as_mut().map(|kit| {
            let key = self
                .events
                .with(|log| kit.canon.build(log, &mut kit.scratch));
            (key, env_scope(app, env_seed))
        });
        FuzzExec {
            finding,
            dispatched,
            schedule,
            canon,
            crash: None,
        }
    }

    /// Runs the buggy variant of `case`, catching a panic: its message
    /// comes back as the error, after the pooled loop, the trace, replay
    /// and event-log handles are rebuilt and the run's loop profile is
    /// dropped.
    fn run_caught(&mut self, case: &dyn BugCase, run_cfg: &RunCfg) -> Result<Outcome, String> {
        let payload = match catch_unwind(AssertUnwindSafe(|| case.run(run_cfg, Variant::Buggy))) {
            Ok(out) => return Ok(out),
            Err(payload) => payload,
        };
        self.pool = nodefz_rt::LoopPool::new();
        self.handle = TraceHandle::fresh();
        self.status = ReplayStatusHandle::fresh();
        self.logged = ReplayStatusHandle::logging();
        self.events = EventLogHandle::fresh();
        if let Some(obs) = &self.obs {
            obs.reset();
        }
        Err(panic_message(&*payload))
    }

    /// Predicts the races of `case` at `env_seed` from one run: the buggy
    /// variant in the analysis' vanilla posture
    /// ([`nodefz_hb::vanilla_posture`]) on this context's pooled loop, with
    /// the context's event log attached, analyzed straight from that log
    /// ([`AppAnalysis::new`]). A panic comes back as the error, with its
    /// message. Like a replay, the run is neither profiled nor pruned.
    pub(crate) fn analyze(
        &mut self,
        case: &dyn BugCase,
        env_seed: u64,
    ) -> Result<AppAnalysis, String> {
        let run_cfg = RunCfg::new(nodefz_hb::vanilla_posture(&self.handle), env_seed)
            .pooled(&self.pool)
            .events(&self.events);
        self.run_caught(case, &run_cfg)?;
        let trace = self.handle.snapshot();
        Ok(self
            .events
            .with(|log| AppAnalysis::new(case.info().abbr, env_seed, trace, log)))
    }

    /// Replays `trace` against `app` under `env_seed` on this context's
    /// pooled loop; returns whether the run manifested with signature
    /// `expected`. Unknown apps never manifest, and a replay that panics
    /// does not reproduce.
    ///
    /// The one replay path: acceptance replays, `campaign analyze`'s
    /// replay checks and corpus verification run here, and so does every
    /// replay [`RunContext::shrink`] cannot answer from its memo. A replay
    /// is neither profiled nor event-logged: telemetry and pruning count
    /// fuzz runs only.
    pub fn replays_to(
        &mut self,
        app: &str,
        env_seed: u64,
        trace: &DecisionTrace,
        expected: &BugSignature,
    ) -> bool {
        self.replay(app, env_seed, trace, expected, false)
            .unwrap_or(false)
    }

    /// [`RunContext::replays_to`], through the logging handle when
    /// `logged`; `None` when no replay ran to its end (an unknown app, or
    /// a panic), so that there is no log to trust.
    fn replay(
        &mut self,
        app: &str,
        env_seed: u64,
        trace: &DecisionTrace,
        expected: &BugSignature,
        logged: bool,
    ) -> Option<bool> {
        let case = resolve_case(app)?;
        let status = if logged { &self.logged } else { &self.status };
        // The buffer is unshared here: the last replayer and its mode were
        // dropped with their run.
        let replayed = Rc::make_mut(&mut self.replaying);
        replayed.pool_mode = trace.pool_mode;
        replayed.demux_done = trace.demux_done;
        replayed.decisions.clone_from(&trace.decisions);
        let mode = Mode::ReplayShared(Rc::clone(&self.replaying), status.clone());
        let out = self
            .run_caught(&*case, &RunCfg::new(mode, env_seed).pooled(&self.pool))
            .ok()?;
        Some(
            out.manifested
                && expected.matches(app, &out.detail, &out.report.schedule, &mut self.site),
        )
    }

    /// Shrinks `trace`, a run of `app` at `env_seed` that manifested
    /// `expected`, with [`shrink`]; the oracle asks whether a candidate
    /// still replays to `expected`. Returns the shrink's result and the
    /// replays its oracle ran.
    ///
    /// The oracle keeps a [`ReplayMemo`] for this shrink alone. A candidate
    /// on which the replayer would take exactly the decisions of a run
    /// already replayed gets that run's answer without a replay; any other
    /// is replayed on the pooled loop with its consultations logged, and
    /// the log joins the memo. A replay that panics is not stored. The
    /// result is the one a replay per call gives, as long as replays are a
    /// function of their decisions; debug builds assert that no two
    /// replays contradicted each other.
    pub fn shrink(
        &mut self,
        app: &str,
        env_seed: u64,
        trace: &DecisionTrace,
        expected: &BugSignature,
    ) -> (ShrinkResult, u64) {
        let mut memo = ReplayMemo::new();
        let mut replays = 0;
        let result = shrink(trace, |candidate| {
            if let Some(answer) = memo.answer(&candidate.decisions) {
                return answer;
            }
            replays += 1;
            let Some(answer) = self.replay(app, env_seed, candidate, expected, true) else {
                return false;
            };
            self.logged.with_log(|log| memo.insert(log, answer));
            answer
        });
        debug_assert!(
            !memo.contradicted(),
            "two replays of {app} at env seed {env_seed} took the same decisions and disagreed"
        );
        (result, replays)
    }

    /// Acceptance: replays `trace` `checks` times on this context and
    /// returns how many re-manifested `expected`. A repro is persisted
    /// only when all of them did ([`accepted`]).
    pub(crate) fn acceptance(
        &mut self,
        app: &str,
        env_seed: u64,
        trace: &DecisionTrace,
        expected: &BugSignature,
        checks: u32,
    ) -> u32 {
        (0..checks)
            .filter(|_| self.replays_to(app, env_seed, trace, expected))
            .count() as u32
    }

    /// Replays a corpus entry on this context (see [`verify_entry`]).
    ///
    /// # Errors
    ///
    /// Describes the mismatch (no manifestation, or a different signature).
    pub fn verify(&mut self, entry: &CorpusEntry) -> Result<(), String> {
        let expected = entry.signature();
        if self.replays_to(&entry.app, entry.env_seed, &entry.trace, &expected) {
            Ok(())
        } else {
            Err(format!(
                "corpus entry {} did not re-manifest {expected}",
                entry.file_name()
            ))
        }
    }
}

/// Whether a repro passed acceptance: every one of `checks` acceptance
/// replays re-manifested it (`replays_ok` of them did). With no checks,
/// nothing is gated.
pub(crate) fn accepted(replays_ok: u32, checks: u32) -> bool {
    replays_ok == checks
}

/// Replays a corpus entry and checks it still manifests its recorded bug.
///
/// This is the regression path: a corpus saved by one campaign can be
/// verified by any later build. A fresh [`RunContext`] runs the replay;
/// to verify many entries, reuse one through [`RunContext::verify`].
///
/// # Errors
///
/// Describes the mismatch (no manifestation, or a different signature).
pub fn verify_entry(entry: &CorpusEntry) -> Result<(), String> {
    RunContext::new().verify(entry)
}

/// The text of a caught panic.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        return (*text).to_string();
    }
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "a panic with a non-string payload".into())
}

fn worker_loop(queue: &JobQueue, tx: mpsc::Sender<Msg>, level: ObsLevel, prune: bool) {
    let mut ctx = RunContext::new();
    if prune {
        ctx.enable_prune();
    }
    // Above `off`, every fuzz run on this worker is profiled through a
    // thread-local handle (`Rc`-based, so it is created here, not shipped
    // across the spawn); each run's profile travels back with its result.
    let obs = (!level.is_off()).then(nodefz_rt::ObsHandle::new);
    if let Some(obs) = &obs {
        ctx.set_obs(obs.clone());
    }
    while let Some(job) = queue.pop() {
        let msg = match job {
            Job::Fuzz {
                slot,
                arm,
                app,
                preset,
                env_seed,
                directed,
                want_schedule,
            } => {
                let exec = match directed {
                    Some(spec) => ctx.fuzz_directed(&app, spec, env_seed),
                    None => ctx.fuzz_once_sampled(&app, preset, env_seed, want_schedule),
                };
                Msg::FuzzDone(FuzzDone {
                    slot,
                    arm,
                    env_seed,
                    finding: exec.finding,
                    dispatched: exec.dispatched,
                    schedule: exec.schedule,
                    canon: exec.canon.map(|(key, _scope)| key),
                    profile: obs.as_ref().map(|obs| Box::new(LoopProfile::take(obs))),
                    crash: exec.crash,
                })
            }
            Job::Shrink {
                app,
                env_seed,
                trace,
                signature,
                do_shrink,
                replay_checks,
            } => {
                let original_len = trace.decisions.len();
                let (shrunk, oracle_calls, shrink_replays) = if do_shrink {
                    let (result, replays) = ctx.shrink(&app, env_seed, &trace, &signature);
                    (result.trace, result.runs, replays)
                } else {
                    (trace, 0, 0)
                };
                let replays_ok = ctx.acceptance(&app, env_seed, &shrunk, &signature, replay_checks);
                Msg::ShrinkDone {
                    signature,
                    shrunk,
                    original_len,
                    oracle_calls,
                    shrink_replays,
                    replays_ok,
                }
            }
        };
        if tx.send(msg).is_err() {
            return;
        }
    }
}

/// Derives the i-th environment seed of a campaign: the i-th output of
/// the splitmix64 stream starting at `base`.
pub(crate) fn derive_seed(base: u64, i: u64) -> u64 {
    nodefz_rt::splitmix64(base.wrapping_add(i.wrapping_mul(nodefz_rt::GOLDEN_GAMMA)))
}

/// Folds an arm into the campaign base seed so each arm probes its own
/// deterministic seed sequence. How many seeds of each sequence get probed
/// follows from the round-robin pick and the quarantines, which are
/// applied in slot order, so that count too depends only on the flags that
/// choose work (seed, budget, apps, presets), not on the thread count (a
/// deadline cut aside).
fn arm_base(base: u64, arm: &Arm) -> u64 {
    arm_seed(base, &arm.app, arm.preset)
}

/// The (app, preset)-folded base seed of an arm's [`derive_seed`] stream:
/// the fuzz jobs, the directed arm's analysis run, the apicov replay and
/// the `--trace-out` run all draw from it.
pub(crate) fn arm_seed(base: u64, app: &str, preset: usize) -> u64 {
    base ^ nodefz_rt::fnv1a(app.as_bytes()) ^ ((preset as u64) << 56)
}

/// Runs a campaign, invoking `on_event` for live progress.
///
/// # Errors
///
/// Fails on an invalid configuration or a corpus I/O error.
pub fn run_with_progress(
    cfg: &CampaignConfig,
    mut on_event: impl FnMut(&Event),
) -> Result<CampaignReport, String> {
    cfg.validate()?;
    let corpus = match &cfg.corpus_dir {
        Some(dir) => Some(Corpus::open(dir).map_err(|e| format!("corpus: {e}"))?),
        None => None,
    };

    // When the directed preset is armed, analyze one recorded
    // vanilla-posture run per app up front (controller-side, one run per
    // app on one pooled context) and keep the predicted flips. An app's
    // directed arm follows its fuzz arms. Apps with no predictions get no
    // directed arm; an app whose analysis run panicked gets one that is
    // retired before its first pull, and a quarantine that names it.
    let mut analyzer = RunContext::new();
    let mut quarantined: Vec<Quarantine> = Vec::new();
    let mut specs: std::collections::HashMap<String, (u64, Vec<DirectedSpec>)> = Default::default();
    let mut arms: Vec<Arm> = Vec::new();
    let directed = cfg.presets.contains(&DIRECTED_PRESET);
    for app in &cfg.apps {
        arms.extend(
            cfg.presets
                .iter()
                .filter(|&&preset| preset != DIRECTED_PRESET)
                .map(|&preset| Arm::new(app.clone(), preset)),
        );
        if !directed {
            continue;
        }
        let analysis_seed = derive_seed(arm_seed(cfg.base_seed, app, DIRECTED_PRESET), 0);
        let mut arm = Arm::new(app.clone(), DIRECTED_PRESET);
        match directed_specs(&mut analyzer, app, analysis_seed) {
            Ok(app_specs) if app_specs.is_empty() => continue,
            Ok(app_specs) => {
                specs.insert(app.clone(), (analysis_seed, app_specs));
            }
            Err(message) => {
                quarantined.extend(arm.retire(analysis_seed, message).cloned());
            }
        }
        arms.push(arm);
    }
    if arms.is_empty() {
        // Only reachable in a directed-only campaign where no targeted
        // app's analysis predicted a race.
        return Err(format!(
            "no arms: directed analysis predicted no races for {}",
            cfg.apps.join(", ")
        ));
    }
    let mut deduper = Deduper::new();
    // `--prune`: every applied run's canonical key goes into one seen-set,
    // whose counts are the metrics' `pruning` block. Accounting only — the
    // dispatched run stream is identical with pruning on or off (corpora
    // match bytewise).
    let mut seen = cfg.prune.then(|| SeenSet::new(SEEN_CAP));

    // The run counters, summed as results are applied.
    let mut tally = Tally::new(cfg.obs_level);
    let telemetry_on = cfg.metrics_out.is_some();

    let queue = Arc::new(JobQueue::default());
    let (tx, rx) = mpsc::channel::<Msg>();
    let workers: Vec<_> = (0..cfg.threads)
        .map(|me| {
            let queue = queue.clone();
            let tx = tx.clone();
            let (level, prune) = (cfg.obs_level, cfg.prune);
            std::thread::Builder::new()
                .name(format!("campaign-{me}"))
                .spawn(move || worker_loop(&queue, tx, level, prune))
                .expect("spawn worker")
        })
        .collect();
    drop(tx);

    let start = Instant::now();
    let mut hit_deadline = false;
    // Fuzz jobs dispatched (the next job's slot) and results applied.
    let mut next_slot = 0u64;
    let mut applied = 0u64;
    // Results that arrived before an earlier slot's, held until their turn.
    let mut held: BTreeMap<u64, FuzzDone> = BTreeMap::new();
    let mut shrinks_pending = 0u64;
    // Telemetry series the controller owns: the discovery curve and the
    // per-arm schedule samples feeding the diversity summary.
    let mut discovery: Vec<Discovery> = Vec::new();
    let mut arm_schedules: Vec<Vec<TypeSchedule>> = vec![Vec::new(); arms.len()];
    let mut last_metrics = Instant::now();
    // Set once every arm is quarantined: nothing is left to dispatch.
    let mut exhausted = false;

    // Dispatches the next fuzz job; false when every arm is retired.
    let dispatch = |arms: &mut [Arm], next_slot: &mut u64| {
        let Some(i) = pick(arms) else {
            return false;
        };
        let arm = &arms[i];
        // Pulls before this one: the arm's position in its seed stream.
        let pull = arm.pulls - 1;
        // The directed arm cycles predicted flips and bumps the retry
        // attempt each full cycle; its env seed is pinned to the analyzed
        // run's, because the replayed prefix only makes sense against the
        // same modelled environment. Ordinary arms scan derived seeds.
        let (env_seed, directed) = if arm.preset == DIRECTED_PRESET {
            let (analysis_seed, app_specs) =
                specs.get(&arm.app).expect("directed arm implies specs");
            let spec = app_specs[(pull as usize) % app_specs.len()].clone();
            let attempt = pull / app_specs.len() as u64;
            (*analysis_seed, Some(spec.with_attempt(attempt)))
        } else {
            (derive_seed(arm_base(cfg.base_seed, arm), pull), None)
        };
        // Sample the first few runs of each arm for diversity. Decided by
        // pull index, so sampling is as deterministic as the seed stream.
        let want_schedule = telemetry_on && pull < SCHEDULE_SAMPLES;
        queue.push(Job::Fuzz {
            slot: *next_slot,
            arm: i,
            app: arm.app.clone(),
            preset: arm.preset,
            env_seed,
            directed,
            want_schedule,
        });
        *next_slot += 1;
        true
    };

    while !exhausted && next_slot < cfg.budget.min(WINDOW) {
        exhausted = !dispatch(&mut arms, &mut next_slot);
    }

    let mut failure = None;
    loop {
        let deadline_passed = cfg.deadline.is_some_and(|d| start.elapsed() >= d);
        if deadline_passed && !hit_deadline {
            hit_deadline = true;
            on_event(&Event::DeadlineHit);
        }
        if applied >= next_slot
            && shrinks_pending == 0
            && (applied >= cfg.budget || hit_deadline || exhausted)
        {
            break;
        }
        let msg = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(msg) => msg,
            Err(mpsc::RecvTimeoutError::Timeout) if !workers.iter().any(|w| w.is_finished()) => {
                continue
            }
            // Workers end only once the queue closes, so a finished one
            // died outside a case run (`RunContext` catches those panics)
            // and the results it held will never come. Its join error,
            // below, fails the campaign.
            Err(_) => break,
        };
        match msg {
            Msg::FuzzDone(done) => {
                held.insert(done.slot, done);
                while let Some(done) = held.remove(&applied) {
                    applied += 1;
                    let (i, finding) = (done.arm, done.finding);
                    tally.add(done.dispatched, finding.is_some(), done.profile.as_deref());
                    if let (Some(seen), Some(key)) = (seen.as_mut(), done.canon) {
                        seen.insert(key);
                    }
                    if let Some(schedule) = done.schedule {
                        arm_schedules[i].push(schedule);
                    }
                    // A run that panicked retires its arm; the arm's runs
                    // already in flight still apply.
                    if let Some(message) = done.crash {
                        quarantined.extend(arms[i].retire(done.env_seed, message).cloned());
                    }
                    let arm = &arms[i];
                    // Only a new bug's trace and signature are copied out,
                    // for its shrink job; a known bug's hit just counts.
                    if let Some(new) = finding.and_then(|f| deduper.insert(f)) {
                        let (signature, env_seed) = (&new.first.signature, new.first.env_seed);
                        on_event(&Event::NewBug {
                            signature: signature.clone(),
                            env_seed,
                        });
                        discovery.push(Discovery {
                            signature: signature.to_string(),
                            app: arm.app.clone(),
                            site: signature.site.clone(),
                            // `applied` only moves forward and at most one
                            // signature is new per run, so the curve is
                            // monotone by construction.
                            first_exec: applied,
                            first_ms: start.elapsed().as_millis() as u64,
                        });
                        queue.push(Job::Shrink {
                            app: arm.app.clone(),
                            env_seed,
                            trace: new.first.trace.clone(),
                            signature: signature.clone(),
                            do_shrink: cfg.shrink,
                            replay_checks: cfg.replay_checks,
                        });
                        shrinks_pending += 1;
                    }
                    on_event(&Event::Run {
                        completed: applied,
                        budget: cfg.budget,
                    });
                    if !hit_deadline && !exhausted && next_slot < cfg.budget {
                        exhausted = !dispatch(&mut arms, &mut next_slot);
                    }
                }
            }
            Msg::ShrinkDone {
                signature,
                shrunk,
                original_len,
                oracle_calls,
                shrink_replays,
                replays_ok,
            } => {
                shrinks_pending -= 1;
                let persisted = accepted(replays_ok, cfg.replay_checks);
                on_event(&Event::Shrunk {
                    signature: signature.clone(),
                    from: original_len,
                    to: shrunk.decisions.len(),
                    replays_ok,
                    oracle_calls,
                    shrink_replays,
                    persisted,
                });
                deduper.attach_shrunk(&signature, shrunk, oracle_calls, shrink_replays, replays_ok);
                // Persist the repro the moment it is ready instead of only
                // at drain: if this process dies mid-campaign (killed, or
                // a case that aborts), the corpus on disk is a valid
                // partial result. The drain-time pass below re-saves every
                // accepted record with final hit counts.
                let record = deduper.record_for(&signature).filter(|_| persisted);
                if let (Some(corpus), Some(record)) = (&corpus, record) {
                    if let Err(e) = corpus.save(&record_to_entry(record)) {
                        failure = Some(format!("corpus: {e}"));
                        break;
                    }
                }
            }
        }
        if let Some(path) = &cfg.metrics_out {
            if last_metrics.elapsed() >= METRICS_INTERVAL {
                last_metrics = Instant::now();
                if let Err(e) = write_metrics(
                    path,
                    cfg,
                    start,
                    false,
                    &arms,
                    &arm_schedules,
                    &discovery,
                    &tally,
                    deduper.records().len() as u64,
                    seen.as_ref(),
                ) {
                    failure = Some(e);
                    break;
                }
            }
        }
    }

    queue.close();
    for w in workers {
        if let Err(payload) = w.join() {
            failure.get_or_insert_with(|| {
                format!("a campaign worker died: {}", panic_message(&*payload))
            });
        }
    }
    if let Some(e) = failure {
        return Err(e);
    }

    if let Some(path) = &cfg.metrics_out {
        write_metrics(
            path,
            cfg,
            start,
            true,
            &arms,
            &arm_schedules,
            &discovery,
            &tally,
            deduper.records().len() as u64,
            seen.as_ref(),
        )?;
    }
    if let Some(path) = &cfg.trace_out {
        write_trace(path, cfg)?;
    }

    if let Some(corpus) = &corpus {
        for record in deduper.records() {
            if accepted(record.replays_ok, cfg.replay_checks) {
                let entry = record_to_entry(record);
                corpus.save(&entry).map_err(|e| format!("corpus: {e}"))?;
            }
        }
    }

    let bugs = deduper
        .records()
        .into_iter()
        .map(|record| {
            let original_len = record.first.trace.decisions.len();
            BugSummary {
                app: record.first.app.clone(),
                site: record.first.signature.site.clone(),
                hits: record.hits,
                first_seed: record.first.env_seed,
                original_len,
                shrunk_len: record
                    .shrunk
                    .as_ref()
                    .map_or(original_len, |t| t.decisions.len()),
                replays_ok: record.replays_ok,
                oracle_calls: record.oracle_calls,
                shrink_replays: record.shrink_replays,
                persisted: accepted(record.replays_ok, cfg.replay_checks),
            }
        })
        .collect();
    let arms = arms
        .iter()
        .map(|arm| (arm.app.clone(), preset_name(arm.preset), arm.pulls))
        .collect();
    Ok(CampaignReport {
        runs: applied,
        elapsed: start.elapsed(),
        bugs,
        arms,
        hit_deadline,
        quarantined,
    })
}

/// Runs a campaign without progress reporting.
///
/// # Errors
///
/// Fails on an invalid configuration or a corpus I/O error.
pub fn run(cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    run_with_progress(cfg, |_| {})
}

/// Writes one `nodefz-metrics-v1` document: the tally and controller
/// state as of the last applied result.
#[allow(clippy::too_many_arguments)]
fn write_metrics(
    path: &std::path::Path,
    cfg: &CampaignConfig,
    start: Instant,
    finished: bool,
    arms: &[Arm],
    arm_schedules: &[Vec<TypeSchedule>],
    discovery: &[Discovery],
    tally: &Tally,
    unique_bugs: u64,
    seen: Option<&SeenSet>,
) -> Result<(), String> {
    let mut snapshot = metrics::collect(
        start.elapsed(),
        cfg.budget,
        unique_bugs,
        finished,
        arms,
        arm_schedules,
        discovery,
        tally,
        seen,
    );
    if finished {
        snapshot.apicov = conform_apicov(cfg, arms);
    }
    // Atomic (temp file + rename): the snapshot is rewritten while the
    // campaign runs, so a reader polling it must never see a torn
    // document, and a campaign killed mid-write must never leave one.
    nodefz_obs::write_atomic(path, &snapshot.to_json())
        .map_err(|e| format!("metrics: cannot write {}: {e}", path.display()))
}

/// How many pulls per `CONFORM-API` arm the final apicov accounting
/// replays. Coverage saturates well within 100 programs (the frozen
/// golden batch covers the full enumerated surface), so the cap bounds
/// the controller-side replay without losing information.
const APICOV_REPLAY_CAP: u64 = 500;

/// API-surface coverage of the campaign's `CONFORM-API` pulls, or `None`
/// when no such arm was pulled.
///
/// The conform case regenerates its program purely from the run's
/// environment seed, so replaying the head of each arm's deterministic
/// seed stream (`derive_seed(arm_base(..), pull)` — exactly the sequence
/// the workers consumed) under vanilla scheduling reconstructs the very
/// programs the campaign exercised and folds them into one
/// `nodefz-apicov-v1` snapshot. Runs on the controller at the final
/// metrics write only.
fn conform_apicov(cfg: &CampaignConfig, arms: &[Arm]) -> Option<nodefz_conform::ApiCovSnapshot> {
    let mut cov = nodefz_conform::ApiCoverage::default();
    let mut pulled = false;
    for arm in arms {
        if !arm.app.eq_ignore_ascii_case(nodefz_conform::API_ABBR) || arm.pulls == 0 {
            continue;
        }
        pulled = true;
        let base = arm_base(cfg.base_seed, arm);
        for pull in 0..arm.pulls.min(APICOV_REPLAY_CAP) {
            let seed = derive_seed(base, pull);
            let prog = std::rc::Rc::new(nodefz_conform::generate(seed));
            cov.record_vanilla(&prog, seed, &None);
        }
    }
    pulled.then(|| cov.snapshot())
}

/// Runs one dedicated instrumented execution after the campaign drains and
/// writes its loop-phase/callback timeline as a chrome://tracing document
/// (loadable in Perfetto). Workers never collect per-event traces — one
/// representative run is cheap and its schedule is deterministic: the
/// first app, the first preset, the arm's first derived seed.
fn write_trace(path: &std::path::Path, cfg: &CampaignConfig) -> Result<(), String> {
    use std::cell::RefCell;
    use std::rc::Rc;

    let app = cfg.apps.first().expect("validated: at least one app");
    let sink = Rc::new(RefCell::new(crate::chrome::ChromeTrace::default()));
    let mut ctx = RunContext::new();
    ctx.set_obs(nodefz_rt::ObsHandle::with_sink(sink.clone()));
    let env_seed = derive_seed(arm_seed(cfg.base_seed, app, 0), 0);
    ctx.fuzz_once(app, 0, env_seed);
    let json = sink.borrow().to_json();
    std::fs::write(path, json).map_err(|e| format!("trace: cannot write {}: {e}", path.display()))
}

pub(crate) fn record_to_entry(record: &BugRecord) -> CorpusEntry {
    CorpusEntry {
        app: record.first.app.clone(),
        env_seed: record.first.env_seed,
        site: record.first.signature.site.clone(),
        kinds: record.first.signature.kinds,
        hits: record.hits,
        replays_ok: record.replays_ok,
        trace: record
            .shrunk
            .clone()
            .unwrap_or_else(|| record.first.trace.clone()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nodefz_apps::common::{BugInfo, RaceType};
    use nodefz_obs::JsonValue;

    /// The abbreviation [`resolve_case`] resolves to [`Panicky`], in test
    /// builds only.
    pub(crate) const PANICKY: &str = "PANICKY";

    /// A test-only app: four timers, the third of which panics mid-run on
    /// every env seed [`panics`] picks. Nothing else ever manifests.
    pub(super) struct Panicky;

    pub(crate) fn panics(env_seed: u64) -> bool {
        env_seed.is_multiple_of(4)
    }

    impl BugCase for Panicky {
        fn info(&self) -> BugInfo {
            BugInfo {
                abbr: PANICKY,
                name: "panicking test app",
                bug_ref: "-",
                race: RaceType::TimeRace,
                racing_events: "Timer",
                race_on: "-",
                impact: "the case panics",
                fix: "-",
                in_fig6: false,
                novel: false,
            }
        }

        fn run(&self, cfg: &RunCfg, _variant: Variant) -> Outcome {
            let mut el = cfg.build_loop();
            let env_seed = cfg.env_seed;
            el.enter(move |cx| {
                for i in 0..4 {
                    cx.set_timeout(nodefz_rt::VDur::millis(i), move |_| {
                        if i == 2 && panics(env_seed) {
                            panic!("panicky app: env seed {env_seed}");
                        }
                    });
                }
            });
            Outcome {
                manifested: false,
                detail: String::new(),
                report: el.run(),
            }
        }
    }

    /// The abbreviation [`resolve_case`] resolves to [`Flaky`], in test
    /// builds only.
    pub(crate) const FLAKY: &str = "FLAKY";

    /// A test-only app that manifests on every run except a replay, so its
    /// repro never passes acceptance. Its two pool tasks write one site,
    /// so `campaign analyze` predicts a race between them.
    pub(crate) struct Flaky;

    impl BugCase for Flaky {
        fn info(&self) -> BugInfo {
            BugInfo {
                abbr: FLAKY,
                name: "flaky test app",
                bug_ref: "-",
                race: RaceType::Cov,
                racing_events: "Pool",
                race_on: "-",
                impact: "manifests unless replayed",
                fix: "-",
                in_fig6: false,
                novel: false,
            }
        }

        fn run(&self, cfg: &RunCfg, _variant: Variant) -> Outcome {
            let mut el = cfg.build_loop();
            el.enter(|cx| {
                for cost in [1, 2] {
                    cx.submit_work(
                        nodefz_rt::VDur::millis(cost),
                        |_| (),
                        |cx, ()| cx.touch_write("flaky:slot"),
                    )
                    .unwrap();
                }
            });
            Outcome {
                manifested: !matches!(cfg.mode, Mode::Replay(..) | Mode::ReplayShared(..)),
                detail: "flaky: manifests unless replayed".into(),
                report: el.run(),
            }
        }
    }

    /// A GHO plus [`Flaky`] campaign with `replay_checks` acceptance
    /// replays: its report and the names of the repros it wrote.
    fn flaky_campaign(replay_checks: u32) -> (CampaignReport, Vec<String>) {
        let dir = std::env::temp_dir().join(format!(
            "nodefz-flaky-{replay_checks}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_or_hang(CampaignConfig {
            threads: 2,
            budget: 60,
            apps: vec!["GHO".into(), FLAKY.into()],
            base_seed: 5,
            replay_checks,
            corpus_dir: Some(dir.clone()),
            ..CampaignConfig::default()
        });
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let _ = std::fs::remove_dir_all(&dir);
        (report, names)
    }

    #[test]
    fn a_repro_that_fails_acceptance_is_named_and_not_written() {
        let (report, corpus) = flaky_campaign(3);
        let flaky = report.bugs.iter().find(|b| b.app == FLAKY);
        let flaky = flaky.unwrap_or_else(|| panic!("FLAKY manifests: {:?}", report.bugs));
        assert_eq!((flaky.replays_ok, flaky.persisted), (0, false));
        assert_eq!(
            flaky.shrunk_len, flaky.original_len,
            "no candidate re-manifests, so nothing shrinks"
        );
        assert!(flaky.shrink_replays <= flaky.oracle_calls);
        let gho = report.bugs.iter().find(|b| b.app == "GHO");
        let gho = gho.unwrap_or_else(|| panic!("GHO manifests: {:?}", report.bugs));
        assert_eq!((gho.replays_ok, gho.persisted), (3, true));
        assert!(
            corpus.iter().any(|name| name.starts_with("gho-")),
            "{corpus:?}"
        );
        assert!(
            !corpus.iter().any(|name| name.starts_with("flaky-")),
            "{corpus:?}"
        );
        let summary = crate::report::render_summary(&report);
        assert!(summary.contains("(1 not persisted"), "{summary}");
        assert!(
            summary
                .lines()
                .any(|line| line.contains(FLAKY) && line.ends_with("NOT PERSISTED")),
            "{summary}"
        );

        // Without acceptance replays nothing is gated.
        let (report, corpus) = flaky_campaign(0);
        assert!(report.bugs.iter().all(|b| b.persisted), "{:?}", report.bugs);
        assert!(
            corpus.iter().any(|name| name.starts_with("flaky-")),
            "{corpus:?}"
        );
    }

    #[test]
    fn analyze_writes_no_repro_that_fails_acceptance() {
        let dir = std::env::temp_dir().join(format!("nodefz-flaky-analyze-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = crate::AnalyzeConfig {
            apps: vec![FLAKY.into(), "GHO".into()],
            corpus_dir: Some(dir.clone()),
            ..crate::AnalyzeConfig::default()
        };
        let report = crate::analyze_campaign(&cfg).unwrap();
        let confirmed: Vec<&str> = report.confirmed.iter().map(|c| c.app.as_str()).collect();
        assert_eq!(confirmed, [FLAKY, "GHO"], "{:?}", report.confirmed);
        let dropped: Vec<(&str, u32)> = report
            .not_persisted
            .iter()
            .map(|(sig, ok)| (sig.app.as_str(), *ok))
            .collect();
        assert_eq!(dropped, [(FLAKY, 0)]);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(names.len(), 1, "{names:?}");
        assert!(names[0].starts_with("gho-"), "{names:?}");
    }

    /// What a campaign over GHO and [`Panicky`] returned and wrote: its
    /// report, its corpus files and its final metrics document.
    type Written = (CampaignReport, Vec<(String, Vec<u8>)>, String);

    /// Runs a campaign on a helper thread, so a hang fails the test
    /// instead of stalling the suite.
    fn run_or_hang(cfg: CampaignConfig) -> CampaignReport {
        let threads = cfg.threads;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(run(&cfg)));
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(result) => {
                result.unwrap_or_else(|e| panic!("the campaign failed at {threads} threads: {e}"))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("the campaign hung at {threads} threads")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("the campaign panicked at {threads} threads")
            }
        }
    }

    fn panicky_campaign(threads: usize, base_seed: u64, directed: bool) -> Written {
        let dir = std::env::temp_dir().join(format!(
            "nodefz-panicky-{threads}-{base_seed}-{directed}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut presets = CampaignConfig::default().presets;
        if directed {
            presets.push(DIRECTED_PRESET);
        }
        let report = run_or_hang(CampaignConfig {
            threads,
            budget: 200,
            apps: vec!["GHO".into(), PANICKY.into()],
            presets,
            base_seed,
            replay_checks: 2,
            corpus_dir: Some(dir.join("corpus")),
            metrics_out: Some(dir.join("metrics.json")),
            ..CampaignConfig::default()
        });
        let mut corpus: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("corpus"))
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(entry.path()).unwrap())
            })
            .collect();
        corpus.sort();
        let metrics = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (report, corpus, metrics)
    }

    /// Each `arms[]` row of a metrics document: the arm's label
    /// (`"GHO/guided"`) and its `quarantine` value.
    fn quarantine_rows(metrics: &str) -> Vec<(String, JsonValue)> {
        let doc = JsonValue::parse(metrics).expect("the metrics document parses");
        let rows = doc
            .get("arms")
            .and_then(JsonValue::as_array)
            .expect("arms[]");
        rows.iter()
            .map(|row| {
                let field = |key| row.get(key).and_then(JsonValue::as_str).expect(key);
                let quarantine = row.get("quarantine").expect("every row has the key");
                (
                    format!("{}/{}", field("app"), field("preset")),
                    quarantine.clone(),
                )
            })
            .collect()
    }

    /// Checks that the metrics rows of the report's quarantined arms carry
    /// each quarantine's env seed and message, and every other row `null`.
    fn assert_rows_match(report: &CampaignReport, metrics: &str) {
        let rows = quarantine_rows(metrics);
        assert_eq!(rows.len(), report.arms.len());
        for (label, value) in &rows {
            match report
                .quarantined
                .iter()
                .find(|q| *label == format!("{}/{}", q.app, q.preset))
            {
                Some(q) => {
                    let want = JsonValue::Obj(vec![
                        ("env_seed".into(), JsonValue::U64(q.env_seed)),
                        ("message".into(), JsonValue::Str(q.message.clone())),
                    ]);
                    assert_eq!(*value, want, "{label}");
                }
                None => assert!(value.is_null(), "{label}: {value:?}"),
            }
        }
    }

    #[test]
    fn a_panicking_run_quarantines_its_arm_at_any_thread_count() {
        let (report, corpus, metrics) = panicky_campaign(1, 5, false);
        assert_eq!(report.runs, 200, "the GHO arms spend the whole budget");
        assert!(
            report.bugs.iter().any(|b| b.app == "GHO"),
            "GHO's planted bug is found: {:?}",
            report.bugs
        );
        let mut presets: Vec<&str> = report.quarantined.iter().map(|q| q.preset).collect();
        presets.sort_unstable();
        assert_eq!(presets, ["aggressive", "guided", "standard"]);
        for q in &report.quarantined {
            assert_eq!(q.app, PANICKY);
            assert!(panics(q.env_seed), "{q:?}");
            assert_eq!(q.message, format!("panicky app: env seed {}", q.env_seed));
        }
        assert_rows_match(&report, &metrics);
        assert!(!corpus.is_empty());
        assert!(corpus.iter().all(|(name, _)| name.starts_with("gho-")));

        for threads in [2, 4] {
            let (other, other_corpus, other_metrics) = panicky_campaign(threads, 5, false);
            assert_eq!(other.runs, report.runs, "{threads} threads");
            assert_eq!(other.quarantined, report.quarantined, "{threads} threads");
            assert!(
                other_corpus == corpus,
                "corpus differs at {threads} threads"
            );
            assert_rows_match(&other, &other_metrics);
        }
    }

    #[test]
    fn a_directed_analysis_that_panics_quarantines_the_directed_arm() {
        // At base seed 1, PANICKY's analysis seed is one that panics.
        let (report, corpus, metrics) = panicky_campaign(1, 1, true);
        assert!(
            report.bugs.iter().any(|b| b.app == "GHO"),
            "GHO's planted bug is found: {:?}",
            report.bugs
        );
        let q = report
            .quarantined
            .iter()
            .find(|q| q.app == PANICKY && q.preset == "directed")
            .unwrap_or_else(|| panic!("no directed quarantine: {:?}", report.quarantined));
        let analysis_seed = derive_seed(arm_seed(1, PANICKY, DIRECTED_PRESET), 0);
        assert_eq!(q.env_seed, analysis_seed);
        assert!(panics(q.env_seed), "{q:?}");
        assert_eq!(q.message, format!("panicky app: env seed {}", q.env_seed));
        assert_rows_match(&report, &metrics);
        let directed = quarantine_rows(&metrics)
            .into_iter()
            .find(|(label, _)| *label == format!("{PANICKY}/directed"));
        let seed = directed.and_then(|(_, q)| q.get("env_seed").and_then(JsonValue::as_u64));
        assert_eq!(seed, Some(analysis_seed), "the analysis seed is on the row");
        assert!(
            report.arms.contains(&(PANICKY.into(), "directed", 0)),
            "the directed arm gets no runs: {:?}",
            report.arms
        );
        assert!(report
            .arms
            .iter()
            .any(|(app, preset, pulls)| app == "GHO" && *preset == "directed" && *pulls > 0));
        for threads in [2, 4] {
            let (other, other_corpus, other_metrics) = panicky_campaign(threads, 1, true);
            assert_eq!(other.quarantined, report.quarantined, "{threads} threads");
            assert!(
                other_corpus == corpus,
                "corpus differs at {threads} threads"
            );
            assert_rows_match(&other, &other_metrics);
        }
    }

    #[test]
    fn a_campaign_stops_dispatching_once_every_arm_is_quarantined() {
        let report = run_or_hang(CampaignConfig {
            threads: 2,
            budget: 200,
            apps: vec![PANICKY.into()],
            base_seed: 5,
            ..CampaignConfig::default()
        });
        assert_eq!(report.quarantined.len(), 3);
        assert!(report.runs < 200, "{} runs", report.runs);
        assert!(report.bugs.is_empty());
    }

    #[test]
    fn a_caught_panic_leaves_nothing_for_the_next_run() {
        let gho_seed = (0..64)
            .find(|&seed| {
                RunContext::new()
                    .fuzz_once("GHO", 0, seed)
                    .finding
                    .is_some()
            })
            .expect("GHO manifests");
        let mut fresh = RunContext::new();
        fresh.enable_prune();
        let clean = fresh.fuzz_once("GHO", 0, gho_seed);

        let mut ctx = RunContext::new();
        ctx.enable_prune();
        let obs = nodefz_rt::ObsHandle::new();
        ctx.set_obs(obs.clone());
        let crashed = ctx.fuzz_once(PANICKY, 0, 8);
        assert_eq!(crashed.crash.as_deref(), Some("panicky app: env seed 8"));
        assert!(crashed.finding.is_none() && crashed.canon.is_none());
        assert_eq!(obs.dispatched(), 0, "the panicked run's profile is dropped");

        let after = ctx.fuzz_once("GHO", 0, gho_seed);
        assert!(after.crash.is_none());
        assert_eq!(after.dispatched, clean.dispatched);
        assert_eq!(after.canon, clean.canon);
        let (a, b) = (after.finding.unwrap(), clean.finding.unwrap());
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.detail, b.detail);

        assert!(!ctx.replays_to(PANICKY, 8, &a.trace, &a.signature));
        assert!(ctx.replays_to("GHO", gho_seed, &a.trace, &a.signature));
    }

    #[test]
    fn a_recycled_event_log_records_what_a_fresh_one_does() {
        let arms: Vec<(&str, usize)> = nodefz_apps::registry()
            .iter()
            .map(|case| case.info())
            .filter(|info| info.in_fig6)
            .flat_map(|info| (0..crate::PRESETS.len()).map(move |preset| (info.abbr, preset)))
            .collect();
        assert_eq!(arms.len(), 39, "fig6 arms");
        let mut recycled = RunContext::new();
        recycled.enable_prune();
        for env_seed in 0..3 * arms.len() as u64 {
            let (app, preset) = arms[env_seed as usize % arms.len()];
            let kept = recycled.fuzz_once(app, preset, env_seed);
            let mut fresh = RunContext::new();
            fresh.enable_prune();
            let new = fresh.fuzz_once(app, preset, env_seed);
            assert!(kept.canon.is_some(), "{app}/{preset} at {env_seed}: no key");
            assert_eq!(kept.canon, new.canon, "{app}/{preset} at {env_seed}");
            let (kept, new) = (recycled.events.snapshot(), fresh.events.snapshot());
            assert_eq!(kept.events, new.events, "{app}/{preset} at {env_seed}");
            assert_eq!(kept.accesses, new.accesses, "{app}/{preset} at {env_seed}");
            assert_eq!(kept.sites, new.sites, "{app}/{preset} at {env_seed}");
        }
    }

    #[test]
    fn a_replay_that_panics_is_not_memoized() {
        // Every candidate takes the same decisions: run each timer.
        let trace = DecisionTrace {
            pool_mode: nodefz_rt::PoolMode::Concurrent { workers: 4 },
            demux_done: false,
            decisions: vec![nodefz::Decision::Timer(None); 4],
        };
        let signature = BugSignature {
            app: PANICKY.into(),
            site: "-".into(),
            kinds: 0,
        };
        let mut ctx = RunContext::new();
        let (calm, calm_replays) = ctx.shrink(PANICKY, 9, &trace, &signature);
        assert!(calm.runs > 1, "{calm:?}");
        assert_eq!(calm_replays, 1, "the memo answers the repeats");
        let (panicking, panicking_replays) = ctx.shrink(PANICKY, 8, &trace, &signature);
        assert_eq!(panicking.runs, calm.runs);
        assert_eq!(
            panicking_replays, panicking.runs,
            "a panicked replay is never stored, so every call replays"
        );
    }

    fn numbered_arms(n: usize) -> Vec<Arm> {
        (0..n).map(|i| Arm::new(format!("A{i}"), 0)).collect()
    }

    /// Retires `arm` as a panic would; returns whether it was still live.
    fn retire(arm: &mut Arm) -> bool {
        arm.retire(0, "test panic".into()).is_some()
    }

    #[test]
    fn every_arm_is_tried_before_any_repeats() {
        let mut arms = numbered_arms(4);
        let firsts: Vec<usize> = (0..4).map(|_| pick(&mut arms).unwrap()).collect();
        assert_eq!(firsts, [3, 2, 1, 0], "ties go to the later arm");
    }

    #[test]
    fn live_arms_stay_within_one_pull_of_each_other() {
        let mut arms = numbered_arms(5);
        for n in 0..1000 {
            if n == 337 {
                assert!(retire(&mut arms[1]));
            }
            let i = pick(&mut arms).unwrap();
            assert!(arms[i].quarantine.is_none());
            let live: Vec<u64> = arms
                .iter()
                .filter(|a| a.quarantine.is_none())
                .map(|a| a.pulls)
                .collect();
            let (lo, hi) = (live.iter().min().unwrap(), live.iter().max().unwrap());
            assert!(hi - lo <= 1, "after {} picks: {live:?}", n + 1);
        }
    }

    #[test]
    fn a_retired_arms_turn_passes_to_the_next_live_arm() {
        let mut arms = numbered_arms(4);
        assert_eq!(pick(&mut arms), Some(3));
        assert_eq!(pick(&mut arms), Some(2));
        assert!(retire(&mut arms[1]));
        let picks: Vec<usize> = (0..7).map(|_| pick(&mut arms).unwrap()).collect();
        assert_eq!(picks, [0, 3, 2, 0, 3, 2, 0]);
        assert_eq!(arms[1].pulls, 0);
    }

    #[test]
    fn retired_arms_are_never_picked() {
        let mut arms = numbered_arms(2);
        assert!(retire(&mut arms[1]));
        assert!(!retire(&mut arms[1]), "an arm retires once");
        for _ in 0..20 {
            assert_eq!(pick(&mut arms), Some(0));
        }
        assert!(retire(&mut arms[0]));
        assert_eq!(pick(&mut arms), None, "all retired means no pick");
        assert_eq!(arms[0].pulls, 20, "a refused pick is not counted");
    }

    #[test]
    fn derived_seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(1, i)).collect();
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(derive_seed(1, 5), derive_seed(1, 5));
        assert_ne!(derive_seed(1, 5), derive_seed(2, 5));
    }
}
