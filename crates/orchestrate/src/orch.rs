//! The orchestration loop: rounds of budget slices across worker
//! processes, cross-shard merge, rollup reporting.
//!
//! One campaign [`Bandit`] allocates budget slices over the enumerated
//! app × preset × mode space, exactly as a single campaign allocates its
//! runs: a slice is one pull, and its reward is the number of new
//! signatures it added to the merged corpus. Round 0 takes one pick per
//! arm — the bandit's optimistic start plays every unpulled arm before any
//! arm twice, so the whole grid is touched once — and every later round
//! takes `--slices` picks. Work items are identified by a global spawn
//! index; results are processed **in index order**, not completion order,
//! and each item's seed derives from (arm, per-arm pull count) only — so
//! the found-bug set and the bandit trajectory are invariant to the shard
//! count, which merely bounds how many workers run at once.
//!
//! Crash robustness: a worker that exits nonzero, dies on a signal, or
//! outlives the worker deadline quarantines its arm (the bandit retires
//! it) for the rest of the campaign; whatever its shard corpus holds is
//! salvaged into the merge and the round continues.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Duration;

use nodefz_campaign::bandit::Bandit;
use nodefz_campaign::{arm_space, ArmSpec};
use nodefz_obs::{Journal, JournalEvent, JsonValue, JsonWriter, WorkerState, JOURNAL_CAP};
use nodefz_rt::{fnv1a, splitmix64, GOLDEN_GAMMA};

use crate::merge::MergedCorpus;
use crate::worker::{self, Outcome, WorkItem};

/// Everything an orchestrated campaign needs.
#[derive(Clone, Debug)]
pub struct OrchConfig {
    /// Bug abbreviations whose arm space to enumerate.
    pub apps: Vec<String>,
    /// Maximum concurrently running worker processes.
    pub shards: usize,
    /// Total rounds, including round 0 (one slice per arm).
    pub rounds: u32,
    /// Slices per round after round 0 (`None` = one per enumerated arm).
    pub slices_per_round: Option<usize>,
    /// Fuzz runs per budget slice.
    pub slice_budget: u64,
    /// Base environment seed; work-item seeds derive from it.
    pub base_seed: u64,
    /// Scratch directory for per-slice work dirs.
    pub workdir: PathBuf,
    /// Canonical merged corpus (`None` = `{workdir}/corpus`).
    pub merged_corpus: Option<PathBuf>,
    /// Where to write the `nodefz-orch-v1` rollup, refreshed per round
    /// (`None` = no rollup file).
    pub orch_out: Option<PathBuf>,
    /// Kill-and-quarantine deadline per worker.
    pub worker_deadline: Duration,
    /// The campaign binary to spawn workers from.
    pub worker_bin: PathBuf,
    /// Sabotage the work item with this global index (testing).
    pub induce_crash: Option<usize>,
    /// Replay acceptance checks forwarded to workers.
    pub replay_checks: u32,
    /// Forward `--prune` to workers: each child campaign classifies its
    /// runs into happens-before equivalence classes and reports pruning
    /// counters in its metrics snapshot, which the rollup aggregates per
    /// arm.
    pub prune: bool,
}

impl Default for OrchConfig {
    fn default() -> OrchConfig {
        OrchConfig {
            apps: Vec::new(),
            shards: 2,
            rounds: 3,
            slices_per_round: None,
            slice_budget: 40,
            base_seed: 1,
            workdir: PathBuf::from("nodefz-orch"),
            merged_corpus: None,
            orch_out: None,
            worker_deadline: Duration::from_secs(120),
            worker_bin: PathBuf::new(),
            induce_crash: None,
            replay_checks: 10,
            prune: false,
        }
    }
}

impl OrchConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.apps.is_empty() {
            return Err("at least one app must be targeted".into());
        }
        if self.shards == 0 {
            return Err("shards must be at least 1".into());
        }
        if self.rounds == 0 {
            return Err("rounds must be at least 1".into());
        }
        if self.slice_budget == 0 {
            return Err("round budget must be at least 1 run".into());
        }
        if self.worker_bin.as_os_str().is_empty() {
            return Err("worker binary path is empty".into());
        }
        nodefz_campaign::reject_duplicate_apps(&self.apps)
    }

    /// The canonical merged corpus directory.
    pub fn merged_corpus_dir(&self) -> PathBuf {
        self.merged_corpus
            .clone()
            .unwrap_or_else(|| self.workdir.join("corpus"))
    }
}

/// Pruning counters one worker reported — the optional `pruning` block
/// of its `nodefz-metrics-v1` snapshot, present when the child campaign
/// ran with `--prune`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkPruning {
    /// Runs the child's pruner classified.
    pub runs: u64,
    /// Runs landing in a fresh happens-before class (seen-set inserts).
    pub distinct: u64,
    /// Runs landing in an already-seen class.
    pub redundant: u64,
}

impl WorkPruning {
    fn add(&mut self, other: &WorkPruning) {
        self.runs += other.runs;
        self.distinct += other.distinct;
        self.redundant += other.redundant;
    }

    fn write_fields(&self, w: &mut JsonWriter) {
        w.field_u64("runs", self.runs);
        w.field_u64("distinct", self.distinct);
        w.field_u64("redundant", self.redundant);
    }
}

/// One orchestrated arm's standing, for the rollup: the bandit's view of
/// it plus what its slices contributed.
#[derive(Clone, Debug)]
pub struct ArmState {
    /// What the arm runs.
    pub spec: ArmSpec,
    /// Budget slices played on this arm so far.
    pub pulls: u64,
    /// The bandit's recent-yield EMA for the arm.
    pub mean_reward: f64,
    /// The UCB score the bandit's next pick ranks the arm by (`None`
    /// while unpulled).
    pub ucb_bound: Option<f64>,
    /// New unique bugs this arm contributed to the merged corpus.
    pub new_bugs: u64,
    /// Fuzz runs this arm's workers actually executed.
    pub runs: u64,
    /// Why the arm was quarantined, if it was (crashed/stalled/errored
    /// worker). Quarantined arms receive no further slices.
    pub quarantined: Option<String>,
}

/// One executed budget slice, for the rollup.
#[derive(Clone, Debug)]
pub struct WorkRecord {
    /// Global spawn index.
    pub index: usize,
    /// Round the slice ran in.
    pub round: u32,
    /// `APP/preset/mode` label of the arm.
    pub arm: String,
    /// Environment seed of the child campaign.
    pub seed: u64,
    /// How the worker ended.
    pub outcome: String,
    /// Fuzz runs the worker reported executing.
    pub runs: u64,
    /// New unique bugs the slice contributed to the merge.
    pub new_bugs: u64,
    /// Corpus files skipped while salvaging the shard.
    pub salvage_skipped: u64,
    /// Pruning counters the worker reported (`None` when the child ran
    /// without `--prune` or died before its first snapshot).
    pub pruning: Option<WorkPruning>,
}

/// When one merged bug was first discovered, in global execs.
#[derive(Clone, Debug)]
pub struct OrchDiscovery {
    /// `APP:digest` signature of the bug.
    pub signature: String,
    /// Global fuzz-run index (summed over slices in processing order) at
    /// which the bug first manifested.
    pub exec: u64,
}

/// What a finished orchestration reports — also the `nodefz-orch-v1`
/// rollup document.
#[derive(Clone, Debug)]
pub struct OrchReport {
    /// Concurrency bound used.
    pub shards: usize,
    /// Rounds completed so far.
    pub rounds_done: u32,
    /// Rounds planned.
    pub rounds: u32,
    /// Fuzz runs per slice.
    pub slice_budget: u64,
    /// Fuzz runs executed across all workers.
    pub total_runs: u64,
    /// Final arm states, in enumeration order.
    pub arms: Vec<ArmState>,
    /// Every executed slice, in processing order.
    pub work: Vec<WorkRecord>,
    /// Global discovery curve of the merged corpus.
    pub discovery: Vec<OrchDiscovery>,
    /// Entries in the merged canonical corpus.
    pub merged_entries: usize,
    /// Where the merged corpus lives.
    pub merged_dir: PathBuf,
    /// Whether all planned rounds ran (false in mid-campaign snapshots
    /// and when every arm got quarantined).
    pub finished: bool,
}

impl OrchReport {
    /// Distinct bugs in the merged corpus.
    pub fn unique_bugs(&self) -> usize {
        self.merged_entries
    }

    /// Campaign-wide pruning totals summed over all slices that reported
    /// counters; `None` when no worker pruned.
    pub fn pruning_totals(&self) -> Option<WorkPruning> {
        let mut total = WorkPruning::default();
        let mut any = false;
        for rec in &self.work {
            if let Some(p) = &rec.pruning {
                total.add(p);
                any = true;
            }
        }
        any.then_some(total)
    }

    /// Per-arm pruning totals in `self.arms` order (arms whose slices
    /// never reported counters get `None`).
    pub fn arm_pruning(&self) -> Vec<Option<WorkPruning>> {
        self.arms
            .iter()
            .map(|arm| {
                let label = arm.spec.label();
                let mut total = WorkPruning::default();
                let mut any = false;
                for rec in self.work.iter().filter(|r| r.arm == label) {
                    if let Some(p) = &rec.pruning {
                        total.add(p);
                        any = true;
                    }
                }
                any.then_some(total)
            })
            .collect()
    }

    /// Static-analyzer race-candidate counts per arm, in `self.arms`
    /// order (`None` for arms whose app has no static model — e.g. the
    /// CONFORM arm, whose programs are generated per seed).
    pub fn arm_sa_candidates(&self) -> Vec<Option<u64>> {
        self.arms
            .iter()
            .map(|arm| {
                let case = nodefz_apps::by_abbr(&arm.spec.app)?;
                let model = case.static_model(nodefz_apps::common::Variant::Buggy)?;
                let idx = nodefz_sa::MhpIndex::build(&model);
                Some(nodefz_sa::candidates(&model, &idx).len() as u64)
            })
            .collect()
    }

    /// Arms quarantined by worker failure, as (label, reason).
    pub fn quarantined(&self) -> Vec<(String, String)> {
        self.arms
            .iter()
            .filter_map(|a| {
                a.quarantined
                    .as_ref()
                    .map(|reason| (a.spec.label(), reason.clone()))
            })
            .collect()
    }

    /// Serializes the rollup as `nodefz-orch-v1`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "nodefz-orch-v1");
        w.field_u64("shards", self.shards as u64);
        w.field_u64("rounds_done", u64::from(self.rounds_done));
        w.field_u64("rounds", u64::from(self.rounds));
        w.field_u64("slice_budget", self.slice_budget);
        w.field_u64("total_runs", self.total_runs);
        w.field_u64("unique_bugs", self.merged_entries as u64);
        w.field_bool("finished", self.finished);
        if let Some(total) = self.pruning_totals() {
            w.key("pruning");
            w.begin_object();
            total.write_fields(&mut w);
            w.end_object();
        }
        let arm_pruning = self.arm_pruning();
        let arm_sa = self.arm_sa_candidates();
        w.key("arms");
        w.begin_array();
        for ((arm, pruning), sa) in self.arms.iter().zip(&arm_pruning).zip(&arm_sa) {
            w.begin_object();
            w.field_str("app", &arm.spec.app);
            w.field_str("preset", &arm.spec.preset);
            w.field_str("mode", arm.spec.mode.label());
            if let Some(n) = sa {
                w.field_u64("sa_candidates", *n);
            }
            w.field_u64("pulls", arm.pulls);
            w.field_f64("mean_reward", arm.mean_reward, 6);
            w.key("ucb_bound");
            match arm.ucb_bound {
                Some(b) => w.f64(b, 6),
                None => w.null(),
            }
            w.field_u64("new_bugs", arm.new_bugs);
            w.field_u64("runs", arm.runs);
            w.field_bool("quarantined", arm.quarantined.is_some());
            if let Some(reason) = &arm.quarantined {
                w.field_str("quarantine_reason", reason);
            }
            if let Some(p) = pruning {
                w.key("pruning");
                w.begin_object();
                p.write_fields(&mut w);
                w.end_object();
            }
            w.end_object();
        }
        w.end_array();
        w.key("work");
        w.begin_array();
        for rec in &self.work {
            w.begin_object();
            w.field_u64("index", rec.index as u64);
            w.field_u64("round", u64::from(rec.round));
            w.field_str("arm", &rec.arm);
            w.field_u64("seed", rec.seed);
            w.field_str("outcome", &rec.outcome);
            w.field_u64("runs", rec.runs);
            w.field_u64("new_bugs", rec.new_bugs);
            w.field_u64("salvage_skipped", rec.salvage_skipped);
            if let Some(p) = &rec.pruning {
                w.key("pruning");
                w.begin_object();
                p.write_fields(&mut w);
                w.end_object();
            }
            w.end_object();
        }
        w.end_array();
        w.key("discovery");
        w.begin_array();
        for d in &self.discovery {
            w.begin_object();
            w.field_str("signature", &d.signature);
            w.field_u64("exec", d.exec);
            w.end_object();
        }
        w.end_array();
        w.key("merged");
        w.begin_object();
        w.field_str("dir", &self.merged_dir.display().to_string());
        w.field_u64("entries", self.merged_entries as u64);
        w.end_object();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

/// Deterministic per-slice seed: depends on the arm label and on how
/// many slices that arm has already received — never on shard count,
/// spawn order, or wall clock.
pub fn work_seed(base: u64, arm_label: &str, nth_pull: u64) -> u64 {
    splitmix64(base ^ fnv1a(arm_label.as_bytes()) ^ nth_pull.wrapping_mul(GOLDEN_GAMMA))
}

/// The fields the orchestrator reads back from a worker's
/// `nodefz-metrics-v1` snapshot.
struct WorkerMetrics {
    runs: u64,
    /// (signature, first_exec) per discovered bug.
    discovery: Vec<(String, u64)>,
    /// The optional `pruning` counter block.
    pruning: Option<WorkPruning>,
}

/// Parses a worker metrics snapshot. A missing file is lenient (`Ok(None)`
/// — the worker may have died before its first snapshot), but a file that
/// *exists* with a wrong or absent schema is an error: a snapshot from a
/// mismatched worker build must not be silently treated as absence.
fn read_worker_metrics(path: &Path) -> Result<Option<WorkerMetrics>, String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(None);
    };
    let err = |e: String| format!("{}: {e}", path.display());
    let doc = JsonValue::parse(&text).map_err(|e| err(e.to_string()))?;
    nodefz_obs::expect_schema(&doc, "nodefz-metrics-v1").map_err(|e| err(e.to_string()))?;
    let parse = |field: &'static str| err(format!("bad or missing '{field}'"));
    let runs = doc
        .get("runs")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| parse("runs"))?;
    let discovery = doc
        .get("discovery")
        .and_then(|d| d.as_array())
        .map(|arr| {
            arr.iter()
                .filter_map(|d| {
                    Some((
                        d.get("signature")?.as_str()?.to_string(),
                        d.get("first_exec")?.as_u64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    let pruning = doc.get("pruning").and_then(|p| {
        Some(WorkPruning {
            runs: p.get("runs")?.as_u64()?,
            distinct: p.get("distinct")?.as_u64()?,
            redundant: p.get("redundant")?.as_u64()?,
        })
    });
    Ok(Some(WorkerMetrics {
        runs,
        discovery,
        pruning,
    }))
}

/// Runs one round's work items with at most `shards` live workers,
/// returning (item, outcome) pairs sorted by global index.
fn run_items(
    cfg: &OrchConfig,
    arms: &[ArmSpec],
    items: Vec<WorkItem>,
    journal: &mut Journal,
    progress: &mut dyn FnMut(String),
) -> Vec<(WorkItem, Outcome)> {
    let mut pending: VecDeque<WorkItem> = items.into();
    let mut running: Vec<worker::Handle> = Vec::new();
    let mut done: Vec<(WorkItem, Outcome)> = Vec::new();
    while !pending.is_empty() || !running.is_empty() {
        while running.len() < cfg.shards {
            let Some(item) = pending.pop_front() else {
                break;
            };
            let spec = &arms[item.arm];
            match worker::spawn(&cfg.worker_bin, spec, &item, cfg.replay_checks, cfg.prune) {
                Ok(handle) => {
                    journal.push(JournalEvent::Worker {
                        index: item.index as u64,
                        arm: spec.label(),
                        state: WorkerState::Spawned,
                        reason: None,
                    });
                    running.push(handle);
                }
                Err(e) => {
                    progress(format!("  worker {} failed to start: {e}", spec.label()));
                    journal.push(JournalEvent::Worker {
                        index: item.index as u64,
                        arm: spec.label(),
                        state: WorkerState::Reaped,
                        reason: Some("spawn-failed".into()),
                    });
                    done.push((item, Outcome::SpawnFailed(e)));
                }
            }
        }
        let mut progressed = false;
        let mut i = 0;
        while i < running.len() {
            if let Some(outcome) = running[i].poll(cfg.worker_deadline) {
                let handle = running.swap_remove(i);
                if !outcome.is_ok() {
                    progress(format!(
                        "  worker {} ({}) {}",
                        handle.item.index,
                        arms[handle.item.arm].label(),
                        outcome.label(),
                    ));
                }
                journal.push(JournalEvent::Worker {
                    index: handle.item.index as u64,
                    arm: arms[handle.item.arm].label(),
                    state: WorkerState::Reaped,
                    reason: Some(outcome.label()),
                });
                done.push((handle.item, outcome));
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed && !running.is_empty() {
            std::thread::sleep(Duration::from_millis(15));
        }
    }
    done.sort_by_key(|(item, _)| item.index);
    done
}

/// Runs a full orchestrated campaign. `progress` receives console lines.
///
/// # Errors
///
/// On invalid configuration or an I/O failure in the orchestrator itself
/// (worker failures quarantine arms instead of erroring).
pub fn orchestrate(
    cfg: &OrchConfig,
    mut progress: impl FnMut(String),
) -> Result<OrchReport, String> {
    cfg.validate()?;
    let arms: Vec<ArmSpec> = arm_space(&cfg.apps);
    if arms.is_empty() {
        return Err("arm space is empty".into());
    }
    let slices = cfg.slices_per_round.unwrap_or(arms.len()).max(1);
    let mut bandit = Bandit::new(arms.len());
    // Per-arm tallies; the bandit fields are filled in from the bandit
    // whenever a report is taken.
    let mut states: Vec<ArmState> = arms
        .iter()
        .map(|spec| ArmState {
            spec: spec.clone(),
            pulls: 0,
            mean_reward: 0.0,
            ucb_bound: None,
            new_bugs: 0,
            runs: 0,
            quarantined: None,
        })
        .collect();
    let mut merged = MergedCorpus::new();
    let mut work: Vec<WorkRecord> = Vec::new();
    let mut discovery: Vec<OrchDiscovery> = Vec::new();
    let mut total_runs: u64 = 0;
    let mut next_index: usize = 0;
    let mut rounds_done: u32 = 0;

    std::fs::create_dir_all(&cfg.workdir)
        .map_err(|e| format!("workdir {}: {e}", cfg.workdir.display()))?;

    // Orchestrator flight recorder: arm picks with the bandit state that
    // made them, worker lifecycle, merged discoveries. Written atomically
    // alongside the rollup so `campaign report` can reconstruct where the
    // budget went even after a crash.
    let mut journal = Journal::new(JOURNAL_CAP);
    let journal_path = cfg.workdir.join("journal.jsonl");

    for round in 0..cfg.rounds {
        // Round 0's picks cover every arm once (optimistic start); later
        // rounds take `slices` picks. Picks run out only once every arm is
        // retired.
        let picks = if round == 0 { arms.len() } else { slices };
        let mut items: Vec<WorkItem> = Vec::new();
        for _ in 0..picks {
            // Snapshot *before* the pick so the journal records the state
            // the decision was made from.
            let decision_state = bandit.snapshot();
            let Some(arm) = bandit.pick() else {
                break;
            };
            let s = &decision_state[arm];
            let label = arms[arm].label();
            journal.push(JournalEvent::ArmPull {
                exec: total_runs,
                arm: label.clone(),
                pulls: s.pulls + 1,
                mean_reward: s.mean_reward,
                ucb: s.ucb_bound,
                successes: None,
                failures: None,
            });
            let index = next_index;
            next_index += 1;
            items.push(WorkItem {
                index,
                round,
                arm,
                seed: work_seed(cfg.base_seed, &label, s.pulls),
                budget: cfg.slice_budget,
                dir: cfg.workdir.join(format!(
                    "r{round}-i{index}-{}",
                    label.replace('/', "-").to_lowercase()
                )),
                sabotage: cfg.induce_crash == Some(index),
            });
        }
        if items.is_empty() {
            progress(format!("round {round}: every arm quarantined, stopping"));
            break;
        }
        progress(format!(
            "round {round}: {} slice(s) x {} runs on {} shard(s)",
            items.len(),
            cfg.slice_budget,
            cfg.shards,
        ));

        for (item, outcome) in run_items(cfg, &arms, items, &mut journal, &mut progress) {
            let (new_sigs, skipped) = merged
                .fold_shard(&item.corpus_dir())
                .map_err(|e| format!("merge shard {}: {e}", item.dir.display()))?;
            let metrics = read_worker_metrics(&item.metrics_path())?;
            let pruning = metrics.as_ref().and_then(|m| m.pruning);
            let runs = metrics
                .as_ref()
                .map(|m| m.runs)
                .unwrap_or(if outcome.is_ok() { item.budget } else { 0 });
            for sig in &new_sigs {
                let name = sig.to_string();
                let first_exec = metrics
                    .as_ref()
                    .and_then(|m| {
                        m.discovery
                            .iter()
                            .find(|(s, _)| *s == name)
                            .map(|(_, e)| *e)
                    })
                    .unwrap_or(item.budget);
                journal.push(JournalEvent::Discovery {
                    exec: total_runs + first_exec,
                    app: name.split(':').next().unwrap_or(&name).to_string(),
                    site: name.clone(),
                });
                discovery.push(OrchDiscovery {
                    signature: name,
                    exec: total_runs + first_exec,
                });
            }
            total_runs += runs;
            bandit.reward(item.arm, new_sigs.len() as u64);
            let state = &mut states[item.arm];
            state.new_bugs += new_sigs.len() as u64;
            state.runs += runs;
            let label = state.spec.label();
            if !outcome.is_ok() {
                bandit.retire(item.arm);
                state.quarantined = Some(outcome.label());
                journal.push(JournalEvent::Worker {
                    index: item.index as u64,
                    arm: label.clone(),
                    state: WorkerState::Quarantined,
                    reason: Some(outcome.label()),
                });
                progress(format!(
                    "  quarantined {label} after {} ({} entr{} salvaged)",
                    outcome.label(),
                    new_sigs.len(),
                    if new_sigs.len() == 1 { "y" } else { "ies" },
                ));
            }
            work.push(WorkRecord {
                index: item.index,
                round,
                arm: label,
                seed: item.seed,
                outcome: outcome.label(),
                runs,
                new_bugs: new_sigs.len() as u64,
                salvage_skipped: skipped.len() as u64,
                pruning,
            });
        }
        rounds_done = round + 1;
        progress(format!(
            "round {round}: {} unique bug(s) merged, {} runs total",
            merged.unique_bugs(),
            total_runs,
        ));
        if let Some(out) = &cfg.orch_out {
            let snapshot = snapshot_report(
                cfg,
                &states,
                &bandit,
                &merged,
                &work,
                &discovery,
                total_runs,
                rounds_done,
                false,
            );
            nodefz_obs::write_atomic(out, &snapshot.to_json())
                .map_err(|e| format!("rollup {}: {e}", out.display()))?;
        }
        journal
            .write(&journal_path)
            .map_err(|e| format!("journal {}: {e}", journal_path.display()))?;
    }

    let merged_dir = cfg.merged_corpus_dir();
    merged
        .write_to(&merged_dir)
        .map_err(|e| format!("merged corpus {}: {e}", merged_dir.display()))?;
    let finished = rounds_done == cfg.rounds;
    let report = snapshot_report(
        cfg,
        &states,
        &bandit,
        &merged,
        &work,
        &discovery,
        total_runs,
        rounds_done,
        finished,
    );
    if let Some(out) = &cfg.orch_out {
        nodefz_obs::write_atomic(out, &report.to_json())
            .map_err(|e| format!("rollup {}: {e}", out.display()))?;
    }
    journal
        .write(&journal_path)
        .map_err(|e| format!("journal {}: {e}", journal_path.display()))?;
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn snapshot_report(
    cfg: &OrchConfig,
    states: &[ArmState],
    bandit: &Bandit,
    merged: &MergedCorpus,
    work: &[WorkRecord],
    discovery: &[OrchDiscovery],
    total_runs: u64,
    rounds_done: u32,
    finished: bool,
) -> OrchReport {
    OrchReport {
        shards: cfg.shards,
        rounds_done,
        rounds: cfg.rounds,
        slice_budget: cfg.slice_budget,
        total_runs,
        arms: states
            .iter()
            .zip(bandit.snapshot())
            .map(|(state, s)| ArmState {
                pulls: s.pulls,
                mean_reward: s.mean_reward,
                ucb_bound: s.ucb_bound,
                ..state.clone()
            })
            .collect(),
        work: work.to_vec(),
        discovery: discovery.to_vec(),
        merged_entries: merged.unique_bugs(),
        merged_dir: cfg.merged_corpus_dir(),
        finished,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_campaign::ArmMode;

    #[test]
    fn work_seeds_depend_on_arm_and_pull_only() {
        let a = work_seed(1, "KUE/standard/fuzz", 0);
        assert_eq!(a, work_seed(1, "KUE/standard/fuzz", 0));
        assert_ne!(a, work_seed(1, "KUE/standard/fuzz", 1));
        assert_ne!(a, work_seed(1, "KUE/aggressive/fuzz", 0));
        assert_ne!(a, work_seed(2, "KUE/standard/fuzz", 0));
    }

    #[test]
    fn rollup_json_parses_and_carries_the_schema() {
        let report = OrchReport {
            shards: 2,
            rounds_done: 1,
            rounds: 3,
            slice_budget: 40,
            total_runs: 80,
            arms: vec![ArmState {
                spec: ArmSpec {
                    app: "KUE".into(),
                    preset: "standard".into(),
                    mode: ArmMode::Fuzz,
                },
                pulls: 2,
                mean_reward: 0.8,
                ucb_bound: Some(1.2),
                new_bugs: 1,
                runs: 80,
                quarantined: Some("crashed".into()),
            }],
            work: vec![WorkRecord {
                index: 0,
                round: 0,
                arm: "KUE/standard/fuzz".into(),
                seed: 99,
                outcome: "ok".into(),
                runs: 40,
                new_bugs: 1,
                salvage_skipped: 0,
                pruning: Some(WorkPruning {
                    runs: 40,
                    distinct: 4,
                    redundant: 36,
                }),
            }],
            discovery: vec![OrchDiscovery {
                signature: "KUE:00deadbeef000000".into(),
                exec: 17,
            }],
            merged_entries: 1,
            merged_dir: PathBuf::from("/tmp/corpus"),
            finished: false,
        };
        let doc = JsonValue::parse(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some("nodefz-orch-v1")
        );
        assert_eq!(doc.get("unique_bugs").and_then(|v| v.as_u64()), Some(1));
        let arm = &doc.get("arms").and_then(|a| a.as_array()).unwrap()[0];
        assert_eq!(
            arm.get("quarantine_reason").and_then(|s| s.as_str()),
            Some("crashed")
        );
        // The bandit fields carry nodefz-metrics-v1's arm names.
        assert_eq!(arm.get("pulls").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(arm.get("mean_reward").and_then(|v| v.as_f64()), Some(0.8));
        assert_eq!(arm.get("ucb_bound").and_then(|v| v.as_f64()), Some(1.2));
        assert!(arm.get("successes").is_none() && doc.get("scheduler").is_none());
        assert!(
            arm.get("sa_candidates").and_then(|v| v.as_u64()).unwrap() > 0,
            "KUE's static model must yield race candidates in the rollup"
        );
        assert_eq!(report.quarantined().len(), 1);

        let totals = report.pruning_totals().unwrap();
        assert_eq!(totals.distinct, 4);
        let pruning = doc.get("pruning").unwrap();
        assert_eq!(pruning.get("runs").and_then(|v| v.as_u64()), Some(40));
        assert_eq!(
            arm.get("pruning")
                .and_then(|p| p.get("distinct"))
                .and_then(|v| v.as_u64()),
            Some(4)
        );
        let work = &doc.get("work").and_then(|w| w.as_array()).unwrap()[0];
        assert_eq!(
            work.get("pruning")
                .and_then(|p| p.get("redundant"))
                .and_then(|v| v.as_u64()),
            Some(36)
        );
    }

    #[test]
    fn rollup_omits_pruning_when_no_worker_pruned() {
        let report = OrchReport {
            shards: 1,
            rounds_done: 1,
            rounds: 1,
            slice_budget: 10,
            total_runs: 10,
            arms: vec![],
            work: vec![WorkRecord {
                index: 0,
                round: 0,
                arm: "KUE/standard/fuzz".into(),
                seed: 1,
                outcome: "ok".into(),
                runs: 10,
                new_bugs: 0,
                salvage_skipped: 0,
                pruning: None,
            }],
            discovery: vec![],
            merged_entries: 0,
            merged_dir: PathBuf::from("x"),
            finished: true,
        };
        assert!(report.pruning_totals().is_none());
        let doc = JsonValue::parse(&report.to_json()).unwrap();
        assert!(doc.get("pruning").is_none());
    }

    /// A worker metrics snapshot from a build that still wrote the fork
    /// explorer's counters inside `pruning` — frozen, do not regenerate.
    const OLDER_WORKER_METRICS: &str = r#"{
  "schema": "nodefz-metrics-v1",
  "runs": 40,
  "discovery": [],
  "pruning": {"runs": 40, "distinct": 4, "redundant": 36, "skipped": 120, "forked": 30, "mismatches": 0, "redundancy_ratio": 0.900000}
}
"#;

    #[test]
    fn worker_pruning_block_round_trips_from_the_campaign_writer() {
        let counters = nodefz_campaign::PruneCounters {
            runs: 40,
            distinct: 4,
            redundant: 36,
            mismatches: 0,
        };
        let current = nodefz_campaign::MetricsSnapshot {
            elapsed: Duration::from_millis(10),
            budget: 40,
            runs: 40,
            dispatched: 0,
            manifested: 0,
            unique_bugs: 0,
            finished: true,
            arms: Vec::new(),
            discovery: Vec::new(),
            phases: Vec::new(),
            callbacks: Vec::new(),
            run_dispatched: None,
            pruning: Some(counters),
            prune_health: None,
            sa: None,
            apicov: None,
        }
        .to_json();
        let dir = std::env::temp_dir().join(format!("nodefz-orch-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let expected = WorkPruning {
            runs: 40,
            distinct: 4,
            redundant: 36,
        };
        for (name, text) in [
            ("current", current.as_str()),
            ("older", OLDER_WORKER_METRICS),
        ] {
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, text).unwrap();
            let metrics = read_worker_metrics(&path).unwrap().expect("file exists");
            assert_eq!(metrics.pruning, Some(expected), "{name} document");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_validation_names_the_bad_field() {
        let mut cfg = OrchConfig {
            apps: vec!["KUE".into()],
            worker_bin: PathBuf::from("/bin/true"),
            ..OrchConfig::default()
        };
        cfg.validate().unwrap();
        cfg.shards = 0;
        assert!(cfg.validate().unwrap_err().contains("shards"));
        cfg.shards = 2;
        cfg.apps.clear();
        assert!(cfg.validate().unwrap_err().contains("app"));
        cfg.apps = vec!["KUE".into(), "Kue".into()];
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("Kue") && err.contains("twice"), "{err}");
    }
}
