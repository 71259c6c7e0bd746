//! Worker process lifecycle: spawn, poll, reap.
//!
//! Each budget slice becomes one child `campaign` process (the same
//! binary re-invoked in single-campaign mode) with a private work
//! directory holding its corpus shard, its `nodefz-metrics-v1` snapshot,
//! and its captured console output. The orchestrator polls children
//! non-blockingly; a child that outlives the worker deadline is killed
//! and reported as stalled, one that dies on a signal as crashed, one
//! that exits nonzero as errored. In every non-ok case the shard corpus
//! is still salvaged — entries are written atomically, so whatever the
//! worker persisted before dying is intact.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use nodefz_campaign::{ArmMode, ArmSpec};

/// One budget slice: a unit of work handed to one child process.
#[derive(Clone, Debug)]
pub struct WorkItem {
    /// Global spawn index, and the deterministic processing order.
    pub index: usize,
    /// Round the slice belongs to.
    pub round: u32,
    /// Scheduler arm index.
    pub arm: usize,
    /// Environment base seed for the child campaign.
    pub seed: u64,
    /// Fuzz runs the child may spend.
    pub budget: u64,
    /// Private work directory (corpus shard, metrics, log).
    pub dir: PathBuf,
    /// Deliberately crash the worker mid-slice (crash-robustness tests).
    pub sabotage: bool,
}

impl WorkItem {
    /// The shard corpus directory.
    pub fn corpus_dir(&self) -> PathBuf {
        self.dir.join("corpus")
    }

    /// The worker's metrics snapshot path.
    pub fn metrics_path(&self) -> PathBuf {
        self.dir.join("metrics.json")
    }

    /// The worker's flight-recorder journal path.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    /// The worker's chrome-trace timeline path (written once the worker
    /// drains; a crashed or stalled worker leaves none).
    pub fn trace_path(&self) -> PathBuf {
        self.dir.join("trace.json")
    }
}

/// How a worker ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Exited zero; full slice results available.
    Ok,
    /// Exited nonzero (config rejection, campaign error).
    Errored(i32),
    /// Died on a signal without exiting.
    Crashed,
    /// Outlived the worker deadline and was killed.
    Stalled,
    /// Never started.
    SpawnFailed(String),
}

impl Outcome {
    /// Whether the slice completed normally.
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok)
    }

    /// Report label.
    pub fn label(&self) -> String {
        match self {
            Outcome::Ok => "ok".into(),
            Outcome::Errored(code) => format!("errored({code})"),
            Outcome::Crashed => "crashed".into(),
            Outcome::Stalled => "stalled".into(),
            Outcome::SpawnFailed(_) => "spawn-failed".into(),
        }
    }
}

/// A spawned, not-yet-reaped worker.
pub struct Handle {
    /// The slice the worker runs.
    pub item: WorkItem,
    child: Child,
    started: Instant,
}

/// Builds the child command line for `item` running `arm`.
///
/// The worker is the same `campaign` binary in single-campaign mode,
/// restricted to exactly one (app, preset, mode) arm: `--presets NAME`
/// for fuzz/conform arms, `--presets directed` for a directed-only
/// campaign.
pub fn worker_args(arm: &ArmSpec, item: &WorkItem, replay_checks: u32, prune: bool) -> Vec<String> {
    let preset = match arm.mode {
        ArmMode::Fuzz | ArmMode::Conform => arm.preset.clone(),
        ArmMode::Directed => "directed".to_string(),
    };
    let mut args = vec![
        "--apps".into(),
        arm.app.clone(),
        "--presets".into(),
        preset,
        "--budget".into(),
        item.budget.to_string(),
        "--seed".into(),
        item.seed.to_string(),
        "--threads".into(),
        "1".into(),
        "--replay-checks".into(),
        replay_checks.to_string(),
        "--corpus".into(),
        item.corpus_dir().display().to_string(),
        "--metrics-out".into(),
        item.metrics_path().display().to_string(),
        "--journal-out".into(),
        item.journal_path().display().to_string(),
        "--trace-out".into(),
        item.trace_path().display().to_string(),
    ];
    if prune {
        args.push("--prune".into());
    }
    if item.sabotage {
        args.push("--crash-after-runs".into());
        args.push((item.budget / 2).max(1).to_string());
    }
    args
}

/// Spawns the worker for `item`, console output captured to
/// `{dir}/worker.log`.
///
/// # Errors
///
/// When the work directory or log cannot be created, or the binary
/// cannot start.
pub fn spawn(
    bin: &Path,
    arm: &ArmSpec,
    item: &WorkItem,
    replay_checks: u32,
    prune: bool,
) -> Result<Handle, String> {
    std::fs::create_dir_all(&item.dir)
        .map_err(|e| format!("workdir {}: {e}", item.dir.display()))?;
    let log = std::fs::File::create(item.dir.join("worker.log"))
        .map_err(|e| format!("worker log: {e}"))?;
    let log_err = log.try_clone().map_err(|e| format!("worker log: {e}"))?;
    let child = Command::new(bin)
        .args(worker_args(arm, item, replay_checks, prune))
        .stdin(Stdio::null())
        .stdout(log)
        .stderr(log_err)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    Ok(Handle {
        item: item.clone(),
        child,
        started: Instant::now(),
    })
}

impl Handle {
    /// Polls the worker without blocking. `Some(outcome)` once it has
    /// been reaped (killing it first if `deadline` has passed).
    pub fn poll(&mut self, deadline: Duration) -> Option<Outcome> {
        match self.child.try_wait() {
            Ok(Some(status)) => Some(match status.code() {
                Some(0) => Outcome::Ok,
                Some(code) => Outcome::Errored(code),
                // No exit code on Unix means a signal ended it.
                None => Outcome::Crashed,
            }),
            Ok(None) => {
                if self.started.elapsed() > deadline {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    Some(Outcome::Stalled)
                } else {
                    None
                }
            }
            Err(_) => Some(Outcome::Crashed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_campaign::ArmMode;

    fn item(sabotage: bool) -> WorkItem {
        WorkItem {
            index: 0,
            round: 0,
            arm: 0,
            seed: 42,
            budget: 30,
            dir: PathBuf::from("/tmp/w"),
            sabotage,
        }
    }

    #[test]
    fn fuzz_arm_args_pin_one_preset() {
        let arm = ArmSpec {
            app: "KUE".into(),
            preset: "aggressive".into(),
            mode: ArmMode::Fuzz,
        };
        let args = worker_args(&arm, &item(false), 5, false);
        let joined = args.join(" ");
        assert!(joined.contains("--apps KUE"), "{joined}");
        assert!(joined.contains("--presets aggressive"), "{joined}");
        assert!(joined.contains("--budget 30"), "{joined}");
        assert!(joined.contains("--seed 42"), "{joined}");
        assert!(
            joined.contains("--journal-out /tmp/w/journal.jsonl"),
            "{joined}"
        );
        assert!(joined.contains("--trace-out /tmp/w/trace.json"), "{joined}");
        assert!(!joined.contains("--crash-after-runs"), "{joined}");
        assert!(!joined.contains("--prune"), "{joined}");
    }

    #[test]
    fn pruning_campaigns_forward_the_flag_to_workers() {
        let arm = ArmSpec {
            app: "KUE".into(),
            preset: "standard".into(),
            mode: ArmMode::Fuzz,
        };
        let joined = worker_args(&arm, &item(false), 5, true).join(" ");
        assert!(joined.contains("--prune"), "{joined}");
    }

    #[test]
    fn directed_arm_args_request_a_directed_only_campaign() {
        let arm = ArmSpec {
            app: "GHO".into(),
            preset: "directed".into(),
            mode: ArmMode::Directed,
        };
        let joined = worker_args(&arm, &item(false), 5, false).join(" ");
        assert!(joined.contains("--presets directed"), "{joined}");
    }

    #[test]
    fn sabotaged_items_carry_the_crash_flag() {
        let arm = ArmSpec {
            app: "KUE".into(),
            preset: "standard".into(),
            mode: ArmMode::Fuzz,
        };
        let joined = worker_args(&arm, &item(true), 5, false).join(" ");
        assert!(joined.contains("--crash-after-runs 15"), "{joined}");
    }
}
