//! The explanation pipeline: repro in, causal story out.
//!
//! ```text
//! .repro ──replay──► failing log ──hb──► predicted races (ranked)
//!    │                                       │
//!    └──same env seed──► passing samples ────┤ nearest HB class
//!         (vanilla + varied sched seeds)     │ (longest shared prefix)
//!                                            ▼
//!                       flip cut ladder ──--check──► directed replay
//!                                                    re-manifests bug
//! ```
//!
//! Everything runs at the repro's environment seed, so the failing
//! schedule, every passing sample, and every directed check replay
//! against the same modelled environment — the *only* difference between
//! them is scheduling, which is exactly the claim a race report makes.

use nodefz::{
    Decision, DecisionTrace, DirectedSpec, FuzzParams, Mode, ReplayStatusHandle, TraceHandle,
};
use nodefz_apps::common::{RunCfg, Variant};
use nodefz_campaign::{preset_params, resolve_case, CorpusEntry};
use nodefz_hb::{
    canon_key, causal_chain, races_with_cuts, EventRef, RaceInfo, SeenSet, MAX_FLIPS_PER_RACE,
};
use nodefz_rt::{EventLog, EventLogHandle};
use nodefz_trace::BugSignature;

/// Predicted races the check loop will chase before giving up.
const MAX_CHECK_RACES: usize = 8;

/// Passing HB classes remembered while sampling (far above what a
/// handful of samples can produce; the cap exists for hygiene).
const SEEN_CAP: usize = 1024;

/// Knobs for [`explain_entry`].
#[derive(Clone, Debug)]
pub struct ExplainConfig {
    /// Directed replays per flip cut when checking, and the ceiling for
    /// the whole check loop per race.
    pub attempts: u64,
    /// Recorded fuzz runs (beyond the vanilla posture) sampled while
    /// hunting passing schedules.
    pub passing_samples: u64,
    /// Whether to causally validate the explanation: replay only the
    /// directed flip and require the bug to re-manifest.
    pub check: bool,
}

impl Default for ExplainConfig {
    fn default() -> ExplainConfig {
        ExplainConfig {
            attempts: 24,
            passing_samples: 12,
            check: false,
        }
    }
}

/// How the failing schedule relates to the nearest passing HB class.
#[derive(Clone, Debug)]
pub struct PassingSummary {
    /// Canonical key of the nearest passing class, 32 hex digits.
    pub key: String,
    /// Schedules sampled while hunting passing runs (vanilla included).
    pub sampled: u64,
    /// Distinct passing HB classes among them.
    pub distinct: u64,
    /// Scheduler decisions the failing and nearest passing schedule
    /// share before diverging.
    pub common_prefix: usize,
    /// Decision count of the failing (repro) schedule.
    pub failing_len: usize,
    /// Decision count of the nearest passing schedule.
    pub passing_len: usize,
    /// The first differing decision, when both schedules still have one
    /// at the divergence index.
    pub divergence: Option<Divergence>,
}

/// The first decision where failing and passing schedules part ways.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Index into both decision sequences.
    pub index: usize,
    /// The decision, kind and value, the failing schedule took there.
    pub failing: Decision,
    /// The decision, kind and value, the passing schedule took there.
    pub passing: Decision,
}

/// The directed flip this report proposes (and `--check` replays): cut
/// points into the schedule named by `on_passing_schedule`.
#[derive(Clone, Debug)]
pub struct FlipPlan {
    /// Primary flip cut (the chain's deepest schedulable ancestor).
    pub cut: u64,
    /// The pre-dispatch cut right before the earlier racing event.
    pub prefix_cut: u64,
    /// Full candidate ladder, ascending.
    pub ladder: Vec<u64>,
    /// `true` when the cuts index the nearest *passing* schedule (the
    /// normal case: flipping a passing run into the bug); `false` when
    /// no passing prediction existed and the failing-side ladder is
    /// applied to the passing trace as a fallback.
    pub on_passing_schedule: bool,
}

/// Result of the `--check` directed replay.
#[derive(Clone, Copy, Debug)]
pub struct CheckResult {
    /// Directed executions spent in total.
    pub attempted: u64,
    /// Whether the bug re-manifested with its recorded signature.
    pub manifested: bool,
    /// 1-based execution index of the manifesting replay (0 when none).
    pub execs: u64,
    /// The flip cut that re-manifested it (0 when none).
    pub cut: u64,
}

/// One confirmed bug, explained: the racing pair, both causal chains
/// back to scheduler-visible roots, the flip cut that inverts the order,
/// and how far the failing schedule tracks the nearest passing HB class.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// Bug abbreviation.
    pub app: String,
    /// Environment seed everything in this report ran under.
    pub env_seed: u64,
    /// The oracle's normalized failure site (the dedup signature's).
    pub failure_site: String,
    /// The signature's callback-kind fingerprint.
    pub kinds: u32,
    /// The explained race: instrumented shared site, §3.2 class, and the
    /// racing access pair with its flip-cut ladder.
    pub race: RaceInfo,
    /// Causal chain of the earlier racing event, the event itself first,
    /// back to its scheduler-visible root.
    pub chain_a: Vec<EventRef>,
    /// Causal chain of the later racing event, likewise.
    pub chain_b: Vec<EventRef>,
    /// Events dispatched in the failing replay.
    pub events: usize,
    /// Instrumented accesses observed in the failing replay.
    pub accesses: usize,
    /// Canonical HB key of the failing schedule, 32 hex digits.
    pub failing_key: String,
    /// The directed flip that turns the nearest passing schedule into
    /// this bug.
    pub flip: FlipPlan,
    /// The nearest passing class and the schedule diff against it.
    pub passing: PassingSummary,
    /// Present when the explanation was causally validated.
    pub check: Option<CheckResult>,
}

/// One sampled passing schedule.
struct PassingSample {
    trace: DecisionTrace,
    log: EventLog,
}

/// First race per distinct (site, class), races at the app's own
/// instrumented sites (`app:`-prefixed, where planted bugs live) ranked
/// ahead of library/infrastructure sites.
fn ranked_races(app: &str, races: &[RaceInfo]) -> Vec<RaceInfo> {
    let prefix = format!("{}:", app.to_ascii_lowercase());
    let mut seen: Vec<(String, &'static str)> = Vec::new();
    let mut own: Vec<RaceInfo> = Vec::new();
    let mut other: Vec<RaceInfo> = Vec::new();
    for race in races {
        let key = (race.site.clone(), race.class.label());
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        if race.site.starts_with(&prefix) {
            own.push(race.clone());
        } else {
            other.push(race.clone());
        }
    }
    own.extend(other);
    own
}

/// Shared-prefix length of two decision sequences.
fn common_prefix(a: &DecisionTrace, b: &DecisionTrace) -> usize {
    a.decisions
        .iter()
        .zip(&b.decisions)
        .take_while(|(x, y)| x == y)
        .count()
}

/// The first decision where `failing` and `passing` differ, when both
/// still have one there.
fn divergence(failing: &DecisionTrace, passing: &DecisionTrace) -> Option<Divergence> {
    let index = common_prefix(failing, passing);
    match (failing.decisions.get(index), passing.decisions.get(index)) {
        (Some(f), Some(p)) => Some(Divergence {
            index,
            failing: f.clone(),
            passing: p.clone(),
        }),
        _ => None,
    }
}

/// Explains one corpus entry.
///
/// # Errors
///
/// When the app is unknown, the repro does not replay to its recorded
/// bug, the failing schedule predicts no races, or no passing schedule
/// exists at the entry's environment seed within the sampling budget.
pub fn explain_entry(entry: &CorpusEntry, cfg: &ExplainConfig) -> Result<RaceReport, String> {
    let case = resolve_case(&entry.app).ok_or_else(|| format!("unknown app '{}'", entry.app))?;
    let expected = entry.signature();

    // 1. Replay the repro with dispatch-provenance recording: the
    //    failing schedule's event log is the ground truth everything
    //    else is explained against.
    entry
        .trace
        .validate()
        .map_err(|e| format!("repro trace invalid: {e}"))?;
    // Minimized repro traces are *prefixes*: past the trace's end the
    // run continues on default decisions, which the replay status counts
    // as divergence. Fidelity here is the signature match below, not a
    // clean verdict — exactly `campaign verify`'s contract.
    let status = ReplayStatusHandle::fresh();
    let events = EventLogHandle::fresh();
    let run_cfg = RunCfg::new(
        Mode::Replay(entry.trace.clone(), status.clone()),
        entry.env_seed,
    )
    .events(&events);
    let out = case.run(&run_cfg, Variant::Buggy);
    if !out.manifested {
        return Err("repro replayed cleanly but the bug did not manifest".into());
    }
    let replayed = BugSignature::new(&entry.app, &out.detail, &out.report.schedule);
    if replayed != expected {
        return Err(format!(
            "repro replay manifested a different bug: {replayed} (expected {expected})"
        ));
    }
    let log_fail = events.snapshot();
    let failing_key = canon_key(&log_fail).to_hex();
    let failing_races = ranked_races(&entry.app, &races_with_cuts(&log_fail));
    if failing_races.is_empty() {
        return Err("failing schedule predicts no races — nothing to explain".into());
    }

    // 2. Hunt passing schedules at the same environment seed: the
    //    vanilla posture first, then fuzz presets under varied scheduler
    //    seeds, deduplicated by HB class.
    let trace_handle = TraceHandle::fresh();
    let pass_events = EventLogHandle::fresh();
    let mut seen = SeenSet::new(SEEN_CAP);
    let mut passing: Vec<PassingSample> = Vec::new();
    let mut sampled = 0u64;
    for i in 0..=cfg.passing_samples {
        let params = if i == 0 {
            FuzzParams::none()
        } else {
            preset_params((i - 1) as usize % 3)
        };
        let mut sample_cfg =
            RunCfg::new(Mode::Record(params, trace_handle.clone()), entry.env_seed)
                .events(&pass_events);
        sample_cfg.sched_seed = sample_cfg
            .sched_seed
            .wrapping_add(i.wrapping_mul(nodefz_rt::GOLDEN_GAMMA));
        let out = case.run(&sample_cfg, Variant::Buggy);
        sampled += 1;
        if out.manifested {
            continue;
        }
        let log = pass_events.snapshot();
        if seen.insert(canon_key(&log)) {
            passing.push(PassingSample {
                trace: trace_handle.snapshot(),
                log,
            });
        }
    }
    if passing.is_empty() {
        return Err(format!(
            "no passing schedule in {sampled} samples at env seed {} — cannot anchor the diff",
            entry.env_seed
        ));
    }
    let nearest = passing
        .iter()
        .max_by_key(|p| common_prefix(&entry.trace, &p.trace))
        .expect("non-empty");
    let passing_summary = PassingSummary {
        key: canon_key(&nearest.log).to_hex(),
        sampled,
        distinct: passing.len() as u64,
        common_prefix: common_prefix(&entry.trace, &nearest.trace),
        failing_len: entry.trace.len(),
        passing_len: nearest.trace.len(),
        divergence: divergence(&entry.trace, &nearest.trace),
    };

    // 3. The directed flip plan: races predicted *in the nearest passing
    //    schedule* (so cuts index into the trace they replay), falling
    //    back to the failing prediction's ladder on the passing trace.
    let passing_races = ranked_races(&entry.app, &races_with_cuts(&nearest.log));
    let on_passing_schedule = !passing_races.is_empty();
    let plan = if on_passing_schedule {
        passing_races
    } else {
        failing_races.clone()
    };

    // The explained race: prefer the failing-side prediction matching
    // the plan's front-runner (its chains describe the actual
    // manifestation); --check below can overrule by demonstration.
    let mut chosen = failing_races
        .iter()
        .find(|r| r.site == plan[0].site && r.class == plan[0].class)
        .unwrap_or(&failing_races[0])
        .clone();
    let mut flip_race = plan[0].clone();

    // 4. --check: replay only the directed flip, demand the recorded bug.
    let check = if cfg.check {
        let mut attempted = 0u64;
        let mut result = CheckResult {
            attempted: 0,
            manifested: false,
            execs: 0,
            cut: 0,
        };
        let check_handle = TraceHandle::fresh();
        'plan: for race in plan.iter().take(MAX_CHECK_RACES) {
            for cut in race.ladder(MAX_FLIPS_PER_RACE) {
                for attempt in 0..cfg.attempts {
                    attempted += 1;
                    let spec = DirectedSpec::new(nearest.trace.clone(), cut).with_attempt(attempt);
                    let out = case.run(
                        &RunCfg::new(Mode::Directed(spec, check_handle.clone()), entry.env_seed),
                        Variant::Buggy,
                    );
                    if out.manifested
                        && BugSignature::new(&entry.app, &out.detail, &out.report.schedule)
                            == expected
                    {
                        result = CheckResult {
                            attempted,
                            manifested: true,
                            execs: attempted,
                            cut,
                        };
                        // The flip that demonstrably re-manifests the bug
                        // names the race this report should explain.
                        flip_race = race.clone();
                        if let Some(confirmed) = failing_races
                            .iter()
                            .find(|r| r.site == race.site && r.class == race.class)
                        {
                            chosen = confirmed.clone();
                        }
                        break 'plan;
                    }
                }
            }
        }
        result.attempted = attempted;
        Some(result)
    } else {
        None
    };

    let ladder = flip_race.ladder(MAX_FLIPS_PER_RACE);
    let flip = FlipPlan {
        cut: ladder[0],
        prefix_cut: flip_race.cut,
        ladder,
        on_passing_schedule,
    };
    let chain_a = causal_chain(&log_fail, chosen.a.event);
    let chain_b = causal_chain(&log_fail, chosen.b.event);
    Ok(RaceReport {
        app: entry.app.clone(),
        env_seed: entry.env_seed,
        failure_site: entry.site.clone(),
        kinds: entry.kinds,
        race: chosen,
        chain_a,
        chain_b,
        events: log_fail.events.len(),
        accesses: log_fail.accesses.len(),
        failing_key,
        flip,
        passing: passing_summary,
        check,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_hb::analyze_app;

    #[test]
    fn ranked_races_put_own_sites_first_and_dedup_site_class() {
        let app = nodefz_apps::by_abbr("GHO").expect("registry");
        let analysis = analyze_app(app.as_ref(), 11).expect("analyzable");
        let ranked = ranked_races("GHO", &analysis.races);
        assert!(!ranked.is_empty());
        assert!(
            ranked[0].site.starts_with("gho:"),
            "own sites first: {}",
            ranked[0].site
        );
        let mut keys: Vec<(String, &str)> = ranked
            .iter()
            .map(|r| (r.site.clone(), r.class.label()))
            .collect();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "no duplicate (site, class) pairs");
    }

    #[test]
    fn divergence_names_the_values_of_one_decision_kind() {
        let trace = |defer: bool| DecisionTrace {
            pool_mode: nodefz_rt::PoolMode::Concurrent { workers: 4 },
            demux_done: false,
            decisions: vec![
                Decision::Timer(None),
                Decision::DeferReady(false),
                Decision::DeferReady(defer),
                Decision::PickTask(0),
            ],
        };
        let d = divergence(&trace(true), &trace(false)).expect("the traces differ");
        assert_eq!(d.index, 2);
        assert_eq!(d.failing, Decision::DeferReady(true));
        assert_eq!(d.passing, Decision::DeferReady(false));
        assert_eq!(d.failing.to_string(), "defer-ready yes");
        assert_eq!(d.passing.to_string(), "defer-ready no");
        assert_eq!(divergence(&trace(true), &trace(true)), None);
    }

    #[test]
    fn common_prefix_counts_shared_decisions() {
        let app = nodefz_apps::by_abbr("GHO").expect("registry");
        let analysis = analyze_app(app.as_ref(), 11).expect("analyzable");
        let t = analysis.trace;
        assert_eq!(common_prefix(&t, &t), t.len());
        let mut truncated = t.clone();
        truncated.decisions.truncate(3);
        assert_eq!(common_prefix(&t, &truncated), 3.min(t.len()));
    }
}
