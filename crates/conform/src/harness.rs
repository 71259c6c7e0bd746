//! The differential schedule-testing harness.
//!
//! [`differential`] runs one generated program under four runtime
//! postures and cross-checks them:
//!
//! 1. **vanilla** — the libuv-faithful scheduler; its log must pass the
//!    ordering oracle.
//! 2. **fuzz** — a seeded *swarm* parameterization
//!    ([`FuzzParams::sampled`]), recorded; the perturbed log must pass
//!    the same oracle (fuzzing may reorder only what the rules allow).
//! 3. **replay** — the fuzz recording replayed decision-for-decision;
//!    the replay must be divergence-free and reproduce the fuzz run's
//!    event log **byte-for-byte** (compared via [`render_log`]).
//! 4. **directed** — happens-before analysis of a no-fuzz recording
//!    predicts races; each prediction is either *confirmed* (a
//!    race-directed run flips the racing pair, and that flipped log still
//!    passes the oracle) or explicitly classified *unconfirmable* with a
//!    reason — never silently dropped.

use std::fmt;
use std::rc::Rc;

use nodefz::{DirectedSpec, FuzzParams, Mode, ReplayStatusHandle, TraceHandle};
use nodefz_apps::common::RunCfg;
use nodefz_hb::races_with_cuts;
use nodefz_rt::{EventLog, EventLogHandle, LoopPool, RunReport, Termination};

use crate::oracle::{check, OracleCtx, Violation};
use crate::prog::{install, Prog};

/// Knobs bounding the directed phase of one differential check.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// How many predicted races to chase per program.
    pub directed_races: usize,
    /// How many flip cuts to try per race.
    pub directed_cuts: usize,
    /// How many scheduler attempts to make per cut.
    pub directed_attempts: u64,
    /// Loop-state pool to recycle buffers through.
    pub pool: Option<LoopPool>,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            directed_races: 2,
            directed_cuts: 2,
            directed_attempts: 2,
            pool: None,
        }
    }
}

/// Why one program failed the differential check.
#[derive(Clone, Debug)]
pub enum DiffFailure {
    /// A run ended with errors, a crash, or a non-quiescent termination.
    RunError {
        /// Which posture failed ("vanilla", "fuzz", "replay", …).
        mode: &'static str,
        /// Termination and error evidence.
        detail: String,
    },
    /// A run's event log violated the ordering oracle.
    Oracle {
        /// Which posture produced the illegal log.
        mode: &'static str,
        /// The first violation (all carry rule ids).
        violation: Violation,
    },
    /// The replay consulted decisions that diverged from the recording.
    ReplayDiverged {
        /// The replayer's divergence report.
        detail: String,
    },
    /// The replay ran clean but reproduced a *different* event log.
    LogMismatch {
        /// First line number where the rendered logs differ.
        line: usize,
        /// The recorded line at that position.
        recorded: String,
        /// The replayed line at that position.
        replayed: String,
    },
}

impl fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffFailure::RunError { mode, detail } => {
                write!(f, "{mode} run failed: {detail}")
            }
            DiffFailure::Oracle { mode, violation } => {
                write!(f, "{mode} log violates the oracle: {violation}")
            }
            DiffFailure::ReplayDiverged { detail } => {
                write!(f, "replay diverged: {detail}")
            }
            DiffFailure::LogMismatch {
                line,
                recorded,
                replayed,
            } => write!(
                f,
                "replay produced a different log at line {line}: \
                 recorded '{recorded}' vs replayed '{replayed}'"
            ),
        }
    }
}

/// How one predicted race was resolved by the directed phase.
#[derive(Clone, Debug)]
pub enum RaceOutcome {
    /// A directed run flipped the racing pair (and its log passed the
    /// oracle).
    Confirmed,
    /// No directed run flipped the pair; the reason is recorded so no
    /// prediction is ever silently dropped.
    Unconfirmable(String),
}

/// The successful result of one differential check.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Events dispatched by the vanilla run.
    pub vanilla_events: usize,
    /// Events dispatched by the fuzzed run.
    pub fuzz_events: usize,
    /// Races predicted by happens-before analysis of the no-fuzz run.
    pub races: usize,
    /// Predictions confirmed by a directed flip.
    pub confirmed: usize,
    /// Predictions classified unconfirmable (with reasons).
    pub unconfirmable: usize,
    /// Directed runs executed.
    pub directed_runs: usize,
}

/// Renders an event log as deterministic text — the byte-for-byte
/// comparison form for replay fidelity, and the evidence printed when a
/// differential check fails. Sites are rendered by name so the text is
/// stable under interning order.
pub fn render_log(log: &EventLog) -> String {
    let mut out = String::new();
    for ev in &log.events {
        let cause = |c: Option<nodefz_rt::CbId>| match c {
            Some(id) => id.0.to_string(),
            None => "-".into(),
        };
        out.push_str(&format!(
            "ev {} {:?} cause={} cause2={} dec={} iter={} detail={:?}\n",
            ev.id.0,
            ev.kind,
            cause(ev.cause),
            cause(ev.cause2),
            ev.decisions,
            ev.iter,
            ev.detail,
        ));
    }
    for acc in &log.accesses {
        let site = log
            .sites
            .get(acc.site as usize)
            .map(String::as_str)
            .unwrap_or("?");
        out.push_str(&format!("acc {} {site} {:?}\n", acc.event.0, acc.kind));
    }
    out
}

/// One posture's run: build, install, run, snapshot the log *before* the
/// loop (and any pooled state) is dropped. Public so callers outside the
/// differential harness (the API-graph validity properties, notably) can
/// obtain the event log of a single posture without re-implementing the
/// install/run/snapshot dance.
pub fn run_logged(
    prog: &Rc<Prog>,
    env_seed: u64,
    mode: Mode,
    pool: &Option<LoopPool>,
) -> (RunReport, EventLog) {
    let events = EventLogHandle::fresh();
    let mut cfg = RunCfg::new(mode, env_seed).events(&events);
    if let Some(pool) = pool {
        cfg = cfg.pooled(pool);
    }
    let mut el = cfg.build_loop();
    install(prog, &mut el);
    let report = el.run();
    let log = events.snapshot();
    (report, log)
}

fn clean(mode: &'static str, report: &RunReport) -> Result<(), DiffFailure> {
    if !matches!(report.termination, Termination::Quiescent) || !report.errors.is_empty() {
        return Err(DiffFailure::RunError {
            mode,
            detail: format!(
                "termination {:?}, errors {:?}",
                report.termination, report.errors
            ),
        });
    }
    Ok(())
}

fn oracle_pass(
    mode: &'static str,
    prog: &Prog,
    log: &EventLog,
    ctx: &OracleCtx,
) -> Result<(), DiffFailure> {
    match check(prog, log, ctx).into_iter().next() {
        None => Ok(()),
        Some(violation) => Err(DiffFailure::Oracle { mode, violation }),
    }
}

/// The first marker site (`run:`/`msg:`) accessed by `event` — the
/// cross-run identity anchor for a racing dispatch.
fn anchor_of(log: &EventLog, event: u32) -> Option<String> {
    log.accesses.iter().find_map(|acc| {
        let name = log.sites.get(acc.site as usize)?;
        (acc.event.0 == event && (name.starts_with("run:") || name.starts_with("msg:")))
            .then(|| name.clone())
    })
}

/// The event that accessed `marker` in `log`, if any.
fn event_of(log: &EventLog, marker: &str) -> Option<u32> {
    let site = log.sites.iter().position(|s| s == marker)? as u32;
    log.accesses
        .iter()
        .find(|acc| acc.site == site)
        .map(|acc| acc.event.0)
}

/// Runs `prog` through all four postures and cross-checks them. On
/// success the report counts events, predictions, and how each
/// prediction was resolved; the first failed cross-check aborts.
///
/// # Errors
///
/// Returns the first [`DiffFailure`] encountered.
pub fn differential(
    prog: &Rc<Prog>,
    env_seed: u64,
    cfg: &DiffConfig,
) -> Result<DiffReport, DiffFailure> {
    let mut report = DiffReport::default();

    // 1. Vanilla.
    let (vr, vlog) = run_logged(prog, env_seed, Mode::Vanilla, &cfg.pool);
    clean("vanilla", &vr)?;
    let vctx = OracleCtx {
        demux: false,
        completed: true,
    };
    oracle_pass("vanilla", prog, &vlog, &vctx)?;
    report.vanilla_events = vlog.events.len();

    // 2. Fuzz under a seeded swarm parameterization, recorded.
    let params = FuzzParams::sampled(env_seed ^ 0x5EED_CAFE);
    let handle = TraceHandle::fresh();
    let (fr, flog) = run_logged(
        prog,
        env_seed,
        Mode::Record(params.clone(), handle.clone()),
        &cfg.pool,
    );
    clean("fuzz", &fr)?;
    let fctx = OracleCtx {
        demux: params.demux_done,
        completed: true,
    };
    oracle_pass("fuzz", prog, &flog, &fctx)?;
    report.fuzz_events = flog.events.len();
    let trace = handle.snapshot();

    // 3. Replay the fuzz recording: divergence-free, byte-identical log.
    let status = ReplayStatusHandle::fresh();
    let (rr, rlog) = run_logged(
        prog,
        env_seed,
        Mode::Replay(trace.clone(), status.clone()),
        &cfg.pool,
    );
    clean("replay", &rr)?;
    if let Err(e) = status.verdict() {
        return Err(DiffFailure::ReplayDiverged {
            detail: e.to_string(),
        });
    }
    let recorded = render_log(&flog);
    let replayed = render_log(&rlog);
    if recorded != replayed {
        let line = recorded
            .lines()
            .zip(replayed.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| recorded.lines().count().min(replayed.lines().count()));
        return Err(DiffFailure::LogMismatch {
            line,
            recorded: recorded.lines().nth(line).unwrap_or("<eof>").to_string(),
            replayed: replayed.lines().nth(line).unwrap_or("<eof>").to_string(),
        });
    }
    oracle_pass(
        "replay",
        prog,
        &rlog,
        &OracleCtx {
            demux: trace.demux_done,
            completed: true,
        },
    )?;

    // 4. Directed: predict races from a no-fuzz recording, then confirm
    // or explicitly classify every prediction.
    let base_handle = TraceHandle::fresh();
    let base_params = FuzzParams::none();
    let base_demux = base_params.demux_done;
    let (br, blog) = run_logged(
        prog,
        env_seed,
        Mode::Record(base_params, base_handle.clone()),
        &cfg.pool,
    );
    clean("baseline", &br)?;
    oracle_pass(
        "baseline",
        prog,
        &blog,
        &OracleCtx {
            demux: base_demux,
            completed: true,
        },
    )?;
    // Every directed attempt's spec shares this one copy of the trace.
    let base = DirectedSpec::new(base_handle.snapshot(), 0);
    let races = races_with_cuts(&blog);
    report.races = races.len();
    // Directed runs use the standard parameterization for their suffix.
    let directed_demux = Mode::Directed(base.clone(), TraceHandle::fresh())
        .params()
        .is_some_and(|p| p.demux_done);

    for race in races.iter().take(cfg.directed_races) {
        let outcome = confirm_race(
            prog,
            env_seed,
            cfg,
            &blog,
            &base,
            race,
            directed_demux,
            &mut report,
        )?;
        match outcome {
            RaceOutcome::Confirmed => report.confirmed += 1,
            RaceOutcome::Unconfirmable(_) => report.unconfirmable += 1,
        }
    }
    Ok(report)
}

/// Tries to flip one predicted race with directed runs; every directed
/// log must itself pass the oracle (a flipped schedule is still a legal
/// schedule).
#[allow(clippy::too_many_arguments)]
fn confirm_race(
    prog: &Rc<Prog>,
    env_seed: u64,
    cfg: &DiffConfig,
    base_log: &EventLog,
    base: &DirectedSpec,
    race: &nodefz_hb::RaceInfo,
    directed_demux: bool,
    report: &mut DiffReport,
) -> Result<RaceOutcome, DiffFailure> {
    let Some(anchor_a) = anchor_of(base_log, race.a.event) else {
        return Ok(RaceOutcome::Unconfirmable(format!(
            "event {} carries no marker to identify it across runs",
            race.a.event
        )));
    };
    let Some(anchor_b) = anchor_of(base_log, race.b.event) else {
        return Ok(RaceOutcome::Unconfirmable(format!(
            "event {} carries no marker to identify it across runs",
            race.b.event
        )));
    };
    if anchor_a == anchor_b {
        return Ok(RaceOutcome::Unconfirmable(
            "both racing events resolve to the same marker".into(),
        ));
    }
    // The shared flip-cut ladder (when `flip_cuts` is empty, `chain_cut`
    // equals the ladder's pre-dispatch fallback, so this is identical to
    // the historical chain_cut fallback).
    for cut in race.ladder(cfg.directed_cuts) {
        let at_cut = DirectedSpec {
            cut,
            ..base.clone()
        };
        for attempt in 0..cfg.directed_attempts {
            let spec = at_cut.clone().with_attempt(attempt);
            let dhandle = TraceHandle::fresh();
            let (dr, dlog) = run_logged(prog, env_seed, Mode::Directed(spec, dhandle), &cfg.pool);
            report.directed_runs += 1;
            clean("directed", &dr)?;
            oracle_pass(
                "directed",
                prog,
                &dlog,
                &OracleCtx {
                    demux: directed_demux,
                    completed: true,
                },
            )?;
            if let (Some(da), Some(db)) = (event_of(&dlog, &anchor_a), event_of(&dlog, &anchor_b)) {
                if db < da {
                    return Ok(RaceOutcome::Confirmed);
                }
            }
        }
    }
    Ok(RaceOutcome::Unconfirmable(format!(
        "no directed run flipped {anchor_a} and {anchor_b} within \
         {} cut(s) x {} attempt(s)",
        cfg.directed_cuts, cfg.directed_attempts
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn differential_passes_on_generated_programs() {
        let cfg = DiffConfig::default();
        for seed in 0..25 {
            let prog = Rc::new(generate(seed));
            let report = differential(&prog, seed, &cfg)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\nprogram:\n{prog}"));
            assert!(report.vanilla_events > 0);
            assert_eq!(
                report.confirmed + report.unconfirmable,
                report.races.min(cfg.directed_races)
            );
        }
    }

    #[test]
    fn render_log_is_deterministic_and_total() {
        let prog = Rc::new(generate(11));
        let (_, log) = run_logged(&prog, 11, Mode::Vanilla, &None);
        let a = render_log(&log);
        let b = render_log(&log);
        assert_eq!(a, b);
        assert!(a.lines().count() >= log.events.len() + log.accesses.len());
    }
}
