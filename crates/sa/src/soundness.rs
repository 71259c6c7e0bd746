//! The soundness gate: static prediction must cover dynamic prediction.
//!
//! For every generated program, `nodefz-hb`'s happens-before analysis of
//! a recorded run yields *dynamic* race predictions. The static analyzer
//! never sees the run — so the one property that makes it trustworthy is
//! **containment**: every dynamic `(site, class, pair)` verdict must be
//! covered by some static candidate of the same program. [`check_prog`]
//! checks exactly that for one program (run markers map racing events
//! back onto model atoms), and [`sweep`] walks a prefix of the conform
//! program stream and hard-collects misses.

use std::rc::Rc;

use nodefz::Mode;
use nodefz_conform::{generate, run_logged, stream_seed, Prog};
use nodefz_hb::races_with_cuts;
use nodefz_rt::{EventLog, LoopPool, Termination};

use crate::metrics::SaMetrics;
use crate::mhp::MhpIndex;
use crate::prog_model::{model_of_prog, ProgModel};
use crate::races::{candidates, Candidate};

/// The soundness verdict for one program.
pub struct ProgCheck {
    /// Dynamic races predicted by happens-before analysis of the run.
    pub dynamic: usize,
    /// Static candidates the analyzer emitted.
    pub candidates: Vec<Candidate>,
    /// Whether the analyzer declared the program race-free (no
    /// candidates at all).
    pub race_free: bool,
    /// Dynamic predictions no static candidate covers. Any entry is a
    /// soundness violation.
    pub missing: Vec<String>,
    /// Precision counters for this program.
    pub metrics: SaMetrics,
}

/// The atom a dynamic event folds to, via its `run:<id>` marker access.
fn atom_of_event(log: &EventLog, pm: &ProgModel, event: u32) -> Option<u32> {
    log.accesses.iter().find_map(|acc| {
        if acc.event.0 != event {
            return None;
        }
        let name = log.sites.get(acc.site as usize)?;
        let id: usize = name.strip_prefix("run:")?.parse().ok()?;
        pm.atom_of_node.get(id).copied()
    })
}

/// Statically analyzes `prog`, runs it once under the vanilla scheduler,
/// and checks that every dynamic race prediction is covered by a static
/// candidate with the exact `(site, atom pair, class)`.
///
/// `sabotage` drops the first static candidate before checking — the CI
/// canary that proves the gate actually trips on a broken analyzer.
///
/// # Errors
///
/// Returns a message if the vanilla run itself fails (non-quiescent
/// termination or runtime errors) — soundness cannot be judged from a
/// broken run.
pub fn check_prog(
    prog: &Rc<Prog>,
    env_seed: u64,
    pool: &Option<LoopPool>,
    sabotage: bool,
) -> Result<ProgCheck, String> {
    let pm = model_of_prog(prog, "prog");
    let idx = MhpIndex::build(&pm.model);
    let mut cands = candidates(&pm.model, &idx);
    if sabotage && !cands.is_empty() {
        cands.remove(0);
    }

    let (report, log) = run_logged(prog, env_seed, Mode::Vanilla, pool);
    if !matches!(report.termination, Termination::Quiescent) || !report.errors.is_empty() {
        return Err(format!(
            "vanilla run failed: termination {:?}, errors {:?}",
            report.termination, report.errors
        ));
    }

    let dynamic = races_with_cuts(&log);
    let mut missing = Vec::new();
    let mut confirmed_class = vec![None; cands.len()];
    for race in &dynamic {
        let Some(aa) = atom_of_event(&log, &pm, race.a.event) else {
            missing.push(format!(
                "dynamic {} race on {} at event {} has no run marker",
                race.class.label(),
                race.site,
                race.a.event
            ));
            continue;
        };
        let Some(ab) = atom_of_event(&log, &pm, race.b.event) else {
            missing.push(format!(
                "dynamic {} race on {} at event {} has no run marker",
                race.class.label(),
                race.site,
                race.b.event
            ));
            continue;
        };
        let (x, y) = (aa.min(ab), aa.max(ab));
        match cands
            .iter()
            .position(|c| c.site == race.site && c.a == x && c.b == y && c.covers(race.class))
        {
            Some(i) => {
                confirmed_class[i].get_or_insert(race.class);
            }
            None => missing.push(format!(
                "dynamic {} race on {} between atoms {x} ({}) and {y} ({}) \
                 has no covering static candidate",
                race.class.label(),
                race.site,
                pm.model.atoms[x as usize].label,
                pm.model.atoms[y as usize].label
            )),
        }
    }

    let mut metrics = SaMetrics {
        models: 1,
        candidates: cands.len() as u64,
        ..SaMetrics::default()
    };
    for c in &cands {
        metrics.av += u64::from(c.covers(nodefz_hb::RaceClass::Av));
        metrics.ov += u64::from(c.covers(nodefz_hb::RaceClass::Ov));
        metrics.cov += u64::from(c.covers(nodefz_hb::RaceClass::Cov));
    }
    for class in confirmed_class.iter().flatten() {
        metrics.confirmed += 1;
        match class {
            nodefz_hb::RaceClass::Av => metrics.confirmed_av += 1,
            nodefz_hb::RaceClass::Ov => metrics.confirmed_ov += 1,
            nodefz_hb::RaceClass::Cov => metrics.confirmed_cov += 1,
        }
    }

    Ok(ProgCheck {
        dynamic: dynamic.len(),
        race_free: cands.is_empty(),
        candidates: cands,
        missing,
        metrics,
    })
}

/// Aggregate soundness/precision stats over one sweep.
#[derive(Default)]
pub struct SweepStats {
    /// Programs swept.
    pub programs: u64,
    /// Programs the analyzer declared race-free.
    pub race_free: u64,
    /// Dynamic races predicted across the sweep.
    pub dynamic: u64,
    /// Accumulated precision counters.
    pub metrics: SaMetrics,
    /// All soundness misses, each prefixed with the offending seed.
    /// Non-empty means the analyzer is broken.
    pub missing: Vec<String>,
}

/// Sweeps the first `count` programs of the conform program stream
/// ([`stream_seed`]) through [`check_prog`].
///
/// # Errors
///
/// Propagates the first run failure (see [`check_prog`]).
pub fn sweep(count: u64, pool: &Option<LoopPool>) -> Result<SweepStats, String> {
    let mut stats = SweepStats::default();
    for i in 0..count {
        let seed = stream_seed(i);
        let prog = Rc::new(generate(seed));
        let check =
            check_prog(&prog, seed, pool, false).map_err(|e| format!("seed {seed}: {e}"))?;
        stats.programs += 1;
        stats.race_free += u64::from(check.race_free);
        stats.dynamic += check.dynamic as u64;
        stats.metrics.merge(&check.metrics);
        stats.missing.extend(
            check
                .missing
                .into_iter()
                .map(|m| format!("seed {seed}: {m}")),
        );
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_family_prefix_is_sound() {
        // The stream prefix on fresh loops (no pool) must hold the gate
        // and see exactly what the pooled sweep sees: recycled loop state
        // changes no schedule.
        let fresh = sweep(40, &None).expect("runs clean");
        assert_eq!(fresh.programs, 40);
        assert!(fresh.missing.is_empty(), "misses: {:#?}", fresh.missing);
        assert!(fresh.dynamic > 0, "sweep too weak to test soundness");
        assert_eq!(fresh.metrics.models, 40);
        assert!(fresh.metrics.candidates >= fresh.metrics.confirmed);
        let pooled = sweep(40, &Some(LoopPool::new())).expect("runs clean");
        let counts = |s: &SweepStats| {
            (
                s.race_free,
                s.dynamic,
                s.metrics.candidates,
                s.metrics.confirmed,
            )
        };
        assert_eq!(counts(&fresh), counts(&pooled));
    }

    #[test]
    fn an_api_family_prefix_is_sound() {
        let stats = sweep(40, &Some(LoopPool::new())).expect("runs clean");
        assert_eq!(stats.programs, 40);
        assert!(stats.missing.is_empty(), "misses: {:#?}", stats.missing);
        // The prefix must exercise the gate: some dynamic races exist and
        // every one of them was covered.
        assert!(stats.dynamic > 0, "sweep too weak to test soundness");
        assert_eq!(stats.metrics.models, 40);
        assert!(stats.metrics.candidates >= stats.metrics.confirmed);
    }
}
