//! The record → predict pipeline for one application.
//!
//! Every analysis consumes one run of an app's buggy variant under
//! [`vanilla_posture`]: `nodeFZ(record)` with the no-fuzz
//! parameterization, the `nodeNFZ` posture of §5.1. From that run's
//! decision trace and dispatch-provenance [`EventLog`] one builder,
//! [`AppAnalysis::new`], runs the happens-before race analysis. Two paths
//! feed it:
//!
//! - the live path, [`analyze_app`] (and the campaign's pooled
//!   `RunContext`), records the run with the event log attached and
//!   builds the analysis from that log: one run, no text;
//! - the text path, [`analyze_recorded`], reads a `nodefz-trace` v1 text
//!   (from [`record_vanilla`] or from outside the program), decodes and
//!   validates it, replays it decision-for-decision with the event log
//!   attached, and checks the replay was faithful.
//!
//! Event logging only observes, so both paths build the same analysis of
//! the same run. Ingestion on the text path is hardened: truncated or
//! corrupt trace text surfaces as a typed [`AnalyzeError`] (never a
//! panic), so a campaign can skip a bad corpus entry and keep going.

use std::fmt;

use nodefz::{
    decode_trace, encode_trace, DecisionTrace, FuzzParams, Mode, ReplayError, ReplayStatusHandle,
    TraceDecodeError, TraceFormatError, TraceHandle,
};
use nodefz_apps::common::{BugCase, RunCfg, Variant};
use nodefz_rt::{EvKind, EventLog, EventLogHandle};

use crate::races::{find_races, RaceClass};

/// Why a recorded trace could not be analyzed.
#[derive(Clone, Debug, PartialEq)]
pub enum AnalyzeError {
    /// The trace text failed to parse (truncated, bad header, bad line).
    Decode(TraceDecodeError),
    /// The trace parsed but is structurally invalid (corrupt shuffle,
    /// zero lookahead).
    Format(TraceFormatError),
    /// The trace replayed against the app but diverged, so the
    /// reconstructed event log does not describe the recorded run.
    Replay(ReplayError),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Decode(e) => write!(f, "trace decode failed: {e}"),
            AnalyzeError::Format(e) => write!(f, "trace invalid: {e}"),
            AnalyzeError::Replay(e) => write!(f, "trace replay diverged: {e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<TraceDecodeError> for AnalyzeError {
    fn from(e: TraceDecodeError) -> AnalyzeError {
        AnalyzeError::Decode(e)
    }
}

impl From<TraceFormatError> for AnalyzeError {
    fn from(e: TraceFormatError) -> AnalyzeError {
        AnalyzeError::Format(e)
    }
}

impl From<ReplayError> for AnalyzeError {
    fn from(e: ReplayError) -> AnalyzeError {
        AnalyzeError::Replay(e)
    }
}

/// One racing event's identity in a report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRef {
    /// Dense event id within the run.
    pub event: u32,
    /// Callback-kind label ("timer", "net-read", "pool-done", …).
    pub kind: String,
    /// Scheduler consultations made before this event dispatched.
    pub decisions: u64,
}

/// One predicted race, resolved to names for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceInfo {
    /// Shared-site name.
    pub site: String,
    /// Predicted classification.
    pub class: RaceClass,
    /// The earlier racing event.
    pub a: EventRef,
    /// The later racing event.
    pub b: EventRef,
    /// Decision-trace prefix length for a directed flip at this race
    /// (just before `a` dispatches).
    pub cut: u64,
    /// The most order-inverting flip point: just before the dispatch of
    /// the *earliest* scheduler-visible callback on `a`'s causal chain
    /// (an accept, a read, a timer — anything the scheduler consults
    /// about). By the time `a` itself dispatches, its side effects are
    /// often already in flight through environment hops the scheduler
    /// cannot touch; deferring the chain's root shifts the whole chain
    /// in virtual time. Equals `cut - 1` when the chain has no earlier
    /// schedulable ancestor.
    pub chain_cut: u64,
    /// All candidate flip points for this race, ascending: one per
    /// schedulable (callback) ancestor on `a`'s causal chain, each the
    /// decision count *just before* that ancestor's dispatch consult.
    /// `chain_cut` is the first entry.
    pub flip_cuts: Vec<u64>,
}

/// Flip points a race confirmer tries per predicted race, root-most chain
/// ancestor first: the bound `campaign analyze` and `campaign explain
/// --check` both pass to [`RaceInfo::ladder`].
pub const MAX_FLIPS_PER_RACE: usize = 4;

impl RaceInfo {
    /// The flip-cut ladder every directed confirmer climbs: at most `max`
    /// chain flip cuts (root-most first), falling back to "just before
    /// `a` dispatches" when the chain offered none. This is the one
    /// shared definition of the cut list — the campaign analyzer, the
    /// explainer and the conform harness all consume it instead of
    /// re-deriving the walk.
    pub fn ladder(&self, max: usize) -> Vec<u64> {
        let mut cuts = self.flip_cuts.to_vec();
        if cuts.is_empty() {
            cuts.push(self.cut.saturating_sub(1));
        }
        cuts.truncate(max);
        cuts
    }
}

/// The full analysis of one recorded app run.
#[derive(Clone, Debug, PartialEq)]
pub struct AppAnalysis {
    /// App abbreviation ("GHO", "SIO*", …).
    pub app: String,
    /// Environment seed of the recorded run.
    pub env_seed: u64,
    /// The recorded run's decision trace (the directed scheduler's
    /// prefix).
    pub trace: DecisionTrace,
    /// Events dispatched in the recorded run.
    pub events: usize,
    /// Instrumented accesses observed.
    pub accesses: usize,
    /// Shared-site names, in the log's interning order.
    pub sites: Vec<String>,
    /// Predicted races, in (site, a, b) order.
    pub races: Vec<RaceInfo>,
}

impl AppAnalysis {
    /// Analyzes one run of `app` at `env_seed` from its decision trace and
    /// the event log recorded alongside it: the one builder both the live
    /// and the text path end in.
    pub fn new(app: &str, env_seed: u64, trace: DecisionTrace, log: &EventLog) -> AppAnalysis {
        AppAnalysis {
            app: app.to_string(),
            env_seed,
            trace,
            events: log.events.len(),
            accesses: log.accesses.len(),
            sites: log.sites.clone(),
            races: races_with_cuts(log),
        }
    }
}

/// The mode every analyzed run is recorded in: `nodeFZ(record)` with
/// [`FuzzParams::none`], the `nodeNFZ` posture of §5.1, recording into
/// `handle`.
pub fn vanilla_posture(handle: &TraceHandle) -> Mode {
    Mode::Record(FuzzParams::none(), handle.clone())
}

/// Records one vanilla-posture (`nodeNFZ`, no fuzzing decisions) run of
/// the app's buggy variant and returns the `nodefz-trace` v1 text.
pub fn record_vanilla(app: &dyn BugCase, env_seed: u64) -> String {
    let handle = TraceHandle::fresh();
    let cfg = RunCfg::new(vanilla_posture(&handle), env_seed);
    app.run(&cfg, Variant::Buggy);
    encode_trace(&handle.snapshot())
}

/// Replays `trace_text` against the app and predicts its races: the text
/// path, for traces read from outside the program.
///
/// The prediction consumes *one* recorded schedule; §5's fuzzing
/// campaigns need hundreds of schedules to manifest the same bugs.
pub fn analyze_recorded(
    app: &dyn BugCase,
    env_seed: u64,
    trace_text: &str,
) -> Result<AppAnalysis, AnalyzeError> {
    let trace = decode_trace(trace_text)?;
    trace.validate()?;
    let status = ReplayStatusHandle::fresh();
    let events = EventLogHandle::fresh();
    let cfg = RunCfg::new(Mode::Replay(trace.clone(), status.clone()), env_seed).events(&events);
    app.run(&cfg, Variant::Buggy);
    status.verdict()?;
    Ok(events.with(|log| AppAnalysis::new(app.info().abbr, env_seed, trace, log)))
}

/// Records one vanilla-posture run with its event log attached and
/// predicts its races from that run: the live path, one run and no text.
/// It equals [`analyze_recorded`] of [`record_vanilla`]'s text, because
/// event logging only observes.
///
/// # Errors
///
/// Never fails: there is no text to decode and no replay to diverge. The
/// `Result` matches [`analyze_recorded`]'s, so callers take either path.
pub fn analyze_app(app: &dyn BugCase, env_seed: u64) -> Result<AppAnalysis, AnalyzeError> {
    let handle = TraceHandle::fresh();
    let events = EventLogHandle::fresh();
    let cfg = RunCfg::new(vanilla_posture(&handle), env_seed).events(&events);
    app.run(&cfg, Variant::Buggy);
    Ok(events.with(|log| AppAnalysis::new(app.info().abbr, env_seed, handle.snapshot(), log)))
}

/// Predicts races over any dispatch-provenance log and resolves each to
/// a reporting-ready [`RaceInfo`] (named site, kind labels, and the full
/// ladder of directed flip cuts). This is the log-level core of
/// [`AppAnalysis::new`], exposed so harnesses that build their own logs
/// — e.g. the `nodefz-conform` differential harness — can feed
/// predictions straight into a directed scheduler.
pub fn races_with_cuts(log: &EventLog) -> Vec<RaceInfo> {
    find_races(log)
        .into_iter()
        .map(|r| {
            let evref = |id: nodefz_rt::CbId| {
                let ev = &log.events[id.0 as usize];
                EventRef {
                    event: id.0,
                    kind: kind_label(ev.kind).to_string(),
                    decisions: ev.decisions,
                }
            };
            let flip_cuts = chain_flip_cuts(log, r.a);
            let chain_cut = flip_cuts
                .first()
                .copied()
                .unwrap_or_else(|| r.cut.saturating_sub(1));
            RaceInfo {
                site: log.sites[r.site as usize].clone(),
                class: r.class,
                a: evref(r.a),
                b: evref(r.b),
                cut: r.cut,
                chain_cut,
                flip_cuts,
            }
        })
        .collect()
}

/// The full causal chain of `event`, the event itself first, walking
/// `cause` links back to the scheduler-visible root. Every hop is
/// resolved to a reporting-ready [`EventRef`] — this is the raw material
/// of an explainable race report: the minimal "why did this dispatch"
/// story for one racing access, environment hops included. Returns an
/// empty chain for an out-of-range event id rather than panicking, so
/// explainers can feed it unvalidated report data.
pub fn causal_chain(log: &nodefz_rt::EventLog, event: u32) -> Vec<EventRef> {
    let mut chain = Vec::new();
    let mut cur = Some(event);
    while let Some(id) = cur {
        let Some(ev) = log.events.get(id as usize) else {
            break;
        };
        chain.push(EventRef {
            event: id,
            kind: kind_label(ev.kind).to_string(),
            decisions: ev.decisions,
        });
        // Causes point strictly backwards in dispatch order; a malformed
        // log must not loop us.
        cur = ev.cause.map(|c| c.0).filter(|c| *c < id);
    }
    chain
}

/// Candidate flip points for deferring the chain that leads to `event`:
/// walks the causal chain back to the scheduler-visible root (the same
/// walk as [`causal_chain`]) and, for every schedulable callback on it,
/// records the decision count just before that callback's dispatch
/// consult. Ascending, so the chain's root — the flip with the most
/// virtual time still ahead of it to absorb a deferral — comes first.
/// Returns an empty list for an out-of-range event id.
pub fn chain_cuts(log: &nodefz_rt::EventLog, event: u32) -> Vec<u64> {
    if log.events.get(event as usize).is_none() {
        return Vec::new();
    }
    chain_flip_cuts(log, nodefz_rt::CbId(event))
}

/// Candidate flip points for deferring the chain that leads to `a`:
/// walks `a`'s causal chain back to the root and, for every
/// scheduler-visible callback on it (environment hops and setup are not
/// consulted about, so they cannot be deferred), records the decision
/// count just before that callback's dispatch consult. Ascending, so the
/// chain's root — the flip with the most virtual time still ahead of it
/// to absorb a deferral — comes first.
fn chain_flip_cuts(log: &nodefz_rt::EventLog, a: nodefz_rt::CbId) -> Vec<u64> {
    let mut cuts = Vec::new();
    let mut cur = Some(a);
    while let Some(id) = cur {
        let ev = &log.events[id.0 as usize];
        if matches!(ev.kind, EvKind::Cb(_)) {
            cuts.push(ev.decisions.saturating_sub(1));
        }
        // Causes point strictly backwards in dispatch order; a malformed
        // log must not loop us.
        cur = ev.cause.filter(|c| c.0 < id.0);
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Human label for an event kind, matching the runtime's schedule traces.
fn kind_label(kind: EvKind) -> &'static str {
    match kind {
        EvKind::Setup => "setup",
        EvKind::Env => "env",
        EvKind::Cb(k) => k.label(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_app_round_trips_and_finds_the_planted_race() {
        let app = nodefz_apps::by_abbr("GHO").expect("registry");
        let analysis = analyze_app(app.as_ref(), 11).expect("analyzable");
        assert_eq!(analysis.app, "GHO");
        assert!(analysis.events > 0);
        assert!(analysis.accesses > 0);
        assert!(
            analysis
                .races
                .iter()
                .any(|r| r.site == "gho:user-row" && r.class == RaceClass::Av),
            "races: {:?}",
            analysis.races
        );
        for r in &analysis.races {
            assert!(r.a.event < r.b.event);
            assert_eq!(r.cut, r.a.decisions);
        }
        // The live analysis survives the text round trip unchanged.
        let text = record_vanilla(app.as_ref(), 11);
        assert_eq!(text, encode_trace(&analysis.trace));
        assert_eq!(analyze_recorded(app.as_ref(), 11, &text), Ok(analysis));
    }

    #[test]
    fn truncated_trace_is_a_typed_decode_error() {
        let app = nodefz_apps::by_abbr("GHO").expect("registry");
        let text = record_vanilla(app.as_ref(), 11);
        let truncated = &text[..text.len() - 5];
        match analyze_recorded(app.as_ref(), 11, truncated) {
            Err(AnalyzeError::Decode(_)) => {}
            other => panic!("expected decode error, got {other:?}"),
        }
    }
}
