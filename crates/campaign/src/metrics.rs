//! Campaign telemetry: the run tally and the `nodefz-metrics-v1`
//! snapshot document.
//!
//! The controller applies fuzz results in dispatch order and sums each one
//! into a `Tally`: runs, manifestations, dispatched callbacks and their
//! per-run histogram, and, above [`ObsLevel::Off`], the loop profile the
//! result carries back from its worker. Controller-side series — per-arm
//! pulls, quarantine and schedule diversity, and the bug-discovery curve —
//! ride along in the same [`MetricsSnapshot`], and every part of it
//! describes the same prefix of applied runs. A single JSON file answers
//! the paper's evaluation questions (Fig. 6's discovery behavior, Fig. 7's
//! diversity, §5.4's where-does-the-time-go) for a live campaign.
//!
//! Loop-phase timings and per-kind dispatch counts are collected only
//! above [`ObsLevel::Off`]; at `off` the document's `phases`/`callbacks`
//! arrays are empty.

use std::time::Duration;

use nodefz_hb::SeenSet;
use nodefz_obs::{JsonWriter, ObsLevel};
use nodefz_rt::{CbKind, ObsHandle, Phase, PhaseProfile};
use nodefz_trace::{DiversitySummary, PAPER_TRUNCATION};

use crate::driver::{Arm, Quarantine};

/// Upper bounds for the per-run dispatched-callback histogram. Bug runs
/// dispatch hundreds to a few thousand callbacks; the overflow bucket
/// catches pathological schedules.
const DISPATCH_BOUNDS: [u64; 8] = [64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// The per-run dispatched-callback distribution: bucket `i` counts runs
/// that dispatched at most `DISPATCH_BOUNDS[i]` callbacks (and more than
/// the bound before it); the last bucket counts the overflow.
#[derive(Clone, Debug, Default)]
pub struct DispatchHistogram {
    /// One count per bound, then the overflow bucket.
    pub buckets: [u64; DISPATCH_BOUNDS.len() + 1],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl DispatchHistogram {
    fn observe(&mut self, v: u64) {
        self.buckets[DISPATCH_BOUNDS.partition_point(|b| v > *b)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Mean observed value, or 0.0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One fuzz run's loop profile, copied off the worker's [`ObsHandle`]
/// (which is `Rc`-based and stays on its thread) to travel to the
/// controller with the run's result.
pub(crate) struct LoopProfile {
    phases: [PhaseProfile; 8],
    kinds: Vec<(CbKind, u64)>,
}

impl LoopProfile {
    /// Copies out the profile of the run just finished and resets the
    /// handle for the next one.
    pub(crate) fn take(obs: &ObsHandle) -> LoopProfile {
        let profile = LoopProfile {
            phases: obs.phase_profiles(),
            kinds: obs.kind_counts(),
        };
        obs.reset();
        profile
    }
}

/// The run counters of the metrics document, summed by the controller as
/// it applies each fuzz result.
#[derive(Default)]
pub(crate) struct Tally {
    runs: u64,
    manifested: u64,
    dispatched: u64,
    run_dispatched: DispatchHistogram,
    phases: Vec<PhaseMetrics>,
    callbacks: Vec<(&'static str, u64)>,
}

impl Tally {
    /// An empty tally. Above [`ObsLevel::Off`] it holds a zeroed row per
    /// loop phase and per callback kind; at `off` it holds none.
    pub(crate) fn new(level: ObsLevel) -> Tally {
        let profiled = !level.is_off();
        Tally {
            phases: Phase::all()
                .iter()
                .filter(|_| profiled)
                .map(|p| PhaseMetrics {
                    phase: p.label(),
                    entries: 0,
                    vtime_ns: 0,
                    wall_ns: 0,
                })
                .collect(),
            callbacks: CbKind::all()
                .iter()
                .filter(|_| profiled)
                .map(|k| (k.label(), 0))
                .collect(),
            ..Tally::default()
        }
    }

    /// Counts one applied fuzz run and folds in its loop profile, if any.
    pub(crate) fn add(&mut self, dispatched: u64, manifested: bool, profile: Option<&LoopProfile>) {
        self.runs += 1;
        self.manifested += u64::from(manifested);
        self.dispatched += dispatched;
        self.run_dispatched.observe(dispatched);
        if let Some(profile) = profile {
            for (row, p) in self.phases.iter_mut().zip(&profile.phases) {
                row.entries += p.entries;
                row.vtime_ns += p.vtime.as_nanos();
                row.wall_ns += p.wall_ns;
            }
            for ((_, sum), (_, count)) in self.callbacks.iter_mut().zip(&profile.kinds) {
                *sum += count;
            }
        }
    }
}

/// One arm's telemetry row.
#[derive(Clone, Debug)]
pub struct ArmMetrics {
    /// Bug abbreviation.
    pub app: String,
    /// Preset name.
    pub preset: &'static str,
    /// Runs dispatched to the arm. Arms take turns, so live arms differ
    /// by at most one.
    pub pulls: u64,
    /// Why the arm was retired, once a run of it (or a directed arm's
    /// analysis run) panicked; the same record as the report's.
    pub quarantine: Option<Quarantine>,
    /// Schedule diversity over this arm's sampled runs, truncated at the
    /// paper's 20 K-callback mark (`None` until a schedule is sampled).
    pub diversity: Option<DiversitySummary>,
}

/// One point on the bug-discovery curve: when a signature was first seen.
#[derive(Clone, Debug)]
pub struct Discovery {
    /// The deduplicated signature, rendered.
    pub signature: String,
    /// Bug abbreviation.
    pub app: String,
    /// Normalized failure site.
    pub site: String,
    /// Completed-execution index at first sighting (strictly increasing
    /// across the curve: at most one signature is discovered per run).
    pub first_exec: u64,
    /// Wall-clock milliseconds from campaign start at first sighting.
    pub first_ms: u64,
}

/// Aggregated loop-phase timing, one row per phase.
#[derive(Clone, Debug)]
pub struct PhaseMetrics {
    /// Phase label (`timers`, `poll`, `demux`, …).
    pub phase: &'static str,
    /// Times the phase ran.
    pub entries: u64,
    /// Virtual time spent in the phase, nanoseconds.
    pub vtime_ns: u64,
    /// Wall-clock time spent in the phase, nanoseconds.
    pub wall_ns: u64,
}

/// The `--prune` seen-set's counts, which the metrics' `pruning` block is
/// written from. The key they count ([`nodefz_hb::CanonKey`]) gives a
/// race and its reversal one class, so `distinct` counts classes of that
/// key, not Mazurkiewicz traces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeenCounts {
    /// Classes resident in the seen-set.
    pub occupancy: u64,
    /// Classes evicted to stay under the seen-set's cap. Nonzero means
    /// the redundancy ratio undercounts: an evicted class seen again
    /// counts as distinct.
    pub evictions: u64,
    /// Runs whose key was resident already: the redundant runs.
    pub hits: u64,
}

impl SeenCounts {
    /// Reads the counts off `seen`.
    pub fn of(seen: &SeenSet) -> SeenCounts {
        SeenCounts {
            occupancy: seen.len() as u64,
            evictions: seen.evicted(),
            hits: seen.hits(),
        }
    }

    /// Runs whose key was new: each resident or evicted class was
    /// inserted once.
    pub fn distinct(&self) -> u64 {
        self.occupancy + self.evictions
    }

    /// Runs counted.
    pub fn runs(&self) -> u64 {
        self.distinct() + self.hits
    }

    /// Fraction of runs that re-visited a class already seen.
    pub fn redundancy_ratio(&self) -> f64 {
        match self.runs() {
            0 => 0.0,
            runs => self.hits as f64 / runs as f64,
        }
    }
}

/// A point-in-time campaign telemetry snapshot; serializes to the
/// `nodefz-metrics-v1` JSON document.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Wall-clock time since campaign start.
    pub elapsed: Duration,
    /// Total run budget.
    pub budget: u64,
    /// Fuzz executions completed.
    pub runs: u64,
    /// Callbacks dispatched across all executions.
    pub dispatched: u64,
    /// Executions whose oracle tripped (before dedup).
    pub manifested: u64,
    /// Distinct bug signatures found so far.
    pub unique_bugs: u64,
    /// Whether this is the campaign's final snapshot.
    pub finished: bool,
    /// Per-arm pulls and diversity.
    pub arms: Vec<ArmMetrics>,
    /// The bug-discovery curve, in first-seen order.
    pub discovery: Vec<Discovery>,
    /// Loop-phase timings (empty at [`ObsLevel::Off`]).
    pub phases: Vec<PhaseMetrics>,
    /// Per-kind dispatch counts (same availability as `phases`).
    pub callbacks: Vec<(&'static str, u64)>,
    /// Per-run dispatched-callback distribution.
    pub run_dispatched: DispatchHistogram,
    /// The `--prune` seen-set's counts (`None` unless the campaign ran
    /// with pruning on). Additive to the `nodefz-metrics-v1` schema:
    /// existing readers that ignore unknown fields keep working.
    pub pruning: Option<SeenCounts>,
    /// API-surface coverage of the conform-api arms (`None` unless the
    /// campaign pulled a `CONFORM-API` arm). The full `nodefz-apicov-v1`
    /// document embeds under the `apicov` key — additive, like `pruning`.
    pub apicov: Option<nodefz_conform::ApiCovSnapshot>,
}

impl MetricsSnapshot {
    /// Executions per second so far.
    pub fn execs_per_sec(&self) -> f64 {
        self.runs as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }

    /// Serializes the snapshot as the `nodefz-metrics-v1` document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "nodefz-metrics-v1");
        w.field_u64("elapsed_ms", self.elapsed.as_millis() as u64);
        w.field_u64("budget", self.budget);
        w.field_u64("runs", self.runs);
        w.field_u64("dispatched", self.dispatched);
        w.field_u64("manifested", self.manifested);
        w.field_u64("unique_bugs", self.unique_bugs);
        w.field_f64("execs_per_sec", self.execs_per_sec(), 1);
        w.field_bool("finished", self.finished);

        w.key("arms");
        w.begin_array();
        for arm in &self.arms {
            w.begin_object();
            w.field_str("app", &arm.app);
            w.field_str("preset", arm.preset);
            w.field_u64("pulls", arm.pulls);
            w.key("quarantine");
            match &arm.quarantine {
                Some(q) => {
                    w.begin_object();
                    w.field_u64("env_seed", q.env_seed);
                    w.field_str("message", &q.message);
                    w.end_object();
                }
                None => w.null(),
            }
            w.key("diversity");
            match &arm.diversity {
                Some(d) => {
                    w.begin_object();
                    w.field_u64("runs", d.runs as u64);
                    w.field_f64("mean_pairwise_ld", d.mean_pairwise_ld, 6);
                    w.field_f64("min_pairwise_ld", d.min_pairwise_ld, 6);
                    w.field_f64("max_pairwise_ld", d.max_pairwise_ld, 6);
                    w.field_u64("distinct", d.distinct as u64);
                    w.field_f64("mean_len", d.mean_len, 1);
                    w.field_f64("kind_entropy", d.kind_entropy, 6);
                    w.field_u64("truncation", PAPER_TRUNCATION as u64);
                    w.end_object();
                }
                None => w.null(),
            }
            w.end_object();
        }
        w.end_array();

        w.key("discovery");
        w.begin_array();
        for d in &self.discovery {
            w.begin_object();
            w.field_str("signature", &d.signature);
            w.field_str("app", &d.app);
            w.field_str("site", &d.site);
            w.field_u64("first_exec", d.first_exec);
            w.field_u64("first_ms", d.first_ms);
            w.end_object();
        }
        w.end_array();

        w.key("phases");
        w.begin_array();
        for p in &self.phases {
            w.begin_object();
            w.field_str("phase", p.phase);
            w.field_u64("entries", p.entries);
            w.field_u64("vtime_ns", p.vtime_ns);
            w.field_u64("wall_ns", p.wall_ns);
            w.end_object();
        }
        w.end_array();

        w.key("callbacks");
        w.begin_array();
        for (kind, count) in &self.callbacks {
            w.begin_object();
            w.field_str("kind", kind);
            w.field_u64("count", *count);
            w.end_object();
        }
        w.end_array();

        w.key("run_dispatched");
        let h = &self.run_dispatched;
        w.begin_object();
        w.key("bounds");
        w.begin_array();
        for b in DISPATCH_BOUNDS {
            w.u64(b);
        }
        w.end_array();
        w.key("buckets");
        w.begin_array();
        for b in &h.buckets {
            w.u64(*b);
        }
        w.end_array();
        w.field_u64("count", h.count);
        w.field_u64("sum", h.sum);
        w.field_f64("mean", h.mean(), 1);
        w.end_object();

        if let Some(p) = &self.pruning {
            w.key("pruning");
            w.begin_object();
            w.field_u64("runs", p.runs());
            w.field_u64("distinct", p.distinct());
            w.field_u64("redundant", p.hits);
            w.field_u64("seen_occupancy", p.occupancy);
            w.field_u64("seen_evictions", p.evictions);
            w.field_u64("seen_hits", p.hits);
            w.field_f64("redundancy_ratio", p.redundancy_ratio(), 6);
            w.end_object();
        }

        if let Some(cov) = &self.apicov {
            w.key("apicov");
            w.raw(&cov.to_json());
        }
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

/// Assembles a [`MetricsSnapshot`] from the controller's state and its
/// run tally. `arms` and `schedules` are parallel, one entry per arm: the
/// arm, and its sampled [`TypeSchedule`]s for the diversity summary
/// (empty = not sampled yet).
///
/// [`TypeSchedule`]: nodefz_rt::TypeSchedule
#[allow(clippy::too_many_arguments)]
pub(crate) fn collect(
    elapsed: Duration,
    budget: u64,
    unique_bugs: u64,
    finished: bool,
    arms: &[Arm],
    schedules: &[Vec<nodefz_rt::TypeSchedule>],
    discovery: &[Discovery],
    tally: &Tally,
    seen: Option<&SeenSet>,
) -> MetricsSnapshot {
    let arms = arms
        .iter()
        .zip(schedules)
        .map(|(arm, samples)| ArmMetrics {
            app: arm.app.clone(),
            preset: crate::config::preset_name(arm.preset),
            pulls: arm.pulls,
            quarantine: arm.quarantine.clone(),
            diversity: (!samples.is_empty())
                .then(|| DiversitySummary::compute(samples, PAPER_TRUNCATION)),
        })
        .collect();
    MetricsSnapshot {
        elapsed,
        budget,
        runs: tally.runs,
        dispatched: tally.dispatched,
        manifested: tally.manifested,
        unique_bugs,
        finished,
        arms,
        discovery: discovery.to_vec(),
        phases: tally.phases.clone(),
        callbacks: tally.callbacks.clone(),
        run_dispatched: tally.run_dispatched.clone(),
        pruning: seen.map(SeenCounts::of),
        apicov: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kue(pulls: u64) -> [Arm; 1] {
        [Arm {
            app: "KUE".into(),
            preset: 0,
            pulls,
            quarantine: None,
        }]
    }

    fn schedule(kinds: &[nodefz_rt::CbKind]) -> nodefz_rt::TypeSchedule {
        let mut s = nodefz_rt::TypeSchedule::new();
        for &k in kinds {
            s.push(k);
        }
        s
    }

    #[test]
    fn diversity_uses_the_papers_truncation_mark() {
        // Fig. 7's metric truncates schedules at the first 20 K callbacks;
        // the snapshot must pin that constant, not invent its own.
        assert_eq!(PAPER_TRUNCATION, 20_000);
        let snap = collect(
            Duration::from_millis(100),
            10,
            0,
            false,
            &kue(2),
            &[vec![
                schedule(&[nodefz_rt::CbKind::Timer, nodefz_rt::CbKind::Check]),
                schedule(&[nodefz_rt::CbKind::Check, nodefz_rt::CbKind::Timer]),
            ]],
            &[],
            &Tally::new(ObsLevel::Off),
            None,
        );
        let div = snap.arms[0].diversity.as_ref().expect("sampled arm");
        assert_eq!(div.runs, 2);
        assert!(div.mean_pairwise_ld > 0.0);
        let json = snap.to_json();
        assert!(
            json.contains("\"truncation\": 20000"),
            "document must carry the truncation mark: {json}"
        );
    }

    #[test]
    fn unsampled_arms_serialize_null_diversity_and_bounds() {
        let snap = collect(
            Duration::from_millis(50),
            10,
            0,
            false,
            &kue(0),
            &[Vec::new()],
            &[],
            &Tally::new(ObsLevel::Off),
            None,
        );
        assert!(snap.arms[0].diversity.is_none());
        let json = snap.to_json();
        assert!(json.contains("\"diversity\": null"), "{json}");
        assert!(json.contains("\"pulls\": 0"), "{json}");
        assert!(
            !json.contains("mean_reward") && !json.contains("ucb_bound"),
            "{json}"
        );
    }

    #[test]
    fn a_rows_quarantine_is_null_or_its_seed_and_message() {
        let json = |arms: &[Arm]| {
            collect(
                Duration::ZERO,
                10,
                0,
                false,
                arms,
                &[Vec::new()],
                &[],
                &Tally::new(ObsLevel::Off),
                None,
            )
            .to_json()
        };
        let mut arms = kue(3);
        let live = json(&arms);
        assert!(
            live.contains(r#""pulls": 3, "quarantine": null, "diversity""#),
            "{live}"
        );
        arms[0].quarantine = Some(Quarantine {
            app: "KUE".into(),
            preset: "standard",
            env_seed: u64::MAX,
            message: "panicked at \"job\"".into(),
        });
        let retired = json(&arms);
        let row = r#""pulls": 3, "quarantine": {"env_seed": 18446744073709551615, "message": "panicked at \"job\""}, "diversity""#;
        assert!(retired.contains(row), "{retired}");
    }

    #[test]
    fn worker_recording_lands_in_the_document() {
        let mut tally = Tally::new(ObsLevel::Off);
        // Bounds are inclusive: 64 and 128 land in the buckets they bound.
        for (dispatched, manifested) in [(64, false), (65, true), (128, false), (9000, false)] {
            tally.add(dispatched, manifested, None);
        }
        let snap = collect(
            Duration::from_secs(1),
            10,
            1,
            true,
            &[],
            &[],
            &[],
            &tally,
            None,
        );
        assert_eq!(snap.runs, 4);
        assert_eq!(snap.dispatched, 9257);
        assert_eq!(snap.manifested, 1);
        assert!(snap.phases.is_empty() && snap.callbacks.is_empty());
        let hist = &snap.run_dispatched;
        assert_eq!(hist.buckets, [1, 2, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 9257);
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"nodefz-metrics-v1\""));
        assert!(json.contains("\"finished\": true"));
        assert!(
            json.contains("\"buckets\": [1, 2, 0, 0, 0, 0, 0, 0, 1]"),
            "{json}"
        );
    }

    #[test]
    fn discovery_curve_is_monotone_in_the_document_order() {
        let discovery = [
            Discovery {
                signature: "KUE:site-a".into(),
                app: "KUE".into(),
                site: "site-a".into(),
                first_exec: 3,
                first_ms: 12,
            },
            Discovery {
                signature: "MKD:site-b".into(),
                app: "MKD".into(),
                site: "site-b".into(),
                first_exec: 17,
                first_ms: 48,
            },
        ];
        let snap = collect(
            Duration::from_secs(1),
            20,
            2,
            true,
            &[],
            &[],
            &discovery,
            &Tally::new(ObsLevel::Off),
            None,
        );
        assert!(
            snap.discovery
                .windows(2)
                .all(|w| { w[0].first_exec < w[1].first_exec && w[0].first_ms <= w[1].first_ms }),
            "discovery curve must be monotone: {:?}",
            snap.discovery
        );
        assert!(snap.to_json().contains("\"first_exec\": 17"));
    }

    #[test]
    fn the_pruning_block_is_read_off_the_seen_set() {
        // Into a set of two: fresh, fresh, hit, fresh (evicts 1), fresh
        // (evicts 2).
        let mut seen = SeenSet::new(2);
        for key in [1, 2, 1, 3, 1] {
            seen.insert(nodefz_hb::CanonKey(key));
        }
        let snap = collect(
            Duration::ZERO,
            5,
            0,
            true,
            &[],
            &[],
            &[],
            &Tally::new(ObsLevel::Off),
            Some(&seen),
        );
        let doc = nodefz_obs::JsonValue::parse(&snap.to_json()).unwrap();
        let block = doc.get("pruning").expect("pruning block");
        for (key, count) in [
            ("runs", 5),
            ("distinct", 4),
            ("redundant", 1),
            ("seen_occupancy", 2),
            ("seen_evictions", 2),
            ("seen_hits", 1),
        ] {
            assert_eq!(
                block.get(key).and_then(|v| v.as_u64()),
                Some(count),
                "{key}"
            );
        }
        let ratio = block.get("redundancy_ratio").and_then(|v| v.as_f64());
        assert_eq!(ratio, Some(0.2));
        assert!(block.get("mismatches").is_none());
    }
}
