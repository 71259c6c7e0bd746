//! The `campaign analyze` pipeline: predict, then confirm.
//!
//! Where a fuzzing campaign spends hundreds of runs per app waiting for
//! an oracle to trip, this pipeline spends *one* recorded vanilla-posture
//! run per app on the `nodefz-hb` happens-before analysis, then a handful
//! of race-directed runs confirming each predicted pair:
//!
//! ```text
//! per app: record (nodeNFZ posture) ─► hb analysis ─► predicted races
//!              │                                          │
//!              └────────── prefix + cut ──► DirectedSpec ─┘
//!                                               │
//!                       directed attempts ─► confirmed BugSignature
//!                                               │
//!                nodefz-races-v1 report    deduped corpus repros
//! ```
//!
//! A confirming directed run was recorded, so its decision trace replays
//! like any fuzz-found repro — confirmed races land in the same corpus
//! format, deduplicated by the same [`BugSignature`]s, and pass the same
//! acceptance: a repro is written only when every acceptance replay
//! re-manifested it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use nodefz::DirectedSpec;
use nodefz_apps::common::{BugCase, Variant};
use nodefz_hb::{analyze_app, AppAnalysis, RaceClass, RaceInfo, MAX_FLIPS_PER_RACE};
use nodefz_sa::{Candidate, MhpIndex, SaMetrics};
use nodefz_trace::BugSignature;

use crate::config::DIRECTED_PRESET;
use crate::corpus::Corpus;
use crate::dedup::{Deduper, Finding};
use crate::driver::{accepted, panic_message, record_to_entry, RunContext};

/// How many predicted flips per app the pipelines keep (first pair per
/// distinct (site, class), a few flip points each). Bounds the directed
/// budget on apps whose analysis predicts many overlapping pairs.
const MAX_SPECS_PER_APP: usize = 12;

/// Everything `campaign analyze` needs.
#[derive(Clone, Debug)]
pub struct AnalyzeConfig {
    /// Bug abbreviations to analyze.
    pub apps: Vec<String>,
    /// Environment seed of the recorded run each analysis consumes.
    pub env_seed: u64,
    /// Directed confirmation attempts per predicted race (0 = predict
    /// only).
    pub attempts: u64,
    /// Where to write the `nodefz-races-v1` report (`None` = in-memory
    /// only).
    pub races_out: Option<PathBuf>,
    /// Directory to persist confirmed repros into (`None` = in-memory
    /// only).
    pub corpus_dir: Option<PathBuf>,
    /// Acceptance replays per confirmed repro; a repro is written only when
    /// all of them re-manifest it (0 gates nothing).
    pub replay_checks: u32,
}

impl Default for AnalyzeConfig {
    fn default() -> AnalyzeConfig {
        AnalyzeConfig {
            apps: Vec::new(),
            env_seed: 11,
            attempts: 24,
            races_out: None,
            corpus_dir: None,
            replay_checks: 3,
        }
    }
}

/// One predicted race that a directed run re-manifested.
#[derive(Clone, Debug)]
pub struct ConfirmedRace {
    /// Bug abbreviation.
    pub app: String,
    /// Predicted shared site.
    pub site: String,
    /// Predicted §3.2 class label ("AV", "OV", "COV").
    pub class: &'static str,
    /// The replay-prefix cut the directed scheduler flipped at.
    pub cut: u64,
    /// Directed executions spent until the race manifested (1-based).
    pub execs: u64,
    /// The manifestation's dedup signature.
    pub signature: BugSignature,
}

/// What [`analyze_campaign`] reports.
#[derive(Debug)]
pub struct AnalyzeReport {
    /// Per-app happens-before analyses, in input order.
    pub analyses: Vec<AppAnalysis>,
    /// Predicted races a directed run confirmed, deduplicated by
    /// signature.
    pub confirmed: Vec<ConfirmedRace>,
    /// The rendered `nodefz-races-v1` document.
    pub races_json: String,
    /// Apps whose analysis failed or panicked, with the error rendered
    /// (`analyze` keeps going; one bad app should not sink the batch).
    pub failed: Vec<(String, String)>,
    /// Directed executions spent across every race chased, in
    /// happens-before prediction order.
    pub directed_execs: u64,
    /// Static-analysis precision counters over the analyzed apps'
    /// models.
    pub sa: SaMetrics,
    /// Confirmed races whose repro an acceptance replay did not
    /// re-manifest, so no corpus entry was written, with how many of the
    /// replays did (empty without a corpus).
    pub not_persisted: Vec<(BugSignature, u32)>,
}

/// Deduplicates an analysis' races down to the directed work list: the
/// first predicted pair per distinct (site, class), each paired with the
/// [`DirectedSpec`]s chasing it — one flip per schedulable ancestor on
/// the earlier event's causal chain ([`RaceInfo::flip_cuts`]), deepest
/// ancestor first. Deferring the chain's *root* shifts the whole chain
/// in virtual time, which is what actually inverts the order; flipping
/// right at the racing access is usually too late, because its side
/// effects are already in flight through environment hops.
fn spec_worklist(analysis: &AppAnalysis) -> Vec<(RaceInfo, Vec<DirectedSpec>)> {
    let mut seen: Vec<(&str, &'static str)> = Vec::new();
    let mut out: Vec<(RaceInfo, Vec<DirectedSpec>)> = Vec::new();
    let mut total = 0;
    for race in &analysis.races {
        if total >= MAX_SPECS_PER_APP {
            break;
        }
        let key = (race.site.as_str(), race.class.label());
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let cuts = race.ladder(MAX_FLIPS_PER_RACE.min(MAX_SPECS_PER_APP - total));
        total += cuts.len();
        let specs = cuts
            .into_iter()
            .map(|cut| DirectedSpec::new(analysis.trace.clone(), cut))
            .collect();
        out.push((race.clone(), specs));
    }
    out
}

/// The analyzed app's static race candidates (buggy variant): `None`
/// when the app carries no declarative model (CONFORM-API, non-fig6 cases).
fn static_candidates(app: &str) -> Option<Vec<Candidate>> {
    let case = crate::driver::resolve_case(app)?;
    let model = case.static_model(Variant::Buggy)?;
    let idx = MhpIndex::build(&model);
    Some(nodefz_sa::candidates(&model, &idx))
}

/// Records and analyzes one run of `case` ([`analyze_app`]). Both runs
/// happen outside [`RunContext`], so a panic in either is caught here and
/// comes back as the error, with the panic's message.
fn analyze_caught(case: &dyn BugCase, env_seed: u64) -> Result<AppAnalysis, String> {
    match catch_unwind(AssertUnwindSafe(|| analyze_app(case, env_seed))) {
        Ok(analysis) => analysis.map_err(|e| e.to_string()),
        Err(payload) => Err(panic_message(&*payload)),
    }
}

/// The directed-arm work list for one app, in happens-before prediction
/// order. Unknown apps and empty predictions yield no specs (the campaign
/// driver then skips the arm).
///
/// # Errors
///
/// The analysis failed or panicked; the campaign driver quarantines the
/// app's directed arm with this message.
pub(crate) fn directed_specs(app: &str, env_seed: u64) -> Result<Vec<DirectedSpec>, String> {
    let Some(case) = crate::driver::resolve_case(app) else {
        return Ok(Vec::new());
    };
    let analysis = analyze_caught(case.as_ref(), env_seed)?;
    Ok(spec_worklist(&analysis)
        .into_iter()
        .flat_map(|(_, specs)| specs)
        .collect())
}

/// Runs the predict-then-confirm pipeline over `cfg.apps`.
///
/// # Errors
///
/// Fails on an unknown app, an invalid configuration, or a corpus/report
/// I/O error. Per-app *analysis* errors, panics included, are collected
/// in [`AnalyzeReport::failed`] instead.
pub fn analyze_campaign(cfg: &AnalyzeConfig) -> Result<AnalyzeReport, String> {
    if cfg.apps.is_empty() {
        return Err("at least one app must be analyzed".into());
    }
    crate::config::check_apps(&cfg.apps)?;
    let corpus = match &cfg.corpus_dir {
        Some(dir) => Some(Corpus::open(dir).map_err(|e| format!("corpus: {e}"))?),
        None => None,
    };

    let mut analyses = Vec::new();
    let mut failed = Vec::new();
    let mut deduper = Deduper::new();
    let mut confirmed = Vec::new();
    let mut ctx = RunContext::new();
    let mut directed_execs = 0u64;
    let mut sa = SaMetrics::default();
    for app in &cfg.apps {
        let case = crate::driver::resolve_case(app).expect("validated above");
        let analysis = match analyze_caught(case.as_ref(), cfg.env_seed) {
            Ok(a) => a,
            Err(e) => {
                failed.push((app.clone(), e));
                continue;
            }
        };
        let cands = static_candidates(app);
        if let Some(cands) = &cands {
            sa.models += 1;
            sa.candidates += cands.len() as u64;
            for c in cands {
                sa.av += u64::from(c.covers(RaceClass::Av));
                sa.ov += u64::from(c.covers(RaceClass::Ov));
                sa.cov += u64::from(c.covers(RaceClass::Cov));
            }
        }
        for (race, specs) in spec_worklist(&analysis) {
            let mut execs = 0;
            'race: for spec in specs {
                for attempt in 0..cfg.attempts {
                    execs += 1;
                    directed_execs += 1;
                    let exec =
                        ctx.fuzz_directed(app, spec.clone().with_attempt(attempt), cfg.env_seed);
                    let Some(finding) = exec.finding else {
                        continue;
                    };
                    let signature = finding.signature.clone();
                    if deduper.insert(Finding {
                        preset: DIRECTED_PRESET,
                        ..finding
                    }) {
                        if let Some(cands) = &cands {
                            if cands
                                .iter()
                                .any(|c| c.site == race.site && c.covers(race.class))
                            {
                                sa.confirmed += 1;
                                match race.class {
                                    RaceClass::Av => sa.confirmed_av += 1,
                                    RaceClass::Ov => sa.confirmed_ov += 1,
                                    RaceClass::Cov => sa.confirmed_cov += 1,
                                }
                            }
                        }
                        confirmed.push(ConfirmedRace {
                            app: app.clone(),
                            site: race.site.clone(),
                            class: race.class.label(),
                            cut: spec.cut,
                            execs,
                            signature,
                        });
                    }
                    break 'race;
                }
            }
        }
        analyses.push(analysis);
    }

    let mut not_persisted = Vec::new();
    if let Some(corpus) = &corpus {
        for record in deduper.records() {
            let mut entry = record_to_entry(record);
            let signature = &record.first.signature;
            entry.replays_ok = ctx.acceptance(
                &entry.app,
                entry.env_seed,
                &entry.trace,
                signature,
                cfg.replay_checks,
            );
            if accepted(entry.replays_ok, cfg.replay_checks) {
                corpus.save(&entry).map_err(|e| format!("corpus: {e}"))?;
            } else {
                not_persisted.push((signature.clone(), entry.replays_ok));
            }
        }
    }

    let races_json = nodefz_hb::races_report(&analyses);
    if let Some(path) = &cfg.races_out {
        std::fs::write(path, &races_json)
            .map_err(|e| format!("races: cannot write {}: {e}", path.display()))?;
    }
    Ok(AnalyzeReport {
        analyses,
        confirmed,
        races_json,
        failed,
        directed_execs,
        sa,
        not_persisted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicts_and_confirms_a_planted_race() {
        // Multi-race analyses included (MGS predicts 6 pairs, SIO 7).
        for (app, site) in [
            ("GHO", "gho:user-row"),
            ("NES", "nes:socket"),
            ("MGS", "mgs:filled"),
            ("SIO", "sio:manager"),
        ] {
            let cfg = AnalyzeConfig {
                apps: vec![app.into()],
                ..AnalyzeConfig::default()
            };
            let report = analyze_campaign(&cfg).expect("pipeline runs");
            assert!(report.failed.is_empty(), "{app}: {:?}", report.failed);
            assert_eq!(report.analyses.len(), 1);
            assert!(
                report.analyses[0].races.iter().any(|r| r.site == site),
                "{app}: {site} not predicted"
            );
            assert!(
                report
                    .confirmed
                    .iter()
                    .any(|c| c.app == app && c.site == site),
                "{app}: confirmed: {:?}",
                report.confirmed
            );
            assert!(report.directed_execs >= 1, "{app}: no directed execs");
            assert!(report.races_json.contains("nodefz-races-v1"));
            // The precision counters ride along whenever the app has a
            // static model (all four of these do).
            assert_eq!(report.sa.models, 1, "{app}: static model not consulted");
            assert!(report.sa.candidates >= 1, "{app}: no static candidates");
            assert!(
                report.sa.confirmed >= 1,
                "{app}: a confirmed race matched no static candidate"
            );
        }
    }

    #[test]
    fn unknown_app_is_rejected_up_front() {
        let cfg = AnalyzeConfig {
            apps: vec!["NOPE".into()],
            ..AnalyzeConfig::default()
        };
        assert!(analyze_campaign(&cfg).unwrap_err().contains("NOPE"));
    }

    #[test]
    fn apps_are_checked_as_the_campaign_checks_them() {
        for apps in [&["CONFORM"][..], &["GHO", "GHO"], &["KUE", "NOPE"]] {
            let apps: Vec<String> = apps.iter().map(|a| a.to_string()).collect();
            let campaign = crate::CampaignConfig {
                apps: apps.clone(),
                ..crate::CampaignConfig::default()
            };
            let cfg = AnalyzeConfig {
                apps,
                ..AnalyzeConfig::default()
            };
            let err = analyze_campaign(&cfg).unwrap_err();
            assert_eq!(err, campaign.validate().unwrap_err());
        }
    }

    #[test]
    fn directed_specs_are_empty_for_unknown_apps() {
        assert_eq!(directed_specs("NOPE", 1), Ok(Vec::new()));
    }

    #[test]
    fn an_analysis_that_panics_fails_its_app_and_the_batch_goes_on() {
        let panicky = crate::driver::tests::PANICKY;
        let cfg = AnalyzeConfig {
            apps: vec!["GHO".into(), panicky.into()],
            env_seed: 8,
            ..AnalyzeConfig::default()
        };
        let report = analyze_campaign(&cfg).expect("a panic fails one app, not the batch");
        assert_eq!(
            report.failed,
            [(panicky.to_string(), "panicky app: env seed 8".to_string())]
        );
        assert_eq!(report.analyses.len(), 1);
        assert!(
            report.confirmed.iter().any(|c| c.app == "GHO"),
            "{:?}",
            report.confirmed
        );
    }

    #[test]
    fn attempts_zero_predicts_without_confirming() {
        let cfg = AnalyzeConfig {
            apps: vec!["MGS".into()],
            attempts: 0,
            ..AnalyzeConfig::default()
        };
        let report = analyze_campaign(&cfg).expect("pipeline runs");
        assert!(!report.analyses[0].races.is_empty());
        assert!(report.confirmed.is_empty());
    }
}
