//! # nodefz-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5):
//!
//! * `cargo bench -p nodefz-bench --bench fig6` — bug reproduction rates
//!   under nodeV / nodeNFZ / nodeFZ (+ guided), Figure 6.
//! * `cargo bench -p nodefz-bench --bench fig7` — normalized pairwise
//!   Levenshtein distance between type schedules, Figure 7.
//! * `cargo bench -p nodefz-bench --bench fig8` — normalized wall-clock
//!   overhead, Figure 8.
//! * `cargo bench -p nodefz-bench --bench tables` — Tables 1, 2 and 3.
//! * `cargo bench -p nodefz-bench --bench ablation` — per-mechanism
//!   contribution study (extension).
//! * `cargo bench -p nodefz-bench --bench sweep` — parameter sweeps
//!   (extension).
//!
//! Absolute numbers differ from the paper (this substrate is a simulator,
//! not the authors' testbed); the comparison targets are the *shapes*
//! documented in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use nodefz::Mode;
use nodefz_apps::common::{BugCase, RunCfg, Variant};
use nodefz_trace::pairwise_normalized_ld;

/// One bar group of Figure 6.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Bug abbreviation.
    pub abbr: &'static str,
    /// Manifestation rate under nodeV.
    pub vanilla: f64,
    /// Manifestation rate under nodeNFZ.
    pub nofuzz: f64,
    /// Manifestation rate under nodeFZ (standard parameterization).
    pub fuzz: f64,
    /// Manifestation rate under the guided parameterization.
    pub guided: f64,
}

/// Runs the Figure 6 experiment: `runs` repetitions per version for every
/// bug in the paper's Figure 6 set.
pub fn fig6(runs: u64) -> Vec<Fig6Row> {
    nodefz_apps::registry()
        .into_iter()
        .filter(|case| case.info().in_fig6)
        .map(|case| {
            let rate = |mode: Mode| -> f64 {
                let hits = (0..runs)
                    .filter(|&seed| {
                        case.run(&RunCfg::new(mode.clone(), seed), Variant::Buggy)
                            .manifested
                    })
                    .count();
                hits as f64 / runs as f64
            };
            Fig6Row {
                abbr: case.info().abbr,
                vanilla: rate(Mode::Vanilla),
                nofuzz: rate(Mode::NoFuzz),
                fuzz: rate(Mode::Fuzz),
                guided: rate(Mode::Guided),
            }
        })
        .collect()
}

/// One bar group of Figure 7.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Bug abbreviation (test-suite owner).
    pub abbr: &'static str,
    /// Mean pairwise normalized LD across nodeNFZ suite runs.
    pub nofuzz_ld: f64,
    /// Mean pairwise normalized LD across nodeFZ suite runs.
    pub fuzz_ld: f64,
    /// Mean schedule length (callbacks per suite run).
    pub mean_len: f64,
}

/// Runs the Figure 7 experiment: `runs` suite executions per version, mean
/// pairwise normalized Levenshtein distance over schedules truncated to
/// `truncate` callbacks.
///
/// The paper compares nodeNFZ against nodeFZ (nodeV cannot produce the
/// serialized type schedules the metric needs, §5.3).
pub fn fig7(runs: u64, truncate: usize) -> Vec<Fig7Row> {
    nodefz_apps::registry()
        .into_iter()
        .filter(|case| case.info().in_fig6)
        .map(|case| {
            let schedules = |mode: Mode| {
                (0..runs)
                    .map(|seed| case.suite(&RunCfg::new(mode.clone(), seed)).schedule)
                    .collect::<Vec<_>>()
            };
            let nfz = schedules(Mode::NoFuzz);
            let fz = schedules(Mode::Fuzz);
            let mean_len = fz.iter().map(|s| s.len()).sum::<usize>() as f64 / runs as f64;
            Fig7Row {
                abbr: case.info().abbr,
                nofuzz_ld: pairwise_normalized_ld(&nfz, truncate),
                fuzz_ld: pairwise_normalized_ld(&fz, truncate),
                mean_len,
            }
        })
        .collect()
}

/// One bar group of Figure 8.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Bug abbreviation (test-suite owner).
    pub abbr: &'static str,
    /// Wall-clock per suite run under nodeV (seconds).
    pub vanilla_s: f64,
    /// Normalized wall-clock under nodeNFZ (nodeV = 1.0).
    pub nofuzz_rel: f64,
    /// Normalized wall-clock under nodeFZ (nodeV = 1.0).
    pub fuzz_rel: f64,
}

/// Runs the Figure 8 experiment: wall-clock time of `iters` suite runs per
/// version, normalized against nodeV.
pub fn fig8(iters: u64) -> Vec<Fig8Row> {
    nodefz_apps::registry()
        .into_iter()
        .filter(|case| case.info().in_fig6)
        .map(|case| {
            let time = |mode: Mode| -> f64 {
                let start = Instant::now();
                for seed in 0..iters {
                    let _ = case.suite(&RunCfg::new(mode.clone(), seed));
                }
                start.elapsed().as_secs_f64() / iters as f64
            };
            let v = time(Mode::Vanilla);
            let nfz = time(Mode::NoFuzz);
            let fz = time(Mode::Fuzz);
            Fig8Row {
                abbr: case.info().abbr,
                vanilla_s: v,
                nofuzz_rel: nfz / v,
                fuzz_rel: fz / v,
            }
        })
        .collect()
}

/// Renders a horizontal ASCII bar of width proportional to `value` in
/// `[0, max]`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round() as usize
    };
    let filled = filled.min(width);
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

/// Observed manifestation evidence for a Table 2 row.
#[derive(Clone, Debug)]
pub struct Evidence {
    /// Bug abbreviation.
    pub abbr: &'static str,
    /// First fuzz seed that manifested the bug (if any within the budget).
    pub first_seed: Option<u64>,
    /// The oracle's description of what was observed.
    pub detail: String,
}

/// Hunts for the first manifesting fuzz seed per bug (Table 2 evidence).
pub fn table2_evidence(max_seeds: u64) -> Vec<Evidence> {
    nodefz_apps::registry()
        .into_iter()
        .map(|case| {
            let mut found = None;
            let mut detail = String::from("did not manifest within the seed budget");
            for seed in 0..max_seeds {
                let mode = if case.info().abbr == "KUEt" {
                    // The race-against-time bug is found via guided fuzzing
                    // (§5.2.3).
                    Mode::Guided
                } else {
                    Mode::Fuzz
                };
                let out = case.run(&RunCfg::new(mode, seed), Variant::Buggy);
                if out.manifested {
                    found = Some(seed);
                    detail = out.detail;
                    break;
                }
            }
            Evidence {
                abbr: case.info().abbr,
                first_seed: found,
                detail,
            }
        })
        .collect()
}

/// Convenience: the full registry (re-exported for bench targets).
pub fn registry() -> Vec<Box<dyn BugCase>> {
    nodefz_apps::registry()
}

/// One row of the campaign-scaling experiment.
#[derive(Clone, Debug)]
pub struct CampaignScalingRow {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole campaign.
    pub wall_s: f64,
    /// Fuzz runs completed per second.
    pub runs_per_s: f64,
    /// Distinct bugs found (after dedup).
    pub unique_bugs: usize,
}

/// Runs a fig6-style campaign sweep: the same fuzzing campaign (identical
/// apps, budget and base seed) at each thread count, reporting wall-clock
/// scaling and the deduplicated bug count.
///
/// Every row runs the same runs and applies their results in the same
/// (dispatch) order, so `unique_bugs` is equal on every row.
pub fn campaign_scaling(
    apps: &[&str],
    budget: u64,
    thread_counts: &[usize],
) -> Vec<CampaignScalingRow> {
    thread_counts
        .iter()
        .map(|&threads| {
            let cfg = nodefz_campaign::CampaignConfig {
                threads,
                budget,
                apps: apps.iter().map(|a| a.to_string()).collect(),
                ..nodefz_campaign::CampaignConfig::default()
            };
            let report = nodefz_campaign::run(&cfg).expect("campaign config is valid");
            let wall_s = report.elapsed.as_secs_f64();
            CampaignScalingRow {
                threads,
                wall_s,
                runs_per_s: report.runs as f64 / wall_s.max(1e-9),
                unique_bugs: report.unique_bugs(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(0.5, 1.0, 10), "#####.....");
        assert_eq!(bar(0.0, 1.0, 4), "....");
        assert_eq!(bar(1.0, 1.0, 4), "####");
        assert_eq!(bar(2.0, 1.0, 4), "####", "clamped at full");
        assert_eq!(bar(1.0, 0.0, 4), "....", "zero max is empty");
    }

    #[test]
    fn fig6_small_smoke() {
        let rows = fig6(3);
        assert!(!rows.is_empty());
        for row in &rows {
            for rate in [row.vanilla, row.nofuzz, row.fuzz, row.guided] {
                assert!((0.0..=1.0).contains(&rate), "{row:?}");
            }
        }
    }

    #[test]
    fn fig7_small_smoke() {
        let rows = fig7(2, 2_000);
        for row in &rows {
            assert!((0.0..=1.0).contains(&row.nofuzz_ld), "{row:?}");
            assert!((0.0..=1.0).contains(&row.fuzz_ld), "{row:?}");
            assert!(row.mean_len > 0.0);
        }
    }

    #[test]
    fn table2_evidence_covers_all_bugs() {
        let ev = table2_evidence(1);
        assert_eq!(ev.len(), registry().len());
    }
}
