//! `nfzbench compare`: runs of a parent commit against runs of a change,
//! one verdict per (workload, metric).
//!
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's bound in `BENCHMARK.json`;
//! * **unresolved** — otherwise, when the parent's own spread (its
//!   interquartile range as a share of its median) is wider than the
//!   bound, unless every change run beats every parent run;
//! * **improved** — the change wins at least 9 in 10 of the (parent,
//!   change) run pairs, ties counting for neither, and the medians differ
//!   by more than the parent's interquartile range;
//! * **unchanged** — anything else.
//!
//! Per-layer metrics have no bound; they read improved, worse (the mirror
//! of improved) or unchanged. A workload whose share of failed operations
//! grows, or whose share of false positives over the seed-determined
//! prefix grows, is reported too; any such finding makes the comparison
//! fail.

use nodefz_obs::JsonValue;

use crate::results::WorkloadResult;
use crate::stats;

/// How `BENCHMARK.json` judges one metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// The allowed worsening, as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Reads the metric specs of a `BENCHMARK.json`.
///
/// # Errors
///
/// Names the malformed entry.
pub fn read_specs(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let mut specs = Vec::new();
    for (list, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let entries = doc
            .get(list)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("no '{list}' list"))?;
        for e in entries {
            let name = e
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{list}: entry without a name"))?;
            let lower_is_better = match e.get("better").and_then(JsonValue::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: 'better' is not lower or higher")),
            };
            let bound = if bounded {
                Some(
                    e.get("bound")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("{name}: no bound"))?,
                )
            } else {
                None
            };
            specs.push(MetricSpec {
                name: name.to_string(),
                lower_is_better,
                bound,
            });
        }
    }
    Ok(specs)
}

/// The verdict on one (workload, metric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better, beyond the parent's own spread, in at least 9 of 10 pairs.
    Improved,
    /// Within the bound and the spread.
    Unchanged,
    /// The parent's spread is wider than the bound.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
    /// A per-layer metric worse by the rule that would call it improved.
    Worse,
}

impl Verdict {
    /// The verdict's name.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
            Verdict::Worse => "worse",
        }
    }
}

/// One compared (workload, metric).
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Parent median, first and third quartile.
    pub parent: (f64, f64, f64),
    /// Change median, first and third quartile.
    pub change: (f64, f64, f64),
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let m = stats::median(values).unwrap_or(f64::NAN);
    let (q1, q3) = stats::quartiles(values).unwrap_or((m, m));
    (m, q1, q3)
}

/// Judges one metric's parent runs against its change runs.
pub fn judge(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> Row {
    let better = |a: f64, b: f64| {
        if spec.lower_is_better {
            a < b
        } else {
            a > b
        }
    };
    let p = summary(parent);
    let c = summary(change);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&pv, &cv)| better(cv, pv))
        .count();
    let losses = parent
        .iter()
        .zip(change)
        .filter(|&(&pv, &cv)| better(pv, cv))
        .count();
    let iqr = p.2 - p.1;
    let scale = p.0.abs().max(f64::MIN_POSITIVE);
    let worsening = if spec.lower_is_better {
        (c.0 - p.0) / scale
    } else {
        (p.0 - c.0) / scale
    };
    let every_change_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| better(cv, pv)));
    let clear = |n: usize| pairs > 0 && n * 10 >= pairs * 9 && (c.0 - p.0).abs() > iqr;
    let verdict = match spec.bound {
        Some(bound) if worsening > bound => Verdict::Regressed,
        Some(bound) if iqr / scale > bound && !every_change_better => Verdict::Unresolved,
        _ if clear(wins) && better(c.0, p.0) => Verdict::Improved,
        None if clear(losses) && better(p.0, c.0) => Verdict::Worse,
        _ => Verdict::Unchanged,
    };
    Row {
        workload: String::new(),
        metric: spec.name.clone(),
        parent: p,
        change: c,
        wins,
        pairs,
        verdict,
    }
}

/// A whole comparison.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// One row per (workload, metric) present on both sides.
    pub rows: Vec<Row>,
    /// (workload, parent failed/attempted, change failed/attempted).
    pub fail_fracs: Vec<(String, f64, f64)>,
    /// (workload, parent, change) false positives per prefix operation.
    pub fp_fracs: Vec<(String, f64, f64)>,
}

impl Comparison {
    /// Whether anything regressed, failed more often, or gave more false
    /// positives.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
            || self
                .fail_fracs
                .iter()
                .chain(&self.fp_fracs)
                .any(|(_, p, c)| c > p)
    }
}

type Runs = [Vec<(String, WorkloadResult)>];

fn workload_names(runs: &Runs) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (name, _) in runs.iter().flatten() {
        if !names.contains(name) {
            names.push(name.clone());
        }
    }
    names
}

fn values(runs: &Runs, workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .flatten()
        .filter(|(w, _)| w == workload)
        .filter_map(|(_, r)| r.metrics.iter().find(|(m, _)| m == metric).map(|(_, v)| *v))
        .collect()
}

/// Σ `part` / Σ `whole` over a workload's runs.
fn share(
    runs: &Runs,
    workload: &str,
    part: fn(&WorkloadResult) -> u64,
    whole: fn(&WorkloadResult) -> u64,
) -> f64 {
    let (n, d) = runs
        .iter()
        .flatten()
        .filter(|(w, _)| w == workload)
        .fold((0, 0), |(n, d), (_, r)| (n + part(r), d + whole(r)));
    n as f64 / d.max(1) as f64
}

/// Compares parent result files against change result files, in the run
/// order each side was given (pair k is the k-th run of each side).
pub fn compare(specs: &[MetricSpec], parent: &Runs, change: &Runs) -> Comparison {
    let mut out = Comparison::default();
    for workload in workload_names(parent) {
        for spec in specs {
            let p = values(parent, &workload, &spec.name);
            let c = values(change, &workload, &spec.name);
            if p.is_empty() || c.is_empty() {
                continue;
            }
            out.rows.push(Row {
                workload: workload.clone(),
                ..judge(spec, &p, &c)
            });
        }
        let failed = |runs: &Runs| share(runs, &workload, |r| r.failed, |r| r.attempted);
        out.fail_fracs
            .push((workload.clone(), failed(parent), failed(change)));
        // Over the prefix, so the same commit at the same seeds gives the
        // same share exactly.
        let fps = |runs: &Runs| share(runs, &workload, |r| r.false_positives, |r| r.prefix_ops);
        out.fp_fracs
            .push((workload.clone(), fps(parent), fps(change)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower_is_better: bool, bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            lower_is_better,
            bound,
        }
    }

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    #[test]
    fn the_same_runs_are_unchanged() {
        let row = judge(&spec(false, Some(0.1)), &PARENT, &PARENT);
        assert_eq!(row.verdict, Verdict::Unchanged);
        assert_eq!(row.wins, 0);
    }

    #[test]
    fn a_drop_beyond_the_bound_regresses() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 0.85).collect();
        assert_eq!(
            judge(&spec(false, Some(0.1)), &PARENT, &change).verdict,
            Verdict::Regressed
        );
        // Lower-is-better mirrors it.
        let slower: Vec<f64> = PARENT.iter().map(|v| v * 1.15).collect();
        assert_eq!(
            judge(&spec(true, Some(0.1)), &PARENT, &slower).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_consistent_gain_beyond_the_spread_improves() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.05).collect();
        let row = judge(&spec(false, Some(0.1)), &PARENT, &change);
        assert_eq!(row.verdict, Verdict::Improved);
        assert_eq!((row.wins, row.pairs), (10, 10));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let row = judge(&spec(false, Some(0.1)), &noisy, &noisy);
        assert_eq!(row.verdict, Verdict::Unresolved);
    }

    #[test]
    fn per_layer_metrics_have_no_regression() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 2.0).collect();
        assert_eq!(
            judge(&spec(true, None), &PARENT, &change).verdict,
            Verdict::Worse
        );
    }

    fn run(failed: u64, false_positives: u64) -> Vec<(String, WorkloadResult)> {
        vec![(
            "fuzz".into(),
            WorkloadResult {
                attempted: 100,
                failed,
                prefix_ops: 50,
                false_positives,
                metrics: vec![("m".into(), 1.0)],
            },
        )]
    }

    #[test]
    fn more_failures_or_false_positives_fail_the_comparison() {
        let specs = [spec(false, Some(0.1))];
        let regressed = |p, c| compare(&specs, &[p], &[c]).regressed();
        assert!(!regressed(run(0, 3), run(0, 3)));
        assert!(!regressed(run(0, 3), run(0, 2)));
        assert!(regressed(run(0, 3), run(0, 4)));
        assert!(regressed(run(0, 0), run(1, 0)));
    }

    #[test]
    fn specs_come_from_the_benchmark_file() {
        let text = r#"{"end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.2}],
                       "per_layer": [{"name": "b", "unit": "ns", "better": "higher"}]}"#;
        let specs = read_specs(text).unwrap();
        assert_eq!(
            specs,
            vec![
                MetricSpec {
                    name: "a".into(),
                    lower_is_better: true,
                    bound: Some(0.2)
                },
                MetricSpec {
                    name: "b".into(),
                    lower_is_better: false,
                    bound: None
                },
            ]
        );
        assert!(read_specs(r#"{"end_to_end": []}"#).is_err());
    }
}
