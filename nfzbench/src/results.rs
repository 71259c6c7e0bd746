//! Result documents: the one-line summary of a single run, and the
//! `nfzbench-results-v1` file `run` and `trace` write for `compare`.
//!
//! ```text
//! {"schema": "nfzbench-results-v1", "seed": 1, "traced": false,
//!  "workloads": {"fuzz": {"correct": true, "attempted": 9120, "failed": 0,
//!                         "metrics": {"execs_per_s": {"value": 18093.2, "unit": "1/s"}, …},
//!                         "counts": {"ops": 8000, "execs": …, "finds": …,
//!                                    "false_positives": …, "digest": …}},
//!                …}}
//! ```

use nodefz_obs::{JsonValue, JsonWriter};

use crate::Outcome;

/// The results file's schema id.
pub const SCHEMA: &str = "nfzbench-results-v1";

/// Writes a measured value with every digit it has (`null` if it is not
/// finite, which JSON cannot hold).
fn number(w: &mut JsonWriter, v: f64) {
    if v.is_finite() {
        w.raw(&format!("{v}"));
    } else {
        w.null();
    }
}

fn outcome_fields(w: &mut JsonWriter, o: &Outcome) {
    w.field_bool("correct", o.correct());
    w.field_u64("attempted", o.attempted);
    w.field_u64("failed", o.failed);
    w.key("metrics");
    w.begin_object();
    for &(name, value, unit) in &o.metrics {
        w.key(name);
        w.begin_object();
        w.key("value");
        number(w, value);
        w.field_str("unit", unit);
        w.end_object();
    }
    w.end_object();
}

/// The one-line summary of a run: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn summary_line(o: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    outcome_fields(&mut w, o);
    w.end_object();
    w.finish()
}

/// The `nfzbench-results-v1` document for one seed's outcomes.
pub fn results_json(seed: u64, traced: bool, outcomes: &[Outcome]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", SCHEMA);
    w.field_u64("seed", seed);
    w.field_bool("traced", traced);
    w.key("workloads");
    w.begin_object();
    for o in outcomes {
        w.key(o.workload.name());
        w.begin_object();
        outcome_fields(&mut w, o);
        w.key("counts");
        w.begin_object();
        w.field_u64("ops", o.counts.ops);
        w.field_u64("execs", o.counts.execs);
        w.field_u64("finds", o.counts.finds);
        w.field_u64("false_positives", o.counts.false_positives);
        w.field_str("digest", &format!("{:016x}", o.counts.digest));
        w.end_object();
        for (key, list) in [
            ("violations", &o.violations),
            ("false_positives", &o.false_positives),
        ] {
            w.key(key);
            w.begin_array();
            for v in list {
                w.str(v);
            }
            w.end_array();
        }
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// One workload's numbers as read back from a results file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    /// Operations run.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Operations in the seed-determined prefix.
    pub prefix_ops: u64,
    /// False positives among the prefix's operations.
    pub false_positives: u64,
    /// (metric, value) in document order.
    pub metrics: Vec<(String, f64)>,
}

/// Reads a results file into (workload, numbers) pairs.
///
/// # Errors
///
/// Names what is malformed or missing.
pub fn parse_results(text: &str) -> Result<Vec<(String, WorkloadResult)>, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    nodefz_obs::expect_schema(&doc, SCHEMA).map_err(|e| e.to_string())?;
    let Some(JsonValue::Obj(workloads)) = doc.get("workloads") else {
        return Err("no 'workloads' object".into());
    };
    workloads
        .iter()
        .map(|(name, w)| {
            let count = |key: &str| {
                w.get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("{name}: no '{key}' count"))
            };
            let prefix = |key: &str| {
                w.get("counts")
                    .and_then(|c| c.get(key))
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("{name}: no 'counts.{key}'"))
            };
            let Some(JsonValue::Obj(metrics)) = w.get("metrics") else {
                return Err(format!("{name}: no 'metrics' object"));
            };
            let metrics = metrics
                .iter()
                .map(|(metric, m)| {
                    m.get("value")
                        .and_then(JsonValue::as_f64)
                        .map(|v| (metric.clone(), v))
                        .ok_or_else(|| format!("{name}: {metric} has no numeric value"))
                })
                .collect::<Result<_, _>>()?;
            Ok((
                name.clone(),
                WorkloadResult {
                    attempted: count("attempted")?,
                    failed: count("failed")?,
                    prefix_ops: prefix("ops")?,
                    false_positives: prefix("false_positives")?,
                    metrics,
                },
            ))
        })
        .collect()
}
