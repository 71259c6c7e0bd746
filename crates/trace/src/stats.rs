//! Schedule-diversity statistics across repeated runs.
//!
//! Figure 7 of the paper reports, per test suite, the mean pairwise
//! normalized Levenshtein distance over 10 executions (truncated to the
//! first 20 K callbacks). [`pairwise_normalized_ld`] computes exactly that;
//! [`DiversitySummary`] adds auxiliary diversity measures used by the
//! extended analyses.

use nodefz_rt::TypeSchedule;

use crate::levenshtein::normalized_levenshtein;

/// The truncation the paper applies before computing distances (§5.3).
pub const PAPER_TRUNCATION: usize = 20_000;

/// Mean pairwise normalized Levenshtein distance between type schedules,
/// after truncating each to `truncate` callbacks.
///
/// Returns 0.0 when fewer than two schedules are given.
///
/// # Examples
///
/// ```
/// use nodefz_rt::{CbKind, TypeSchedule};
/// use nodefz_trace::pairwise_normalized_ld;
///
/// let mut a = TypeSchedule::new();
/// a.push(CbKind::Timer);
/// let mut b = TypeSchedule::new();
/// b.push(CbKind::NetRead);
/// assert_eq!(pairwise_normalized_ld(&[a.clone(), a.clone()], 100), 0.0);
/// assert_eq!(pairwise_normalized_ld(&[a, b], 100), 1.0);
/// ```
pub fn pairwise_normalized_ld(schedules: &[TypeSchedule], truncate: usize) -> f64 {
    if schedules.len() < 2 {
        return 0.0;
    }
    let truncated: Vec<Vec<u8>> = schedules
        .iter()
        .map(|s| s.codes().iter().copied().take(truncate).collect())
        .collect();
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..truncated.len() {
        for j in i + 1..truncated.len() {
            total += normalized_levenshtein(&truncated[i], &truncated[j]);
            pairs += 1;
        }
    }
    total / pairs as f64
}

/// Summary diversity statistics for a set of runs of one program.
#[derive(Clone, Debug, PartialEq)]
pub struct DiversitySummary {
    /// Number of runs summarized.
    pub runs: usize,
    /// Mean pairwise normalized Levenshtein distance.
    pub mean_pairwise_ld: f64,
    /// Minimum pairwise normalized distance.
    pub min_pairwise_ld: f64,
    /// Maximum pairwise normalized distance.
    pub max_pairwise_ld: f64,
    /// Number of distinct schedules among the runs.
    pub distinct: usize,
    /// Mean schedule length.
    pub mean_len: f64,
    /// Shannon entropy (bits) of the pooled callback-kind distribution.
    pub kind_entropy: f64,
}

impl DiversitySummary {
    /// Computes diversity statistics, truncating schedules first.
    ///
    /// # Panics
    ///
    /// Panics if `schedules` is empty.
    pub fn compute(schedules: &[TypeSchedule], truncate: usize) -> DiversitySummary {
        assert!(!schedules.is_empty(), "need at least one schedule");
        let truncated: Vec<Vec<u8>> = schedules
            .iter()
            .map(|s| s.codes().iter().copied().take(truncate).collect())
            .collect();
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        let mut total = 0.0;
        let mut pairs = 0usize;
        for i in 0..truncated.len() {
            for j in i + 1..truncated.len() {
                let d = normalized_levenshtein(&truncated[i], &truncated[j]);
                min = min.min(d);
                max = max.max(d);
                total += d;
                pairs += 1;
            }
        }
        let (mean, min) = if pairs == 0 {
            (0.0, 0.0)
        } else {
            (total / pairs as f64, min)
        };
        let mut uniq: Vec<&Vec<u8>> = truncated.iter().collect();
        uniq.sort();
        uniq.dedup();
        let mean_len =
            truncated.iter().map(|s| s.len()).sum::<usize>() as f64 / truncated.len() as f64;
        DiversitySummary {
            runs: schedules.len(),
            mean_pairwise_ld: mean,
            min_pairwise_ld: min,
            max_pairwise_ld: max,
            distinct: uniq.len(),
            mean_len,
            kind_entropy: pooled_kind_entropy(&truncated),
        }
    }
}

fn pooled_kind_entropy(schedules: &[Vec<u8>]) -> f64 {
    let mut counts = std::collections::HashMap::new();
    let mut total = 0u64;
    for s in schedules {
        for &b in s {
            *counts.entry(b).or_insert(0u64) += 1;
            total += 1;
        }
    }
    if total == 0 {
        return 0.0;
    }
    counts
        .values()
        .map(|&c| {
            let p = c as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_rt::CbKind;

    fn sched(kinds: &[CbKind]) -> TypeSchedule {
        let mut s = TypeSchedule::new();
        for &k in kinds {
            s.push(k);
        }
        s
    }

    #[test]
    fn identical_schedules_have_zero_ld() {
        let s = sched(&[CbKind::Timer, CbKind::NetRead, CbKind::Close]);
        let v = vec![s.clone(), s.clone(), s];
        assert_eq!(pairwise_normalized_ld(&v, 100), 0.0);
        let d = DiversitySummary::compute(&v, 100);
        assert_eq!(d.distinct, 1);
        assert_eq!(d.mean_pairwise_ld, 0.0);
        assert_eq!(d.max_pairwise_ld, 0.0);
    }

    #[test]
    fn disjoint_schedules_have_ld_one() {
        let a = sched(&[CbKind::Timer; 4]);
        let b = sched(&[CbKind::NetRead; 4]);
        assert_eq!(pairwise_normalized_ld(&[a, b], 100), 1.0);
    }

    #[test]
    fn fewer_than_two_schedules() {
        assert_eq!(pairwise_normalized_ld(&[], 10), 0.0);
        assert_eq!(pairwise_normalized_ld(&[sched(&[CbKind::Timer])], 10), 0.0);
    }

    #[test]
    fn truncation_applies_before_distance() {
        // Schedules differ only after position 2: truncating to 2 hides it.
        let a = sched(&[CbKind::Timer, CbKind::Timer, CbKind::NetRead]);
        let b = sched(&[CbKind::Timer, CbKind::Timer, CbKind::Close]);
        assert!(pairwise_normalized_ld(&[a.clone(), b.clone()], 10) > 0.0);
        assert_eq!(pairwise_normalized_ld(&[a, b], 2), 0.0);
    }

    #[test]
    fn summary_counts_distinct() {
        let a = sched(&[CbKind::Timer]);
        let b = sched(&[CbKind::NetRead]);
        let d = DiversitySummary::compute(&[a.clone(), b.clone(), a.clone()], 10);
        assert_eq!(d.runs, 3);
        assert_eq!(d.distinct, 2);
        assert!(d.mean_pairwise_ld > 0.0);
        assert!((d.mean_len - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_run_summary() {
        let d = DiversitySummary::compute(&[sched(&[CbKind::Timer; 3])], 10);
        assert_eq!(d.runs, 1);
        assert_eq!(d.mean_pairwise_ld, 0.0);
        assert_eq!(d.distinct, 1);
    }

    #[test]
    #[should_panic(expected = "at least one schedule")]
    fn empty_summary_panics() {
        let _ = DiversitySummary::compute(&[], 10);
    }

    #[test]
    fn entropy_zero_for_uniform_kind() {
        let d = DiversitySummary::compute(&[sched(&[CbKind::Timer; 10])], 100);
        assert_eq!(d.kind_entropy, 0.0);
    }

    #[test]
    fn entropy_one_bit_for_even_two_kinds() {
        let mut kinds = vec![CbKind::Timer; 5];
        kinds.extend(vec![CbKind::NetRead; 5]);
        let d = DiversitySummary::compute(&[sched(&kinds)], 100);
        assert!((d.kind_entropy - 1.0).abs() < 1e-9);
    }
}
