//! The acceptance sweep: the conform program stream's first 2000
//! programs — the exact seeds of the differential acceptance run — go
//! through the soundness gate with **zero** dynamically-predicted races
//! missing a static cover.

use nodefz_rt::LoopPool;
use nodefz_sa::sweep;

#[test]
fn soundness_holds_over_the_full_conform_corpus() {
    let stats = sweep(2000, &Some(LoopPool::new())).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        stats.missing.is_empty(),
        "{} uncovered dynamic prediction(s): {:#?}",
        stats.missing.len(),
        stats.missing
    );
    let metrics = &stats.metrics;
    // Precision accounting over the corpus — printed so the numbers in
    // EXPERIMENTS.md stay reproducible from one command.
    println!(
        "sa sweep: {} programs, {} race-free, {} dynamic races, \
         {} candidates ({} AV-capable / {} OV / {} COV), {} confirmed \
         ({} AV / {} OV / {} COV)",
        stats.programs,
        stats.race_free,
        stats.dynamic,
        metrics.candidates,
        metrics.av,
        metrics.ov,
        metrics.cov,
        metrics.confirmed,
        metrics.confirmed_av,
        metrics.confirmed_ov,
        metrics.confirmed_cov,
    );
    assert_eq!(stats.programs, 2000);
    assert!(
        stats.dynamic > 500,
        "sweep too weak: {} dynamic races",
        stats.dynamic
    );
    assert!(
        stats.race_free > 0,
        "the analyzer never proved a program race-free"
    );
    assert!(metrics.confirmed > 0 && metrics.confirmed <= metrics.candidates);
}
