//! The acceptance run: differential schedule testing at scale.
//!
//! The conformance stream's first 2000 generated programs, every one
//! driven through vanilla / fuzz / replay / directed with zero tolerated
//! failures — plus the
//! shrinking integration: a program whose
//! differential report exhibits a property of interest delta-debugs to a
//! minimal, deterministic, printable `nodefz-prog v1` repro.

use std::rc::Rc;

use nodefz_rt::LoopPool;

use nodefz_conform::{differential, generate, shrink_prog, stream_seed, DiffConfig, Prog};

#[test]
fn differential_holds_for_500_programs_per_seed_family() {
    let pool = LoopPool::new();
    let cfg = DiffConfig {
        pool: Some(pool),
        ..DiffConfig::default()
    };
    let mut totals = (0usize, 0usize, 0usize, 0usize); // events, races, confirmed, directed runs
    for i in 0..2000u64 {
        let seed = stream_seed(i);
        let prog = Rc::new(generate(seed));
        let report = differential(&prog, seed, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\nprogram:\n{prog}"));
        totals.0 += report.vanilla_events + report.fuzz_events;
        totals.1 += report.races;
        totals.2 += report.confirmed;
        totals.3 += report.directed_runs;
        // Every prediction chased was resolved one way or the other.
        assert_eq!(
            report.confirmed + report.unconfirmable,
            report.races.min(2),
            "seed {seed}: a race prediction was silently dropped"
        );
    }
    // The sweep must be substantive: thousands of events, some races
    // predicted, at least some confirmed by a directed flip.
    println!(
        "differential sweep: 2000 programs, {} events, {} races predicted, \
         {} confirmed, {} directed runs",
        totals.0, totals.1, totals.2, totals.3
    );
    assert!(totals.0 > 10_000, "only {} events total", totals.0);
    assert!(totals.1 > 50, "only {} races predicted", totals.1);
    assert!(totals.2 > 0, "no predicted race was ever confirmed");
    assert!(totals.3 > 0, "no directed runs executed");
}

#[test]
fn interesting_programs_shrink_to_minimal_deterministic_literals() {
    let pool = LoopPool::new();
    let cfg = DiffConfig {
        pool: Some(pool),
        ..DiffConfig::default()
    };
    // "Failure" stand-in: the differential report predicts at least one
    // race. (A real oracle violation would use the same predicate shape
    // with `differential(..).is_err()`.)
    let mut fails = |p: &Prog| match differential(&Rc::new(p.clone()), 12345, &cfg) {
        Ok(report) => report.races > 0,
        Err(_) => false,
    };
    let prog = (0..300u64)
        .map(generate)
        .find(|p| p.nodes.len() > 5 && fails(p))
        .expect("no generated program predicted a race");
    let out = shrink_prog(&prog, &mut fails);
    out.minimal.validate().expect("shrunk program invalid");
    assert!(fails(&out.minimal), "shrinking lost the property");
    assert!(
        out.minimal.nodes.len() <= prog.nodes.len(),
        "shrinking grew the program"
    );
    // Deterministic: shrinking again reproduces the same minimum.
    let again = shrink_prog(&prog, &mut fails);
    assert_eq!(again.minimal, out.minimal);
    // Printable round-trip: the repro is a parseable v1 literal.
    let literal = out.minimal.to_string();
    assert!(literal.starts_with("nodefz-prog v1\n"));
    assert_eq!(Prog::parse(&literal).unwrap(), out.minimal);
}
