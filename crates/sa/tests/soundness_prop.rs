//! Property suite for the soundness gate: on 800 *fresh* generated
//! programs (seeds drawn from the property harness, not from the conform
//! program stream), every dynamic happens-before race prediction must
//! be covered by a static candidate with the exact (site, atom pair,
//! class) — and a sabotaged analyzer must get caught.

use std::cell::Cell;
use std::rc::Rc;

use nodefz_check::forall;
use nodefz_conform::generate;
use nodefz_rt::LoopPool;
use nodefz_sa::check_prog;

#[test]
fn static_candidates_cover_dynamic_predictions_on_fresh_programs() {
    let pool = Some(LoopPool::new());
    let dynamic = Cell::new(0u64);
    let candidates = Cell::new(0u64);
    forall("sa_soundness_containment", 500, |g| {
        let seed = g.u64();
        let prog = Rc::new(generate(seed));
        let check = check_prog(&prog, seed, &pool, false)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\nprogram:\n{prog}"));
        assert!(
            check.missing.is_empty(),
            "seed {seed}: uncovered dynamic prediction(s): {:#?}\nprogram:\n{prog}",
            check.missing
        );
        dynamic.set(dynamic.get() + check.dynamic as u64);
        candidates.set(candidates.get() + check.metrics.candidates);
    });
    // The property is vacuous unless the sweep actually exercised races.
    assert!(
        dynamic.get() > 50,
        "only {} dynamic races across 500 programs — too weak to trust",
        dynamic.get()
    );
    assert!(candidates.get() >= dynamic.get());
}

#[test]
fn static_candidates_cover_dynamic_predictions_on_api_graph_programs() {
    // The same containment property over a second, independent draw of
    // seeds (its own property name): the generator's combinator and
    // client bodies (intervals, barriers, series, emitters, kv/fs
    // clients) must stay inside the analyzer's static cover.
    let pool = Some(LoopPool::new());
    let dynamic = Cell::new(0u64);
    forall("sa_soundness_apigraph", 300, |g| {
        let seed = g.u64();
        let prog = Rc::new(generate(seed));
        let check = check_prog(&prog, seed, &pool, false)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\nprogram:\n{prog}"));
        assert!(
            check.missing.is_empty(),
            "seed {seed}: uncovered dynamic prediction(s): {:#?}\nprogram:\n{prog}",
            check.missing
        );
        dynamic.set(dynamic.get() + check.dynamic as u64);
    });
    assert!(
        dynamic.get() > 30,
        "only {} dynamic races across 300 programs — too weak to trust",
        dynamic.get()
    );
}

#[test]
fn a_sabotaged_analyzer_trips_the_gate() {
    // Dropping one MHP candidate must be *observable*: some program's
    // dynamic prediction loses its cover. This is the canary that proves
    // the gate can fail — without it, `missing.is_empty()` could pass
    // because the check compares nothing against nothing.
    let pool = Some(LoopPool::new());
    let tripped = (0..200u64).any(|seed| {
        let prog = Rc::new(generate(seed));
        check_prog(&prog, seed, &pool, true).is_ok_and(|c| !c.missing.is_empty())
    });
    assert!(
        tripped,
        "sabotage (dropping candidates[0]) never produced a miss in 200 programs"
    );
}
