//! The CI conform smoke batch.
//!
//! The conformance stream's first 200 programs through the full
//! differential harness on pooled loops, plus the `nodefz-apicov-v1`
//! schema and threshold check: the batch must exercise ≥90% of the
//! enumerated API nodes and every combinator in
//! `crates/rt/src/combinators.rs`. The broken-graph canary
//! (`apigraph_props.rs`), and the same batch on fresh loops with the
//! broken-oracle canary (`conform_smoke.rs`), run in the same CI leg.

use std::rc::Rc;

use nodefz_rt::LoopPool;

use nodefz_conform::{differential, generate, stream_seed, ApiCoverage, DiffConfig};

#[test]
fn smoke_200_api_graph_programs_differentially_clean() {
    let pool = LoopPool::new();
    let cfg = DiffConfig {
        pool: Some(pool),
        ..DiffConfig::default()
    };
    let mut failures = Vec::new();
    for i in 0..200u64 {
        let seed = stream_seed(i);
        let prog = Rc::new(generate(seed));
        if let Err(e) = differential(&prog, seed, &cfg) {
            failures.push(format!("seed {seed}: {e}\nprogram:\n{prog}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of 200 API-graph smoke programs failed:\n{}",
        failures.len(),
        failures.join("\n---\n")
    );
}

#[test]
fn smoke_batch_meets_the_apicov_thresholds() {
    let mut cov = ApiCoverage::default();
    for i in 0..200u64 {
        let seed = stream_seed(i);
        cov.record_vanilla(&Rc::new(generate(seed)), seed, &None);
    }
    let snap = cov.snapshot();
    assert_eq!(snap.programs, 200);
    // Acceptance: ≥90% of the enumerated API nodes.
    assert!(
        snap.nodes_covered * 10 >= snap.nodes_total * 9,
        "batch covered {}/{} API nodes (<90%); missing: {:?}",
        snap.nodes_covered,
        snap.nodes_total,
        snap.missing_nodes
    );
    // Acceptance: every combinator in crates/rt/src/combinators.rs.
    for call in [
        "Barrier::new",
        "Barrier::arrive",
        "Barrier::remaining",
        "rt::series",
        "SeriesNext::call",
        "Emitter::new",
        "Emitter::on",
        "Emitter::once",
        "Emitter::remove_listener",
        "Emitter::listener_count",
        "Emitter::emit",
    ] {
        assert!(
            snap.nodes.iter().any(|n| n == call),
            "combinator {call} never exercised by the smoke batch"
        );
    }
    // Schema: the serialised document is a nodefz-apicov-v1 object with
    // every counter section present.
    let json = snap.to_json();
    for key in [
        "\"schema\":\"nodefz-apicov-v1\"",
        "\"programs\":200",
        "\"nodes\":{\"covered\":",
        "\"edges\":{\"covered\":",
        "\"rules\":{\"covered\":",
        "\"phases\":{\"covered\":",
        "\"op_pairs\":",
    ] {
        assert!(json.contains(key), "apicov document missing {key}: {json}");
    }
}
