//! Validity-by-construction property suite for API-graph generation.
//!
//! Every program the graph-traversal generator emits must be valid with
//! no caveats: the literal validates, the interpreter installs and runs
//! to quiescence without panics or runtime errors, and the ordering
//! oracle accepts the vanilla schedule — across ≥500 seeds. The suite is
//! parameterised by the graph so the broken-graph canary can prove it
//! *fails* when a dependency producer is dropped.

use std::rc::Rc;

use nodefz::Mode;
use nodefz_rt::Termination;

use nodefz_conform::{check, generate_with, run_logged, ApiGraph, OracleCtx, API_NODES};

/// Fixed property seeds, disjoint from the conform program stream, so the
/// suite checks programs no stream sweep runs.
const PROP_BASE: u64 = 0x5EED_0000_0000_0003;

/// Runs the full validity property over `seeds` programs generated from
/// `graph`. Any constraint violation — generation refusal, invalid
/// literal, panic, non-quiescence, runtime error, oracle violation —
/// surfaces as `Err`.
fn validity_suite(graph: &ApiGraph, seeds: u64) -> Result<(), String> {
    for i in 0..seeds {
        let seed = PROP_BASE ^ i;
        let prog = Rc::new(generate_with(graph, seed).map_err(|e| format!("seed {seed}: {e}"))?);
        prog.validate()
            .map_err(|e| format!("seed {seed}: invalid program: {e}"))?;
        let (report, log) = run_logged(&prog, seed, Mode::Vanilla, &None);
        if !matches!(report.termination, Termination::Quiescent) {
            return Err(format!(
                "seed {seed}: vanilla run did not quiesce: {:?}",
                report.termination
            ));
        }
        if !report.errors.is_empty() {
            return Err(format!(
                "seed {seed}: runtime errors {:?}\nprogram:\n{prog}",
                report.errors
            ));
        }
        let violations = check(
            &prog,
            &log,
            &OracleCtx {
                demux: false,
                completed: true,
            },
        );
        if !violations.is_empty() {
            return Err(format!(
                "seed {seed}: oracle rejected the vanilla run: {violations:?}\nprogram:\n{prog}"
            ));
        }
    }
    Ok(())
}

#[test]
fn five_hundred_api_graph_programs_are_valid_by_construction() {
    validity_suite(&ApiGraph::full(), 500).unwrap();
}

#[test]
fn generated_literals_round_trip_and_are_deterministic() {
    use nodefz_conform::{generate, Prog};
    for i in 0..50u64 {
        let seed = PROP_BASE ^ i;
        let a = generate(seed);
        assert_eq!(a, generate(seed), "seed {seed} not deterministic");
        assert_eq!(Prog::parse(&a.to_string()).unwrap(), a);
    }
}

#[test]
fn broken_graph_canary_fails_the_validity_suite() {
    // Dropping any dependency producer must make the suite fail loudly
    // (generation refuses a non-closed graph) — proving the property
    // suite can fail at all.
    for producer in [
        "Kv::connect",
        "Ctx::set_interval",
        "Barrier::new",
        "SimFs::new",
    ] {
        let damaged = ApiGraph::full().without(producer);
        assert!(
            validity_suite(&damaged, 10).is_err(),
            "dropping {producer} went unnoticed by the validity suite"
        );
    }
    // Sanity: the nodes the canary drops are really in the enumerated
    // surface (guards against a silently renamed graph).
    for producer in [
        "Kv::connect",
        "Ctx::set_interval",
        "Barrier::new",
        "SimFs::new",
    ] {
        assert!(API_NODES.iter().any(|n| n.name == producer));
    }
}
