//! Hot-path allocation budget guard.
//!
//! Executions per second is what nfzbench's `fuzz` workload times, and
//! the silent way to lose it is heap traffic creeping back into the
//! per-event hot path. This test installs [`nodefz_check::CountingAlloc`]
//! as the global allocator, runs the campaign hot path
//! ([`nodefz_campaign::RunContext::fuzz_once`]) on the smallest app, and
//! asserts the steady-state allocation cost per dispatched callback stays
//! under a fixed budget. It counts allocations rather than timing them,
//! so a regression fails `cargo test` on any hardware.

use nodefz_campaign::RunContext;
use nodefz_check::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Maximum steady-state allocations per dispatched callback.
///
/// Every dispatched callback is a boxed closure (`Job = Box<dyn FnOnce>`),
/// so ~1 allocation per event is inherent to the runtime's design; the
/// budget adds headroom for per-run bookkeeping (trace snapshot, report)
/// amortized over the run's events. Measured steady state after the
/// zero-allocation overhaul is ~2.6 allocs/event; 3 is the tripwire.
const ALLOCS_PER_EVENT_BUDGET: f64 = 3.0;

#[test]
fn fuzzed_run_stays_within_allocation_budget() {
    let mut ctx = RunContext::new();
    // Warm up: let every pooled buffer reach steady-state capacity.
    let mut warm_events = 0u64;
    for seed in 0..20 {
        warm_events += ctx.fuzz_once("GHO", 0, seed).dispatched;
    }
    assert!(warm_events > 0, "warmup dispatched nothing");

    let before = ALLOC.stats();
    let mut events = 0u64;
    const RUNS: u64 = 50;
    for seed in 100..100 + RUNS {
        events += ctx.fuzz_once("GHO", 0, seed).dispatched;
    }
    let during = ALLOC.stats().since(&before);

    assert!(events > 0, "measured runs dispatched nothing");
    let per_event = during.allocs as f64 / events as f64;
    assert!(
        per_event <= ALLOCS_PER_EVENT_BUDGET,
        "hot path allocates too much: {:.2} allocs/event over {RUNS} runs \
         ({} allocs, {} events, {} bytes) — budget is {ALLOCS_PER_EVENT_BUDGET}",
        per_event,
        during.allocs,
        events,
        during.bytes,
    );
}
