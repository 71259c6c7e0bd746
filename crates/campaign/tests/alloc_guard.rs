//! Hot-path allocation budget guard.
//!
//! Executions per second is what nfzbench's `fuzz` workload times, and
//! the silent way to lose it is heap traffic creeping back into an
//! execution. This test installs [`nodefz_check::CountingAlloc`] as the
//! global allocator, runs the campaign hot path
//! ([`nodefz_campaign::RunContext::fuzz_once`]) on a warmed-up context,
//! and asserts two steady-state budgets. It counts allocations and
//! reallocations rather than timing them, so a regression fails
//! `cargo test` on any hardware.
//!
//! The counter is process-global, so both checks run inside the one test
//! of this binary: no concurrent test can add to a measured window.

use nodefz_campaign::{RunContext, PRESETS};
use nodefz_check::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Maximum steady-state allocations per fuzz execution, averaged over
/// round-robin passes of all 39 fig6 arms (13 apps × 3 presets).
///
/// Boxing an environment closure per message, connect and close, copying
/// `b"noise"` for every Chatter message and queueing each delivery twice
/// cost 170.2 allocations per execution. The simulated network and the
/// key-value store now schedule typed wakeups, keep each payload in the
/// substrate's own queues and lend `'static` literals: 81.3. The budget
/// is half the old figure.
const ALLOCS_PER_EXEC_BUDGET: f64 = 85.0;

/// Maximum steady-state allocations per dispatched callback on GHO.
///
/// What remains per callback is mostly the callback itself: a timer,
/// immediate or close job is a boxed closure, and a worker task boxes
/// its work, done callback and result. Per run come the app's setup
/// (servers, clients, key-value pool) and the report. GHO measures 1.20
/// allocations per callback (2.56 while the network boxed a closure per
/// message); the budget adds a quarter for headroom.
const GHO_ALLOCS_PER_EVENT_BUDGET: f64 = 1.5;

/// Measured rounds per check, after the warm-up rounds.
const ROUNDS: u64 = 10;
const WARMUP_ROUNDS: u64 = 3;

#[test]
fn fuzzed_run_stays_within_allocation_budget() {
    fig6_mix_stays_within_execution_budget();
    gho_stays_within_callback_budget();
}

fn fig6_arms() -> Vec<(&'static str, usize)> {
    let mut arms = Vec::new();
    for case in nodefz_apps::registry() {
        let info = case.info();
        if info.in_fig6 {
            arms.extend((0..PRESETS.len()).map(|preset| (info.abbr, preset)));
        }
    }
    arms
}

fn fig6_mix_stays_within_execution_budget() {
    let arms = fig6_arms();
    assert_eq!(arms.len(), 39, "fig6 arms");
    let mut ctx = RunContext::new();
    // Warm up: every pooled buffer reaches its steady-state capacity.
    for round in 0..WARMUP_ROUNDS {
        for &(app, preset) in &arms {
            ctx.fuzz_once(app, preset, round);
        }
    }
    let before = ALLOC.stats();
    let mut execs = 0u64;
    for round in 100..100 + ROUNDS {
        for &(app, preset) in &arms {
            let exec = ctx.fuzz_once(app, preset, round);
            assert!(exec.crash.is_none(), "{app}/{preset} panicked");
            execs += 1;
        }
    }
    let during = ALLOC.stats().since(&before);
    let per_exec = during.allocs as f64 / execs as f64;
    assert!(
        per_exec <= ALLOCS_PER_EXEC_BUDGET,
        "fig6 mix allocates too much: {per_exec:.1} allocs/execution over {execs} \
         executions ({} allocs, {} bytes) — budget is {ALLOCS_PER_EXEC_BUDGET}",
        during.allocs,
        during.bytes,
    );
}

fn gho_stays_within_callback_budget() {
    let mut ctx = RunContext::new();
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
        per_event <= GHO_ALLOCS_PER_EVENT_BUDGET,
        "GHO allocates too much: {per_event:.2} allocs/callback over {RUNS} runs \
         ({} allocs, {events} callbacks, {} bytes) — budget is \
         {GHO_ALLOCS_PER_EVENT_BUDGET}",
        during.allocs,
        during.bytes,
    );
}
