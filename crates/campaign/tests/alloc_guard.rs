//! Hot-path allocation budget guard.
//!
//! Executions per second is what nfzbench's workloads time, and the
//! silent way to lose it is heap traffic creeping back into an execution
//! or a replay. This test installs
//! [`nodefz_check::CountingAlloc`] as the global allocator, runs the
//! campaign hot paths ([`nodefz_campaign::RunContext::fuzz_once`], with
//! and without pruning, [`nodefz_campaign::RunContext::fuzz_directed`] and
//! [`nodefz_campaign::RunContext::replays_to`]) on warmed-up contexts, and
//! asserts five steady-state budgets, plus that looking a case up
//! allocates nothing. It counts allocations and reallocations rather than
//! timing them, so a regression fails `cargo test` on any hardware.
//!
//! The counter is process-global, so every check runs inside the one test
//! of this binary: no concurrent test can add to a measured window.

use nodefz::DirectedSpec;
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
/// is half the old figure. A recorder that keeps its scratch with the
/// trace handle and spills a long permutation in one exact allocation,
/// instead of growing it by doubling, brings it from 80.3 to 76.2.
const ALLOCS_PER_EXEC_BUDGET: f64 = 85.0;

/// Maximum steady-state allocations per fuzz execution of the same mix
/// with pruning on: every run records an event log and builds its HB
/// canonical key.
///
/// While each reset dropped the log's per-descriptor ready queues, which
/// every run rebuilt, the mix allocated 92.0 times per execution; with the
/// queues emptied in place and the recorder's savings, 77.1. The budget
/// adds what the unpruned budget added to its measurement (85.0 over
/// 81.3, 4.6%).
const PRUNED_ALLOCS_PER_EXEC_BUDGET: f64 = 81.0;

/// Maximum steady-state bytes allocated per replay, averaged over rounds
/// of each fig6 app's first standard-preset finding replayed through one
/// [`nodefz_campaign::RunContext::replays_to`].
///
/// While the replayer cloned the trace `RunContext` had already copied
/// into its reused buffer, a replay allocated 12,979 bytes (80.8
/// allocations); reading that buffer in place, 8,006 bytes (78.5). The
/// budget adds a quarter, as the directed budget does, so a second copy of
/// the trace creeping back fails it.
const REPLAY_BYTES_BUDGET: f64 = 10_000.0;

/// Maximum steady-state allocations per dispatched callback on GHO.
///
/// What remains per callback is mostly the callback itself: a timer,
/// immediate or close job is a boxed closure, and a worker task boxes
/// its work, done callback and result. Per run come the app's setup
/// (servers, clients, key-value pool) and the report. GHO measured 1.20
/// allocations per callback (2.56 while the network boxed a closure per
/// message), and 1.12 once the recorder stopped allocating its scratch
/// per run (1.19 before); the budget adds a quarter to 1.20.
const GHO_ALLOCS_PER_EVENT_BUDGET: f64 = 1.5;

/// Maximum steady-state bytes allocated per directed execution, averaged
/// over rounds of one spec per predicted race of every fig6 app at one
/// env seed, each attempt's spec cloned as `analyze_campaign` clones it.
///
/// A copy of the recorded trace is one allocation of several kilobytes:
/// about 1% of a directed execution's allocations but over half of its
/// bytes, so this budget counts bytes. While each spec owned its prefix,
/// every attempt copied the trace twice (the per-attempt clone and the
/// scheduler's) and each case lookup built the 16-case registry: 21,720
/// bytes (85.7 allocations) per execution. With the prefix shared and the
/// lookup allocation-free: 9,953 bytes (82.7 allocations), and 9,732
/// bytes (79.2) once the recorder stopped allocating its scratch per run
/// and spilled long permutations in one allocation. The budget adds a
/// quarter to 9,953, as GHO's does, so one trace copy per attempt (about
/// 5.8 KB) creeping back fails it.
const DIRECTED_BYTES_PER_EXEC_BUDGET: f64 = 12_500.0;

/// The env seed the directed check analyzes and attacks at.
const DIRECTED_ENV_SEED: u64 = 11;

/// Measured rounds per check, after the warm-up rounds.
const ROUNDS: u64 = 10;
const WARMUP_ROUNDS: u64 = 3;

#[test]
fn fuzzed_run_stays_within_allocation_budget() {
    fig6_mix_stays_within_execution_budget();
    pruned_fig6_mix_stays_within_execution_budget();
    gho_stays_within_callback_budget();
    directed_mix_stays_within_execution_budget();
    replays_stay_within_byte_budget();
    case_lookup_does_not_allocate();
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
    fig6_mix_stays_within(RunContext::new(), "fig6 mix", ALLOCS_PER_EXEC_BUDGET);
}

fn pruned_fig6_mix_stays_within_execution_budget() {
    let mut ctx = RunContext::new();
    ctx.enable_prune();
    fig6_mix_stays_within(ctx, "pruned fig6 mix", PRUNED_ALLOCS_PER_EXEC_BUDGET);
}

/// Checks `ctx`'s steady-state allocations per execution over
/// round-robin passes of the 39 fig6 arms against `budget`.
fn fig6_mix_stays_within(mut ctx: RunContext, what: &str, budget: f64) {
    let arms = fig6_arms();
    assert_eq!(arms.len(), 39, "fig6 arms");
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
        per_exec <= budget,
        "{what} allocates too much: {per_exec:.1} allocs/execution over {execs} \
         executions ({} allocs, {} bytes) — budget is {budget}",
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

fn directed_mix_stays_within_execution_budget() {
    // One spec per predicted race, at its first flip cut; all of an app's
    // specs share its analysis' prefix, as `analyze_campaign`'s do.
    let mut work: Vec<(&'static str, DirectedSpec)> = Vec::new();
    for case in nodefz_apps::registry() {
        let info = case.info();
        if !info.in_fig6 {
            continue;
        }
        let analysis =
            nodefz_hb::analyze_app(case.as_ref(), DIRECTED_ENV_SEED).expect("live analysis");
        let shared = DirectedSpec::new(analysis.trace, 0);
        for race in &analysis.races {
            work.push((
                info.abbr,
                DirectedSpec {
                    cut: race.ladder(1)[0],
                    ..shared.clone()
                },
            ));
        }
    }
    // Every fig6 app but KUEt predicts its planted race at this seed.
    assert!(work.len() >= 12, "too few predicted races: {}", work.len());
    let mut ctx = RunContext::new();
    for attempt in 0..WARMUP_ROUNDS {
        for (app, spec) in &work {
            ctx.fuzz_directed(app, spec.clone().with_attempt(attempt), DIRECTED_ENV_SEED);
        }
    }
    let before = ALLOC.stats();
    let mut execs = 0u64;
    for attempt in 100..100 + ROUNDS {
        for (app, spec) in &work {
            let exec =
                ctx.fuzz_directed(app, spec.clone().with_attempt(attempt), DIRECTED_ENV_SEED);
            assert!(exec.crash.is_none(), "{app} at cut {} panicked", spec.cut);
            execs += 1;
        }
    }
    let during = ALLOC.stats().since(&before);
    let per_exec = during.bytes as f64 / execs as f64;
    assert!(
        per_exec <= DIRECTED_BYTES_PER_EXEC_BUDGET,
        "directed mix allocates too much: {per_exec:.0} bytes/execution over {execs} \
         executions ({} allocs, {} bytes) — budget is {DIRECTED_BYTES_PER_EXEC_BUDGET}",
        during.allocs,
        during.bytes,
    );
}

fn replays_stay_within_byte_budget() {
    // Each fig6 app's first standard-preset finding.
    let mut ctx = RunContext::new();
    let findings: Vec<_> = nodefz_apps::registry()
        .iter()
        .filter(|case| case.info().in_fig6)
        .map(|case| {
            let abbr = case.info().abbr;
            (0..200)
                .find_map(|env_seed| ctx.fuzz_once(abbr, 0, env_seed).finding)
                .unwrap_or_else(|| panic!("{abbr} manifests within 200 runs"))
        })
        .collect();
    for _ in 0..WARMUP_ROUNDS {
        for f in &findings {
            ctx.replays_to(&f.app, f.env_seed, &f.trace, &f.signature);
        }
    }
    let before = ALLOC.stats();
    let mut replays = 0u64;
    for _ in 0..ROUNDS {
        for f in &findings {
            assert!(
                ctx.replays_to(&f.app, f.env_seed, &f.trace, &f.signature),
                "{} at env seed {} does not replay",
                f.app,
                f.env_seed
            );
            replays += 1;
        }
    }
    let during = ALLOC.stats().since(&before);
    let per_replay = during.bytes as f64 / replays as f64;
    assert!(
        per_replay <= REPLAY_BYTES_BUDGET,
        "replays allocate too much: {per_replay:.0} bytes/replay over {replays} replays \
         ({} allocs, {} bytes) — budget is {REPLAY_BYTES_BUDGET}",
        during.allocs,
        during.bytes,
    );
}

fn case_lookup_does_not_allocate() {
    let before = ALLOC.stats();
    for abbr in ["EPL", "kuet", "FPS*", "NOPE"] {
        std::hint::black_box(nodefz_apps::by_abbr(abbr));
    }
    let during = ALLOC.stats().since(&before);
    assert_eq!(during.allocs, 0, "by_abbr allocated");
}
