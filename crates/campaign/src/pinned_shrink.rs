//! The shrink gate: what the shrinker writes, pinned per fig6 app.
//!
//! For every fig6 app, the first manifesting run of the standard preset's
//! campaign seed stream, `derive_seed(arm_seed(SEED, app, 0), i)`, is
//! shrunk with [`RunContext::shrink`], the campaign's memoized oracle, on
//! the context that ran the fuzz runs (as a worker does). Each shrunk
//! trace's length and the FNV-1a of its `encode_trace` text must equal the
//! frozen table, so a change to ddmin, the simplification pass, the
//! replay path or the memo that moves a persisted repro fails here. The
//! total oracle calls and the replays they ran are pinned too: they are
//! the shrink layer's cost, and only a deliberate change may move them.

use nodefz::encode_trace;

use crate::driver::{arm_seed, derive_seed, RunContext};

/// Campaign base seed of the pinned streams (the CLI's `--seed` default).
const SEED: u64 = 1;

/// Seeds tried per app before giving up on a manifestation.
const MAX_RUNS: u64 = 200;

/// `(app, index of the first manifesting run in the stream, shrunk
/// decisions, fnv1a of the shrunk trace's text)` per fig6 app, in
/// registry order.
const PINNED: &[(&str, u64, usize, u64)] = &[
    ("GHO", 0, 1, 0xbe0af82e3eaeb43e),
    ("FPS", 4, 1, 0xbe0af82e3eaeb43e),
    ("CLF", 0, 1, 0xbe0af82e3eaeb43e),
    ("NES", 1, 46, 0xad9541a3f3951edd),
    ("AKA", 2, 26, 0x86ab9969e0024da8),
    ("SIO", 1, 10, 0xb575ca35fc2821a8),
    ("MKD", 3, 1, 0xbe0af82e3eaeb43e),
    ("KUE", 0, 56, 0xc3bcf73248215121),
    ("MGS", 0, 29, 0xdbf8880c42aeaf80),
    ("SIO*", 0, 73, 0xdb6439725e868521),
    ("KUE*", 1, 13, 0x6644ebccb803d664),
    ("FPS*", 2, 4, 0xb4d955421f3a4ea4),
    ("KUEt", 3, 8, 0x7f6fc2997d926985),
];

/// Oracle calls over all of [`PINNED`]'s shrinks. ddmin asks about every
/// candidate it builds, repeats included.
const ORACLE_CALLS: u64 = 1_074;

/// The replays those calls ran; the memo answered the others, repeated
/// candidates among them.
const REPLAYS: u64 = 293;

#[test]
fn fig6_shrunk_traces_match_the_pinned_table() {
    let mut ctx = RunContext::new();
    let mut actual = Vec::new();
    let (mut oracle_calls, mut replays) = (0, 0);
    for case in nodefz_apps::registry() {
        let info = case.info();
        if !info.in_fig6 {
            continue;
        }
        let base = arm_seed(SEED, info.abbr, 0);
        let (i, finding) = (0..MAX_RUNS)
            .find_map(|i| {
                ctx.fuzz_once(info.abbr, 0, derive_seed(base, i))
                    .finding
                    .map(|f| (i, f))
            })
            .unwrap_or_else(|| panic!("{} never manifested", info.abbr));
        let (result, ran) = ctx.shrink(
            info.abbr,
            finding.env_seed,
            &finding.trace,
            &finding.signature,
        );
        oracle_calls += result.runs;
        replays += ran;
        let text = encode_trace(&result.trace);
        actual.push((
            info.abbr,
            i,
            result.trace.decisions.len(),
            nodefz_rt::fnv1a(text.as_bytes()),
        ));
    }
    if actual != PINNED || oracle_calls != ORACLE_CALLS || replays != REPLAYS {
        panic!(
            "shrink pin drifted ({oracle_calls} oracle calls, pinned \
             {ORACLE_CALLS}; {replays} replays, pinned {REPLAYS}); if the \
             change is intended, re-bless with these rows and state the \
             reason in CHANGES.md:\n{}",
            actual
                .iter()
                .map(|(app, i, len, hash)| format!("    ({app:?}, {i}, {len}, {hash:#018x}),"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}
