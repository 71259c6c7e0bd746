//! The exact-count gate: what a campaign executes, pinned per fig6 arm.
//!
//! Every fig6 (app, preset) arm runs the first [`RUNS_PER_ARM`] fuzz
//! executions of the campaign's own seed stream,
//! `derive_seed(arm_seed(SEED, app, preset), i)`, through
//! [`RunContext::fuzz_once`] with HB canonicalization on. Three counts
//! per arm must equal the frozen table: distinct happens-before classes
//! (one [`nodefz_hb::SeenSet`] per arm), manifestations, and dispatched
//! callbacks. They depend on no clock and no hardware, so any change to
//! the runtime, the scheduler, the presets, an app model or the
//! canonicalizer that moves what a campaign runs fails here, while
//! speed is measured by nfzbench.

use crate::config::PRESETS;
use crate::driver::{arm_seed, derive_seed, RunContext};

/// Campaign base seed of the pinned streams (the CLI's `--seed` default).
const SEED: u64 = 1;

/// Executions per arm.
const RUNS_PER_ARM: u64 = 40;

/// `(app, preset, distinct HB classes, manifestations, dispatched
/// callbacks)` per fig6 arm, in registry × preset order.
const PINNED: &[(&str, &str, u64, u64, u64)] = &[
    ("GHO", "standard", 37, 24, 2975),
    ("GHO", "aggressive", 24, 28, 2784),
    ("GHO", "guided", 19, 3, 3371),
    ("FPS", "standard", 36, 19, 2864),
    ("FPS", "aggressive", 24, 29, 2668),
    ("FPS", "guided", 15, 0, 3301),
    ("CLF", "standard", 22, 19, 1067),
    ("CLF", "aggressive", 12, 37, 908),
    ("CLF", "guided", 4, 40, 1360),
    ("NES", "standard", 6, 6, 2252),
    ("NES", "aggressive", 14, 12, 2188),
    ("NES", "guided", 3, 0, 2320),
    ("AKA", "standard", 3, 9, 2360),
    ("AKA", "aggressive", 5, 9, 2357),
    ("AKA", "guided", 3, 0, 2360),
    ("SIO", "standard", 36, 10, 2879),
    ("SIO", "aggressive", 19, 15, 2697),
    ("SIO", "guided", 17, 29, 3280),
    ("MKD", "standard", 33, 19, 3277),
    ("MKD", "aggressive", 28, 37, 3151),
    ("MKD", "guided", 23, 35, 3659),
    ("KUE", "standard", 33, 13, 2747),
    ("KUE", "aggressive", 12, 18, 2591),
    ("KUE", "guided", 7, 8, 3120),
    ("MGS", "standard", 33, 19, 2718),
    ("MGS", "aggressive", 18, 18, 2565),
    ("MGS", "guided", 7, 5, 3079),
    ("SIO*", "standard", 37, 20, 3089),
    ("SIO*", "aggressive", 32, 2, 2660),
    ("SIO*", "guided", 20, 0, 3774),
    ("KUE*", "standard", 36, 18, 3004),
    ("KUE*", "aggressive", 33, 8, 2777),
    ("KUE*", "guided", 12, 17, 3342),
    ("FPS*", "standard", 24, 8, 2527),
    ("FPS*", "aggressive", 13, 23, 2358),
    ("FPS*", "guided", 3, 9, 2920),
    ("KUEt", "standard", 7, 3, 2680),
    ("KUEt", "aggressive", 7, 3, 2681),
    ("KUEt", "guided", 12, 7, 2467),
];

#[test]
fn fig6_arm_counts_match_the_pinned_table() {
    let mut ctx = RunContext::new();
    ctx.enable_prune();
    let mut actual = Vec::new();
    for case in nodefz_apps::registry() {
        let info = case.info();
        if !info.in_fig6 {
            continue;
        }
        for (preset, preset_name) in PRESETS.iter().enumerate() {
            let base = arm_seed(SEED, info.abbr, preset);
            let mut seen = nodefz_hb::SeenSet::new(RUNS_PER_ARM as usize);
            let (mut distinct, mut manifested, mut dispatched) = (0, 0, 0);
            for i in 0..RUNS_PER_ARM {
                let exec = ctx.fuzz_once(info.abbr, preset, derive_seed(base, i));
                let (key, _scope) = exec.canon.expect("pruning context yields keys");
                distinct += u64::from(seen.insert(key));
                manifested += u64::from(exec.finding.is_some());
                dispatched += exec.dispatched;
            }
            actual.push((info.abbr, *preset_name, distinct, manifested, dispatched));
        }
    }
    if actual != PINNED {
        let drifted: Vec<String> = actual
            .iter()
            .filter(|row| !PINNED.contains(row))
            .map(|(app, preset, ..)| format!("{app}/{preset}"))
            .collect();
        panic!(
            "pinned counts drifted on {} of {} arm(s) [{}]; if the change is \
             intended, re-bless PINNED with these rows and state the reason \
             in CHANGES.md:\n{}",
            drifted.len(),
            actual.len(),
            drifted.join(", "),
            actual
                .iter()
                .map(|row| format!("    {row:?},"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}
