//! Property tests of the bug signature, driven by the seeded
//! `nodefz-check` harness.
//!
//! A signature names every repro file, so the fast paths that compute or
//! check one must agree with the definitions, on any schedule.

use std::cell::Cell;

use nodefz_check::{forall, Gen};
use nodefz_rt::{CbKind, TypeSchedule};
use nodefz_trace::{kind_fingerprint, BugSignature};

/// A random schedule over a random subset of all the kinds.
fn gen_schedule(g: &mut Gen) -> TypeSchedule {
    let kinds: Vec<CbKind> = CbKind::all().iter().copied().filter(|_| g.bool()).collect();
    let mut schedule = TypeSchedule::new();
    if kinds.is_empty() {
        return schedule;
    }
    for _ in 0..g.range_usize(0, 120) {
        schedule.push(*g.pick(&kinds));
    }
    schedule
}

/// A short failure site with digits, quotes, case and whitespace: the
/// run-specific parts normalization collapses.
fn gen_site(g: &mut Gen) -> String {
    let parts = [
        "Lost ", "lost ", "3", "12", " of ", "  ", "\"a/b\"", "\"c\"", "jobs", "X",
    ];
    (0..g.range_usize(0, 6)).map(|_| *g.pick(&parts)).collect()
}

#[test]
fn kind_fingerprint_sets_the_bit_of_every_kind_present() {
    forall(
        "kind_fingerprint_sets_the_bit_of_every_kind_present",
        256,
        |g| {
            let schedule = gen_schedule(g);
            let by_count = CbKind::all()
                .iter()
                .enumerate()
                .filter(|(_, &kind)| schedule.count(kind) > 0)
                .fold(0u32, |bits, (i, _)| bits | 1 << i);
            assert_eq!(kind_fingerprint(&schedule), by_count, "{:?}", schedule);
        },
    );
}

#[test]
fn matches_agrees_with_building_the_signature() {
    let outcomes = [Cell::new(0u32), Cell::new(0u32)];
    let apps: [&str; 3] = ["KUE", "GHO", "KUE*"];
    forall("matches_agrees_with_building_the_signature", 256, |g| {
        let (app, site_text, schedule) = (*g.pick(&apps), gen_site(g), gen_schedule(g));
        // Half the cases check against a signature of the same bug built
        // from other run-specific numbers, the rest against a random one.
        let expected = if g.bool() {
            BugSignature::new(app, &site_text.replace('3', "7"), &schedule)
        } else {
            let other = *g.pick(&apps);
            BugSignature::new(other, &gen_site(g), &gen_schedule(g))
        };
        let mut scratch = String::from("left over from an earlier check");
        let matched = expected.matches(app, &site_text, &schedule, &mut scratch);
        assert_eq!(
            matched,
            BugSignature::new(app, &site_text, &schedule) == expected,
            "{app} {site_text:?} {schedule:?} against {expected:?}"
        );
        let seen = &outcomes[usize::from(matched)];
        seen.set(seen.get() + 1);
    });
    assert!(
        outcomes.iter().all(|n| n.get() > 0),
        "one answer never came up: {outcomes:?}"
    );
}
