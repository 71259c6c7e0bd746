//! The shrink memo answers exactly what a replay would.
//!
//! For every fig6 app under every preset, at two seeds, the first
//! manifesting run is shrunk with an oracle that asks a [`ReplayMemo`]
//! and then replays anyway, on a fresh loop with a logging status
//! handle. Every answer the memo gives must equal the replay's, and the
//! memo's path must be the replay's consultation log: the whole log when
//! it answers, a prefix of it when it does not. The shrunk trace must
//! equal the unmemoized shrink's, and so must the campaign's own
//! memoized shrink, [`RunContext::shrink`], which must also run fewer
//! replays than it makes oracle calls in aggregate.
//!
//! ddmin keeps no memory and asks again about a candidate it already
//! tried, so the memo is the only thing that stops a repeated candidate
//! from replaying. The unmemoized shrink records every distinct candidate
//! decision list it asks about, and [`RunContext::shrink`] must run no
//! more replays than there are of those.

use nodefz::{ConsultLog, Decision, DecisionTrace, Mode, ReplayMemo, ReplayStatusHandle};
use nodefz_apps::common::{RunCfg, Variant};
use nodefz_campaign::{shrink, RunContext, PRESETS};
use nodefz_trace::BugSignature;

/// Seeds of the two env-seed streams per (app, preset).
const SEEDS: [u64; 2] = [1, 2];

/// Runs tried per stream before the pair counts as not manifesting.
const MAX_RUNS: u64 = 200;

/// Replays `trace` on a fresh loop through `status`; whether it
/// manifested `expected`.
fn replay(
    app: &str,
    env_seed: u64,
    trace: &DecisionTrace,
    expected: &BugSignature,
    status: &ReplayStatusHandle,
) -> bool {
    let case = nodefz_apps::by_abbr(app).expect("a fig6 app");
    let mode = Mode::Replay(trace.clone(), status.clone());
    let out = case.run(&RunCfg::new(mode, env_seed), Variant::Buggy);
    out.manifested && &BugSignature::new(app, &out.detail, &out.report.schedule) == expected
}

fn is_prefix(path: &ConsultLog, log: &ConsultLog) -> bool {
    path.len() <= log.len() && path.steps().zip(log.steps()).all(|(a, b)| a == b)
}

#[test]
fn the_memo_answers_every_fig6_shrink_as_a_replay_would() {
    let mut ctx = RunContext::new();
    let (mut shrinks, mut calls, mut answered, mut replays, mut repeats) = (0, 0, 0, 0, 0);
    for case in nodefz_apps::registry() {
        let info = case.info();
        if !info.in_fig6 {
            continue;
        }
        let app = info.abbr;
        for (preset, preset_name) in PRESETS.iter().enumerate() {
            for seed in SEEDS {
                let base = nodefz_rt::fnv1a(app.as_bytes()) ^ seed << 40 ^ (preset as u64) << 56;
                let Some(finding) = (0..MAX_RUNS).find_map(|i| {
                    ctx.fuzz_once(app, preset, nodefz_rt::splitmix64(base + i))
                        .finding
                }) else {
                    continue;
                };
                let what = format!("{app} {preset_name} seed {}", finding.env_seed);
                let (env_seed, expected) = (finding.env_seed, &finding.signature);
                let mut memo = ReplayMemo::new();
                let mut path = ConsultLog::default();
                let status = ReplayStatusHandle::logging();
                let checked = shrink(&finding.trace, |t| {
                    let remembered = memo.answer_logged(&t.decisions, &mut path);
                    let replayed = replay(app, env_seed, t, expected, &status);
                    status.with_log(|log| {
                        match remembered {
                            Some(answer) => {
                                answered += 1;
                                assert_eq!(answer, replayed, "{what}: the memo's answer");
                                assert!(path == *log, "{what}: the memo's path is not the log");
                            }
                            None => assert!(is_prefix(&path, log), "{what}: path leaves the log"),
                        }
                        memo.insert(log, replayed);
                    });
                    replayed
                });
                assert!(
                    !memo.contradicted(),
                    "{what}: a replay contradicted the memo"
                );
                let mut distinct: Vec<Vec<Decision>> = Vec::new();
                let plain = shrink(&finding.trace, |t| {
                    if !distinct.contains(&t.decisions) {
                        distinct.push(t.decisions.clone());
                    }
                    replay(app, env_seed, t, expected, &ReplayStatusHandle::fresh())
                });
                let (campaign, ran) = ctx.shrink(app, env_seed, &finding.trace, expected);
                for (how, result) in [("checked", &checked), ("campaign", &campaign)] {
                    assert_eq!(
                        (&result.trace, result.runs),
                        (&plain.trace, plain.runs),
                        "{what}: the {how} shrink differs from the unmemoized one"
                    );
                }
                assert!(
                    ran <= distinct.len() as u64,
                    "{what}: {ran} replays for {} distinct candidates",
                    distinct.len()
                );
                assert!(ran <= campaign.runs, "{what}");
                repeats += campaign.runs - distinct.len() as u64;
                shrinks += 1;
                calls += campaign.runs;
                replays += ran;
            }
        }
    }
    assert!(
        shrinks >= 70,
        "only {shrinks} of 78 (app, preset, seed) triples manifested"
    );
    assert!(answered > 0, "the memo never answered");
    assert!(repeats > 0, "ddmin never asked about a candidate twice");
    assert!(
        replays < calls,
        "{replays} replays for {calls} oracle calls: the memo saved nothing"
    );
}
