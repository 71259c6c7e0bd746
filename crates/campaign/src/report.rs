//! Plain-text rendering of campaign progress and results.

use crate::driver::{CampaignReport, Event};

/// Renders a live progress line for an [`Event`], or `None` for events the
/// console should not echo (per-run ticks are sampled by the caller).
pub fn render_event(event: &Event) -> Option<String> {
    match event {
        Event::Run { .. } => None,
        Event::NewBug {
            signature,
            env_seed,
        } => Some(format!(
            "  + new bug {signature} \"{}\" (env seed {env_seed})",
            signature.site
        )),
        Event::Shrunk {
            signature,
            from,
            to,
            replays_ok,
            oracle_calls,
            shrink_replays,
            persisted,
        } => Some(format!(
            "  ~ shrunk {signature}: {from} -> {to} decisions in {oracle_calls} oracle calls \
             ({shrink_replays} replayed), {replays_ok} acceptance replays re-manifest{}",
            if *persisted { "" } else { ", NOT PERSISTED" }
        )),
        Event::DeadlineHit => Some("  ! deadline hit, draining".into()),
    }
}

/// Renders the final multi-line summary.
pub fn render_summary(report: &CampaignReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "campaign: {} runs in {:.2}s ({:.1} runs/s){}\n",
        report.runs,
        report.elapsed.as_secs_f64(),
        report.runs as f64 / report.elapsed.as_secs_f64().max(1e-9),
        if report.hit_deadline {
            ", cut by deadline"
        } else {
            ""
        },
    ));
    let dropped = report.bugs.iter().filter(|b| !b.persisted).count();
    out.push_str(&format!("unique bugs: {}", report.unique_bugs()));
    if dropped > 0 {
        out.push_str(&format!(
            " ({dropped} not persisted: an acceptance replay did not re-manifest it)"
        ));
    }
    out.push('\n');
    for bug in &report.bugs {
        out.push_str(&format!(
            "  {:<4} x{:<4} trace {:>4} -> {:<4} shrink {:>4} calls {:>4} replays  \
             accept {:>2}  \"{}\"{}\n",
            bug.app,
            bug.hits,
            bug.original_len,
            bug.shrunk_len,
            bug.oracle_calls,
            bug.shrink_replays,
            bug.replays_ok,
            bug.site,
            if bug.persisted { "" } else { "  NOT PERSISTED" },
        ));
    }
    out.push_str("arms (pulls):\n");
    for (app, preset, pulls) in &report.arms {
        out.push_str(&format!("  {app:<4} {preset:<10} {pulls:>5}\n"));
    }
    if !report.quarantined.is_empty() {
        out.push_str(&format!(
            "quarantined arms ({} of {}; a run panicked):\n",
            report.quarantined.len(),
            report.arms.len()
        ));
    }
    for q in &report.quarantined {
        out.push_str(&format!(
            "  {:<4} {:<10} env seed {}: {}\n",
            q.app, q.preset, q.env_seed, q.message
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{BugSummary, Quarantine};
    use std::time::Duration;

    #[test]
    fn summary_names_every_bug_and_arm() {
        let report = CampaignReport {
            runs: 100,
            elapsed: Duration::from_secs(2),
            bugs: vec![BugSummary {
                app: "KUE".into(),
                site: "lost # jobs".into(),
                hits: 9,
                first_seed: 4,
                original_len: 120,
                shrunk_len: 3,
                replays_ok: 10,
                oracle_calls: 52,
                shrink_replays: 21,
                persisted: true,
            }],
            arms: vec![("KUE".into(), "standard", 60), ("KUE".into(), "guided", 40)],
            hit_deadline: false,
            quarantined: vec![Quarantine {
                app: "KUE".into(),
                preset: "guided",
                env_seed: 77,
                message: "index out of bounds".into(),
            }],
        };
        let text = render_summary(&report);
        assert!(text.contains("unique bugs: 1\n"), "{text}");
        assert!(text.contains("KUE"));
        assert!(
            text.contains("trace  120 -> 3    shrink   52 calls   21 replays  accept 10"),
            "{text}"
        );
        assert!(!text.contains("NOT PERSISTED"), "{text}");
        assert!(text.contains("lost # jobs"));
        assert!(
            text.contains("arms (pulls):\n  KUE  standard      60\n"),
            "{text}"
        );
        assert!(text.contains("quarantined arms (1 of 2"), "{text}");
        assert!(
            text.contains("KUE  guided     env seed 77: index out of bounds"),
            "{text}"
        );
    }

    #[test]
    fn a_bug_that_failed_acceptance_is_named_not_persisted() {
        let bug = BugSummary {
            app: "FPS".into(),
            site: "request(s) [#] never received a response".into(),
            hits: 2,
            first_seed: 7,
            original_len: 40,
            shrunk_len: 40,
            replays_ok: 1,
            oracle_calls: 30,
            shrink_replays: 30,
            persisted: false,
        };
        let report = CampaignReport {
            runs: 10,
            elapsed: Duration::from_secs(1),
            bugs: vec![bug],
            arms: vec![("FPS".into(), "standard", 10)],
            hit_deadline: false,
            quarantined: Vec::new(),
        };
        let text = render_summary(&report);
        assert!(
            text.contains(
                "unique bugs: 1 (1 not persisted: an acceptance replay did not re-manifest it)"
            ),
            "{text}"
        );
        assert!(
            text.contains("never received a response\"  NOT PERSISTED\n"),
            "{text}"
        );
        let line = render_event(&Event::Shrunk {
            signature: nodefz_trace::BugSignature {
                app: "FPS".into(),
                site: "s".into(),
                kinds: 0,
            },
            from: 40,
            to: 40,
            replays_ok: 1,
            oracle_calls: 30,
            shrink_replays: 12,
            persisted: false,
        })
        .unwrap();
        assert!(
            line.contains(
                "40 -> 40 decisions in 30 oracle calls (12 replayed), 1 acceptance replays \
                 re-manifest, NOT PERSISTED"
            ),
            "{line}"
        );
    }

    #[test]
    fn run_ticks_are_not_echoed() {
        assert!(render_event(&Event::Run {
            completed: 1,
            budget: 10
        })
        .is_none());
        assert!(render_event(&Event::DeadlineHit).is_some());
    }
}
