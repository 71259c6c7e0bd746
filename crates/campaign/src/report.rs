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
        } => Some(format!(
            "  ~ shrunk {signature}: {from} -> {to} decisions, {replays_ok} replays re-manifest"
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
    out.push_str(&format!("unique bugs: {}\n", report.unique_bugs()));
    for bug in &report.bugs {
        out.push_str(&format!(
            "  {:<4} x{:<4} trace {:>4} -> {:<4} replays {:>2}  \"{}\"\n",
            bug.app, bug.hits, bug.original_len, bug.shrunk_len, bug.replays_ok, bug.site
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
        assert!(text.contains("unique bugs: 1"));
        assert!(text.contains("KUE"));
        assert!(text.contains("120"));
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
    fn run_ticks_are_not_echoed() {
        assert!(render_event(&Event::Run {
            completed: 1,
            budget: 10
        })
        .is_none());
        assert!(render_event(&Event::DeadlineHit).is_some());
    }
}
