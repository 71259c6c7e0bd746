//! `campaign report`: merge an orchestrated campaign's flight recorders
//! into one place a human can actually read.
//!
//! An orchestrated workdir holds one journal per process — the
//! orchestrator's (arm picks, worker lifecycle, merged discoveries) plus
//! one per worker slice (its own arm pulls, prune verdicts, local
//! discoveries) — and one chrome-trace timeline per worker that drained
//! (`--trace-out`). This module folds them into two artifacts:
//!
//! * `journal.jsonl` — every retained event from every journal, each
//!   line tagged with its `source` process, orchestrator first. Still a
//!   valid `nodefz-journal-v1` stream per line.
//! * `timeline.json` — one unified Perfetto/chrome-trace document:
//!   `pid 0` is the orchestrator (one `X` span per work item, spawn to
//!   reap, in wall milliseconds), and each worker gets its own pid with
//!   `process_name`/`thread_name` metadata naming it by its arm, its
//!   virtual-time spans re-based onto that pid. Workers without a trace
//!   (crashed or stalled before drain) still appear as named processes.

use std::path::{Path, PathBuf};

use nodefz_obs::{Journal, JournalEntry, JournalEvent, JsonValue, JsonWriter, WorkerState};

/// What [`merge_report`] produced.
#[derive(Clone, Debug)]
pub struct ReportSummary {
    /// Worker journals merged (the orchestrator's is extra).
    pub workers: usize,
    /// Journal events in the merged stream.
    pub events: usize,
    /// Spans on the unified timeline (orchestrator + workers).
    pub spans: usize,
    /// Workers that contributed chrome-trace spans.
    pub traced: usize,
    /// The merged journal path.
    pub journal_out: PathBuf,
    /// The unified timeline path.
    pub timeline_out: PathBuf,
}

/// One worker slice's artifacts, located by its work-dir name.
struct WorkerSource {
    index: usize,
    label: String,
    journal: Journal,
    trace: Option<JsonValue>,
}

/// Parses a work-dir name (`r{round}-i{index}-{label}`) into its index
/// and arm label.
fn parse_work_dir(name: &str) -> Option<(usize, String)> {
    let rest = name.strip_prefix('r')?;
    let (round, rest) = rest.split_once("-i")?;
    round.parse::<u32>().ok()?;
    let (index, label) = rest.split_once('-')?;
    Some((index.parse().ok()?, label.to_string()))
}

/// Top-level JSON string literal (for tagging merged lines).
fn json_str(s: &str) -> String {
    let mut w = JsonWriter::new();
    w.str(s);
    w.finish()
}

/// Re-renders a journal entry's line with a `source` tag appended.
fn tagged_line(entry: &JournalEntry, source: &str) -> String {
    let line = nodefz_obs::encode_entry(entry);
    // encode_entry always closes with '}': splice the tag in before it.
    format!(
        "{}, \"source\": {}}}",
        &line[..line.len() - 1],
        json_str(source)
    )
}

/// Merges the workdir's journals and worker traces into `out`.
///
/// # Errors
///
/// When the workdir holds no orchestrator journal (not an orchestrated
/// campaign's workdir, or one from before flight recording) or on I/O
/// failure. A worker that died before writing anything contributes
/// nothing, but a worker journal that exists and fails to decode is an
/// error, not a silent skip.
pub fn merge_report(workdir: &Path, out: &Path) -> Result<ReportSummary, String> {
    let orch_path = workdir.join("journal.jsonl");
    let orch_text = std::fs::read_to_string(&orch_path).map_err(|e| {
        format!(
            "{}: {e} (not an orchestrated workdir? run campaign --orchestrate --workdir {} first)",
            orch_path.display(),
            workdir.display()
        )
    })?;
    let orch = Journal::decode(&orch_text).map_err(|e| format!("{}: {e}", orch_path.display()))?;

    let mut workers: Vec<WorkerSource> = Vec::new();
    let entries = std::fs::read_dir(workdir).map_err(|e| format!("{}: {e}", workdir.display()))?;
    for dir_entry in entries.flatten() {
        let name = dir_entry.file_name().to_string_lossy().to_string();
        let Some((index, label)) = parse_work_dir(&name) else {
            continue;
        };
        let journal_path = dir_entry.path().join("journal.jsonl");
        let Ok(text) = std::fs::read_to_string(&journal_path) else {
            continue;
        };
        // A worker that never wrote a journal is lenient (skipped above);
        // a journal that exists but fails to decode is evidence of
        // corruption or a schema mismatch and must surface.
        let journal =
            Journal::decode(&text).map_err(|e| format!("{}: {e}", journal_path.display()))?;
        let trace = std::fs::read_to_string(dir_entry.path().join("trace.json"))
            .ok()
            .and_then(|t| JsonValue::parse(&t).ok());
        workers.push(WorkerSource {
            index,
            label,
            journal,
            trace,
        });
    }
    workers.sort_by_key(|w| w.index);

    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let journal_out = out.join("journal.jsonl");
    let timeline_out = out.join("timeline.json");

    // Merged journal: header, then orchestrator lines, then each worker's,
    // every line tagged with the process it came from.
    let mut events = 0usize;
    let mut merged = String::new();
    {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "nodefz-journal-v1");
        w.field_bool("merged", true);
        w.field_u64("sources", workers.len() as u64 + 1);
        w.field_u64(
            "dropped",
            orch.dropped() + workers.iter().map(|s| s.journal.dropped()).sum::<u64>(),
        );
        w.field_u64(
            "events",
            (orch.len() + workers.iter().map(|s| s.journal.len()).sum::<usize>()) as u64,
        );
        w.end_object();
        merged.push_str(&w.finish());
        merged.push('\n');
    }
    for entry in orch.entries() {
        merged.push_str(&tagged_line(entry, "orchestrator"));
        merged.push('\n');
        events += 1;
    }
    for source in &workers {
        let tag = format!("w{}", source.index);
        for entry in source.journal.entries() {
            merged.push_str(&tagged_line(entry, &tag));
            merged.push('\n');
            events += 1;
        }
    }
    nodefz_obs::write_atomic(&journal_out, &merged)
        .map_err(|e| format!("{}: {e}", journal_out.display()))?;

    let (timeline, spans, traced) = render_timeline(&orch, &workers);
    nodefz_obs::write_atomic(&timeline_out, &timeline)
        .map_err(|e| format!("{}: {e}", timeline_out.display()))?;

    Ok(ReportSummary {
        workers: workers.len(),
        events,
        spans,
        traced,
        journal_out,
        timeline_out,
    })
}

/// Emits one `"ph": "M"` process/thread-name metadata event.
fn metadata(w: &mut JsonWriter, kind: &str, pid: u64, name: &str) {
    w.begin_object();
    w.field_str("name", kind);
    w.field_str("ph", "M");
    w.field_u64("pid", pid);
    w.field_u64("tid", 1);
    w.key("args");
    w.begin_object();
    w.field_str("name", name);
    w.end_object();
    w.end_object();
}

/// Renders the unified chrome-trace document; returns (json, spans,
/// workers-with-traces).
fn render_timeline(orch: &Journal, workers: &[WorkerSource]) -> (String, usize, usize) {
    let mut w = JsonWriter::new();
    let mut spans = 0usize;
    let mut traced = 0usize;
    w.begin_object();
    w.field_str("displayTimeUnit", "ms");
    w.key("traceEvents");
    w.begin_array();
    metadata(&mut w, "process_name", 0, "orchestrator");
    metadata(&mut w, "thread_name", 0, "rounds");
    for source in workers {
        let pid = source.index as u64 + 1;
        metadata(
            &mut w,
            "process_name",
            pid,
            &format!("w{}: {}", source.index, source.label),
        );
        metadata(&mut w, "thread_name", pid, "loop");
    }

    // Orchestrator track: one complete span per work item, spawned to
    // reaped, on the orchestrator's wall clock (journal t_ms).
    let entries: Vec<&JournalEntry> = orch.entries().collect();
    for entry in &entries {
        let JournalEvent::Worker {
            index,
            arm,
            state: WorkerState::Spawned,
            ..
        } = &entry.event
        else {
            continue;
        };
        let reap = entries.iter().find_map(|e| match &e.event {
            JournalEvent::Worker {
                index: ri,
                state: WorkerState::Reaped,
                reason,
                ..
            } if ri == index && e.t_ms >= entry.t_ms => Some((e.t_ms, reason.clone())),
            _ => None,
        });
        let (end_ms, outcome) = reap.unwrap_or((entry.t_ms, None));
        w.begin_object();
        w.field_str("name", arm);
        w.field_str("cat", "worker");
        w.field_str("ph", "X");
        w.field_u64("pid", 0);
        w.field_u64("tid", 1);
        w.field_f64("ts", entry.t_ms as f64 * 1_000.0, 3);
        w.field_f64("dur", (end_ms - entry.t_ms).max(1) as f64 * 1_000.0, 3);
        w.key("args");
        w.begin_object();
        w.field_u64("index", *index);
        w.field_str("outcome", outcome.as_deref().unwrap_or("running"));
        w.end_object();
        w.end_object();
        spans += 1;
    }

    // Worker tracks: each trace's complete spans re-based onto the
    // worker's pid (its timestamps stay in its own virtual time).
    for source in workers {
        let Some(trace) = &source.trace else {
            continue;
        };
        let Some(trace_events) = trace.get("traceEvents").and_then(|t| t.as_array()) else {
            continue;
        };
        let pid = source.index as u64 + 1;
        let mut contributed = false;
        for ev in trace_events {
            if ev.get("ph").and_then(|p| p.as_str()) != Some("X") {
                continue;
            }
            let (Some(name), Some(cat), Some(ts), Some(dur)) = (
                ev.get("name").and_then(|v| v.as_str()),
                ev.get("cat").and_then(|v| v.as_str()),
                ev.get("ts").and_then(|v| v.as_f64()),
                ev.get("dur").and_then(|v| v.as_f64()),
            ) else {
                continue;
            };
            w.begin_object();
            w.field_str("name", name);
            w.field_str("cat", cat);
            w.field_str("ph", "X");
            w.field_u64("pid", pid);
            w.field_u64("tid", 1);
            w.field_f64("ts", ts, 3);
            w.field_f64("dur", dur, 3);
            if let Some(wall) = ev
                .get("args")
                .and_then(|a| a.get("wall_ns"))
                .and_then(|v| v.as_u64())
            {
                w.key("args");
                w.begin_object();
                w.field_u64("wall_ns", wall);
                w.end_object();
            }
            w.end_object();
            spans += 1;
            contributed = true;
        }
        if contributed {
            traced += 1;
        }
    }
    w.end_array();
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    (out, spans, traced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_obs::PruneOutcome;

    #[test]
    fn work_dir_names_parse_back_to_index_and_label() {
        assert_eq!(
            parse_work_dir("r0-i3-kue-standard-fuzz"),
            Some((3, "kue-standard-fuzz".to_string()))
        );
        assert_eq!(parse_work_dir("corpus"), None);
        assert_eq!(parse_work_dir("bench-thompson"), None);
        assert_eq!(parse_work_dir("r1-ix-bad"), None);
    }

    #[test]
    fn merged_report_tags_sources_and_names_processes() {
        let tmp = std::env::temp_dir().join(format!("nodefz-report-{}", std::process::id()));
        let work = tmp.join("work");
        let out = tmp.join("out");
        let wdir = work.join("r0-i0-kue-standard-fuzz");
        std::fs::create_dir_all(&wdir).unwrap();

        let mut orch = Journal::new(16);
        orch.push_at(
            1,
            JournalEvent::Worker {
                index: 0,
                arm: "KUE/standard/fuzz".into(),
                state: WorkerState::Spawned,
                reason: None,
            },
        );
        orch.push_at(
            9,
            JournalEvent::Worker {
                index: 0,
                arm: "KUE/standard/fuzz".into(),
                state: WorkerState::Reaped,
                reason: Some("ok".into()),
            },
        );
        orch.write(&work.join("journal.jsonl")).unwrap();

        let mut wj = Journal::new(16);
        wj.push_at(
            0,
            JournalEvent::Prune {
                exec: 1,
                verdict: PruneOutcome::Distinct,
            },
        );
        wj.write(&wdir.join("journal.jsonl")).unwrap();

        let summary = merge_report(&work, &out).unwrap();
        assert_eq!(summary.workers, 1);
        assert_eq!(summary.events, 3);
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.traced, 0);

        let merged = std::fs::read_to_string(&summary.journal_out).unwrap();
        let mut lines = merged.lines();
        let header = JsonValue::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("schema").and_then(|s| s.as_str()),
            Some("nodefz-journal-v1")
        );
        assert_eq!(header.get("events").and_then(|v| v.as_u64()), Some(3));
        let tags: Vec<String> = lines
            .map(|l| {
                JsonValue::parse(l)
                    .unwrap()
                    .get("source")
                    .and_then(|s| s.as_str())
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(tags, vec!["orchestrator", "orchestrator", "w0"]);

        let timeline = std::fs::read_to_string(&summary.timeline_out).unwrap();
        let doc = JsonValue::parse(&timeline).unwrap();
        let evs = doc.get("traceEvents").and_then(|t| t.as_array()).unwrap();
        let names: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
            })
            .collect();
        assert_eq!(names, vec!["orchestrator", "w0: kue-standard-fuzz"]);
        let span = evs
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(
            span.get("name").and_then(|n| n.as_str()),
            Some("KUE/standard/fuzz")
        );
        assert_eq!(span.get("dur").and_then(|d| d.as_f64()), Some(8_000.0));

        std::fs::remove_dir_all(&tmp).ok();
    }
}
