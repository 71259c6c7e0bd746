//! The traced run: spans nest, the span file is a Chrome trace, and the
//! named layers account for the measured time — which a missing span
//! visibly breaks.

use std::path::PathBuf;

use nfzbench::spans::{attributed_frac, chrome_json, Span};
use nfzbench::{run, Config, Workload};
use nodefz_obs::JsonValue;

/// The share of measured time the layers must account for.
const THRESHOLD: f64 = 0.9;

/// `spans` as if every span called `name` had never been recorded: its
/// children move up to its parent and its time becomes the parent's.
fn without(spans: &[Span], name: &str) -> Vec<Span> {
    let mut new_index: Vec<Option<usize>> = Vec::with_capacity(spans.len());
    let mut out: Vec<Span> = Vec::with_capacity(spans.len());
    for s in spans {
        if s.name == name {
            new_index.push(None);
            continue;
        }
        // Parents precede children, so the walk up is already remapped.
        let mut parent = s.parent;
        while let Some(p) = parent {
            if new_index[p].is_some() {
                break;
            }
            parent = spans[p].parent;
        }
        new_index.push(Some(out.len()));
        out.push(Span {
            parent: parent.and_then(|p| new_index[p]),
            ..s.clone()
        });
    }
    out
}

#[test]
fn spans_nest_parse_as_a_chrome_trace_and_attribute_the_time() {
    // (workload, operations, the span whose loss the canary simulates)
    let cases = [
        (Workload::Fuzz, 39, "campaign.fuzz_once"),
        (Workload::Dedup, 400, "campaign.fuzz_once"),
        (Workload::Directed, 24, "campaign.analyze_campaign"),
    ];
    for (workload, ops, canary) in cases {
        let name = workload.name();
        let cfg = Config {
            ops: Some(ops),
            trace: true,
            scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace"),
            ..Config::new(workload, 3)
        };
        let o = run(&cfg).expect("the traced run runs");
        assert!(o.correct(), "{name}: {:?}", o.violations);
        assert!(!o.spans.is_empty());

        for s in &o.spans {
            assert!(s.start_ns <= s.end_ns, "{name}: {s:?}");
            if let Some(p) = s.parent {
                let parent = &o.spans[p];
                assert!(
                    parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                    "{name}: {s:?} escapes {parent:?}"
                );
                assert_eq!(parent.trial, s.trial, "{name}: {s:?} under {parent:?}");
                assert_eq!(parent.lane, s.lane);
            }
        }

        let doc = JsonValue::parse(&chrome_json(name, &o.spans)).expect("span file parses");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents");
        let complete: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), o.spans.len());
        for e in complete {
            assert!(e.get("name").and_then(JsonValue::as_str).is_some());
            assert!(e.get("ts").and_then(JsonValue::as_f64).is_some());
            assert!(e.get("dur").and_then(JsonValue::as_f64).unwrap() >= 0.0);
        }

        let frac = o.metric("bench.attributed_frac").expect("reported");
        assert!(
            (THRESHOLD..=1.0).contains(&frac),
            "{name}: attributed {frac}"
        );
        assert_eq!(frac, attributed_frac(&o.spans, o.traced_wall_ns));
        let dropped = attributed_frac(&without(&o.spans, canary), o.traced_wall_ns);
        assert!(
            dropped < THRESHOLD,
            "{name}: without {canary} the layers still cover {dropped}"
        );
    }
}
