//! chrome://tracing exporter behind `--trace-out`.
//!
//! Collects the loop's [`TraceEvent`]s and renders them as a Chrome
//! Trace Event Format document — an object with a `traceEvents` array of
//! complete (`"ph": "X"`) events — which loads directly in Perfetto or
//! `chrome://tracing`. Timestamps are the run's *virtual* microseconds,
//! so traces of the same seed line up exactly; the measured wall time of
//! each span rides along in `args.wall_ns`.

use nodefz_obs::JsonWriter;
use nodefz_rt::{TraceEvent, TraceEventSink};

struct Span {
    name: &'static str,
    cat: &'static str,
    ts_ns: u64,
    dur_ns: u64,
    wall_ns: u64,
}

/// A [`TraceEventSink`] that buffers spans and serializes them to
/// chrome-trace JSON.
///
/// Wrap it in `Rc<RefCell<...>>`, hand it to `ObsHandle::with_sink`, run
/// the loop, then call [`ChromeTrace::to_json`].
#[derive(Default)]
pub(crate) struct ChromeTrace {
    spans: Vec<Span>,
}

impl ChromeTrace {
    /// Renders the chrome-trace document.
    ///
    /// `ts`/`dur` are virtual microseconds (fractional, since the loop
    /// tracks nanoseconds); every event lives on `pid` 1 / `tid` 1 so
    /// nesting (demux inside poll, callbacks inside phases) renders as a
    /// flame graph on one track.
    pub(crate) fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("displayTimeUnit", "ms");
        w.key("traceEvents");
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.field_str("name", s.name);
            w.field_str("cat", s.cat);
            w.field_str("ph", "X");
            w.field_u64("pid", 1);
            w.field_u64("tid", 1);
            w.field_f64("ts", s.ts_ns as f64 / 1_000.0, 3);
            w.field_f64("dur", s.dur_ns as f64 / 1_000.0, 3);
            w.key("args");
            w.begin_object();
            w.field_u64("wall_ns", s.wall_ns);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

impl TraceEventSink for ChromeTrace {
    fn event(&mut self, ev: &TraceEvent<'_>) {
        // Loop span names are all 'static labels; the borrow in the event
        // is shortened by the trait signature, so match them back to the
        // static set rather than allocating per span.
        let name = static_name(ev.name);
        self.spans.push(Span {
            name,
            cat: ev.cat,
            ts_ns: ev.start.as_nanos(),
            dur_ns: ev.dur.as_nanos(),
            wall_ns: ev.wall_ns,
        });
    }
}

/// Maps a span name back to its `'static` label.
///
/// Every name the loop emits is a [`nodefz_rt::obs::Phase::label`] or a
/// [`nodefz_rt::CbKind::label`]; anything else (a future custom span)
/// falls back to a generic label rather than allocating in the hot path.
fn static_name(name: &str) -> &'static str {
    for p in nodefz_rt::obs::Phase::all() {
        if p.label() == name {
            return p.label();
        }
    }
    for k in nodefz_rt::CbKind::all() {
        if k.label() == name {
            return k.label();
        }
    }
    "span"
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_rt::{VDur, VTime};

    fn ev(name: &'static str, cat: &'static str, start: u64, dur: u64) -> TraceEvent<'static> {
        TraceEvent {
            name,
            cat,
            start: VTime(start),
            dur: VDur(dur),
            wall_ns: 42,
        }
    }

    #[test]
    fn collects_and_serializes_complete_events() {
        let mut t = ChromeTrace::default();
        t.event(&ev("poll", "phase", 1_000, 2_500));
        t.event(&ev("timer", "callback", 1_500, 500));
        let json = t.to_json();
        assert_eq!(json.matches(r#""ph": "X""#).count(), 2, "{json}");
        assert!(json.starts_with(r#"{"displayTimeUnit": "ms", "traceEvents": ["#));
        assert!(json.contains(r#""name": "poll""#), "{json}");
        // 1000 ns -> 1.000 us, 2500 ns -> 2.500 us.
        assert!(json.contains(r#""ts": 1.000, "dur": 2.500"#), "{json}");
        assert!(json.contains(r#""args": {"wall_ns": 42}"#), "{json}");
    }

    #[test]
    fn unknown_names_fall_back_without_breaking_the_document() {
        let mut t = ChromeTrace::default();
        t.event(&ev("bespoke", "phase", 0, 1));
        assert!(t.to_json().contains(r#""name": "span""#));
    }

    #[test]
    fn loop_labels_round_trip() {
        assert_eq!(static_name("poll"), "poll");
        assert_eq!(static_name("pool-done"), "pool-done");
    }
}
