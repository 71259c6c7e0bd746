//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is named `layer.call` after the crate it enters (`campaign`,
//! `core`, `rt`, `hb`, `trace`); `bench.*` spans are the benchmark's own
//! bookkeeping (one per operation, one per probe sample) and are never
//! attributed to a layer. Spans of one operation share its trial id.
//! Nothing is written until the run ends ([`chrome_json`]).

use std::time::Instant;

use nodefz_obs::JsonWriter;

/// Which timeline a span belongs to: the measured workload, or the layer
/// probe that re-runs sampled executions outside the measured region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// The traced pass over the workload's operations.
    Workload,
    /// The per-layer probe.
    Probe,
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (or probe sample) this span belongs to.
    pub trial: u64,
    /// Which timeline it was recorded on.
    pub lane: Lane,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span, returned by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

/// Records nested spans when on; costs one branch per call when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trial: u64,
    lane: Lane,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trial: 0,
            lane: Lane::Workload,
        }
    }

    /// Sets the trial id and lane of the spans begun from now on.
    pub fn set_trial(&mut self, trial: u64, lane: Lane) {
        self.trial = trial;
        self.lane = lane;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            trial: self.trial,
            lane: self.lane,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
            self.open.pop();
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// The share of `wall_ns` covered by the self time of workload-lane spans
/// of a named layer (everything but `bench.*`).
pub fn attributed_frac(spans: &[Span], wall_ns: u64) -> f64 {
    let own = self_times(spans);
    let attributed: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.lane == Lane::Workload && s.layer() != "bench")
        .map(|(_, t)| *t)
        .sum();
    attributed as f64 / wall_ns.max(1) as f64
}

/// Renders spans as a Chrome trace-event document (loadable in Perfetto):
/// one complete (`ph: "X"`) event per span, the workload on thread 1 and
/// the probe on thread 2, with the trial id in `args`.
pub fn chrome_json(workload: &str, spans: &[Span]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for (tid, thread) in [(1, "workload"), (2, "probe")] {
        w.begin_object();
        w.field_str("name", "thread_name");
        w.field_str("ph", "M");
        w.field_u64("pid", 1);
        w.field_u64("tid", tid);
        w.key("args");
        w.begin_object();
        w.field_str("name", thread);
        w.end_object();
        w.end_object();
    }
    w.begin_object();
    w.field_str("name", "process_name");
    w.field_str("ph", "M");
    w.field_u64("pid", 1);
    w.key("args");
    w.begin_object();
    w.field_str("name", &format!("nfzbench {workload}"));
    w.end_object();
    w.end_object();
    for s in spans {
        w.begin_object();
        w.field_str("name", s.name);
        w.field_str("cat", s.layer());
        w.field_str("ph", "X");
        w.field_f64("ts", s.start_ns as f64 / 1e3, 3);
        w.field_f64("dur", s.dur_ns() as f64 / 1e3, 3);
        w.field_u64("pid", 1);
        w.field_u64(
            "tid",
            match s.lane {
                Lane::Workload => 1,
                Lane::Probe => 2,
            },
        );
        w.key("args");
        w.begin_object();
        w.field_u64("trial", s.trial);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trial: 0,
            lane: Lane::Workload,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("bench.trial", 0, 100, None),
            span("campaign.fuzz_once", 10, 50, Some(0)),
            span("campaign.fuzz_once", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 40]);
        assert!((attributed_frac(&spans, 100) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("bench.trial");
        assert_eq!(t.leaf("campaign.fuzz_once", || 7), 7);
        t.end(open);
        assert!(t.spans().is_empty());
    }
}
