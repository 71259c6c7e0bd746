//! Shared harness for the bug reproductions.
//!
//! Every bug module implements [`BugCase`]: a faithful re-creation of the
//! racy logic (buggy variant), the community's actual fix per Table 2's
//! "Fix" column (fixed variant), a workload driver, and an oracle that
//! inspects the run to decide whether the race *manifested*.

use nodefz::Mode;
use nodefz_net::SimNet;
use nodefz_rt::{Ctx, EventLoop, LoopConfig, LoopPool, RunReport, VDur, VTime};

/// Which variant of the application to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The original racy code.
    Buggy,
    /// The community's fix (Table 2, "Fix" column).
    Fixed,
}

/// The race classification of §3.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaceType {
    /// Atomicity violation.
    Av,
    /// Ordering violation.
    Ov,
    /// Commutative ordering violation (the paper's new sub-type).
    Cov,
    /// "Race against time" (§5.2.3) — neither an AV nor an OV.
    TimeRace,
}

impl RaceType {
    /// The label used in Table 2.
    pub fn label(self) -> &'static str {
        match self {
            RaceType::Av => "AV",
            RaceType::Ov => "OV",
            RaceType::Cov => "(C)OV",
            RaceType::TimeRace => "time",
        }
    }
}

/// Static description of a studied bug (the Table 1/Table 2 row).
#[derive(Clone, Debug)]
pub struct BugInfo {
    /// Short identifier ("EPL", "GHO", …).
    pub abbr: &'static str,
    /// Software name the bug was studied in.
    pub name: &'static str,
    /// Upstream issue/PR reference.
    pub bug_ref: &'static str,
    /// Race classification.
    pub race: RaceType,
    /// The racing event types (Table 2 "Racing events").
    pub racing_events: &'static str,
    /// The racy object (Table 2 "Race on").
    pub race_on: &'static str,
    /// Observable impact (Table 2 "Impact").
    pub impact: &'static str,
    /// Fix strategy (Table 2 "Fix").
    pub fix: &'static str,
    /// Whether this bug is part of the Figure 6 experiment set (the paper
    /// excludes EPL, WPT and RST from that experiment; §5.1.1).
    pub in_fig6: bool,
    /// Whether the paper lists this among the novel findings (§5.2).
    pub novel: bool,
}

/// One reproduction run's configuration.
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Runtime version under test.
    pub mode: Mode,
    /// Environment seed (latencies, durations, costs).
    pub env_seed: u64,
    /// Fuzz-scheduler decision seed.
    pub sched_seed: u64,
    /// Whether to record the full type schedule.
    pub trace: bool,
    /// Loop-state pool to recycle heap buffers through (`None` builds a
    /// fresh loop per run). Recycling never changes behavior — a pooled
    /// loop is reset to exactly the state a fresh one would have.
    pub pool: Option<LoopPool>,
    /// Dispatch-provenance event log attached to every loop this config
    /// builds. Recording reads the run (causes + instrumented accesses);
    /// it never changes seeds, decisions, or schedules. The `nodefz-hb`
    /// analyzer consumes the result.
    pub events: Option<nodefz_rt::EventLogHandle>,
    /// Observability handle attached to every loop this config builds.
    /// Profiling reads the run; it never changes seeds, decisions, or
    /// schedules.
    pub obs: Option<nodefz_rt::ObsHandle>,
}

impl RunCfg {
    /// A configuration for one run of `mode` with the given environment
    /// seed (the scheduler seed is derived).
    pub fn new(mode: Mode, env_seed: u64) -> RunCfg {
        RunCfg {
            mode,
            env_seed,
            sched_seed: env_seed.wrapping_mul(0x9E37_79B9).wrapping_add(17),
            trace: true,
            pool: None,
            events: None,
            obs: None,
        }
    }

    /// Sets the loop-state pool this run recycles through.
    #[must_use]
    pub fn pooled(mut self, pool: &LoopPool) -> RunCfg {
        self.pool = Some(pool.clone());
        self
    }

    /// Attaches a dispatch-provenance event log to every loop built from
    /// this configuration. The handle is reset per build; read it back
    /// with [`nodefz_rt::EventLogHandle::snapshot`] after the run.
    #[must_use]
    pub fn events(mut self, events: &nodefz_rt::EventLogHandle) -> RunCfg {
        self.events = Some(events.clone());
        self
    }

    /// Attaches an observability handle to every loop built from this
    /// configuration.
    #[must_use]
    pub fn observed(mut self, obs: &nodefz_rt::ObsHandle) -> RunCfg {
        self.obs = Some(obs.clone());
        self
    }

    /// Builds the event loop for this configuration.
    ///
    /// Bug runs get a tight virtual-time cap: every workload finishes well
    /// within one virtual minute, and hang oracles rely on the cap.
    pub fn build_loop(&self) -> EventLoop {
        let cfg = LoopConfig {
            max_vtime: VTime::ZERO + VDur::secs(60),
            trace: self.trace,
            ..LoopConfig::seeded(self.env_seed)
        };
        let mut el = match &self.pool {
            Some(pool) => self.mode.build_loop_pooled(cfg, self.sched_seed, pool),
            None => self.mode.build_loop(cfg, self.sched_seed),
        };
        if let Some(events) = &self.events {
            el.set_event_log(events);
        }
        if let Some(obs) = &self.obs {
            el.set_obs(obs.clone());
        }
        el
    }
}

/// The observed outcome of one reproduction run.
#[derive(Debug)]
pub struct Outcome {
    /// Whether the race manifested (the oracle tripped).
    pub manifested: bool,
    /// Human-readable evidence.
    pub detail: String,
    /// The full run report.
    pub report: RunReport,
}

/// A reproduced bug: metadata, driver, and oracle.
pub trait BugCase {
    /// Static description (Table 1 / Table 2 row).
    fn info(&self) -> BugInfo;

    /// Runs the workload once and applies the oracle.
    fn run(&self, cfg: &RunCfg, variant: Variant) -> Outcome;

    /// A declarative static model of this variant's callback-registration
    /// structure, for zero-execution race prediction (`nodefz-sa`).
    /// Returns `None` when no model has been authored; every fig6 app
    /// provides one for both variants.
    fn static_model(&self, _variant: Variant) -> Option<crate::statics::StaticModel> {
        None
    }

    /// Runs this software's "test suite" — a larger workload used by the
    /// schedule-diversity (Figure 7) and overhead (Figure 8) experiments.
    ///
    /// The default suite mimics a module's test run: six test cases
    /// (alternating buggy and fixed variants under varied environments),
    /// schedules concatenated. Seeds are derived from `cfg.env_seed` so a
    /// suite run is as reproducible as a single run.
    fn suite(&self, cfg: &RunCfg) -> RunReport {
        let mut combined: Option<RunReport> = None;
        for case_no in 0..6u64 {
            let variant = if case_no % 2 == 0 {
                Variant::Buggy
            } else {
                Variant::Fixed
            };
            let sub = RunCfg {
                env_seed: cfg.env_seed.wrapping_mul(1_000_003).wrapping_add(case_no),
                sched_seed: cfg.sched_seed.wrapping_add(case_no * 7919),
                ..cfg.clone()
            };
            let report = self.run(&sub, variant).report;
            match &mut combined {
                None => combined = Some(report),
                Some(total) => {
                    total.schedule.extend(&report.schedule);
                    total.iterations += report.iterations;
                    total.dispatched += report.dispatched;
                    total.end_time = total.end_time.max(report.end_time);
                }
            }
        }
        combined.expect("at least one suite case ran")
    }
}

/// Returns the workload's racing-event delay in microseconds: the
/// per-bug default, unless the `NFZ_MARGIN_US` environment variable
/// overrides it (used by the calibration sweep only).
pub fn tuned_margin_us(default_us: u64) -> u64 {
    std::env::var("NFZ_MARGIN_US")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_us)
}

/// Spawns a periodic "monitoring" timer that stops itself after `until`.
///
/// Real servers run periodic timers (stats, keep-alives); §5.1.1 notes the
/// paper's adapted test cases deliberately introduce timers because they
/// are a fuzzing lever — each expired timer is a deferral opportunity that
/// injects a 5 ms loop delay.
pub fn heartbeat(cx: &mut Ctx<'_>, period: nodefz_rt::VDur, until: nodefz_rt::VDur) {
    use std::cell::RefCell;
    use std::rc::Rc;
    let deadline = cx.now() + until;
    let id = Rc::new(RefCell::new(None));
    let id2 = id.clone();
    let tid = cx.set_interval(period, move |cx| {
        cx.busy(nodefz_rt::VDur::micros(30));
        if cx.now() >= deadline {
            if let Some(tid) = *id2.borrow() {
                cx.clear_timer(tid);
            }
        }
    });
    *id.borrow_mut() = Some(tid);
}

/// Reusable assertions for bug-case tests and experiments.
///
/// Every bug module's tests call these three checks, which encode the
/// paper's headline claims per bug: the fix holds under fuzzing, the buggy
/// code manifests under fuzzing, and vanilla schedules rarely expose it.
pub mod check_case {
    use super::{BugCase, RunCfg, Variant};
    use nodefz::Mode;

    /// Asserts the fixed variant never manifests across `seeds` fuzz runs
    /// (plus a vanilla run per seed) — the §4.4 fidelity claim applied to
    /// the patched software.
    ///
    /// # Panics
    ///
    /// Panics if any run manifests.
    pub fn fixed_never_manifests(case: &dyn BugCase, seeds: u64) {
        for seed in 0..seeds {
            for mode in [Mode::Vanilla, Mode::Fuzz] {
                let label = mode.label();
                let out = case.run(&RunCfg::new(mode, seed), Variant::Fixed);
                assert!(
                    !out.manifested,
                    "{} fixed variant manifested under {label} seed {seed}: {}",
                    case.info().abbr,
                    out.detail
                );
            }
        }
    }

    /// Asserts the buggy variant manifests at least once within
    /// `max_seeds` runs under the standard fuzz parameterization.
    ///
    /// # Panics
    ///
    /// Panics if no run manifests.
    pub fn buggy_manifests_under_fuzz(case: &dyn BugCase, max_seeds: u64) {
        for seed in 0..max_seeds {
            let out = case.run(&RunCfg::new(Mode::Fuzz, seed), Variant::Buggy);
            if out.manifested {
                return;
            }
        }
        panic!(
            "{} buggy variant never manifested in {max_seeds} nodeFZ runs",
            case.info().abbr
        );
    }

    /// Asserts the buggy variant manifests in at most `max_hits` of
    /// `seeds` vanilla runs.
    ///
    /// # Panics
    ///
    /// Panics if vanilla manifests more often than allowed.
    pub fn vanilla_rarely_manifests(case: &dyn BugCase, seeds: u64, max_hits: u64) {
        let mut hits = 0;
        for seed in 0..seeds {
            let out = case.run(&RunCfg::new(Mode::Vanilla, seed), Variant::Buggy);
            if out.manifested {
                hits += 1;
            }
        }
        assert!(
            hits <= max_hits,
            "{} manifested in {hits}/{seeds} vanilla runs (allowed {max_hits})",
            case.info().abbr
        );
    }
}

/// Background traffic that keeps the event loop busy.
///
/// Real server test suites process many requests concurrently, which makes
/// loop iterations long and puts many events into each poll window — the
/// precondition for the fuzzer's ready-list shuffle to bite. `Chatter`
/// reproduces that: a side server plus scripted clients whose handlers burn
/// a configurable amount of virtual CPU.
pub struct Chatter;

impl Chatter {
    /// Spawns a chatter server on `port` and `clients` clients that each
    /// send `msgs` messages spaced `spacing` apart; every handler burns
    /// `busy` of virtual CPU. Everything tears down by
    /// `clients*msgs*spacing + grace`.
    pub fn spawn(
        cx: &mut Ctx<'_>,
        net: &SimNet,
        port: u16,
        clients: usize,
        msgs: usize,
        spacing: VDur,
        busy: VDur,
    ) {
        let server = net
            .listen(cx, port, move |_cx, conn| {
                conn.on_data(move |cx, _conn, _msg| {
                    cx.busy(busy);
                });
            })
            .expect("chatter port must be free");
        let horizon = spacing * (msgs as u64 + 2) + VDur::millis(20);
        for c in 0..clients {
            let client =
                nodefz_net::Client::connect_after(cx, net, port, VDur::micros(50 * c as u64));
            for m in 0..msgs {
                client.send_after(cx, spacing * m as u64, b"noise".to_vec());
            }
            client.close_after(cx, horizon);
        }
        cx.set_timeout(horizon + VDur::millis(10), move |cx| {
            server.close(cx);
        });
    }
}
