//! Node.fz scheduler parameters (Table 3 of the paper).
//!
//! Each parameter bounds one fuzzing mechanism. The *standard
//! parameterization* (§5.1.2) "fuzzes each supported aspect of
//! non-determinism without perturbing the execution too dramatically" and is
//! the configuration used for the headline experiments; §5.2.3's *guided*
//! parameterization biases the schedule toward accurate timers to chase a
//! specific symptom.

use std::fmt;

use nodefz_rt::VDur;

/// Tuning knobs of the Node.fz scheduler.
///
/// # Examples
///
/// ```
/// use nodefz::FuzzParams;
///
/// let std = FuzzParams::standard();
/// assert_eq!(std.epoll_defer_pct, 10.0);
/// std.validate().unwrap();
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzParams {
    /// Maximum shuffle distance of epoll ready items (`None` = unlimited;
    /// the paper's `-1`).
    pub epoll_dof: Option<usize>,
    /// Probability (percent) of deferring a ready epoll item to the next
    /// loop iteration.
    pub epoll_defer_pct: f64,
    /// Probability (percent) of deferring an expired timer to the next loop
    /// iteration (short-circuiting the rest of the timer phase).
    pub timer_defer_pct: f64,
    /// Virtual delay injected into the loop when a timer is deferred
    /// ("a compromise between desiring forward progress and hoping for
    /// other events to arrive", §4.3.4).
    pub timer_defer_delay: VDur,
    /// Probability (percent) of deferring a close event to the next loop
    /// iteration.
    pub close_defer_pct: f64,
    /// Worker-pool task-queue lookahead, i.e. the number of simulated
    /// workers (`None` = unlimited; the paper's `-1`).
    pub wp_dof: Option<usize>,
    /// Maximum total time the serialized worker waits for the task queue to
    /// fill up to the lookahead.
    pub wp_max_delay: VDur,
    /// Maximum time the event loop may sit in epoll while waiting for the
    /// worker-pool queue to fill. Our simulator folds this bound into the
    /// same wait deadline as `wp_max_delay` (documented substitution:
    /// the two caps bound the same wait from two sides in real Node.fz).
    pub wp_epoll_threshold: VDur,
    /// Whether to de-multiplex the worker-pool done queue onto per-task
    /// descriptors (§4.3.3). Disabling this is an ablation, not a paper
    /// configuration.
    pub demux_done: bool,
    /// Whether to serialize the worker pool to a single worker (§4.3.3).
    /// Disabling this is an ablation, not a paper configuration.
    pub serialize_pool: bool,
}

impl FuzzParams {
    /// The paper's standard parameterization (Table 3, right column).
    pub fn standard() -> FuzzParams {
        FuzzParams {
            epoll_dof: None, // -1 (unlimited)
            epoll_defer_pct: 10.0,
            timer_defer_pct: 20.0,
            timer_defer_delay: VDur::millis(5),
            close_defer_pct: 5.0,
            wp_dof: None,                          // -1 (unlimited)
            wp_max_delay: VDur::micros(100),       // 0.1 ms
            wp_epoll_threshold: VDur::micros(100), // 0.1 ms
            demux_done: true,
            serialize_pool: true,
        }
    }

    /// Parameters that induce no fuzzing at all: the paper's `nodeNFZ`.
    ///
    /// The Node.fz *infrastructure* is still in place — the worker pool is
    /// serialized and the done queue de-multiplexed — so this explores a
    /// slightly different schedule space than vanilla Node.js (§5.1), but
    /// the scheduler itself makes no random choices.
    pub fn none() -> FuzzParams {
        FuzzParams {
            epoll_dof: Some(0),
            epoll_defer_pct: 0.0,
            timer_defer_pct: 0.0,
            timer_defer_delay: VDur::ZERO,
            close_defer_pct: 0.0,
            wp_dof: Some(1),
            wp_max_delay: VDur::ZERO,
            wp_epoll_threshold: VDur::ZERO,
            demux_done: true,
            serialize_pool: true,
        }
    }

    /// The guided parameterization of §5.2.3: bias the loop toward spinning
    /// so that expired timers are noticed (and executed) promptly, exposing
    /// "race against time" bugs that assume imprecise timers.
    pub fn guided_accurate_timers() -> FuzzParams {
        FuzzParams {
            epoll_dof: None,
            epoll_defer_pct: 70.0,
            timer_defer_pct: 0.0,
            timer_defer_delay: VDur::ZERO,
            close_defer_pct: 50.0,
            wp_dof: None,
            wp_max_delay: VDur::millis(2),
            wp_epoll_threshold: VDur::millis(2),
            demux_done: true,
            serialize_pool: true,
        }
    }

    /// An intentionally extreme parameterization used by fidelity tests:
    /// correct programs must still compute correct results under it.
    pub fn aggressive() -> FuzzParams {
        FuzzParams {
            epoll_dof: None,
            epoll_defer_pct: 40.0,
            timer_defer_pct: 50.0,
            timer_defer_delay: VDur::millis(10),
            close_defer_pct: 40.0,
            wp_dof: None,
            wp_max_delay: VDur::millis(1),
            wp_epoll_threshold: VDur::millis(1),
            demux_done: true,
            serialize_pool: true,
        }
    }

    /// A seeded *swarm* parameterization: every knob drawn uniformly from
    /// its legal range, so a population of seeds covers corners of the
    /// configuration space (mux vs demux done queue, tight vs unlimited
    /// lookahead, zero vs heavy deferral) that no single hand-picked
    /// parameterization exercises. Always [`FuzzParams::validate`]-clean.
    ///
    /// Used by the `nodefz-conform` differential harness, which must hold
    /// the fidelity guarantees under *every* legal parameterization, not
    /// just the paper's three presets.
    pub fn sampled(seed: u64) -> FuzzParams {
        // A plain splitmix64 stream, so the sampler has no dependency on
        // the runtime's RNG stream shapes.
        let mut state = seed;
        let mut next = move || {
            let z = nodefz_rt::splitmix64(state);
            state = state.wrapping_add(nodefz_rt::GOLDEN_GAMMA);
            z
        };
        let pct = |v: u64| (v % 101) as f64;
        let serialize_pool = next() % 4 != 0;
        let wp_dof = if !serialize_pool {
            None
        } else {
            match next() % 3 {
                0 => None,
                _ => Some(1 + (next() % 4) as usize),
            }
        };
        FuzzParams {
            epoll_dof: match next() % 3 {
                0 => None,
                _ => Some((next() % 5) as usize),
            },
            // Capped below 100%: an always-defer policy would starve ready
            // fds forever, which is a livelock, not a schedule.
            epoll_defer_pct: pct(next()) * 0.8,
            timer_defer_pct: pct(next()) * 0.5,
            timer_defer_delay: VDur::micros(next() % 10_000),
            close_defer_pct: pct(next()) * 0.5,
            wp_dof,
            wp_max_delay: VDur::micros(next() % 2_000),
            wp_epoll_threshold: VDur::micros(next() % 2_000),
            demux_done: next() % 2 == 0,
            serialize_pool,
        }
    }

    /// Checks that every field is within its legal range.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("epoll_defer_pct", self.epoll_defer_pct),
            ("timer_defer_pct", self.timer_defer_pct),
            ("close_defer_pct", self.close_defer_pct),
        ] {
            if !(0.0..=100.0).contains(&v) || v.is_nan() {
                return Err(format!("{name} must be a percentage in [0, 100], got {v}"));
            }
        }
        if self.wp_dof == Some(0) {
            return Err("wp_dof must be at least 1 (a zero-task window cannot pick)".into());
        }
        if !self.serialize_pool && self.wp_dof.is_some() && self.wp_dof != Some(1) {
            return Err(
                "wp_dof lookahead requires the serialized pool (serialize_pool = true)".into(),
            );
        }
        Ok(())
    }

    /// Table 3 rows: (parameter name, description, value in this
    /// parameterization).
    pub fn table3_rows(&self) -> Vec<(&'static str, &'static str, String)> {
        fn dof(d: Option<usize>) -> String {
            match d {
                None => "-1 (unlimited)".to_string(),
                Some(n) => n.to_string(),
            }
        }
        vec![
            (
                "Event Loop: epoll degrees of freedom",
                "Maximum shuffle distance of epoll ready items.",
                dof(self.epoll_dof),
            ),
            (
                "Event Loop: epoll deferral percentage",
                "Probability of deferring a ready epoll item until the next iteration of the event loop.",
                format!("{}%", self.epoll_defer_pct),
            ),
            (
                "Event Loop: Timer deferral percentage",
                "Probability of deferring an expired timer until the next iteration of the event loop.",
                format!("{}%", self.timer_defer_pct),
            ),
            (
                "Event Loop: \"closing\" deferral percentage",
                "Probability of deferring a \"close\" event until the next iteration of the event loop.",
                format!("{}%", self.close_defer_pct),
            ),
            (
                "Worker Pool: Degrees of freedom",
                "Work queue lookahead distance, i.e. number of simulated worker pool workers.",
                dof(self.wp_dof),
            ),
            (
                "Worker Pool: Max delay",
                "Total maximum time to wait to fill the worker pool work queue up to the degrees of freedom.",
                format!("{} ms", self.wp_max_delay.as_nanos() as f64 / 1e6),
            ),
            (
                "Worker Pool: epoll threshold",
                "Maximum time the event loop can be in epoll while we wait for the worker pool task queue to fill.",
                format!("{} ms", self.wp_epoll_threshold.as_nanos() as f64 / 1e6),
            ),
        ]
    }

    /// Returns a copy with shuffling disabled (ablation).
    pub fn without_shuffle(mut self) -> FuzzParams {
        self.epoll_dof = Some(0);
        self.wp_dof = Some(1);
        self
    }

    /// Returns a copy with all deferral disabled (ablation).
    pub fn without_deferral(mut self) -> FuzzParams {
        self.epoll_defer_pct = 0.0;
        self.timer_defer_pct = 0.0;
        self.close_defer_pct = 0.0;
        self
    }

    /// Returns a copy with the done queue left multiplexed (ablation).
    pub fn without_demux(mut self) -> FuzzParams {
        self.demux_done = false;
        self
    }
}

impl Default for FuzzParams {
    fn default() -> FuzzParams {
        FuzzParams::standard()
    }
}

impl fmt::Display for FuzzParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, _, value) in self.table3_rows() {
            writeln!(f, "{name}: {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_matches_table3() {
        let p = FuzzParams::standard();
        assert_eq!(p.epoll_dof, None);
        assert_eq!(p.epoll_defer_pct, 10.0);
        assert_eq!(p.timer_defer_pct, 20.0);
        assert_eq!(p.close_defer_pct, 5.0);
        assert_eq!(p.wp_dof, None);
        assert_eq!(p.wp_max_delay, VDur::micros(100));
        assert_eq!(p.wp_epoll_threshold, VDur::micros(100));
        assert_eq!(p.timer_defer_delay, VDur::millis(5));
        p.validate().unwrap();
    }

    #[test]
    fn none_is_valid_and_inert() {
        let p = FuzzParams::none();
        p.validate().unwrap();
        assert_eq!(p.epoll_defer_pct, 0.0);
        assert_eq!(p.wp_dof, Some(1));
        assert!(p.demux_done);
        assert!(p.serialize_pool);
    }

    #[test]
    fn guided_and_aggressive_are_valid() {
        FuzzParams::guided_accurate_timers().validate().unwrap();
        FuzzParams::aggressive().validate().unwrap();
    }

    #[test]
    fn sampled_is_deterministic_valid_and_varied() {
        let (mut demux, mut mux, mut serial, mut concurrent) = (0, 0, 0, 0);
        for seed in 0..500u64 {
            let p = FuzzParams::sampled(seed);
            assert_eq!(
                p,
                FuzzParams::sampled(seed),
                "seed {seed} not deterministic"
            );
            p.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // Always-defer epoll policies would livelock a ready fd.
            assert!(p.epoll_defer_pct < 100.0, "seed {seed} can starve fds");
            if p.demux_done {
                demux += 1
            } else {
                mux += 1
            }
            if p.serialize_pool {
                serial += 1
            } else {
                concurrent += 1
            }
        }
        // The swarm must actually cover both sides of the binary knobs.
        assert!(demux > 50 && mux > 50, "demux split {demux}/{mux}");
        assert!(
            serial > 50 && concurrent > 50,
            "pool split {serial}/{concurrent}"
        );
    }

    #[test]
    fn validation_rejects_bad_percentages() {
        let mut p = FuzzParams::standard();
        p.epoll_defer_pct = 120.0;
        assert!(p.validate().is_err());
        p.epoll_defer_pct = -1.0;
        assert!(p.validate().is_err());
        p.epoll_defer_pct = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_wp_dof() {
        let mut p = FuzzParams::standard();
        p.wp_dof = Some(0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_lookahead_without_serialization() {
        let mut p = FuzzParams::standard();
        p.serialize_pool = false;
        p.wp_dof = Some(4);
        assert!(p.validate().is_err());
        p.wp_dof = None;
        p.validate().unwrap();
    }

    #[test]
    fn table3_has_seven_rows() {
        assert_eq!(FuzzParams::standard().table3_rows().len(), 7);
    }

    #[test]
    fn ablation_builders() {
        let p = FuzzParams::standard().without_shuffle();
        assert_eq!(p.epoll_dof, Some(0));
        assert_eq!(p.wp_dof, Some(1));
        let p = FuzzParams::standard().without_deferral();
        assert_eq!(p.timer_defer_pct, 0.0);
        assert_eq!(p.epoll_defer_pct, 0.0);
        assert_eq!(p.close_defer_pct, 0.0);
        let p = FuzzParams::standard().without_demux();
        assert!(!p.demux_done);
        p.validate().unwrap();
    }

    #[test]
    fn display_mentions_every_knob() {
        let s = format!("{}", FuzzParams::standard());
        assert!(s.contains("epoll degrees of freedom"));
        assert!(s.contains("Worker Pool: Max delay"));
    }
}
