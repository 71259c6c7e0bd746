//! Round-level arm scheduling: Thompson sampling with a UCB fallback.
//!
//! The orchestrator's unit of allocation is one *budget slice* — a fixed
//! number of fuzz runs handed to one worker process running one
//! (app, preset, mode) arm. Each round the scheduler picks which arms
//! get the round's slices. Two policies:
//!
//! * **Thompson sampling** (default): each arm keeps a Beta posterior
//!   over "a slice of this arm yields at least one new unique bug". A
//!   pick samples every posterior and plays the argmax, so exploration
//!   falls out of posterior width instead of a tuned bonus term. Rewards
//!   are the *new-unique-bug count* a slice contributed to the merged
//!   corpus: `n` new bugs add `n` successes, a dry slice adds one
//!   failure. Between rounds both counts decay toward the prior, because
//!   bug yield is non-stationary — an arm's bugs deplete as they are
//!   found, and yesterday's star arm must be re-provable.
//! * **UCB**: the single-process campaign's allocator
//!   (mean + exploration bound), kept as `--scheduler ucb` so orchestrated
//!   runs can be compared against the old policy on equal footing.
//!
//! All randomness comes from a splitmix64 stream seeded by the campaign
//! base seed, so a whole orchestration is reproducible.

use nodefz_campaign::ArmSpec;

/// Which allocation policy drives budget rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Beta-posterior Thompson sampling (default).
    Thompson,
    /// Mean + exploration-bound UCB, as inside a single campaign process.
    Ucb,
}

impl SchedulerKind {
    /// The CLI/report spelling.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Thompson => "thompson",
            SchedulerKind::Ucb => "ucb",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<SchedulerKind> {
        match s {
            "thompson" => Some(SchedulerKind::Thompson),
            "ucb" => Some(SchedulerKind::Ucb),
            _ => None,
        }
    }
}

/// Per-round decay of the Beta counts (non-stationarity: found bugs
/// don't come back).
const DECAY: f64 = 0.9;

/// UCB exploration weight, matching the in-process bandit's scale.
const UCB_C: f64 = 0.5;

/// Scheduler-side state of one orchestrated arm.
#[derive(Clone, Debug)]
pub struct ArmState {
    /// What the arm runs.
    pub spec: ArmSpec,
    /// Decayed count of new-unique-bug successes.
    pub successes: f64,
    /// Decayed count of dry slices.
    pub failures: f64,
    /// Budget slices played on this arm so far.
    pub pulls: u64,
    /// Undecayed total of new unique bugs this arm contributed.
    pub new_bugs: u64,
    /// Fuzz runs this arm's workers actually executed.
    pub runs: u64,
    /// Why the arm was quarantined, if it was (crashed/stalled/errored
    /// worker). Quarantined arms receive no further slices.
    pub quarantined: Option<String>,
}

/// Thompson/UCB allocator over the orchestrated arm space.
#[derive(Debug)]
pub struct Scheduler {
    kind: SchedulerKind,
    arms: Vec<ArmState>,
    rng: SplitMix,
}

impl Scheduler {
    /// Creates a scheduler over `arms`, with all posteriors at the
    /// uniform prior. `seed` fixes the sampling stream.
    pub fn new(kind: SchedulerKind, arms: Vec<ArmSpec>, seed: u64) -> Scheduler {
        Scheduler {
            kind,
            arms: arms
                .into_iter()
                .map(|spec| ArmState {
                    spec,
                    successes: 0.0,
                    failures: 0.0,
                    pulls: 0,
                    new_bugs: 0,
                    runs: 0,
                    quarantined: None,
                })
                .collect(),
            rng: SplitMix::new(seed ^ 0x5eed_0c4e_d01e_0001),
        }
    }

    /// Which policy this scheduler runs.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// All arm states, in enumeration order.
    pub fn arms(&self) -> &[ArmState] {
        &self.arms
    }

    /// Indices of arms still eligible for slices.
    pub fn active(&self) -> Vec<usize> {
        (0..self.arms.len())
            .filter(|&i| self.arms[i].quarantined.is_none())
            .collect()
    }

    /// Marks one slice as played on `arm` without consulting the policy
    /// (the coverage round plays every arm unconditionally).
    pub fn pull(&mut self, arm: usize) {
        self.arms[arm].pulls += 1;
    }

    /// Picks the arm for one budget slice, or `None` when every arm is
    /// quarantined. Marks the pick as a pull.
    pub fn pick(&mut self) -> Option<usize> {
        let active = self.active();
        let choice = match self.kind {
            SchedulerKind::Thompson => {
                // Sample every active posterior; play the argmax.
                let mut best: Option<(usize, f64)> = None;
                for &i in &active {
                    let arm = &self.arms[i];
                    let draw = self.rng.beta(arm.successes + 1.0, arm.failures + 1.0);
                    if best.is_none_or(|(_, b)| draw > b) {
                        best = Some((i, draw));
                    }
                }
                best.map(|(i, _)| i)
            }
            SchedulerKind::Ucb => {
                let total: u64 = active.iter().map(|&i| self.arms[i].pulls).sum();
                let mut best: Option<(usize, f64)> = None;
                for &i in &active {
                    let arm = &self.arms[i];
                    // Optimistic start: an unpulled arm always wins a slot.
                    let score = if arm.pulls == 0 {
                        f64::INFINITY
                    } else {
                        let mean = arm.successes / (arm.successes + arm.failures).max(1.0);
                        let bonus =
                            UCB_C * ((2.0 * (total.max(1) as f64).ln()) / arm.pulls as f64).sqrt();
                        mean + bonus
                    };
                    if best.is_none_or(|(_, b)| score > b) {
                        best = Some((i, score));
                    }
                }
                best.map(|(i, _)| i)
            }
        }?;
        self.arms[choice].pulls += 1;
        Some(choice)
    }

    /// Credits a finished slice: `new_bugs` signatures the slice added to
    /// the merged corpus, `runs` fuzz runs it executed.
    pub fn reward(&mut self, arm: usize, new_bugs: u64, runs: u64) {
        let state = &mut self.arms[arm];
        if new_bugs > 0 {
            state.successes += new_bugs as f64;
        } else {
            state.failures += 1.0;
        }
        state.new_bugs += new_bugs;
        state.runs += runs;
    }

    /// Removes an arm from future rounds; its already-merged findings stay.
    pub fn quarantine(&mut self, arm: usize, reason: &str) {
        self.arms[arm].quarantined = Some(reason.to_string());
    }

    /// Ends a round: decays the Thompson posteriors toward the prior.
    pub fn end_round(&mut self) {
        if self.kind == SchedulerKind::Thompson {
            for arm in &mut self.arms {
                arm.successes *= DECAY;
                arm.failures *= DECAY;
            }
        }
    }
}

/// splitmix64: tiny, deterministic, and already the repo's seed-derivation
/// primitive — no RNG dependency needed.
#[derive(Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Seeds the stream.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let z = nodefz_rt::splitmix64(self.state);
        self.state = self.state.wrapping_add(nodefz_rt::GOLDEN_GAMMA);
        z
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal via Box-Muller.
    fn normal(&mut self) -> f64 {
        // Guard the log: next_f64 can return exactly 0.
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Gamma(alpha, 1) via Marsaglia-Tsang squeeze; only `alpha >= 1` is
    /// ever needed here (Beta parameters are count + 1).
    fn gamma(&mut self, alpha: f64) -> f64 {
        debug_assert!(alpha >= 1.0);
        let d = alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.next_f64().max(f64::MIN_POSITIVE);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v;
            }
        }
    }

    /// Beta(a, b) draw as a Gamma ratio.
    pub fn beta(&mut self, a: f64, b: f64) -> f64 {
        let ga = self.gamma(a);
        let gb = self.gamma(b);
        ga / (ga + gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_campaign::ArmMode;

    fn arm(app: &str, preset: &str) -> ArmSpec {
        ArmSpec {
            app: app.to_string(),
            preset: preset.to_string(),
            mode: ArmMode::Fuzz,
        }
    }

    #[test]
    fn beta_draws_stay_in_unit_interval_and_track_the_mean() {
        let mut rng = SplitMix::new(7);
        let mut sum = 0.0;
        const N: usize = 2000;
        for _ in 0..N {
            let x = rng.beta(9.0, 1.0);
            assert!((0.0..=1.0).contains(&x), "{x}");
            sum += x;
        }
        let mean = sum / N as f64;
        // Beta(9,1) has mean 0.9.
        assert!((mean - 0.9).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn thompson_shifts_budget_toward_the_yielding_arm() {
        let mut s = Scheduler::new(
            SchedulerKind::Thompson,
            vec![arm("KUE", "standard"), arm("MKD", "standard")],
            3,
        );
        // Arm 0 always yields a new bug, arm 1 never does.
        for _ in 0..200 {
            let i = s.pick().unwrap();
            s.reward(i, if i == 0 { 1 } else { 0 }, 10);
        }
        let pulls: Vec<u64> = s.arms().iter().map(|a| a.pulls).collect();
        assert!(
            pulls[0] > 3 * pulls[1],
            "yielding arm should dominate: {pulls:?}"
        );
        assert!(pulls[1] > 0, "dry arm still gets some exploration");
    }

    #[test]
    fn ucb_plays_every_arm_before_exploiting() {
        let mut s = Scheduler::new(
            SchedulerKind::Ucb,
            vec![arm("A", "p"), arm("B", "p"), arm("C", "p")],
            1,
        );
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            seen.insert(s.pick().unwrap());
        }
        assert_eq!(seen.len(), 3, "optimistic start covers all arms first");
    }

    #[test]
    fn quarantined_arms_receive_no_further_slices() {
        let mut s = Scheduler::new(
            SchedulerKind::Thompson,
            vec![arm("A", "p"), arm("B", "p")],
            5,
        );
        s.quarantine(0, "worker crashed");
        for _ in 0..20 {
            assert_eq!(s.pick(), Some(1));
        }
        s.quarantine(1, "worker stalled");
        assert_eq!(s.pick(), None, "all quarantined means no pick");
        assert_eq!(s.arms()[0].quarantined.as_deref(), Some("worker crashed"));
    }

    #[test]
    fn same_seed_same_history_means_same_picks() {
        let arms = vec![arm("A", "p"), arm("B", "p"), arm("C", "p")];
        let mut a = Scheduler::new(SchedulerKind::Thompson, arms.clone(), 11);
        let mut b = Scheduler::new(SchedulerKind::Thompson, arms, 11);
        for step in 0..50 {
            let pa = a.pick().unwrap();
            let pb = b.pick().unwrap();
            assert_eq!(pa, pb, "step {step}");
            let bugs = u64::from(step % 3 == 0 && pa == 1);
            a.reward(pa, bugs, 4);
            b.reward(pb, bugs, 4);
            if step % 10 == 9 {
                a.end_round();
                b.end_round();
            }
        }
    }

    #[test]
    fn decay_forgets_stale_evidence() {
        let mut s = Scheduler::new(SchedulerKind::Thompson, vec![arm("A", "p")], 2);
        s.reward(0, 10, 1);
        let before = s.arms()[0].successes;
        s.end_round();
        assert!(s.arms()[0].successes < before);
        assert_eq!(s.arms()[0].new_bugs, 10, "reporting totals never decay");
    }
}
