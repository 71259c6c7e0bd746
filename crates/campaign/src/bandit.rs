//! Budget allocation across arms.
//!
//! A campaign does not know in advance which application / parameterization
//! pairs will keep yielding bugs, so it treats allocation as a multi-armed
//! bandit: each arm's *recent* yield (new unique bugs per pull) is tracked
//! with an exponential moving average, and arms are chosen by an upper
//! confidence bound so unexplored arms still get pulled. An arm whose run
//! panicked is retired: no later pick returns it.
//!
//! The bandit knows arms only by position: callers keep their own arm list
//! and pass indices. Everything is deterministic — among equal scores the
//! *later* arm wins (`Iterator::max_by` keeps the last maximum), so a fresh
//! bandit plays its unpulled arms from the last to the first — and a
//! campaign with a fixed seed schedule is reproducible.

#[derive(Clone, Debug)]
struct ArmState {
    pulls: u64,
    /// EMA of reward (1.0 = new unique bug, 0.0 = nothing new).
    yield_ema: f64,
    /// Retired arms are never picked again.
    retired: bool,
}

/// Deterministic UCB/EMA budget allocator.
#[derive(Debug)]
pub struct Bandit {
    arms: Vec<ArmState>,
    total_pulls: u64,
    /// EMA decay: weight of the newest observation.
    alpha: f64,
    /// Exploration strength.
    c: f64,
}

impl Bandit {
    /// Creates an allocator over `arms` arms with standard exploration
    /// settings.
    pub fn new(arms: usize) -> Bandit {
        assert!(arms > 0, "bandit needs at least one arm");
        Bandit {
            arms: vec![
                ArmState {
                    pulls: 0,
                    // Optimistic start: every arm looks promising until
                    // evidence says otherwise.
                    yield_ema: 1.0,
                    retired: false,
                };
                arms
            ],
            total_pulls: 0,
            alpha: 0.2,
            c: 0.5,
        }
    }

    /// The UCB score of `a` when the pull being decided is the `t`-th;
    /// `None` for a never-pulled arm, whose score is effectively infinite.
    fn bound(&self, a: &ArmState, t: f64) -> Option<f64> {
        (a.pulls > 0).then(|| a.yield_ema + self.c * (t.ln() / a.pulls as f64).sqrt())
    }

    /// Picks the arm to spend the next pull on and counts the pull, or
    /// returns `None` when every arm is retired.
    pub fn pick(&mut self) -> Option<usize> {
        let t = (self.total_pulls + 1) as f64;
        let (best, _) = self
            .arms
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.retired)
            .map(|(i, a)| (i, self.bound(a, t).unwrap_or(f64::INFINITY)))
            // max_by returns the last of several equal maxima: ties go to
            // the later arm.
            .max_by(|(_, x), (_, y)| x.partial_cmp(y).expect("scores are not NaN"))?;
        self.total_pulls += 1;
        self.arms[best].pulls += 1;
        Some(best)
    }

    /// Pulls of `arm` so far.
    pub(crate) fn pulls(&self, arm: usize) -> u64 {
        self.arms[arm].pulls
    }

    /// Reports the outcome of a pull of `arm`: `new_bugs` is how many
    /// previously unseen signatures it surfaced.
    pub fn reward(&mut self, arm: usize, new_bugs: u64) {
        let observed = if new_bugs > 0 { 1.0 } else { 0.0 };
        let a = &mut self.arms[arm];
        a.yield_ema = (1.0 - self.alpha) * a.yield_ema + self.alpha * observed;
    }

    /// Removes `arm` from every future [`Bandit::pick`]; returns whether
    /// it was still in play.
    pub fn retire(&mut self, arm: usize) -> bool {
        !std::mem::replace(&mut self.arms[arm].retired, true)
    }

    /// The allocator's full decision state, one entry per arm in order.
    ///
    /// `ucb_bound` is exactly the score the next [`Bandit::pick`] ranks the
    /// arm by, so a snapshot explains the allocator's next choice, not
    /// just its history.
    pub fn snapshot(&self) -> Vec<ArmSnapshot> {
        let t = (self.total_pulls + 1) as f64;
        self.arms
            .iter()
            .map(|a| ArmSnapshot {
                pulls: a.pulls,
                mean_reward: a.yield_ema,
                ucb_bound: self.bound(a, t),
            })
            .collect()
    }
}

/// Point-in-time state of one bandit arm, as exposed by
/// [`Bandit::snapshot`].
#[derive(Clone, Debug)]
pub struct ArmSnapshot {
    /// Pulls spent on this arm so far.
    pub pulls: u64,
    /// Recent-yield EMA (1.0 = every recent pull found a new bug).
    pub mean_reward: f64,
    /// The UCB score the next [`Bandit::pick`] ranks this arm by; `None`
    /// while the arm is unpulled (its score is infinite).
    pub ucb_bound: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_arm_is_tried_before_any_repeats() {
        let mut b = Bandit::new(4);
        let firsts: Vec<usize> = (0..4).map(|_| b.pick().unwrap()).collect();
        assert_eq!(firsts, [3, 2, 1, 0], "unpulled ties go to the later arm");
    }

    #[test]
    fn budget_shifts_toward_the_yielding_arm() {
        let mut b = Bandit::new(3);
        let mut pulls = [0u64; 3];
        for _ in 0..300 {
            let i = b.pick().unwrap();
            pulls[i] += 1;
            // Arm 1 keeps yielding; the others never do.
            b.reward(i, u64::from(i == 1));
        }
        assert!(
            pulls[1] > pulls[0] + pulls[2],
            "yielding arm should dominate: {pulls:?}"
        );
        assert!(pulls[0] > 0 && pulls[2] > 0, "exploration never stops");
    }

    #[test]
    fn dry_arms_decay_and_recover() {
        let mut b = Bandit::new(1);
        let arm = b.pick().unwrap();
        for _ in 0..50 {
            b.reward(arm, 0);
        }
        let dry = b.snapshot()[0].mean_reward;
        assert!(dry < 0.01, "long-dry arm decays, got {dry}");
        b.reward(arm, 3);
        assert!(b.snapshot()[0].mean_reward > dry, "a hit recovers the EMA");
    }

    #[test]
    fn snapshot_mirrors_the_pick_scores() {
        let mut b = Bandit::new(2);
        let snap = b.snapshot();
        assert!(
            snap.iter().all(|a| a.pulls == 0 && a.ucb_bound.is_none()),
            "unpulled arms have no finite bound"
        );
        for i in 0..10 {
            let arm = b.pick().unwrap();
            b.reward(arm, u64::from(i % 3 == 0));
        }
        let snap = b.snapshot();
        assert_eq!(snap.iter().map(|a| a.pulls).sum::<u64>(), 10);
        for s in &snap {
            let bound = s.ucb_bound.expect("pulled arm has a bound");
            // The next pick is the 11th, and it scores with ln 11.
            let expected = s.mean_reward + 0.5 * ((11.0f64).ln() / s.pulls as f64).sqrt();
            assert!((bound - expected).abs() < 1e-12, "{bound} vs {expected}");
            assert!(bound >= s.mean_reward, "exploration bonus is additive");
        }
        // The snapshot's argmax, ties to the later arm, is the next pick.
        let argmax = (0..snap.len())
            .max_by(|&x, &y| snap[x].ucb_bound.partial_cmp(&snap[y].ucb_bound).unwrap())
            .unwrap();
        assert_eq!(b.pick(), Some(argmax));
    }

    #[test]
    fn picks_are_deterministic() {
        let run = || {
            let mut b = Bandit::new(3);
            (0..40)
                .map(|i| {
                    let arm = b.pick().unwrap();
                    b.reward(arm, u64::from(i % 7 == 0));
                    arm
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rewards_credit_the_indexed_arm() {
        // Two arms the caller cannot tell apart by value (a duplicated
        // app): credit goes by index, so each twin's EMA tracks its own
        // pulls and dry twins split the budget evenly.
        let mut b = Bandit::new(2);
        let mut pulls = [0u64; 2];
        for _ in 0..60 {
            let i = b.pick().unwrap();
            pulls[i] += 1;
            b.reward(i, 0);
        }
        assert_eq!(pulls, [30, 30]);
        let snap = b.snapshot();
        assert_eq!(snap[0].mean_reward, snap[1].mean_reward);
        assert!(snap[1].mean_reward < 0.01, "{}", snap[1].mean_reward);
    }

    #[test]
    fn retired_arms_are_never_picked() {
        let mut b = Bandit::new(2);
        assert!(b.retire(1));
        assert!(!b.retire(1), "an arm retires once");
        for _ in 0..20 {
            assert_eq!(b.pick(), Some(0));
        }
        assert!(b.retire(0));
        assert_eq!(b.pick(), None, "all retired means no pick");
        assert_eq!(b.snapshot()[0].pulls, 20, "a refused pick is not counted");
    }
}
