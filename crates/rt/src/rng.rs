//! A small, self-contained deterministic PRNG.
//!
//! The runtime embeds xoshiro256++ (seeded through [`splitmix64`]) instead of
//! depending on the `rand` crate so that the simulator's determinism can
//! never be broken by an upstream algorithm change. Every source of modelled
//! nondeterminism — message latencies, task durations, callback costs, and
//! the fuzz scheduler's choices — draws from an instance of [`Rng`], so a run
//! is a pure function of its seeds.

use crate::time::VDur;

/// Reusable buffers for [`Rng::shuffle_bounded_with`].
#[derive(Clone, Debug, Default)]
pub struct ShuffleScratch {
    keys: Vec<u64>,
    order: Vec<usize>,
}

impl ShuffleScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> ShuffleScratch {
        ShuffleScratch::default()
    }
}

/// Deterministic xoshiro256++ pseudo-random number generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

/// The splitmix64 stream increment: 2^64 over the golden ratio, odd.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64: adds [`GOLDEN_GAMMA`] to `z`, then applies the avalanche
/// finalizer. This is the output of one step of the splitmix64 stream
/// whose state is `z` (the next state is `z + GOLDEN_GAMMA`), and the
/// workspace's one 64-bit mixer for seed derivation and hashing.
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over a byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Rng {
    /// Creates a generator from a 64-bit seed: the state is the first
    /// four outputs of the splitmix64 stream starting at `seed`.
    ///
    /// Identical seeds always produce identical streams.
    pub fn new(seed: u64) -> Rng {
        Rng {
            s: std::array::from_fn(|i| {
                splitmix64(seed.wrapping_add((i as u64).wrapping_mul(GOLDEN_GAMMA)))
            }),
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Derives an independent child generator.
    ///
    /// Used to hand sub-streams to subsystems (network latency, pool
    /// durations, …) so that adding draws in one subsystem does not shift
    /// another subsystem's stream.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below requires a positive bound");
        // Debiased multiply-shift (Lemire).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "Rng::range requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Returns a uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `pct` percent.
    ///
    /// `pct <= 0` never fires; `pct >= 100` always fires.
    pub fn chance_pct(&mut self, pct: f64) -> bool {
        if pct <= 0.0 {
            return false;
        }
        if pct >= 100.0 {
            return true;
        }
        self.unit() * 100.0 < pct
    }

    /// Returns `dur` scaled by a uniform factor in `[1-jitter, 1+jitter]`.
    ///
    /// `jitter` is a fraction (0.5 means ±50%). The result is never zero for
    /// a nonzero input so that causality (strictly increasing completion
    /// times for chained events) is preserved.
    pub fn jitter(&mut self, dur: VDur, jitter: f64) -> VDur {
        if dur.is_zero() || jitter <= 0.0 {
            return dur;
        }
        let factor = 1.0 + jitter * (2.0 * self.unit() - 1.0);
        let scaled = dur.mul_f64(factor.max(0.0));
        if scaled.is_zero() {
            VDur(1)
        } else {
            scaled
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let n = items.len();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Bounded shuffle: no element moves more than `max_dist` positions.
    ///
    /// This is the "degrees of freedom" shuffle from §4.3.4 of the paper: a
    /// trade-off between extreme fuzzing and realistic schedules. A
    /// `max_dist` of `usize::MAX` degenerates to a full Fisher–Yates shuffle.
    pub fn shuffle_bounded<T>(&mut self, items: &mut [T], max_dist: usize) {
        let mut scratch = ShuffleScratch::new();
        self.shuffle_bounded_with(items, max_dist, &mut scratch);
    }

    /// [`shuffle_bounded`] with caller-owned scratch, for hot paths that
    /// shuffle once per loop iteration. Draws the same random sequence as
    /// the scratch-free version, so recorded schedules are unaffected.
    ///
    /// [`shuffle_bounded`]: Rng::shuffle_bounded
    pub fn shuffle_bounded_with<T>(
        &mut self,
        items: &mut [T],
        max_dist: usize,
        scratch: &mut ShuffleScratch,
    ) {
        let n = items.len();
        if n < 2 {
            return;
        }
        if max_dist >= n {
            self.shuffle(items);
            return;
        }
        // Sort by jittered index: element `i` gets key `i + U[0, max_dist]`,
        // then a stable insertion sort by key. Any element moves at most
        // `max_dist` positions in either direction: an element `j` can only
        // pass elements `i` with `key_i > key_j`, and `key_i <= i + max_dist`
        // while `key_j >= j`, so passing requires `|i - j| <= max_dist`.
        let ShuffleScratch { keys, order } = scratch;
        keys.clear();
        keys.extend((0..n).map(|i| i as u64 + self.below(max_dist as u64 + 1)));
        order.clear();
        order.extend(0..n);
        for i in 1..n {
            let mut j = i;
            while j > 0 && keys[order[j - 1]] > keys[order[j]] {
                order.swap(j - 1, j);
                items.swap(j - 1, j);
                j -= 1;
            }
        }
    }

    /// Picks a uniform index into a collection of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn pick_index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixers_match_their_reference_vectors() {
        // splitmix64's published stream from state 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(GOLDEN_GAMMA), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should diverge");
    }

    #[test]
    fn below_is_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn below_covers_all_values() {
        let mut r = Rng::new(9);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_bounds() {
        let mut r = Rng::new(3);
        for _ in 0..1_000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn unit_in_unit_interval() {
        let mut r = Rng::new(5);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_pct_extremes() {
        let mut r = Rng::new(11);
        for _ in 0..100 {
            assert!(!r.chance_pct(0.0));
            assert!(r.chance_pct(100.0));
            assert!(!r.chance_pct(-5.0));
            assert!(r.chance_pct(150.0));
        }
    }

    #[test]
    fn chance_pct_roughly_calibrated() {
        let mut r = Rng::new(13);
        let hits = (0..100_000).filter(|_| r.chance_pct(20.0)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((0.18..0.22).contains(&rate), "rate was {rate}");
    }

    #[test]
    fn jitter_preserves_nonzero() {
        let mut r = Rng::new(17);
        for _ in 0..1_000 {
            assert!(!r.jitter(VDur::nanos(2), 0.99).is_zero());
        }
        assert!(r.jitter(VDur::ZERO, 0.5).is_zero());
    }

    #[test]
    fn jitter_within_bounds() {
        let mut r = Rng::new(19);
        let base = VDur::micros(100);
        for _ in 0..1_000 {
            let j = r.jitter(base, 0.5);
            assert!(j >= VDur::micros(50) && j <= VDur::micros(150), "{j:?}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(23);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_bounded_respects_distance() {
        let mut r = Rng::new(29);
        for _ in 0..100 {
            let mut v: Vec<usize> = (0..30).collect();
            r.shuffle_bounded(&mut v, 3);
            for (pos, &orig) in v.iter().enumerate() {
                let dist = pos.abs_diff(orig);
                assert!(dist <= 3, "element {orig} moved {dist} > bound");
            }
        }
    }

    #[test]
    fn shuffle_bounded_zero_is_identity() {
        let mut r = Rng::new(31);
        let mut v: Vec<usize> = (0..10).collect();
        r.shuffle_bounded(&mut v, 0);
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_bounded_large_bound_full_shuffle() {
        let mut r = Rng::new(37);
        let mut v: Vec<usize> = (0..20).collect();
        r.shuffle_bounded(&mut v, usize::MAX);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_bounded_with_scratch_matches_scratch_free() {
        let mut scratch = ShuffleScratch::new();
        for seed in 0..20 {
            let mut a = Rng::new(seed);
            let mut b = Rng::new(seed);
            let mut va: Vec<usize> = (0..25).collect();
            let mut vb = va.clone();
            a.shuffle_bounded(&mut va, 4);
            b.shuffle_bounded_with(&mut vb, 4, &mut scratch);
            assert_eq!(va, vb, "seed {seed}");
            assert_eq!(a.next_u64(), b.next_u64(), "rng streams diverged");
        }
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = Rng::new(41);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..16).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }
}
