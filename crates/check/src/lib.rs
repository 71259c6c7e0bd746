//! # nodefz-check — a minimal seeded property-testing harness
//!
//! The workspace's property tests originally used `proptest`; this crate is
//! a small, dependency-free replacement so the whole repository builds and
//! tests offline. It keeps the two properties that matter for a determinism
//! testbed:
//!
//! * **Reproducibility** — every case derives its generator seed from the
//!   property name and the case index, so a failure report names the exact
//!   seed, and `NFZ_CHECK_SEED=<seed>` re-runs just that case.
//! * **Coverage** — [`Gen`] provides the generator vocabulary the old
//!   strategies used (integers, floats, choices, byte vectors, collection
//!   sizes), all drawn from a splitmix64 stream.
//!
//! [`forall`] does no automatic shrinking: generators here are used with
//! small size bounds, so a failing case is already near-minimal, and the
//! printed seed makes it trivially replayable under a debugger. Harnesses
//! that *do* want minimization use `nodefz::ddmin`.
//!
//! ```
//! use nodefz_check::forall;
//!
//! forall("addition_commutes", 64, |g| {
//!     let (a, b) = (g.below(1000), g.below(1000));
//!     assert_eq!(a + b, b + a);
//! });
//! ```

// `deny` rather than `forbid`: the `alloc` module implements `GlobalAlloc`
// (inherently unsafe) and opts out locally; everything else stays checked.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;

pub use alloc::{AllocStats, CountingAlloc};

use std::panic::{catch_unwind, AssertUnwindSafe};

/// A deterministic splitmix64 generator handed to each property case.
#[derive(Clone, Debug)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Gen {
        Gen { state: seed }
    }

    /// Returns the next 64 random bits.
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Gen::below requires a positive bound");
        // Multiply-shift; the slight bias is irrelevant for test generation.
        ((self.u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "Gen::range requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Returns a uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// Returns a uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform value in `[lo, hi)`.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// Returns `true` with probability 1/2.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Returns a uniform byte.
    pub fn byte(&mut self) -> u8 {
        self.u64() as u8
    }

    /// Picks a uniform element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "Gen::pick requires a non-empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Builds a vector with a uniform length in `[min_len, max_len)` whose
    /// elements come from `f`.
    pub fn vec_with<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.range_usize(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }

    /// Builds a byte vector with a uniform length in `[min_len, max_len)`.
    pub fn bytes(&mut self, min_len: usize, max_len: usize) -> Vec<u8> {
        self.vec_with(min_len, max_len, |g| g.byte())
    }

    /// Builds a lowercase ASCII string with length in `[min_len, max_len)`.
    pub fn lowercase(&mut self, min_len: usize, max_len: usize) -> String {
        self.vec_with(min_len, max_len, |g| (b'a' + g.below(26) as u8) as char)
            .into_iter()
            .collect()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `body` against `cases` generated inputs.
///
/// Each case gets a [`Gen`] seeded from the property `name` and the case
/// index. On failure the panic message is re-raised with the property name
/// and the case seed appended; setting `NFZ_CHECK_SEED=<seed>` re-runs only
/// that case (useful under a debugger).
///
/// # Panics
///
/// Re-raises the first failing case's panic, annotated with its seed.
pub fn forall(name: &str, cases: u32, body: impl Fn(&mut Gen)) {
    let base = fnv1a(name.as_bytes());
    if let Some(seed) = std::env::var("NFZ_CHECK_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        let mut g = Gen::new(seed);
        body(&mut g);
        return;
    }
    for case in 0..cases {
        let seed = base.wrapping_add((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut g = Gen::new(seed);
        let result = catch_unwind(AssertUnwindSafe(|| body(&mut g)));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "property '{name}' failed at case {case}/{cases} \
                 (replay with NFZ_CHECK_SEED={seed}): {msg}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Gen::new(7);
        let mut b = Gen::new(7);
        for _ in 0..64 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn below_in_range_and_covering() {
        let mut g = Gen::new(1);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let v = g.below(5);
            assert!(v < 5);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn vec_with_respects_length_bounds() {
        let mut g = Gen::new(2);
        for _ in 0..200 {
            let v = g.vec_with(2, 9, |g| g.byte());
            assert!((2..9).contains(&v.len()));
        }
    }

    #[test]
    fn forall_passes_trivial_property() {
        forall("trivial", 16, |g| {
            let x = g.below(10);
            assert!(x < 10);
        });
    }

    #[test]
    fn forall_reports_seed_on_failure() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall("always_fails", 4, |_| panic!("boom"));
        }));
        let payload = result.expect_err("property must fail");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("NFZ_CHECK_SEED="), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn lowercase_is_lowercase() {
        let mut g = Gen::new(3);
        for _ in 0..100 {
            let s = g.lowercase(1, 10);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }
}
