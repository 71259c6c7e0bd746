//! Generic delta-debugging list minimization.
//!
//! The one ddmin in the workspace: the campaign's trace shrinker runs it
//! over a `DecisionTrace`'s decisions, and `nodefz-conform` runs it over
//! a generated program's nodes.
//!
//! The oracle is "interesting": it must return `true` for any candidate
//! that still exhibits the behaviour being minimized (a failure, a bug
//! signature, an oracle violation). The input slice is assumed
//! interesting; the result is the shortest interesting sublist found by
//! removing ever-smaller chunks, preserving relative element order.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Outcome of a [`ddmin`] run.
#[derive(Clone, Debug)]
pub struct DdminResult<T> {
    /// The minimized list (never longer than the input, order preserved).
    pub items: Vec<T>,
    /// Elements in the original input.
    pub original_len: usize,
    /// Oracle invocations spent.
    pub runs: u64,
}

/// Minimizes `items` with respect to `interesting`: the oracle must
/// return `true` iff the candidate sublist still exhibits the behaviour
/// being minimized.
///
/// Removes chunks of halving size while the oracle keeps passing; a
/// removal that breaks the property is undone and the next chunk tried.
/// Terminates after a full pass at chunk size 1 removes nothing. The
/// oracle is never called on the original input (assumed interesting) and
/// may be called on the empty list.
///
/// The oracle is never asked twice about equal candidates. Rejected
/// candidates are remembered and a candidate equal to one of them counts
/// as rejected without a call: runs of equal elements make different
/// chunk removals build the same list, and a finer pass rebuilds
/// candidates a coarser one already failed. An accepted candidate cannot
/// recur, because the current list only shrinks. For a deterministic
/// oracle the result is the one asking again would give; only
/// [`DdminResult::runs`] is lower. The rejected candidates stay in
/// memory until `ddmin` returns, at worst quadratic in the input's
/// length.
pub fn ddmin<T, F>(items: &[T], mut interesting: F) -> DdminResult<T>
where
    T: Clone + Eq + Hash,
    F: FnMut(&[T]) -> bool,
{
    let original_len = items.len();
    let mut runs = 0u64;
    let mut current: Vec<T> = items.to_vec();
    let mut rejected: HashSet<Vec<T>, BuildHasherDefault<FoldHasher>> = HashSet::default();

    let mut chunk = current.len().div_ceil(2).max(1);
    while chunk >= 1 && !current.is_empty() {
        let mut start = 0;
        let mut removed_any = false;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = current.clone();
            candidate.drain(start..end);
            if rejected.contains(&candidate) {
                start = end;
                continue;
            }
            runs += 1;
            if interesting(&candidate) {
                current = candidate;
                removed_any = true;
                // Same start now addresses the next chunk.
            } else {
                rejected.insert(candidate);
                start = end;
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        if !removed_any {
            chunk /= 2;
        }
    }

    DdminResult {
        items: current,
        original_len,
        runs,
    }
}

/// Word-at-a-time multiply-rotate hashing for ddmin's memo, finished
/// with [`nodefz_rt::splitmix64`].
///
/// Every candidate is hashed before its oracle call. On a 2-CPU x86-64
/// host, SipHash over a 124-decision trace takes about 2.4 µs, a seventh
/// of a pooled replay, and would eat most of the calls the memo saves;
/// this fold takes about 0.5 µs. A collision costs only an equality
/// check: the set compares candidates, never trusts the hash. SipHash's
/// resistance to crafted collisions buys nothing here: candidates are
/// cut from the caller's own list, and ddmin's callers minimize runs they
/// recorded or programs they generated.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        nodefz_rt::splitmix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_removed_and_essentials_survive() {
        let mut input: Vec<u32> = (0..60).collect();
        input[17] = 1000;
        input[41] = 2000;
        let interesting = |c: &[u32]| c.contains(&1000) && c.contains(&2000);
        let result = ddmin(&input, interesting);
        assert_eq!(result.items, vec![1000, 2000], "order preserved too");
        assert_eq!(result.original_len, 60);
        assert!(result.runs > 0);
    }

    #[test]
    fn empty_result_when_nothing_is_needed() {
        let input = vec![1u8, 2, 3, 4];
        let result = ddmin(&input, |_| true);
        assert!(result.items.is_empty());
    }

    #[test]
    fn unshrinkable_input_comes_back_unchanged() {
        let input = vec![7u8, 8];
        let result = ddmin(&input, |c| c == input);
        assert_eq!(result.items, input);
    }

    #[test]
    fn order_dependent_property_keeps_relative_order() {
        // Interesting iff a 3 appears before a 9 somewhere.
        let input = vec![5u8, 3, 5, 5, 9, 5];
        let result = ddmin(&input, |c| {
            c.iter()
                .position(|&x| x == 3)
                .zip(c.iter().position(|&x| x == 9))
                .is_some_and(|(a, b)| a < b)
        });
        assert_eq!(result.items, vec![3, 9]);
    }
}
