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
/// Every candidate is built into one reused buffer, and every one goes to
/// the oracle: runs of equal elements make different chunk removals build
/// the same list, and a finer pass rebuilds candidates a coarser one
/// already failed, so the oracle may be asked again about a list it
/// already rejected. An oracle that is costly to ask twice remembers its
/// own answers, as the campaign's shrink oracle does.
pub fn ddmin<T, F>(items: &[T], mut interesting: F) -> DdminResult<T>
where
    T: Clone,
    F: FnMut(&[T]) -> bool,
{
    let original_len = items.len();
    let mut runs = 0u64;
    let mut current: Vec<T> = items.to_vec();
    let mut candidate: Vec<T> = Vec::with_capacity(current.len());

    let mut chunk = current.len().div_ceil(2).max(1);
    while chunk >= 1 && !current.is_empty() {
        let mut start = 0;
        let mut removed_any = false;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            candidate.clear();
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            runs += 1;
            if interesting(&candidate) {
                std::mem::swap(&mut current, &mut candidate);
                removed_any = true;
                // Same start now addresses the next chunk.
            } else {
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
