//! Property tests for `ddmin`'s rejection memo: remembering rejected
//! candidates must change nothing but the number of oracle calls.
//!
//! Inputs are short lists over a two- or three-symbol alphabet, so equal
//! neighbouring chunks (the case the memo exists for) are common. Each
//! input is minimized against a monotone oracle and a non-monotone one,
//! and compared with a copy of the pass loop that asks the oracle about
//! every candidate it builds.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use nodefz::{ddmin, Decision, Perm};
use nodefz_check::{forall, Gen};

/// `ddmin`'s pass loop without the memo: every built candidate goes to
/// the oracle. Returns the minimized list and the oracle calls.
fn ddmin_asking_every_time<T: Clone>(
    items: &[T],
    mut interesting: impl FnMut(&[T]) -> bool,
) -> (Vec<T>, u64) {
    let mut runs = 0u64;
    let mut current: Vec<T> = items.to_vec();
    let mut chunk = current.len().div_ceil(2).max(1);
    while chunk >= 1 && !current.is_empty() {
        let mut start = 0;
        let mut removed_any = false;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = current.clone();
            candidate.drain(start..end);
            runs += 1;
            if interesting(&candidate) {
                current = candidate;
                removed_any = true;
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
    (current, runs)
}

/// A list of length 0–64 over a 2- or 3-symbol alphabet.
fn gen_list(g: &mut Gen) -> Vec<u8> {
    let symbols = g.range(2, 4);
    let len = g.range_usize(0, 65);
    (0..len).map(|_| g.below(symbols) as u8).collect()
}

/// Up to four elements of `list`, in order: a subsequence it contains.
fn gen_subsequence(g: &mut Gen, list: &[u8]) -> Vec<u8> {
    let want = g.range_usize(0, 5).min(list.len());
    let mut picked: Vec<usize> = (0..want)
        .map(|_| g.below(list.len() as u64) as usize)
        .collect();
    picked.sort_unstable();
    picked.into_iter().map(|i| list[i]).collect()
}

/// Monotone oracle: `candidate` contains `needle` as a subsequence.
fn contains_subsequence(candidate: &[u8], needle: &[u8]) -> bool {
    let mut rest = candidate.iter();
    needle.iter().all(|n| rest.any(|c| c == n))
}

/// Non-monotone oracle: a seeded hash of the candidate accepts two in
/// three lists, with no regard to which elements they keep.
fn hash_accepts(seed: u64, candidate: &[u8]) -> bool {
    !nodefz_rt::splitmix64(seed ^ nodefz_rt::fnv1a(candidate)).is_multiple_of(3)
}

/// Runs both loops against `oracle` and checks the three claims: same
/// result, no candidate asked about twice, no more calls. Returns the
/// calls (memo, copy).
fn check_against_copy(input: &[u8], oracle: impl Fn(&[u8]) -> bool) -> (u64, u64) {
    let mut asked: HashSet<Vec<u8>> = HashSet::new();
    let result = ddmin(input, |c| {
        assert!(
            asked.insert(c.to_vec()),
            "ddmin asked twice about {c:?} (input {input:?})"
        );
        oracle(c)
    });
    let (expected, copy_runs) = ddmin_asking_every_time(input, &oracle);
    assert_eq!(result.items, expected, "input {input:?}");
    assert_eq!(result.original_len, input.len());
    assert_eq!(result.runs, asked.len() as u64, "runs counts oracle calls");
    assert!(
        result.runs <= copy_runs,
        "memo made more calls ({} > {copy_runs}) on {input:?}",
        result.runs
    );
    (result.runs, copy_runs)
}

#[test]
fn memo_changes_only_the_call_count() {
    let saved = Cell::new(0u64);
    forall("memo_changes_only_the_call_count", 256, |g| {
        let input = gen_list(g);
        let needle = gen_subsequence(g, &input);
        let (memo, copy) = check_against_copy(&input, |c| contains_subsequence(c, &needle));
        saved.set(saved.get() + copy - memo);
        let seed = g.u64();
        let (memo, copy) = check_against_copy(&input, |c| hash_accepts(seed, c));
        saved.set(saved.get() + copy - memo);
    });
    assert!(saved.get() > 0, "the memo never saved a call");
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

#[test]
fn equal_perms_hash_equal_however_they_were_built() {
    forall("equal_perms_hash_equal_however_they_were_built", 64, |g| {
        // Lengths on both sides of the inline capacity.
        let len = g.range_usize(0, 2 * Perm::INLINE + 1) as u32;
        let mut entries: Vec<u32> = (0..len).collect();
        for i in (1..entries.len()).rev() {
            entries.swap(i, g.below(i as u64 + 1) as usize);
        }
        let pushed: Perm = entries.iter().copied().collect();
        let converted = Perm::from(entries.clone());
        assert_eq!(pushed, converted);
        assert_eq!(hash_of(&pushed), hash_of(&converted), "len {len}");
        assert_eq!(hash_of(&pushed), hash_of(entries.as_slice()), "len {len}");
        assert_eq!(
            hash_of(&Decision::Shuffle(pushed)),
            hash_of(&Decision::Shuffle(converted)),
        );
    });
}
