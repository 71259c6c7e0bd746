//! Property-based tests of the Levenshtein metrics, driven by the seeded
//! `nodefz-check` harness.

use nodefz_check::{forall, Gen};
use nodefz_trace::{levenshtein, normalized_levenshtein};

/// A random schedule over the small alphabet real type schedules use.
fn schedule(g: &mut Gen) -> Vec<u8> {
    let alphabet = [b'T', b'N', b'D', b'W', b'c', b'X'];
    g.vec_with(0, 80, |g| *g.pick(&alphabet))
}

#[test]
fn identity_is_zero() {
    forall("identity_is_zero", 64, |g| {
        let a = schedule(g);
        assert_eq!(levenshtein(&a, &a), 0);
        assert_eq!(normalized_levenshtein(&a, &a), 0.0);
    });
}

#[test]
fn symmetry() {
    forall("symmetry", 64, |g| {
        let a = schedule(g);
        let b = schedule(g);
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
    });
}

#[test]
fn bounds() {
    forall("bounds", 64, |g| {
        let a = schedule(g);
        let b = schedule(g);
        let d = levenshtein(&a, &b);
        // Lower bound: length difference. Upper bound: longer length.
        assert!(d >= a.len().abs_diff(b.len()));
        assert!(d <= a.len().max(b.len()));
        let n = normalized_levenshtein(&a, &b);
        assert!((0.0..=1.0).contains(&n));
    });
}

#[test]
fn triangle_inequality() {
    forall("triangle_inequality", 64, |g| {
        let a = schedule(g);
        let b = schedule(g);
        let c = schedule(g);
        let ab = levenshtein(&a, &b);
        let bc = levenshtein(&b, &c);
        let ac = levenshtein(&a, &c);
        assert!(ac <= ab + bc, "d(a,c)={ac} > d(a,b)+d(b,c)={}", ab + bc);
    });
}

#[test]
fn single_edit_costs_at_most_one() {
    forall("single_edit_costs_at_most_one", 64, |g| {
        let a = schedule(g);
        let idx = g.u64() as usize;
        let byte = g.below(4) as u8;
        // Substitution.
        if !a.is_empty() {
            let mut b = a.clone();
            let i = idx % b.len();
            b[i] = byte + b'a';
            assert!(levenshtein(&a, &b) <= 1);
        }
        // Insertion.
        let mut b = a.clone();
        b.insert(idx % (a.len() + 1), byte + b'a');
        assert_eq!(levenshtein(&a, &b), 1);
        // Deletion.
        if !a.is_empty() {
            let mut b = a.clone();
            b.remove(idx % b.len());
            assert_eq!(levenshtein(&a, &b), 1);
        }
    });
}

#[test]
fn k_edits_cost_at_most_k() {
    forall("k_edits_cost_at_most_k", 64, |g| {
        let a = schedule(g);
        let edits = g.vec_with(0, 10, |g| (g.u64() as usize, g.below(4) as u8));
        let mut b = a.clone();
        let k = edits.len();
        for (pos, byte) in edits {
            match byte % 3 {
                0 => b.insert(pos % (b.len() + 1), byte + b'a'),
                1 if !b.is_empty() => {
                    let i = pos % b.len();
                    b[i] = byte + b'a';
                }
                _ if !b.is_empty() => {
                    b.remove(pos % b.len());
                }
                _ => {}
            }
        }
        assert!(levenshtein(&a, &b) <= k);
    });
}
