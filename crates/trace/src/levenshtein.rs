//! Levenshtein distance over type schedules (§5.3 of the paper).
//!
//! The paper measures schedule-space exploration as the pairwise Levenshtein
//! distance between the *type schedules* of repeated runs, normalized by the
//! maximum possible distance and truncated to the first 20 K callbacks. We
//! provide the exact O(n·m) two-row computation.

/// Exact Levenshtein (edit) distance between two byte strings.
///
/// Uses the classic two-row dynamic program: O(n·m) time, O(min(n, m))
/// space.
///
/// # Examples
///
/// ```
/// use nodefz_trace::levenshtein;
///
/// assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
/// assert_eq!(levenshtein(b"", b"abc"), 3);
/// assert_eq!(levenshtein(b"same", b"same"), 0);
/// ```
pub fn levenshtein(a: &[u8], b: &[u8]) -> usize {
    // Ensure `b` is the shorter side so the rows are minimal.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<u32> = (0..=b.len() as u32).collect();
    let mut curr: Vec<u32> = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i as u32 + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + u32::from(ca != cb);
            let del = prev[j + 1] + 1;
            let ins = curr[j] + 1;
            curr[j + 1] = sub.min(del).min(ins);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()] as usize
}

/// Levenshtein distance normalized by the maximum possible distance
/// (the length of the longer input). In `[0, 1]`.
///
/// The paper notes an LD of 1.0 would require the two schedules to have
/// nothing in common.
pub fn normalized_levenshtein(a: &[u8], b: &[u8]) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 0.0;
    }
    levenshtein(a, b) as f64 / max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_cases() {
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
        assert_eq!(levenshtein(b"flaw", b"lawn"), 2);
        assert_eq!(levenshtein(b"gumbo", b"gambol"), 2);
        assert_eq!(levenshtein(b"", b""), 0);
        assert_eq!(levenshtein(b"abc", b""), 3);
        assert_eq!(levenshtein(b"", b"abc"), 3);
    }

    #[test]
    fn symmetric() {
        let pairs: [(&[u8], &[u8]); 3] = [(b"abcdef", b"azced"), (b"xyz", b"xxyyzz"), (b"a", b"b")];
        for (a, b) in pairs {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn identity_is_zero() {
        assert_eq!(levenshtein(b"schedule", b"schedule"), 0);
        assert_eq!(normalized_levenshtein(b"schedule", b"schedule"), 0.0);
    }

    #[test]
    fn single_edit_kinds() {
        assert_eq!(levenshtein(b"abc", b"axc"), 1); // Substitution.
        assert_eq!(levenshtein(b"abc", b"abxc"), 1); // Insertion.
        assert_eq!(levenshtein(b"abc", b"ac"), 1); // Deletion.
    }

    #[test]
    fn normalized_bounds() {
        assert_eq!(normalized_levenshtein(b"", b""), 0.0);
        assert_eq!(normalized_levenshtein(b"abc", b"xyz"), 1.0);
        let v = normalized_levenshtein(b"abcd", b"abxy");
        assert!(v > 0.0 && v < 1.0);
    }

    #[test]
    fn triangle_inequality_holds() {
        let a = b"timernetread";
        let b = b"netreadtimer";
        let c = b"poolddonetimer";
        let ab = levenshtein(a, b);
        let bc = levenshtein(b, c);
        let ac = levenshtein(a, c);
        assert!(ac <= ab + bc);
    }
}
