//! Failure signatures for deduplicating campaign findings.
//!
//! A fuzzing campaign surfaces the *same* underlying race many times, each
//! manifestation under a different seed and hence a different schedule. A
//! [`BugSignature`] collapses those into one report by keying on what is
//! stable across manifestations of one bug:
//!
//! * the application under test,
//! * the failure site (the oracle's evidence string, normalized so that
//!   run-specific values — counts, times, ids — do not split groups), and
//! * a coarse fingerprint of *which* callback types the failing run
//!   dispatched (the set, not the order — order varies per seed).

use std::fmt;

use nodefz_rt::{fnv1a, CbKind, TypeSchedule};

/// Normalizes a failure-site string for grouping.
///
/// Lowercases, replaces every run of ASCII digits with `#` (so "lost 3 of
/// 12" and "lost 5 of 12" collapse), replaces double-quoted spans with
/// `"*"` (oracles quote run-specific values — paths, keys, states), and
/// collapses whitespace runs to one space. The result is stable across
/// seeds but still human-readable.
pub fn normalize_site(site: &str) -> String {
    let mut out = String::with_capacity(site.len());
    normalize_site_into(site, &mut out);
    out
}

/// [`normalize_site`] writing into a caller-owned buffer.
///
/// Single pass over the input; clears `out` first and never allocates
/// beyond growing `out` to the normalized length, so a reused buffer makes
/// repeated normalization allocation-free once its capacity plateaus.
pub fn normalize_site_into(site: &str, out: &mut String) {
    out.clear();
    let mut in_digits = false;
    let mut in_space = false;
    let mut in_quote = false;
    for ch in site.trim().chars() {
        if in_quote {
            if ch == '"' {
                in_quote = false;
                out.push_str("*\"");
            }
            continue;
        }
        if ch == '"' {
            if in_space && !out.is_empty() {
                out.push(' ');
            }
            in_space = false;
            in_digits = false;
            in_quote = true;
            out.push('"');
            continue;
        }
        if ch.is_ascii_digit() {
            if !in_digits {
                if in_space && !out.is_empty() {
                    out.push(' ');
                }
                out.push('#');
            }
            in_digits = true;
            in_space = false;
        } else if ch.is_whitespace() {
            in_digits = false;
            in_space = true;
        } else {
            if in_space && !out.is_empty() {
                out.push(' ');
            }
            in_space = false;
            in_digits = false;
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
        }
    }
}

/// A 17-bit fingerprint: one bit per [`CbKind`] that appears in the
/// schedule at least once, bit `i` for the kind at index `i` of
/// [`CbKind::all`].
///
/// One pass over the schedule's codes marks which occur; the kinds are
/// then read off that table.
pub fn kind_fingerprint(schedule: &TypeSchedule) -> u32 {
    let mut seen = [false; 256];
    for &code in schedule.codes() {
        seen[usize::from(code)] = true;
    }
    let mut bits = 0u32;
    for (i, kind) in CbKind::all().iter().enumerate() {
        if seen[usize::from(kind.code())] {
            bits |= 1 << i;
        }
    }
    bits
}

/// The dedup key for one manifested failure.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BugSignature {
    /// The application the failure manifested in.
    pub app: String,
    /// The normalized failure site (see [`normalize_site`]).
    pub site: String,
    /// Which callback kinds the failing run dispatched
    /// (see [`kind_fingerprint`]).
    pub kinds: u32,
}

impl BugSignature {
    /// Builds the signature for a manifestation: `app` is the bug's
    /// abbreviation, `site` the oracle's raw evidence string, `schedule`
    /// the failing run's type schedule.
    pub fn new(app: &str, site: &str, schedule: &TypeSchedule) -> BugSignature {
        BugSignature {
            app: app.to_string(),
            site: normalize_site(site),
            kinds: kind_fingerprint(schedule),
        }
    }

    /// Whether a manifestation of `app` with raw evidence `site` and type
    /// schedule `schedule` has this signature: the answer of
    /// `BugSignature::new(app, site, schedule) == *self`, without building
    /// that signature. The site is normalized into `scratch`, so a reused
    /// buffer makes the check allocation-free once its capacity plateaus.
    pub fn matches(
        &self,
        app: &str,
        site: &str,
        schedule: &TypeSchedule,
        scratch: &mut String,
    ) -> bool {
        if self.app != app {
            return false;
        }
        normalize_site_into(site, scratch);
        *scratch == self.site && kind_fingerprint(schedule) == self.kinds
    }

    /// A compact stable digest of the signature, usable as a corpus file
    /// name component.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.app.len() + self.site.len() + 8);
        bytes.extend_from_slice(self.app.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(self.site.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&self.kinds.to_le_bytes());
        fnv1a(&bytes)
    }
}

impl fmt::Display for BugSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:016x}", self.app, self.digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_collapses_run_specific_detail() {
        assert_eq!(
            normalize_site("Lost 3 of 12 jobs   after 4500us"),
            "lost # of # jobs after #us"
        );
        assert_eq!(normalize_site("  EDGE  "), "edge");
        assert_eq!(normalize_site(""), "");
    }

    #[test]
    fn quoted_values_collapse() {
        assert_eq!(
            normalize_site(r#"missing: ["build/cache/css"]"#),
            r#"missing: ["*"]"#
        );
        assert_eq!(
            normalize_site(r#"missing: ["build/cache/js"]"#),
            normalize_site(r#"missing: ["build/cache/css"]"#)
        );
        assert_eq!(
            normalize_site(r#"state Some("failed")"#),
            r#"state some("*")"#
        );
        // An unterminated quote swallows the tail but stays stable.
        assert_eq!(normalize_site(r#"oops "dangling"#), r#"oops ""#);
    }

    #[test]
    fn into_variant_matches_on_all_fixtures_and_reuses_capacity() {
        let fixtures = [
            "Lost 3 of 12 jobs   after 4500us",
            "  EDGE  ",
            "",
            r#"missing: ["build/cache/css"]"#,
            r#"missing: ["build/cache/js"]"#,
            r#"state Some("failed")"#,
            r#"oops "dangling"#,
            "Ünïcode 42 Mixed\tCASE",
        ];
        let mut buf = String::new();
        for site in fixtures {
            normalize_site_into(site, &mut buf);
            assert_eq!(buf, normalize_site(site), "fixture {site:?}");
        }
        // A reused buffer must not shrink: repeated normalization is
        // allocation-free once capacity plateaus.
        let cap = buf.capacity();
        normalize_site_into("x", &mut buf);
        assert_eq!(buf, "x");
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn same_bug_different_seeds_share_a_signature() {
        let mut s1 = TypeSchedule::new();
        let mut s2 = TypeSchedule::new();
        // Same kinds, different order and counts.
        for k in [CbKind::Timer, CbKind::PoolDone, CbKind::Timer] {
            s1.push(k);
        }
        for k in [CbKind::PoolDone, CbKind::Timer] {
            s2.push(k);
        }
        let a = BugSignature::new("KUE", "lost 2 of 10 jobs", &s1);
        let b = BugSignature::new("KUE", "lost 7 of 10 jobs", &s2);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_apps_or_sites_differ() {
        let s = TypeSchedule::new();
        let a = BugSignature::new("KUE", "lost jobs", &s);
        let b = BugSignature::new("MKD", "lost jobs", &s);
        let c = BugSignature::new("KUE", "double free", &s);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn fingerprint_is_presence_not_counts() {
        let mut a = TypeSchedule::new();
        let mut b = TypeSchedule::new();
        a.push(CbKind::NetRead);
        b.push(CbKind::NetRead);
        b.push(CbKind::NetRead);
        assert_eq!(kind_fingerprint(&a), kind_fingerprint(&b));
        b.push(CbKind::Close);
        assert_ne!(kind_fingerprint(&a), kind_fingerprint(&b));
        assert_eq!(kind_fingerprint(&TypeSchedule::new()), 0);
    }

    #[test]
    fn display_names_the_app() {
        let sig = BugSignature::new("GHO", "edge", &TypeSchedule::new());
        let shown = sig.to_string();
        assert!(shown.starts_with("GHO:"), "{shown}");
    }
}
