//! Property tests for the string interner: interning is a bijection
//! between distinct strings and dense ids.

use std::collections::HashMap;

use nodefz_check::{forall, Gen};
use nodefz_trace::{SiteId, SiteInterner};

/// A random failure-site-shaped string: words, digit runs, quotes, and
/// messy whitespace — everything the normalizer special-cases.
fn site(g: &mut Gen) -> String {
    let mut out = String::new();
    for _ in 0..g.range_usize(0, 12) {
        match g.below(5) {
            0 => out.push_str(&g.lowercase(1, 6)),
            1 => out.push_str(&g.below(100_000).to_string()),
            2 => {
                out.push('"');
                out.push_str(&g.lowercase(0, 5));
                out.push('"');
            }
            3 => out.push_str("  \t"),
            _ => out.push_str("Mixed CASE"),
        }
        out.push(' ');
    }
    out
}

#[test]
fn id_to_string_to_id_round_trips() {
    forall("id_to_string_to_id_round_trips", 64, |g| {
        let mut t = SiteInterner::new();
        let strings: Vec<String> = g.vec_with(0, 40, site);
        let ids: Vec<SiteId> = strings.iter().map(|s| t.intern(s)).collect();
        for (s, &id) in strings.iter().zip(&ids) {
            // SiteId → string → SiteId is the identity.
            assert_eq!(t.intern(t.resolve(id).to_string().as_str()), id);
            assert_eq!(t.resolve(id), s);
            assert_eq!(t.lookup(s), Some(id));
        }
    });
}

#[test]
fn equal_strings_share_an_id_distinct_strings_do_not() {
    forall(
        "equal_strings_share_an_id_distinct_strings_do_not",
        64,
        |g| {
            let mut t = SiteInterner::new();
            let mut by_string: HashMap<String, SiteId> = HashMap::new();
            for s in g.vec_with(0, 60, site) {
                let id = t.intern(&s);
                match by_string.get(&s) {
                    Some(&prev) => assert_eq!(prev, id, "same string, new id: {s:?}"),
                    None => {
                        assert!(
                            by_string.values().all(|&other| other != id),
                            "distinct strings collided on {id:?}"
                        );
                        by_string.insert(s, id);
                    }
                }
            }
            assert_eq!(t.len(), by_string.len());
        },
    );
}
