//! Properties of the canonical schedule key: two runs mapping to the same
//! [`CanonKey`] carry the same race report. The campaign's `--prune`
//! class counts rest on that; it does not promise that the two runs
//! manifest alike, since a race and its reversal share a key.

use std::collections::HashMap;

use nodefz::Mode;
use nodefz_check::{forall, Gen};
use nodefz_hb::{canon_key, find_races, CanonKey, HbGraph};
use nodefz_rt::{Access, CbId, EvKind, EventLog, EventLogHandle};

/// A race report normalized to schedule-invariant terms: ids and interning
/// indices differ between interleavings, site names and event kinds do not.
fn normalized_races(log: &EventLog) -> Vec<(String, &'static str, String, String)> {
    let kind_of = |id: CbId| {
        let ev = &log.events[id.0 as usize];
        match ev.kind {
            EvKind::Setup => "setup".to_string(),
            EvKind::Env => "env".to_string(),
            EvKind::Cb(k) => k.label().to_string(),
        }
    };
    let mut races: Vec<_> = find_races(log)
        .into_iter()
        .map(|r| {
            // Which side dispatched first is schedule-dependent — the
            // pair is unordered, so normalize the two kinds by sorting.
            let (mut ka, mut kb) = (kind_of(r.a), kind_of(r.b));
            if ka > kb {
                std::mem::swap(&mut ka, &mut kb);
            }
            (log.site_name(r.site).to_string(), r.class.label(), ka, kb)
        })
        .collect();
    races.sort();
    races
}

fn logged_fuzz_run(abbr: &str, env_seed: u64, sched_seed: u64) -> EventLog {
    let app = nodefz_apps::by_abbr(abbr).expect("registry");
    let events = EventLogHandle::fresh();
    let mut cfg = nodefz_apps::common::RunCfg::new(Mode::Fuzz, env_seed).events(&events);
    cfg.sched_seed = sched_seed;
    app.run(&cfg, nodefz_apps::common::Variant::Buggy);
    events.snapshot()
}

/// A race, normalized for comparison: (site, class label, endpoint a, b).
type RaceRow = (String, &'static str, String, String);

/// The key's contract on real fuzzed runs: group runs by canonical key;
/// every group must agree on its (normalized) race report.
#[test]
fn same_canon_key_implies_identical_race_reports() {
    let mut groups: HashMap<CanonKey, (String, Vec<RaceRow>)> = HashMap::new();
    let mut collisions = 0usize;
    for abbr in ["GHO", "KUE", "MGS", "CLF", "AKA"] {
        for env_seed in [3u64, 11] {
            for sched_seed in 0..24u64 {
                let log = logged_fuzz_run(abbr, env_seed, sched_seed);
                assert!(!log.events.is_empty(), "{abbr} dispatched something");
                let key = canon_key(&log);
                let races = normalized_races(&log);
                let tag = format!("{abbr}/env{env_seed}/sched{sched_seed}");
                match groups.entry(key) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert((tag, races));
                    }
                    std::collections::hash_map::Entry::Occupied(o) => {
                        collisions += 1;
                        // Colliding runs may come from different seeds (or
                        // even environments with identical event structure);
                        // what the key promises is that they agree on races.
                        let (first_tag, first_races) = o.get();
                        assert_eq!(
                            first_races, &races,
                            "{tag} vs {first_tag}: same canonical key, different races"
                        );
                    }
                }
            }
        }
    }
    // The dedup must have something to dedup, or the property is vacuous:
    // across 24 sched seeds per (app, env) many schedules are equivalent.
    assert!(
        collisions >= 10,
        "expected plenty of HB-equivalent schedules, saw {collisions}"
    );
}

/// Remaps a log along a permutation `order` (new dispatch order; a linear
/// extension of the cause/timer edges), renumbering ids and re-interning
/// sites in first-touch order — everything a different interleaving of the
/// same HB class would change.
fn permuted(log: &EventLog, order: &[usize]) -> EventLog {
    let mut new_id = vec![0u32; log.events.len()];
    for (pos, &old) in order.iter().enumerate() {
        new_id[old] = pos as u32;
    }
    let mut out = EventLog::default();
    for &old in order {
        let mut ev = log.events[old];
        ev.id = CbId(new_id[old]);
        ev.cause = ev.cause.map(|c| CbId(new_id[c.0 as usize]));
        ev.cause2 = ev.cause2.map(|c| CbId(new_id[c.0 as usize]));
        // Different interleavings consume different decision prefixes and
        // land on different iterations; canon must not care.
        ev.decisions = ev.decisions.wrapping_mul(31).wrapping_add(7);
        ev.iter += 13;
        out.events.push(ev);
    }
    // Accesses in new dispatch order, sites re-interned on first touch.
    let mut by_event: Vec<Vec<&Access>> = vec![Vec::new(); log.events.len()];
    for a in &log.accesses {
        by_event[a.event.0 as usize].push(a);
    }
    for &old in order {
        for a in &by_event[old] {
            let name = log.site_name(a.site);
            let site = match out.sites.iter().position(|s| s == name) {
                Some(i) => i as u32,
                None => {
                    out.sites.push(name.to_string());
                    (out.sites.len() - 1) as u32
                }
            };
            out.accesses.push(Access {
                event: CbId(new_id[old]),
                site,
                kind: a.kind,
            });
        }
    }
    out
}

/// Draws a random linear extension of the log's HB edges.
fn random_extension(g: &mut Gen, log: &EventLog) -> Vec<usize> {
    let graph = HbGraph::from_log(log);
    let n = log.events.len();
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let ready: Vec<usize> = (0..n)
            .filter(|&i| {
                !placed[i]
                    && (0..n)
                        .all(|j| placed[j] || j == i || !graph.leq(CbId(j as u32), CbId(i as u32)))
            })
            .collect();
        let pick = ready[g.below(ready.len() as u64) as usize];
        placed[pick] = true;
        order.push(pick);
    }
    order
}

/// Dispatch-order invariance on real logs: any linear extension of the HB
/// edges — with ids renumbered, sites re-interned, decision stamps
/// perturbed — keys identically and reports identical races.
#[test]
fn canon_key_is_invariant_under_hb_respecting_permutations() {
    forall("canon_key_permutation_invariance", 24, |g| {
        let abbr = *g.pick(&["GHO", "KUE", "CLF", "MGS"]);
        let log = logged_fuzz_run(abbr, g.range(1, 1 << 16), g.u64());
        // Cap the size so the O(n²) extension sampler stays fast.
        if log.events.len() > 120 {
            return;
        }
        let key = canon_key(&log);
        let races = normalized_races(&log);
        let order = random_extension(g, &log);
        let shuffled = permuted(&log, &order);
        assert_eq!(
            canon_key(&shuffled),
            key,
            "{abbr}: HB-respecting reorder changed the canonical key"
        );
        assert_eq!(
            normalized_races(&shuffled),
            races,
            "{abbr}: HB-respecting reorder changed the races"
        );
    });
}

/// Different environments (different event structures) must key apart.
#[test]
fn different_structures_key_apart() {
    let mut keys = std::collections::HashSet::new();
    for abbr in ["GHO", "KUE", "MGS", "CLF", "AKA", "EPL"] {
        let log = logged_fuzz_run(abbr, 5, 1);
        keys.insert(canon_key(&log));
    }
    assert_eq!(keys.len(), 6, "six apps, six structures, six keys");
}
