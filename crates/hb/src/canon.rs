//! Canonical schedule keys: online happens-before equivalence dedup.
//!
//! Two executions whose dispatches differ only in the order of *commuting*
//! events — no happens-before edge between them, disjoint shared-site
//! footprints — manifest exactly the same races (the Mazurkiewicz-trace
//! insight behind DPOR and sleep sets). Executing both is pure waste, so a
//! campaign's real throughput is *distinct equivalence classes per second*,
//! not runs per second.
//!
//! This module folds a recorded [`EventLog`] into a 128-bit [`CanonKey`]
//! that is invariant under every such commuting reorder, **by
//! construction** rather than by sorting: each event gets a *causal name*
//! derived only from schedule-invariant inputs — its kind, the names of
//! its causes, its position in the (schedule-invariant) timer chain, and a
//! commutative fold of its shared-site footprint — and the run key is a
//! commutative fold of all event names. Nothing order-dependent (dispatch
//! index, raw ids, virtual times, decision counts) ever enters the hash,
//! so two HB-equivalent interleavings of the same program produce the same
//! key without ever materializing a normal form.
//!
//! The fold is incremental: [`CanonBuilder::push`] consumes events one at
//! a time and [`CanonBuilder::key`] is valid after any prefix.
//!
//! [`SeenSet`] is the companion membership structure: an interned,
//! splitmix-hashed, capacity-capped set of keys with LRU eviction, sized
//! for millions of inserts per second.

use std::collections::VecDeque;

use nodefz_rt::{fnv1a, splitmix64, AccessKind, EvDetail, EvKind, EventLog, EventRecord};

/// A 128-bit canonical key for one schedule's HB-equivalence class.
///
/// Two runs of the same program with the same environment seed that are
/// happens-before equivalent map to the same key. Distinct classes
/// collide only with ordinary 128-bit hash probability.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonKey(pub u128);

impl CanonKey {
    /// The key of the empty schedule (no events).
    pub const EMPTY: CanonKey = CanonKey(0);

    /// Renders the key as 32 hex digits (stable across platforms).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

/// Combines two words order-sensitively (for causal chains).
#[inline]
fn chain(a: u64, b: u64) -> u64 {
    splitmix64(a ^ b.rotate_left(17).wrapping_mul(0xA24B_AED4_963E_E407))
}

fn kind_tag(kind: EvKind) -> u64 {
    match kind {
        EvKind::Setup => 1,
        EvKind::Env => 2,
        EvKind::Cb(k) => 3 + k.index() as u64,
    }
}

fn access_tag(kind: AccessKind) -> u64 {
    match kind {
        AccessKind::Read => 0x52,
        AccessKind::Write => 0x57,
        AccessKind::Update => 0x55,
    }
}

/// Incremental canonical-key builder.
///
/// Feed it a log's events in dispatch order (any interleaving of the same
/// HB class yields the same result); read [`CanonBuilder::key`] after any
/// prefix. One builder is reusable across runs via [`CanonBuilder::reset`]
/// — all scratch capacity is retained, so steady-state keying allocates
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct CanonBuilder {
    /// Causal name per event id pushed so far.
    names: Vec<u64>,
    /// Name of the most recent timer dispatch (timer chain predecessor).
    last_timer: Option<u64>,
    /// Two independent commutative folds of the event names. Wrapping
    /// sums (not xor) so multiplicity counts: two copies of a name must
    /// not cancel.
    acc: [u64; 2],
    /// Events folded so far.
    len: u64,
    /// Hashed site names, indexed like the source log's site table (the
    /// indices themselves are schedule-dependent; the *hashes* are not).
    site_hashes: Vec<u64>,
}

impl CanonBuilder {
    /// Creates an empty builder.
    pub fn new() -> CanonBuilder {
        CanonBuilder::default()
    }

    /// Clears the builder for a new run, keeping allocated capacity.
    pub fn reset(&mut self) {
        self.names.clear();
        self.last_timer = None;
        self.acc = [0; 2];
        self.len = 0;
        self.site_hashes.clear();
    }

    /// Number of events folded so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no events have been folded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Folds one event. `footprint` is the commutative hash of the event's
    /// shared-site accesses (see [`CanonBuilder::fold_accesses`]); pass 0
    /// for events with no instrumented accesses.
    pub fn push(&mut self, ev: &EventRecord, footprint: u64) {
        let mut name = splitmix64(kind_tag(ev.kind) ^ 0x6E66_7A63_616E_6F6E); // "nfzcanon"
        if let Some(c) = ev.cause {
            let cn = self.names.get(c.0 as usize).copied().unwrap_or(0);
            name = chain(name, cn ^ 0x01);
        }
        if let Some(c) = ev.cause2 {
            let cn = self.names.get(c.0 as usize).copied().unwrap_or(0);
            name = chain(name, cn ^ 0x02);
        }
        if matches!(ev.detail, EvDetail::Timer { .. }) {
            // Relative timer order is invariant across legal schedules
            // (deferral short-circuits the phase), so the chain position
            // is a legitimate part of a timer's identity.
            if let Some(prev) = self.last_timer {
                name = chain(name, prev ^ 0x03);
            }
            self.last_timer = Some(name);
        }
        if footprint != 0 {
            name = chain(name, footprint);
        }
        // Grow the name table to the event's id so sparse pushes (tests,
        // filtered logs) still resolve causes by id.
        let idx = ev.id.0 as usize;
        if self.names.len() <= idx {
            self.names.resize(idx + 1, 0);
        }
        self.names[idx] = name;
        self.acc[0] = self.acc[0].wrapping_add(splitmix64(name ^ 0x9049_4E45_5F30_3030));
        self.acc[1] = self.acc[1].wrapping_add(splitmix64(name ^ 0x104E_4F44_455F_465A));
        self.len += 1;
    }

    /// The canonical key of everything pushed so far.
    pub fn key(&self) -> CanonKey {
        if self.len == 0 {
            return CanonKey::EMPTY;
        }
        let hi = splitmix64(self.acc[0] ^ self.len);
        let lo = splitmix64(self.acc[1] ^ self.len.rotate_left(32));
        CanonKey((u128::from(hi) << 64) | u128::from(lo))
    }

    /// Computes per-event access footprints for `log` into `out`
    /// (indexed by event id): a commutative fold of
    /// `splitmix64(site_name_hash ^ access_kind)` over the event's accesses.
    ///
    /// Site *names* are hashed, not site indices — interning order differs
    /// between interleavings, the strings do not.
    pub fn fold_accesses(&mut self, log: &EventLog, out: &mut Vec<u64>) {
        out.clear();
        out.resize(log.events.len(), 0);
        self.site_hashes.clear();
        self.site_hashes
            .extend(log.sites.iter().map(|s| fnv1a(s.as_bytes())));
        for a in &log.accesses {
            let site = self.site_hashes.get(a.site as usize).copied().unwrap_or(0);
            if let Some(slot) = out.get_mut(a.event.0 as usize) {
                *slot = slot.wrapping_add(splitmix64(site ^ access_tag(a.kind)));
            }
        }
    }

    /// Folds an entire recorded log, reusing `scratch` for the access
    /// footprints. Resets the builder first.
    pub fn build(&mut self, log: &EventLog, scratch: &mut Vec<u64>) -> CanonKey {
        self.reset();
        // Split-borrow dance: fold_accesses needs &mut self for the site
        // hash cache, so compute footprints before pushing events.
        let mut fp = std::mem::take(scratch);
        self.fold_accesses(log, &mut fp);
        for ev in &log.events {
            let footprint = fp.get(ev.id.0 as usize).copied().unwrap_or(0);
            self.push(ev, footprint);
        }
        *scratch = fp;
        self.key()
    }
}

/// One-shot canonical key of a recorded log.
///
/// Campaign hot paths keep a [`CanonBuilder`] and scratch buffer alive
/// across runs instead; this allocates fresh ones.
pub fn canon_key(log: &EventLog) -> CanonKey {
    CanonBuilder::new().build(log, &mut Vec::new())
}

/// Identity hasher for [`SeenSet`]'s map: canon keys are already
/// splitmix-mixed, so rehashing them through SipHash would be pure waste.
#[derive(Clone, Copy, Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Only u128 keys are ever hashed; fold their bytes cheaply.
        for c in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            self.0 ^= u64::from_le_bytes(w);
        }
    }
}

#[derive(Clone, Copy, Default)]
struct BuildKeyHasher;

impl std::hash::BuildHasher for BuildKeyHasher {
    type Hasher = KeyHasher;
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher::default()
    }
}

/// A capacity-capped set of [`CanonKey`]s with least-recently-*inserted*
/// eviction.
///
/// The campaign driver asks one question per run — "have we already
/// executed this equivalence class?" — millions of times, so membership
/// is a single identity-hashed map probe. When the cap is reached the
/// oldest key is evicted (a bounded window of remembered classes: an
/// evicted class seen again reads as new, so its counts undercount
/// redundancy; nothing is ever skipped on its answer).
#[derive(Debug)]
pub struct SeenSet {
    map: std::collections::HashMap<CanonKey, (), BuildKeyHasher>,
    /// Insertion order, oldest first, for eviction.
    order: VecDeque<CanonKey>,
    cap: usize,
    /// Total inserts that found the key already present.
    hits: u64,
    /// Keys evicted to stay under the cap.
    evicted: u64,
}

impl SeenSet {
    /// Creates a set that remembers at most `cap` keys (`cap` ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> SeenSet {
        assert!(cap > 0, "SeenSet capacity must be at least 1");
        SeenSet {
            map: std::collections::HashMap::with_capacity_and_hasher(
                cap.min(1 << 20),
                BuildKeyHasher,
            ),
            order: VecDeque::with_capacity(cap.min(1 << 20)),
            cap,
            hits: 0,
            evicted: 0,
        }
    }

    /// Inserts `key`, returning `true` if it was **new** (not seen in the
    /// remembered window). Evicts the oldest key when over capacity.
    pub fn insert(&mut self, key: CanonKey) -> bool {
        if self.map.contains_key(&key) {
            self.hits += 1;
            return false;
        }
        if self.map.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
                self.evicted += 1;
            }
        }
        self.map.insert(key, ());
        self.order.push_back(key);
        true
    }

    /// Whether `key` is in the remembered window (no side effects).
    pub fn contains(&self, key: CanonKey) -> bool {
        self.map.contains_key(&key)
    }

    /// Distinct keys currently remembered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts that found their key already present.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Keys evicted to stay under the capacity cap.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_rt::{AccessKind, CbId};

    /// Test-side intern + append (the runtime's `touch` is crate-private).
    fn touch(log: &mut EventLog, event: CbId, site: &str, kind: AccessKind) {
        let site = match log.sites.iter().position(|s| s == site) {
            Some(i) => i as u32,
            None => {
                log.sites.push(site.to_string());
                (log.sites.len() - 1) as u32
            }
        };
        log.accesses.push(nodefz_rt::Access { event, site, kind });
    }

    fn ev(id: u32, kind: EvKind, cause: Option<u32>, cause2: Option<u32>) -> EventRecord {
        EventRecord {
            id: CbId(id),
            kind,
            cause: cause.map(CbId),
            cause2: cause2.map(CbId),
            decisions: id as u64 * 7 + 3, // schedule-dependent noise
            iter: id as u64,              // schedule-dependent noise
            detail: EvDetail::None,
        }
    }

    fn key_of(events: &[EventRecord]) -> CanonKey {
        let mut log = EventLog::default();
        log.events = events.to_vec();
        canon_key(&log)
    }

    #[test]
    fn empty_log_is_the_empty_key() {
        assert_eq!(canon_key(&EventLog::default()), CanonKey::EMPTY);
        assert_eq!(CanonKey::EMPTY.to_hex(), "0".repeat(32));
    }

    #[test]
    fn commuting_independent_events_share_a_key() {
        use nodefz_rt::CbKind;
        // Setup spawns two independent pool-done callbacks; the two
        // dispatch orders are HB-equivalent and must collide.
        let setup = ev(0, EvKind::Setup, None, None);
        let a = |id| ev(id, EvKind::Cb(CbKind::PoolDone), Some(0), None);
        let b = |id| ev(id, EvKind::Cb(CbKind::FsDone), Some(0), None);
        let ab = key_of(&[setup, a(1), b(2)]);
        let ba = key_of(&[setup, b(1), a(2)]);
        assert_eq!(ab, ba, "independent dispatches must commute");
    }

    #[test]
    fn causal_order_is_part_of_the_key() {
        use nodefz_rt::CbKind;
        let setup = ev(0, EvKind::Setup, None, None);
        // a caused by setup, b caused by a — versus both caused by setup.
        let chained = key_of(&[
            setup,
            ev(1, EvKind::Cb(CbKind::PoolDone), Some(0), None),
            ev(2, EvKind::Cb(CbKind::PoolDone), Some(1), None),
        ]);
        let fanned = key_of(&[
            setup,
            ev(1, EvKind::Cb(CbKind::PoolDone), Some(0), None),
            ev(2, EvKind::Cb(CbKind::PoolDone), Some(0), None),
        ]);
        assert_ne!(chained, fanned, "cause structure must distinguish keys");
    }

    #[test]
    fn schedule_dependent_fields_do_not_matter() {
        use nodefz_rt::CbKind;
        let mut x = ev(1, EvKind::Cb(CbKind::NetRead), Some(0), None);
        let mut y = x;
        y.decisions = 999;
        y.iter = 42;
        let setup = ev(0, EvKind::Setup, None, None);
        assert_eq!(key_of(&[setup, x]), key_of(&[setup, y]));
        // But the kind does matter.
        x.kind = EvKind::Cb(CbKind::NetClose);
        assert_ne!(key_of(&[setup, x]), key_of(&[setup, y]));
    }

    #[test]
    fn timer_chain_orders_timers() {
        use nodefz_rt::CbKind;
        let setup = ev(0, EvKind::Setup, None, None);
        let timer = |id, deadline| EventRecord {
            detail: EvDetail::Timer {
                deadline: nodefz_rt::VTime(deadline),
                seq: deadline, // schedule-dependent: ignored by canon
            },
            ..ev(id, EvKind::Cb(CbKind::Timer), Some(0), None)
        };
        let t_then_n = key_of(&[
            setup,
            timer(1, 5),
            ev(2, EvKind::Cb(CbKind::NetRead), Some(0), None),
        ]);
        let n_then_t = key_of(&[
            setup,
            ev(1, EvKind::Cb(CbKind::NetRead), Some(0), None),
            timer(2, 5),
        ]);
        // Timer vs independent net read commute (no HB edge).
        assert_eq!(t_then_n, n_then_t);
        // Two timers do NOT commute with each other: the chain gives the
        // first a different name than the second.
        let two_a = key_of(&[setup, timer(1, 5), timer(2, 9)]);
        let two_b = key_of(&[setup, timer(1, 9), timer(2, 5)]);
        assert_eq!(
            two_a, two_b,
            "timer identity is chain position, not deadline"
        );
    }

    #[test]
    fn footprints_distinguish_and_interning_order_does_not() {
        use nodefz_rt::CbKind;
        let mk = |sites: [&str; 2]| {
            let mut log = EventLog::default();
            log.events = vec![
                ev(0, EvKind::Setup, None, None),
                ev(1, EvKind::Cb(CbKind::PoolDone), Some(0), None),
                ev(2, EvKind::Cb(CbKind::FsDone), Some(0), None),
            ];
            // Event 1 touches sites[0], event 2 touches sites[1]; the
            // interning order follows the argument order.
            touch(&mut log, CbId(1), sites[0], AccessKind::Write);
            touch(&mut log, CbId(2), sites[1], AccessKind::Write);
            canon_key(&log)
        };
        // Same footprints, opposite interning order: keys must match
        // because event 1 always touches "alpha" and event 2 "beta"...
        let a = mk(["alpha", "beta"]);
        // ...whereas swapping which *event* touches which site differs.
        let b = mk(["beta", "alpha"]);
        assert_ne!(a, b, "footprints are part of event identity");
        // Interning order independence: same association, reversed
        // interning, via a log where accesses arrive in opposite order.
        let mut log = EventLog::default();
        log.events = vec![
            ev(0, EvKind::Setup, None, None),
            ev(1, EvKind::Cb(CbKind::PoolDone), Some(0), None),
            ev(2, EvKind::Cb(CbKind::FsDone), Some(0), None),
        ];
        touch(&mut log, CbId(2), "beta", AccessKind::Write);
        touch(&mut log, CbId(1), "alpha", AccessKind::Write);
        assert_eq!(canon_key(&log), a, "interning order must not matter");
    }

    #[test]
    fn access_kind_matters_but_access_order_does_not() {
        use nodefz_rt::CbKind;
        let mk = |kinds: [AccessKind; 2]| {
            let mut log = EventLog::default();
            log.events = vec![
                ev(0, EvKind::Setup, None, None),
                ev(1, EvKind::Cb(CbKind::KvReply), Some(0), None),
            ];
            touch(&mut log, CbId(1), "x", kinds[0]);
            touch(&mut log, CbId(1), "y", kinds[1]);
            canon_key(&log)
        };
        assert_ne!(
            mk([AccessKind::Read, AccessKind::Read]),
            mk([AccessKind::Write, AccessKind::Write])
        );
        // x:Read + y:Write == (recorded in either program order).
        let mut log = EventLog::default();
        log.events = vec![
            ev(0, EvKind::Setup, None, None),
            ev(1, EvKind::Cb(CbKind::KvReply), Some(0), None),
        ];
        touch(&mut log, CbId(1), "y", AccessKind::Write);
        touch(&mut log, CbId(1), "x", AccessKind::Read);
        let mut log2 = EventLog::default();
        log2.events = log.events.clone();
        touch(&mut log2, CbId(1), "x", AccessKind::Read);
        touch(&mut log2, CbId(1), "y", AccessKind::Write);
        assert_eq!(canon_key(&log), canon_key(&log2));
    }

    #[test]
    fn prefix_keys_are_incremental() {
        use nodefz_rt::CbKind;
        let events = vec![
            ev(0, EvKind::Setup, None, None),
            ev(1, EvKind::Cb(CbKind::Timer), Some(0), None),
            ev(2, EvKind::Cb(CbKind::Check), Some(1), None),
        ];
        let mut b = CanonBuilder::new();
        let mut prefix_keys = Vec::new();
        for e in &events {
            b.push(e, 0);
            prefix_keys.push(b.key());
        }
        // Each prefix key equals the one-shot key of that prefix.
        for (i, &pk) in prefix_keys.iter().enumerate() {
            assert_eq!(pk, key_of(&events[..=i]), "prefix {i}");
        }
        assert_eq!(prefix_keys.len(), 3);
        assert_ne!(prefix_keys[0], prefix_keys[1]);
        assert_ne!(prefix_keys[1], prefix_keys[2]);
    }

    #[test]
    fn builder_reset_reproduces() {
        use nodefz_rt::CbKind;
        let events = [
            ev(0, EvKind::Setup, None, None),
            ev(1, EvKind::Cb(CbKind::Timer), Some(0), None),
        ];
        let mut b = CanonBuilder::new();
        for e in &events {
            b.push(e, 7);
        }
        let first = b.key();
        b.reset();
        assert!(b.is_empty());
        for e in &events {
            b.push(e, 7);
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.key(), first);
    }

    #[test]
    fn seen_set_dedups_and_evicts_lru() {
        let mut s = SeenSet::new(2);
        let k = |i: u128| CanonKey(i);
        assert!(s.insert(k(1)));
        assert!(!s.insert(k(1)), "duplicate must not be new");
        assert_eq!(s.hits(), 1);
        assert!(s.insert(k(2)));
        assert!(s.insert(k(3)), "evicts 1");
        assert_eq!(s.evicted(), 1);
        assert!(!s.contains(k(1)), "oldest evicted");
        assert!(s.contains(k(2)));
        assert!(s.contains(k(3)));
        assert_eq!(s.len(), 2);
        assert!(s.insert(k(1)), "evicted key reads as new again");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = SeenSet::new(0);
    }
}
