//! Callback-type schedule recording (§5.3 of the paper).
//!
//! The paper approximates a libuv schedule by the sequence of *types* of the
//! callbacks it executes ("timer", "network read", "worker pool task", …) and
//! measures schedule diversity as the Levenshtein distance between such type
//! schedules. The runtime records a [`CbKind`] per dispatched callback; the
//! distance computations live in the `nodefz-trace` crate.

use std::fmt;

/// The type of a dispatched callback, as recorded in a type schedule.
///
/// The variant order is persisted: a kind's position in [`CbKind::all`] is
/// its bit in a bug signature's kind fingerprint, which every repro's file
/// name hashes, and the metrics document's `callbacks[]` rows follow the
/// same order. Never remove or reorder a variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CbKind {
    /// An expired timer callback.
    Timer,
    /// A pending-phase callback.
    Pending,
    /// An idle-handle callback.
    Idle,
    /// A prepare-handle callback.
    Prepare,
    /// A check-phase (`set_immediate`) callback.
    Check,
    /// A close callback.
    Close,
    /// A new inbound connection was accepted.
    NetAccept,
    /// Data arrived on a connection.
    NetRead,
    /// A connection was torn down by the peer.
    NetClose,
    /// A worker-pool task body executed (on a worker).
    PoolTask,
    /// A worker-pool completion ("done") callback executed on the loop.
    PoolDone,
    /// A file-system watcher fired. The file system runs its operations
    /// on the worker pool (their completions record as `PoolDone`) and
    /// models no watchers, so nothing produces this kind; it keeps its
    /// place for the persisted order.
    FsDone,
    /// A key-value store reply was delivered.
    KvReply,
    /// A signal watcher fired. The runtime models no signals, so nothing
    /// produces this kind; it keeps its place for the persisted order.
    Signal,
    /// Output or exit from a child process. The runtime models no child
    /// processes, so nothing produces this kind; it keeps its place for
    /// the persisted order.
    ChildIo,
    /// An internal wakeup (scheduler bookkeeping).
    Wakeup,
    /// Any other I/O readiness event.
    IoOther,
}

impl CbKind {
    /// The number of distinct kinds (the length of [`CbKind::all`]).
    pub const COUNT: usize = 17;

    /// Returns this kind's index in [`CbKind::all`] order, for dense
    /// per-kind tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns a compact one-byte code used by distance computations.
    pub fn code(self) -> u8 {
        match self {
            CbKind::Timer => b'T',
            CbKind::Pending => b'p',
            CbKind::Idle => b'i',
            CbKind::Prepare => b'r',
            CbKind::Check => b'c',
            CbKind::Close => b'X',
            CbKind::NetAccept => b'A',
            CbKind::NetRead => b'N',
            CbKind::NetClose => b'n',
            CbKind::PoolTask => b'W',
            CbKind::PoolDone => b'D',
            CbKind::FsDone => b'F',
            CbKind::KvReply => b'K',
            CbKind::Signal => b'S',
            CbKind::ChildIo => b'P',
            CbKind::Wakeup => b'w',
            CbKind::IoOther => b'o',
        }
    }

    /// Returns a human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CbKind::Timer => "timer",
            CbKind::Pending => "pending",
            CbKind::Idle => "idle",
            CbKind::Prepare => "prepare",
            CbKind::Check => "check",
            CbKind::Close => "close",
            CbKind::NetAccept => "net-accept",
            CbKind::NetRead => "net-read",
            CbKind::NetClose => "net-close",
            CbKind::PoolTask => "pool-task",
            CbKind::PoolDone => "pool-done",
            CbKind::FsDone => "fs-done",
            CbKind::KvReply => "kv-reply",
            CbKind::Signal => "signal",
            CbKind::ChildIo => "child-io",
            CbKind::Wakeup => "wakeup",
            CbKind::IoOther => "io",
        }
    }

    /// All recordable kinds, in code order.
    pub fn all() -> &'static [CbKind] {
        &[
            CbKind::Timer,
            CbKind::Pending,
            CbKind::Idle,
            CbKind::Prepare,
            CbKind::Check,
            CbKind::Close,
            CbKind::NetAccept,
            CbKind::NetRead,
            CbKind::NetClose,
            CbKind::PoolTask,
            CbKind::PoolDone,
            CbKind::FsDone,
            CbKind::KvReply,
            CbKind::Signal,
            CbKind::ChildIo,
            CbKind::Wakeup,
            CbKind::IoOther,
        ]
    }
}

impl fmt::Display for CbKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A recorded sequence of callback types for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct TypeSchedule {
    codes: Vec<u8>,
}

impl TypeSchedule {
    /// Creates an empty schedule.
    pub fn new() -> TypeSchedule {
        TypeSchedule::default()
    }

    /// Appends one callback-type observation.
    pub fn push(&mut self, kind: CbKind) {
        self.codes.push(kind.code());
    }

    /// Returns the raw one-byte-per-callback encoding.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Returns the number of recorded callbacks.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Returns whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Returns a schedule truncated to the first `n` callbacks.
    ///
    /// The paper truncates schedules to 20 K callbacks before computing
    /// Levenshtein distances (§5.3).
    pub fn truncated(&self, n: usize) -> TypeSchedule {
        TypeSchedule {
            codes: self.codes.iter().copied().take(n).collect(),
        }
    }

    /// Appends every observation from `other`.
    pub fn extend(&mut self, other: &TypeSchedule) {
        self.codes.extend_from_slice(&other.codes);
    }

    /// Counts how many callbacks of `kind` were recorded.
    pub fn count(&self, kind: CbKind) -> usize {
        let c = kind.code();
        self.codes.iter().filter(|&&b| b == c).count()
    }

    /// Removes all observations, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.codes.clear();
    }
}

/// Per-run recorder for type schedules and dispatch counts. Every run
/// records its whole type schedule: a bug's signature is built from it.
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    schedule: TypeSchedule,
    dispatched: u64,
}

impl TraceRecorder {
    /// Records the dispatch of one callback of the given kind.
    pub fn record(&mut self, kind: CbKind) {
        self.dispatched += 1;
        self.schedule.push(kind);
    }

    /// Returns the total number of dispatched callbacks.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Consumes the recorder, returning the recorded schedule.
    pub fn into_schedule(self) -> TypeSchedule {
        self.schedule
    }

    /// Returns the schedule recorded so far.
    pub fn schedule(&self) -> &TypeSchedule {
        &self.schedule
    }

    /// Clears all state for a fresh run, keeping allocated capacity.
    pub fn reset(&mut self) {
        self.schedule.clear();
        self.dispatched = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_match_all_order() {
        assert_eq!(CbKind::all().len(), CbKind::COUNT);
        for (i, k) in CbKind::all().iter().enumerate() {
            assert_eq!(k.index(), i, "{k:?}");
        }
    }

    /// Pins the persisted encoding of every kind: its label (the metrics
    /// `callbacks[]` row), its code, and its bit in the signature
    /// fingerprint (`nodefz_trace::kind_fingerprint` sets bit `index()`).
    /// A removed or reordered variant renames every persisted repro.
    #[test]
    fn persisted_encoding_is_frozen() {
        let golden: [(CbKind, &str, u8, u32); CbKind::COUNT] = [
            (CbKind::Timer, "timer", b'T', 1 << 0),
            (CbKind::Pending, "pending", b'p', 1 << 1),
            (CbKind::Idle, "idle", b'i', 1 << 2),
            (CbKind::Prepare, "prepare", b'r', 1 << 3),
            (CbKind::Check, "check", b'c', 1 << 4),
            (CbKind::Close, "close", b'X', 1 << 5),
            (CbKind::NetAccept, "net-accept", b'A', 1 << 6),
            (CbKind::NetRead, "net-read", b'N', 1 << 7),
            (CbKind::NetClose, "net-close", b'n', 1 << 8),
            (CbKind::PoolTask, "pool-task", b'W', 1 << 9),
            (CbKind::PoolDone, "pool-done", b'D', 1 << 10),
            (CbKind::FsDone, "fs-done", b'F', 1 << 11),
            (CbKind::KvReply, "kv-reply", b'K', 1 << 12),
            (CbKind::Signal, "signal", b'S', 1 << 13),
            (CbKind::ChildIo, "child-io", b'P', 1 << 14),
            (CbKind::Wakeup, "wakeup", b'w', 1 << 15),
            (CbKind::IoOther, "io", b'o', 1 << 16),
        ];
        let kinds: Vec<CbKind> = golden.iter().map(|&(k, ..)| k).collect();
        assert_eq!(CbKind::all(), kinds.as_slice());
        for (kind, label, code, bit) in golden {
            assert_eq!(kind.label(), label, "{kind:?}");
            assert_eq!(kind.code(), code, "{kind:?}");
            assert_eq!(1u32 << kind.index(), bit, "{kind:?}");
        }
    }

    #[test]
    fn codes_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for k in CbKind::all() {
            assert!(seen.insert(k.code()), "duplicate code for {k:?}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for k in CbKind::all() {
            assert!(seen.insert(k.label()), "duplicate label for {k:?}");
        }
    }

    #[test]
    fn schedule_push_and_count() {
        let mut s = TypeSchedule::new();
        s.push(CbKind::Timer);
        s.push(CbKind::NetRead);
        s.push(CbKind::Timer);
        assert_eq!(s.len(), 3);
        assert_eq!(s.count(CbKind::Timer), 2);
        assert_eq!(s.count(CbKind::NetRead), 1);
        assert_eq!(s.count(CbKind::Close), 0);
    }

    #[test]
    fn schedule_truncation() {
        let mut s = TypeSchedule::new();
        for _ in 0..10 {
            s.push(CbKind::Check);
        }
        assert_eq!(s.truncated(4).len(), 4);
        assert_eq!(s.truncated(100).len(), 10);
        assert!(s.truncated(0).is_empty());
    }

    #[test]
    fn schedule_extend() {
        let mut a = TypeSchedule::new();
        a.push(CbKind::Timer);
        let mut b = TypeSchedule::new();
        b.push(CbKind::Close);
        a.extend(&b);
        assert_eq!(a.codes(), &[CbKind::Timer.code(), CbKind::Close.code()]);
    }

    #[test]
    fn recorder_enabled_records_schedule() {
        let mut r = TraceRecorder::default();
        r.record(CbKind::PoolDone);
        assert_eq!(r.dispatched(), 1);
        assert_eq!(r.into_schedule().count(CbKind::PoolDone), 1);
    }
}
