//! Record-and-replay of scheduling decisions.
//!
//! The paper notes that because Node.fz controls all points of
//! nondeterminism, it "can also enable more systematic exploration of
//! Node.js application schedules" (§6). This module provides the first
//! building block: a [`RecordingScheduler`] that wraps any scheduler and
//! logs every decision it makes, and a [`ReplayScheduler`] that re-applies
//! a recorded [`DecisionTrace`] verbatim.
//!
//! Replaying a trace against the *same program and environment seed*
//! reproduces the exact schedule — which turns a once-in-a-hundred-runs
//! manifestation into a deterministic regression test.
//!
//! ## Divergence handling
//!
//! Replay never panics mid-run, whatever the trace contains. A consultation
//! past the end of the trace, of a different kind than recorded, or against
//! a malformed recorded value (out-of-window pick, non-permutation shuffle)
//! falls back to the inert choice (run / identity / no-defer / head) and is
//! recorded as a [`ReplayDivergence`]. Callers that need a verdict rather
//! than a best-effort schedule attach a [`ReplayStatusHandle`] (see
//! [`ReplayScheduler::with_status`]) and call
//! [`ReplayStatusHandle::verdict`] after the run.
//!
//! [`replay_choice`] is that rule, stated once: the decision taken when a
//! consultation of a given shape meets the trace's decision at the cursor.
//! The replayer decides through it, and a
//! [`ReplayStatusHandle::logging`] handle records what it took at each
//! consultation, which is what [`crate::ReplayMemo`] keys on.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use nodefz_rt::{PoolMode, ReadyEntry, Scheduler, TimerVerdict, VDur};

use crate::memo::ConsultLog;

/// Permutation storage for [`Decision::Shuffle`].
///
/// Ready lists are almost always short, so permutations up to
/// [`Perm::INLINE`] entries live inline and recording a shuffle touches the
/// heap only for unusually wide ready lists. Dereferences to `&[u32]`, so
/// call sites treat it like a slice.
#[derive(Clone)]
pub struct Perm {
    len: u32,
    inline: [u32; Perm::INLINE],
    /// Spill storage, used only when `len > INLINE`.
    spill: Vec<u32>,
}

impl Perm {
    /// Entries stored without a heap allocation.
    pub const INLINE: usize = 8;

    /// Creates an empty permutation.
    pub fn new() -> Perm {
        Perm {
            len: 0,
            inline: [0; Perm::INLINE],
            spill: Vec::new(),
        }
    }

    /// Appends one source index.
    pub fn push(&mut self, v: u32) {
        let len = self.len as usize;
        if len < Perm::INLINE {
            self.inline[len] = v;
        } else {
            if self.spill.is_empty() {
                // First spill: move the inline prefix over.
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(v);
        }
        self.len += 1;
    }

    /// The permutation as a slice: `self[i]` is the original index of the
    /// entry placed at position `i`.
    pub fn as_slice(&self) -> &[u32] {
        let len = self.len as usize;
        if len <= Perm::INLINE {
            &self.inline[..len]
        } else {
            &self.spill
        }
    }
}

impl Default for Perm {
    fn default() -> Perm {
        Perm::new()
    }
}

impl std::ops::Deref for Perm {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl PartialEq for Perm {
    fn eq(&self, other: &Perm) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Perm {}

impl std::hash::Hash for Perm {
    /// Hashes the live entries only, agreeing with `PartialEq`: the inline
    /// array is unused past `len`, and after a spill the entries live in
    /// `spill`, so a field-wise hash would split equal permutations.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl From<Vec<u32>> for Perm {
    fn from(v: Vec<u32>) -> Perm {
        v.into_iter().collect()
    }
}

impl FromIterator<u32> for Perm {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Perm {
        let mut p = Perm::new();
        for v in iter {
            p.push(v);
        }
        p
    }
}

impl<'a> IntoIterator for &'a Perm {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One recorded scheduling decision.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Timer verdict: `None` = run, `Some(delay_ns)` = defer with delay.
    Timer(Option<u64>),
    /// The permutation applied to a ready list: `perm[i]` is the original
    /// index of the entry placed at position `i`.
    Shuffle(Perm),
    /// Whether a ready descriptor was deferred.
    DeferReady(bool),
    /// Whether a close event was deferred.
    DeferClose(bool),
    /// The queue index picked by the worker.
    PickTask(u32),
}

impl Decision {
    /// Short label of the decision kind ("timer", "shuffle", …).
    pub fn kind(&self) -> &'static str {
        match self {
            Decision::Timer(_) => "timer",
            Decision::Shuffle(_) => "shuffle",
            Decision::DeferReady(_) => "defer-ready",
            Decision::DeferClose(_) => "defer-close",
            Decision::PickTask(_) => "pick-task",
        }
    }
}

/// The kind and the value: `timer run`, `timer defer 5000000 ns`,
/// `shuffle [1 0]`, `defer-ready yes`, `defer-close no`, `pick-task 2`.
impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let yes_no = |b: bool| if b { "yes" } else { "no" };
        write!(f, "{} ", self.kind())?;
        match self {
            Decision::Timer(None) => f.write_str("run"),
            Decision::Timer(Some(ns)) => write!(f, "defer {ns} ns"),
            Decision::Shuffle(perm) => {
                f.write_str("[")?;
                for (i, idx) in perm.into_iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{idx}")?;
                }
                f.write_str("]")
            }
            Decision::DeferReady(d) | Decision::DeferClose(d) => f.write_str(yes_no(*d)),
            Decision::PickTask(i) => write!(f, "{i}"),
        }
    }
}

/// What a replayer is asked at one consultation: the decision kind, plus
/// what bounds a valid value of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Consultation {
    /// An expired timer: run it or defer it.
    Timer,
    /// A ready list of `len` entries (always more than one) to permute.
    Shuffle {
        /// Entries in the ready list.
        len: u32,
    },
    /// A ready descriptor: defer it or not.
    DeferReady,
    /// A close event: defer it or not.
    DeferClose,
    /// A task pick among the first `window` queued tasks.
    PickTask {
        /// Tasks the pick may choose among (at least one).
        window: u32,
    },
}

impl Consultation {
    /// The kind's label, as [`Decision::kind`] names it.
    pub fn kind(self) -> &'static str {
        match self {
            Consultation::Timer => "timer",
            Consultation::Shuffle { .. } => "shuffle",
            Consultation::DeferReady => "defer-ready",
            Consultation::DeferClose => "defer-close",
            Consultation::PickTask { .. } => "pick-task",
        }
    }

    /// The inert choice: run / identity / no-defer / head.
    pub fn inert(self) -> Taken<'static> {
        match self {
            Consultation::Timer => Taken::Timer(None),
            Consultation::Shuffle { .. } => Taken::Shuffle(None),
            Consultation::DeferReady => Taken::DeferReady(false),
            Consultation::DeferClose => Taken::DeferClose(false),
            Consultation::PickTask { .. } => Taken::PickTask(0),
        }
    }
}

/// The decision a replayer took at one consultation (see
/// [`replay_choice`]). Two consultations that take equal decisions act
/// alike, so an identity shuffle, recorded or fallen back to, is always
/// `Shuffle(None)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Taken<'a> {
    /// `None` runs the timer, `Some(ns)` defers it by `ns`.
    Timer(Option<u64>),
    /// The permutation applied to the ready list (see
    /// [`Decision::Shuffle`]); `None` leaves the list as it is.
    Shuffle(Option<&'a [u32]>),
    /// Whether the ready descriptor is deferred.
    DeferReady(bool),
    /// Whether the close event is deferred.
    DeferClose(bool),
    /// The queue index picked, below the window.
    PickTask(u32),
}

/// The replayer's rule: the decision taken when consultation `at` meets
/// `candidate`, the trace's decision at the cursor (`None` past the end).
///
/// A candidate of the consultation's kind with a valid value is taken as
/// recorded. Anything else falls back to [`Consultation::inert`]: the
/// wrong kind, the end of the trace, a shuffle that is not a permutation
/// of the ready list, a pick outside the window. The second value is then
/// the consultation as a [`ReplayDivergence`] names it. Either way the
/// cursor moves past the candidate, so consultation `i` always meets
/// decision `i`.
pub fn replay_choice(
    candidate: Option<&Decision>,
    at: Consultation,
) -> (Taken<'_>, Option<&'static str>) {
    match (candidate, at) {
        (Some(&Decision::Timer(rec)), Consultation::Timer) => (Taken::Timer(rec), None),
        (Some(Decision::Shuffle(perm)), Consultation::Shuffle { len }) => {
            if !is_permutation(perm, len as usize) {
                (Taken::Shuffle(None), Some("shuffle (non-permutation)"))
            } else if is_identity(perm) {
                (Taken::Shuffle(None), None)
            } else {
                (Taken::Shuffle(Some(perm)), None)
            }
        }
        (Some(&Decision::DeferReady(d)), Consultation::DeferReady) => (Taken::DeferReady(d), None),
        (Some(&Decision::DeferClose(d)), Consultation::DeferClose) => (Taken::DeferClose(d), None),
        (Some(&Decision::PickTask(i)), Consultation::PickTask { window }) => {
            if i < window {
                (Taken::PickTask(i), None)
            } else {
                (Taken::PickTask(0), Some("pick-task (out of window)"))
            }
        }
        (_, at) => (at.inert(), Some(at.kind())),
    }
}

/// A complete record of one run's scheduling decisions.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionTrace {
    /// The pool mode the recorded scheduler used.
    pub pool_mode: PoolMode,
    /// Whether the done queue was de-multiplexed.
    pub demux_done: bool,
    /// The decision sequence, in consultation order.
    pub decisions: Vec<Decision>,
}

impl DecisionTrace {
    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Checks the trace for values no recording could have produced.
    ///
    /// [`decode_trace`](crate::decode_trace) accepts any syntactically
    /// well-formed document; this catches the *semantically* corrupt ones —
    /// a shuffle that is not a permutation, a serialized pool with zero
    /// lookahead — before a replayer silently falls back to inert choices
    /// on every consultation.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceFormatError`] naming the first offending value.
    pub fn validate(&self) -> Result<(), TraceFormatError> {
        if let PoolMode::Serialized { lookahead, .. } = self.pool_mode {
            if lookahead == 0 {
                return Err(TraceFormatError::ZeroLookahead);
            }
        }
        for (at, d) in self.decisions.iter().enumerate() {
            if let Decision::Shuffle(perm) = d {
                if !is_permutation(perm, perm.len()) {
                    return Err(TraceFormatError::BadShuffle { at });
                }
            }
        }
        Ok(())
    }
}

/// A semantically corrupt [`DecisionTrace`] (see [`DecisionTrace::validate`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceFormatError {
    /// A serialized pool header with a zero-task lookahead window.
    ZeroLookahead,
    /// A recorded shuffle whose indices are not a permutation.
    BadShuffle {
        /// Zero-based decision index of the bad shuffle.
        at: usize,
    },
}

impl fmt::Display for TraceFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormatError::ZeroLookahead => {
                write!(f, "serialized pool lookahead must be at least 1")
            }
            TraceFormatError::BadShuffle { at } => {
                write!(f, "decision {at} is not a permutation")
            }
        }
    }
}

impl std::error::Error for TraceFormatError {}

/// Shared handle to a trace being recorded.
#[derive(Clone)]
pub struct TraceHandle {
    inner: Rc<RefCell<DecisionTrace>>,
}

impl TraceHandle {
    /// Creates a handle around an empty trace, to be filled by a
    /// [`RecordingScheduler`] built later (see
    /// [`RecordingScheduler::with_handle`] and [`crate::Mode::Record`]).
    pub fn fresh() -> TraceHandle {
        TraceHandle {
            inner: Rc::new(RefCell::new(DecisionTrace {
                pool_mode: PoolMode::Concurrent { workers: 4 },
                demux_done: false,
                decisions: Vec::new(),
            })),
        }
    }

    /// Takes a snapshot of the decisions recorded so far.
    pub fn snapshot(&self) -> DecisionTrace {
        self.inner.borrow().clone()
    }
}

impl PartialEq for TraceHandle {
    /// Handles are equal when they share the same underlying trace.
    fn eq(&self, other: &TraceHandle) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceHandle({} decisions)", self.inner.borrow().len())
    }
}

/// Wraps a scheduler, recording every decision it makes.
pub struct RecordingScheduler<S> {
    inner: S,
    trace: Rc<RefCell<DecisionTrace>>,
    /// Scratch for shuffle recording: the pre-shuffle sequence numbers.
    before: Vec<u64>,
}

impl<S: Scheduler> RecordingScheduler<S> {
    /// Wraps `inner`; returns the scheduler and a handle to read the trace
    /// after (or during) the run.
    pub fn new(inner: S) -> (RecordingScheduler<S>, TraceHandle) {
        let handle = TraceHandle::fresh();
        let recorder = RecordingScheduler::with_handle(inner, &handle);
        (recorder, handle)
    }

    /// Wraps `inner`, recording into an externally supplied handle.
    ///
    /// Any decisions already in the handle are discarded (keeping the
    /// allocated capacity, so a reused handle records allocation-free) and
    /// its header (pool mode, demux flag) is reset from `inner`, so a
    /// handle can be created first and wired through configuration (see
    /// [`crate::Mode::Record`]).
    pub fn with_handle(inner: S, handle: &TraceHandle) -> RecordingScheduler<S> {
        {
            let mut trace = handle.inner.borrow_mut();
            trace.pool_mode = inner.pool_mode();
            trace.demux_done = inner.demux_done();
            trace.decisions.clear();
        }
        RecordingScheduler {
            trace: handle.inner.clone(),
            inner,
            before: Vec::new(),
        }
    }
}

impl<S: Scheduler> Scheduler for RecordingScheduler<S> {
    fn name(&self) -> &'static str {
        "recording"
    }

    fn pool_mode(&self) -> PoolMode {
        self.inner.pool_mode()
    }

    fn demux_done(&self) -> bool {
        self.inner.demux_done()
    }

    fn on_timer(&mut self) -> TimerVerdict {
        let verdict = self.inner.on_timer();
        let rec = match verdict {
            TimerVerdict::Run => None,
            TimerVerdict::Defer { delay } => Some(delay.as_nanos()),
        };
        self.trace.borrow_mut().decisions.push(Decision::Timer(rec));
        verdict
    }

    fn shuffle_ready(&mut self, ready: &mut Vec<ReadyEntry>) {
        self.before.clear();
        self.before.extend(ready.iter().map(|e| e.seq));
        self.inner.shuffle_ready(ready);
        // Record the applied permutation by matching sequence numbers.
        let perm: Perm = ready
            .iter()
            .map(|e| {
                self.before
                    .iter()
                    .position(|&seq| seq == e.seq)
                    .expect("shuffle must be a permutation") as u32
            })
            .collect();
        self.trace
            .borrow_mut()
            .decisions
            .push(Decision::Shuffle(perm));
    }

    fn defer_ready(&mut self, entry: &ReadyEntry) -> bool {
        let defer = self.inner.defer_ready(entry);
        self.trace
            .borrow_mut()
            .decisions
            .push(Decision::DeferReady(defer));
        defer
    }

    fn defer_close(&mut self) -> bool {
        let defer = self.inner.defer_close();
        self.trace
            .borrow_mut()
            .decisions
            .push(Decision::DeferClose(defer));
        defer
    }

    fn pick_task(&mut self, window: usize) -> usize {
        let pick = self.inner.pick_task(window);
        self.trace
            .borrow_mut()
            .decisions
            .push(Decision::PickTask(pick as u32));
        pick
    }

    fn decision_count(&self) -> u64 {
        self.trace.borrow().decisions.len() as u64
    }
}

/// The first point where a replay could not follow its trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayDivergence {
    /// Zero-based index of the diverging consultation.
    pub at: usize,
    /// What the trace held at that point ("timer", "shuffle", …, or
    /// "end of trace").
    pub recorded: &'static str,
    /// The kind of consultation the run actually made, with detail for
    /// malformed recorded values ("shuffle (non-permutation)", …).
    pub consulted: &'static str,
}

impl fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay diverged at decision {}: trace holds {}, run consulted {}",
            self.at, self.recorded, self.consulted
        )
    }
}

/// A failed replay: how many consultations diverged, and where it started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayError {
    /// Total diverging consultations.
    pub mismatches: u64,
    /// The first divergence.
    pub first: ReplayDivergence,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} total mismatches)", self.first, self.mismatches)
    }
}

impl std::error::Error for ReplayError {}

#[derive(Default)]
struct ReplayStatus {
    mismatches: u64,
    first: Option<ReplayDivergence>,
    /// The last run's consultations, when the handle logs them.
    log: Option<ConsultLog>,
}

/// Shared view of a [`ReplayScheduler`]'s divergence state, readable after
/// the event loop has consumed the boxed scheduler.
#[derive(Clone, Default)]
pub struct ReplayStatusHandle {
    inner: Rc<RefCell<ReplayStatus>>,
}

impl ReplayStatusHandle {
    /// Creates a fresh, unattached handle (all-zero state until a
    /// [`ReplayScheduler`] built from it runs).
    pub fn fresh() -> ReplayStatusHandle {
        ReplayStatusHandle::default()
    }

    /// A fresh handle whose replays also log each consultation's shape and
    /// the decision taken (read with [`ReplayStatusHandle::with_log`]).
    /// The log keeps its capacity across runs; a [`fresh`] handle logs
    /// nothing.
    ///
    /// [`fresh`]: ReplayStatusHandle::fresh
    pub fn logging() -> ReplayStatusHandle {
        let handle = ReplayStatusHandle::fresh();
        handle.inner.borrow_mut().log = Some(ConsultLog::default());
        handle
    }

    /// Runs `f` on the last run's consultation log; `None` when the handle
    /// does not log.
    pub fn with_log<R>(&self, f: impl FnOnce(&ConsultLog) -> R) -> Option<R> {
        self.inner.borrow().log.as_ref().map(f)
    }

    /// How many consultations did not match the recorded decision.
    pub fn mismatches(&self) -> u64 {
        self.inner.borrow().mismatches
    }

    /// `Ok(())` for a faithful replay, the divergence report otherwise.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] naming the first diverging consultation.
    pub fn verdict(&self) -> Result<(), ReplayError> {
        let status = self.inner.borrow();
        match &status.first {
            None => Ok(()),
            Some(first) => Err(ReplayError {
                mismatches: status.mismatches,
                first: first.clone(),
            }),
        }
    }

    /// Clears the divergence state and the log (keeping its capacity);
    /// returns whether the handle logs.
    fn reset(&self) -> bool {
        let mut status = self.inner.borrow_mut();
        status.mismatches = 0;
        status.first = None;
        match &mut status.log {
            Some(log) => {
                log.clear();
                true
            }
            None => false,
        }
    }

    fn diverge(&self, at: usize, recorded: &'static str, consulted: &'static str) {
        let mut status = self.inner.borrow_mut();
        status.mismatches += 1;
        if status.first.is_none() {
            status.first = Some(ReplayDivergence {
                at,
                recorded,
                consulted,
            });
        }
    }

    fn log(&self, at: Consultation, taken: Taken<'_>) {
        if let Some(log) = &mut self.inner.borrow_mut().log {
            log.push(at, taken);
        }
    }
}

impl PartialEq for ReplayStatusHandle {
    /// Handles are equal when they share the same underlying status.
    fn eq(&self, other: &ReplayStatusHandle) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for ReplayStatusHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ReplayStatusHandle({} mismatches)",
            self.inner.borrow().mismatches
        )
    }
}

/// Replays a [`DecisionTrace`] decision-for-decision.
///
/// Must be used with the same program and environment seed that produced
/// the trace; consultations beyond the end of the trace, of a mismatched
/// kind, or against malformed recorded values fall back to the inert choice
/// (run / identity / no-defer / head) — the documented fallback, stated by
/// [`replay_choice`] — and the divergence is reported through the status
/// handle.
pub struct ReplayScheduler {
    cursor: Cursor,
    /// Scratch for applying recorded permutations without cloning the
    /// ready list.
    scratch: Vec<ReadyEntry>,
}

/// The trace being replayed, the index of the decision the next
/// consultation meets, and where the replay reports.
struct Cursor {
    trace: DecisionTrace,
    next: usize,
    status: ReplayStatusHandle,
    /// Whether the status handle logs consultations, read once at attach
    /// so that a handle that does not log costs one test per consultation.
    logging: bool,
}

impl Cursor {
    /// Takes the decision for consultation `at` by [`replay_choice`]:
    /// reports a fallback, logs the step when asked to, and moves past the
    /// candidate.
    fn consult(&mut self, at: Consultation) -> Taken<'_> {
        let candidate = self.trace.decisions.get(self.next);
        let (taken, fallback) = replay_choice(candidate, at);
        if let Some(consulted) = fallback {
            let recorded = candidate.map_or("end of trace", Decision::kind);
            self.status.diverge(self.next, recorded, consulted);
        }
        if self.logging {
            self.status.log(at, taken);
        }
        self.next += usize::from(candidate.is_some());
        taken
    }
}

impl ReplayScheduler {
    /// Creates a replayer for `trace`.
    pub fn new(trace: DecisionTrace) -> ReplayScheduler {
        ReplayScheduler::attached(trace, ReplayStatusHandle::fresh())
    }

    /// Creates a replayer after validating the trace, rejecting
    /// semantically corrupt input instead of silently replaying it as
    /// all-inert fallbacks.
    ///
    /// # Errors
    ///
    /// Returns the [`TraceFormatError`] from [`DecisionTrace::validate`].
    pub fn try_new(trace: DecisionTrace) -> Result<ReplayScheduler, TraceFormatError> {
        trace.validate()?;
        Ok(ReplayScheduler::new(trace))
    }

    /// Creates a replayer plus a status handle that outlives it, for
    /// inspecting divergence after the event loop consumed the scheduler.
    pub fn with_status(trace: DecisionTrace) -> (ReplayScheduler, ReplayStatusHandle) {
        let status = ReplayStatusHandle::fresh();
        let replayer = ReplayScheduler::attached(trace, status.clone());
        (replayer, status)
    }

    /// Creates a replayer reporting into an externally supplied handle.
    ///
    /// The handle's previous state is cleared, so one handle can be reused
    /// across runs (see [`crate::Mode::Replay`]).
    pub fn attached(trace: DecisionTrace, status: ReplayStatusHandle) -> ReplayScheduler {
        let logging = status.reset();
        ReplayScheduler {
            cursor: Cursor {
                trace,
                next: 0,
                status,
                logging,
            },
            scratch: Vec::new(),
        }
    }

    /// How many consultations did not match the recorded kind (0 for a
    /// faithful replay).
    pub fn mismatches(&self) -> u64 {
        self.cursor.status.mismatches()
    }
}

/// Checks that `perm` is a permutation of `0..len`, without allocating for
/// the common (short) case.
fn is_permutation(perm: &[u32], len: usize) -> bool {
    if perm.len() != len {
        return false;
    }
    if len <= 128 {
        let mut seen: u128 = 0;
        for &src in perm {
            if src as usize >= len || seen & (1 << src) != 0 {
                return false;
            }
            seen |= 1 << src;
        }
        return true;
    }
    let mut seen = vec![false; len];
    for &src in perm {
        match seen.get_mut(src as usize) {
            Some(slot @ false) => *slot = true,
            _ => return false,
        }
    }
    true
}

/// Reorders `ready` by `perm`, a permutation of its indices taken by
/// [`replay_choice`]: entry `i` becomes the old entry `perm[i]`. `scratch`
/// holds the old order, so the list is never cloned.
pub(crate) fn permute(ready: &mut [ReadyEntry], perm: &[u32], scratch: &mut Vec<ReadyEntry>) {
    scratch.clear();
    scratch.extend_from_slice(ready);
    for (slot, &src) in perm.iter().enumerate() {
        ready[slot] = scratch[src as usize];
    }
}

/// Whether `perm` leaves every entry in place: the inert shuffle.
pub fn is_identity(perm: &[u32]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| i as u32 == p)
}

impl Scheduler for ReplayScheduler {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn pool_mode(&self) -> PoolMode {
        self.cursor.trace.pool_mode
    }

    fn demux_done(&self) -> bool {
        self.cursor.trace.demux_done
    }

    fn on_timer(&mut self) -> TimerVerdict {
        match self.cursor.consult(Consultation::Timer) {
            Taken::Timer(Some(ns)) => TimerVerdict::Defer {
                delay: VDur::nanos(ns),
            },
            _ => TimerVerdict::Run,
        }
    }

    fn shuffle_ready(&mut self, ready: &mut Vec<ReadyEntry>) {
        let at = Consultation::Shuffle {
            len: ready.len() as u32,
        };
        if let Taken::Shuffle(Some(perm)) = self.cursor.consult(at) {
            permute(ready, perm, &mut self.scratch);
        }
    }

    fn defer_ready(&mut self, _entry: &ReadyEntry) -> bool {
        self.cursor.consult(Consultation::DeferReady) == Taken::DeferReady(true)
    }

    fn defer_close(&mut self) -> bool {
        self.cursor.consult(Consultation::DeferClose) == Taken::DeferClose(true)
    }

    fn pick_task(&mut self, window: usize) -> usize {
        let at = Consultation::PickTask {
            window: window as u32,
        };
        match self.cursor.consult(at) {
            Taken::PickTask(i) => i as usize,
            _ => 0,
        }
    }

    fn decision_count(&self) -> u64 {
        self.cursor.next as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuzzParams, FuzzScheduler};
    use nodefz_rt::{EventLoop, Fd, LoopConfig, VTime};

    /// A nontrivial program mixing timers, pool tasks and immediates.
    fn program(el: &mut EventLoop) {
        el.enter(|cx| {
            for i in 1..8u64 {
                cx.set_timeout(VDur::micros(i * 211), move |cx| {
                    cx.submit_work(
                        VDur::micros(100 + i * 31),
                        |_| (),
                        |cx, ()| {
                            cx.set_immediate(|_| {});
                        },
                    )
                    .unwrap();
                });
            }
        });
    }

    #[test]
    fn decisions_display_kind_and_value() {
        let shown: Vec<String> = [
            Decision::Timer(None),
            Decision::Timer(Some(5_000_000)),
            Decision::Shuffle(vec![1, 0].into()),
            Decision::Shuffle(Perm::new()),
            Decision::DeferReady(true),
            Decision::DeferClose(false),
            Decision::PickTask(2),
        ]
        .iter()
        .map(Decision::to_string)
        .collect();
        assert_eq!(
            shown,
            [
                "timer run",
                "timer defer 5000000 ns",
                "shuffle [1 0]",
                "shuffle []",
                "defer-ready yes",
                "defer-close no",
                "pick-task 2",
            ]
        );
    }

    #[test]
    fn record_then_replay_reproduces_the_schedule() {
        let fuzz = FuzzScheduler::new(FuzzParams::standard(), 33);
        let (recorder, handle) = RecordingScheduler::new(fuzz);
        let mut el = EventLoop::with_scheduler(LoopConfig::seeded(9), Box::new(recorder));
        program(&mut el);
        let original = el.run();
        let trace = handle.snapshot();
        assert!(!trace.is_empty(), "a fuzz run makes decisions");

        let (replayer, status) = ReplayScheduler::with_status(trace);
        let mut el = EventLoop::with_scheduler(LoopConfig::seeded(9), Box::new(replayer));
        program(&mut el);
        let replayed = el.run();

        assert_eq!(original.schedule, replayed.schedule);
        assert_eq!(original.end_time, replayed.end_time);
        assert_eq!(original.dispatched, replayed.dispatched);
        status.verdict().expect("faithful replay");
    }

    #[test]
    fn recording_is_transparent() {
        // A recorded run behaves exactly like the bare scheduler's run.
        let bare = FuzzScheduler::new(FuzzParams::standard(), 44);
        let mut el = EventLoop::with_scheduler(LoopConfig::seeded(10), Box::new(bare));
        program(&mut el);
        let plain = el.run();

        let fuzz = FuzzScheduler::new(FuzzParams::standard(), 44);
        let (recorder, _handle) = RecordingScheduler::new(fuzz);
        let mut el = EventLoop::with_scheduler(LoopConfig::seeded(10), Box::new(recorder));
        program(&mut el);
        let recorded = el.run();

        assert_eq!(plain.schedule, recorded.schedule);
        assert_eq!(plain.end_time, recorded.end_time);
    }

    #[test]
    fn exhausted_trace_falls_back_inert() {
        let trace = DecisionTrace {
            pool_mode: PoolMode::Concurrent { workers: 4 },
            demux_done: false,
            decisions: vec![Decision::Timer(None)],
        };
        let (mut replayer, status) = ReplayScheduler::with_status(trace);
        assert_eq!(replayer.on_timer(), TimerVerdict::Run);
        // Trace exhausted: inert defaults, mismatches counted.
        assert_eq!(replayer.on_timer(), TimerVerdict::Run);
        assert!(!replayer.defer_close());
        assert_eq!(replayer.pick_task(3), 0);
        assert_eq!(replayer.mismatches(), 3);
        let err = status.verdict().expect_err("diverged");
        assert_eq!(err.mismatches, 3);
        assert_eq!(err.first.recorded, "end of trace");
        assert_eq!(err.first.consulted, "timer");
        assert_eq!(err.first.at, 1);
    }

    #[test]
    fn kind_mismatch_falls_back_inert() {
        let trace = DecisionTrace {
            pool_mode: PoolMode::Concurrent { workers: 4 },
            demux_done: false,
            decisions: vec![Decision::DeferClose(true), Decision::Timer(None)],
        };
        let (mut replayer, status) = ReplayScheduler::with_status(trace);
        // Consults a timer where the trace recorded a close deferral.
        assert_eq!(replayer.on_timer(), TimerVerdict::Run);
        let err = status.verdict().expect_err("kind mismatch");
        assert_eq!(err.first.at, 0);
        assert_eq!(err.first.recorded, "defer-close");
        assert_eq!(err.first.consulted, "timer");
        assert!(err.to_string().contains("decision 0"), "{err}");
    }

    #[test]
    fn malformed_shuffle_falls_back_to_identity() {
        let entries: Vec<ReadyEntry> = (0..3)
            .map(|i| ReadyEntry {
                fd: Fd(i),
                at: VTime(i as u64),
                seq: i as u64,
            })
            .collect();
        for perm in [
            vec![0, 1],    // wrong length
            vec![0, 1, 7], // out of range
            vec![0, 1, 1], // duplicate
        ] {
            let trace = DecisionTrace {
                pool_mode: PoolMode::Concurrent { workers: 4 },
                demux_done: false,
                decisions: vec![Decision::Shuffle(perm.into())],
            };
            let (mut replayer, status) = ReplayScheduler::with_status(trace);
            let mut ready = entries.clone();
            replayer.shuffle_ready(&mut ready);
            assert_eq!(ready, entries, "fallback must be the identity");
            let err = status.verdict().expect_err("malformed perm");
            assert_eq!(err.first.consulted, "shuffle (non-permutation)");
        }
    }

    #[test]
    fn out_of_window_pick_falls_back_to_head() {
        let trace = DecisionTrace {
            pool_mode: PoolMode::Concurrent { workers: 4 },
            demux_done: false,
            decisions: vec![Decision::PickTask(9)],
        };
        let (mut replayer, status) = ReplayScheduler::with_status(trace);
        assert_eq!(replayer.pick_task(2), 0);
        let err = status.verdict().expect_err("pick out of window");
        assert_eq!(err.first.consulted, "pick-task (out of window)");
    }

    /// What consultation `at` did, read back from the scheduler's effect:
    /// a shuffle is applied to entries numbered in order.
    fn consult_effect(r: &mut ReplayScheduler, at: Consultation) -> Decision {
        match at {
            Consultation::Timer => Decision::Timer(match r.on_timer() {
                TimerVerdict::Run => None,
                TimerVerdict::Defer { delay } => Some(delay.as_nanos()),
            }),
            Consultation::Shuffle { len } => {
                let mut ready: Vec<ReadyEntry> = (0..len)
                    .map(|i| ReadyEntry {
                        fd: Fd(i),
                        at: VTime(u64::from(i)),
                        seq: u64::from(i),
                    })
                    .collect();
                r.shuffle_ready(&mut ready);
                Decision::Shuffle(ready.iter().map(|e| e.seq as u32).collect())
            }
            Consultation::DeferReady => {
                let entry = ReadyEntry {
                    fd: Fd(0),
                    at: VTime(0),
                    seq: 0,
                };
                Decision::DeferReady(r.defer_ready(&entry))
            }
            Consultation::DeferClose => Decision::DeferClose(r.defer_close()),
            Consultation::PickTask { window } => {
                Decision::PickTask(r.pick_task(window as usize) as u32)
            }
        }
    }

    /// The same decision as a [`Decision`], a `None` shuffle spelled out.
    fn spelled(at: Consultation, taken: Taken<'_>) -> Decision {
        match (taken, at) {
            (Taken::Timer(t), _) => Decision::Timer(t),
            (Taken::Shuffle(Some(perm)), _) => Decision::Shuffle(perm.iter().copied().collect()),
            (Taken::Shuffle(None), Consultation::Shuffle { len }) => {
                Decision::Shuffle((0..len).collect())
            }
            (Taken::Shuffle(None), _) => unreachable!("a shuffle answers a shuffle"),
            (Taken::DeferReady(d), _) => Decision::DeferReady(d),
            (Taken::DeferClose(d), _) => Decision::DeferClose(d),
            (Taken::PickTask(i), _) => Decision::PickTask(i),
        }
    }

    #[test]
    fn hostile_candidates_take_the_rules_decisions() {
        use Decision::*;
        let asked = [
            Consultation::Timer,
            Consultation::Shuffle { len: 3 },
            Consultation::DeferReady,
            Consultation::DeferClose,
            Consultation::PickTask { window: 2 },
            Consultation::Shuffle { len: 2 },
            Consultation::Timer,
        ];
        let shuffle = |p: &[u32]| Shuffle(p.iter().copied().collect());
        let candidates: Vec<(&str, Vec<Decision>)> = vec![
            ("empty trace", vec![]),
            (
                "faithful",
                vec![
                    Timer(Some(5)),
                    shuffle(&[2, 0, 1]),
                    DeferReady(true),
                    DeferClose(true),
                    PickTask(1),
                    shuffle(&[1, 0]),
                    Timer(None),
                ],
            ),
            (
                "wrong kind everywhere",
                vec![
                    PickTask(1),
                    Timer(Some(3)),
                    shuffle(&[1, 0]),
                    DeferReady(true),
                    DeferClose(true),
                    Timer(None),
                    shuffle(&[0, 1]),
                ],
            ),
            (
                "non-permutations",
                vec![
                    Timer(None),
                    shuffle(&[0, 0, 1]),
                    DeferReady(false),
                    DeferClose(false),
                    PickTask(0),
                    shuffle(&[2, 0]),
                ],
            ),
            (
                "wrong-length permutations",
                vec![
                    Timer(None),
                    shuffle(&[1, 0]),
                    DeferReady(true),
                    DeferClose(true),
                    PickTask(1),
                    shuffle(&[2, 0, 1]),
                ],
            ),
            (
                "out-of-window pick",
                vec![
                    Timer(Some(1)),
                    shuffle(&[0, 1, 2]),
                    DeferReady(false),
                    DeferClose(true),
                    PickTask(2),
                ],
            ),
            ("past the end", vec![Timer(Some(8)), shuffle(&[1, 2, 0])]),
        ];
        for (what, decisions) in candidates {
            let trace = DecisionTrace {
                pool_mode: PoolMode::Concurrent { workers: 4 },
                demux_done: false,
                decisions: decisions.clone(),
            };
            let status = ReplayStatusHandle::logging();
            let mut replayer = ReplayScheduler::attached(trace, status.clone());
            let mut fallbacks = 0;
            let mut expected = Vec::new();
            for (i, &at) in asked.iter().enumerate() {
                let (taken, fallback) = replay_choice(decisions.get(i), at);
                fallbacks += u64::from(fallback.is_some());
                assert_eq!(
                    consult_effect(&mut replayer, at),
                    spelled(at, taken),
                    "{what}: consultation {i}"
                );
                expected.push(spelled(at, taken));
            }
            assert_eq!(replayer.mismatches(), fallbacks, "{what}");
            assert_eq!(
                replayer.decision_count() as usize,
                decisions.len().min(asked.len()),
                "{what}: the cursor passes every candidate it met"
            );
            let logged = status
                .with_log(|log| {
                    log.steps()
                        .map(|(at, taken)| spelled(at, taken))
                        .collect::<Vec<_>>()
                })
                .expect("a logging handle");
            assert_eq!(logged, expected, "{what}: the log holds what was taken");
        }
        assert_eq!(
            ReplayStatusHandle::fresh().with_log(|log| log.len()),
            None,
            "a fresh handle logs nothing"
        );
    }

    #[test]
    fn attached_handle_resets_between_runs() {
        let status = ReplayStatusHandle::fresh();
        let trace = DecisionTrace {
            pool_mode: PoolMode::Concurrent { workers: 4 },
            demux_done: false,
            decisions: vec![],
        };
        let mut r1 = ReplayScheduler::attached(trace.clone(), status.clone());
        let _ = r1.on_timer();
        assert_eq!(status.mismatches(), 1);
        let _r2 = ReplayScheduler::attached(trace, status.clone());
        assert_eq!(status.mismatches(), 0, "attach resets the handle");
        status.verdict().expect("clean after reset");
    }

    #[test]
    fn perm_spills_past_inline_capacity() {
        let n = Perm::INLINE as u32 + 5;
        let p: Perm = (0..n).collect();
        assert_eq!(p.len(), n as usize);
        assert_eq!(p.as_slice(), (0..n).collect::<Vec<_>>().as_slice());
        let small: Perm = vec![2, 0, 1].into();
        assert_eq!(small.as_slice(), &[2, 0, 1]);
        assert_eq!(small, vec![2, 0, 1].into());
        assert!(is_permutation(&small, 3));
        assert!(is_permutation(&p, n as usize));
    }

    #[test]
    fn is_permutation_rejects_malformed_large() {
        // Exercise the heap fallback path (len > 128).
        let len = 200usize;
        let good: Vec<u32> = (0..len as u32).rev().collect();
        assert!(is_permutation(&good, len));
        let mut dup = good.clone();
        dup[0] = dup[1];
        assert!(!is_permutation(&dup, len));
        let mut out_of_range = good;
        out_of_range[5] = len as u32;
        assert!(!is_permutation(&out_of_range, len));
    }

    #[test]
    fn reused_handle_records_fresh_decisions() {
        let handle = TraceHandle::fresh();
        for seed in [5u64, 6u64] {
            let fuzz = FuzzScheduler::new(FuzzParams::standard(), seed);
            let recorder = RecordingScheduler::with_handle(fuzz, &handle);
            let mut el = EventLoop::with_scheduler(LoopConfig::seeded(seed), Box::new(recorder));
            program(&mut el);
            el.run();
            let trace = handle.snapshot();
            assert!(!trace.is_empty());
            // Replaying the snapshot against the same seed must be faithful,
            // proving the reused handle held only this run's decisions.
            let (replayer, status) = ReplayScheduler::with_status(trace);
            let mut el = EventLoop::with_scheduler(LoopConfig::seeded(seed), Box::new(replayer));
            program(&mut el);
            el.run();
            status
                .verdict()
                .expect("faithful replay from reused handle");
        }
    }

    #[test]
    fn vanilla_recording_is_all_inert_decisions() {
        let (recorder, handle) = RecordingScheduler::new(nodefz_rt::VanillaScheduler::new());
        let mut el = EventLoop::with_scheduler(LoopConfig::seeded(3), Box::new(recorder));
        program(&mut el);
        el.run();
        let trace = handle.snapshot();
        for d in &trace.decisions {
            match d {
                Decision::Timer(v) => assert_eq!(*v, None),
                Decision::DeferReady(b) | Decision::DeferClose(b) => assert!(!b),
                Decision::PickTask(i) => assert_eq!(*i, 0),
                Decision::Shuffle(perm) => {
                    assert!(perm.iter().enumerate().all(|(i, &p)| i as u32 == p));
                }
            }
        }
    }
}
