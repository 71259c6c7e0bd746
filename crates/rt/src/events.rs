//! Dispatch provenance: the event log behind happens-before analysis.
//!
//! When an [`EventLog`] is attached to a loop (see
//! [`EventLoop::set_event_log`](crate::EventLoop::set_event_log)), every
//! dispatched callback becomes an [`EventRecord`] carrying *who caused it*:
//! the callback that registered the timer, submitted the pool task, armed
//! the fd watcher, or scheduled the environment action. Application code
//! marks shared-state accesses through [`Ctx::touch_read`] /
//! [`Ctx::touch_write`] / [`Ctx::touch_update`], which append [`Access`]
//! rows against the currently running event. The `nodefz-hb` crate turns
//! the two tables into a vector-clock happens-before graph and predicts
//! racing callback pairs from a single recorded run.
//!
//! With no log attached every hook is a no-op on an `Option` that is
//! `None` — the default build pays nothing.
//!
//! Microtasks (`next_tick`) are *absorbed into their parent event*: the
//! loop drains the microtask queue to completion after each callback with
//! no scheduling point in between, so attributing their accesses to the
//! dispatching callback is exact, and the microtask-FIFO happens-before
//! edges are implied by the containment.
//!
//! [`Ctx::touch_read`]: crate::Ctx::touch_read
//! [`Ctx::touch_write`]: crate::Ctx::touch_write
//! [`Ctx::touch_update`]: crate::Ctx::touch_update

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::time::VTime;
use crate::trace::CbKind;

/// A dense identifier for one dispatched event within a single run.
///
/// Event `0` is always the synthetic `Setup` event covering the closures
/// passed to [`EventLoop::enter`](crate::EventLoop::enter).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CbId(pub u32);

/// What category of event a record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvKind {
    /// The synthetic setup event (program registration code).
    Setup,
    /// A dispatched callback of the given type-schedule kind.
    Cb(CbKind),
    /// An environment action (simulated external input firing).
    Env,
}

/// Kind-specific detail attached to an event record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvDetail {
    /// No extra detail.
    #[default]
    None,
    /// A timer dispatch: the entry's deadline and registration sequence.
    Timer {
        /// The (possibly deferred) deadline the entry fired under.
        deadline: VTime,
        /// Registration sequence number (ties broken FIFO).
        seq: u64,
    },
    /// A worker-pool event; payload is the [`TaskId`](crate::TaskId) index.
    Task(u64),
    /// An fd dispatch; payload is the [`Fd`](crate::Fd) index.
    Fd(u32),
}

/// One dispatched event with its causal provenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Dense per-run id (index into [`EventLog::events`]).
    pub id: CbId,
    /// Event category.
    pub kind: EvKind,
    /// The event that caused this one (registered the timer, submitted
    /// the task, marked the fd ready, scheduled the env action, …).
    pub cause: Option<CbId>,
    /// Secondary cause: for fd dispatches, the event that *registered*
    /// the watcher (the readiness producer is `cause`).
    pub cause2: Option<CbId>,
    /// Scheduler decisions consumed before this event started — the
    /// replay-prefix length that reproduces everything up to (but not
    /// including) this dispatch.
    pub decisions: u64,
    /// The loop iteration the event dispatched in (`0` for the synthetic
    /// `Setup` event, which runs before the first iteration). Within one
    /// iteration events follow libuv's phase order — timers, pending,
    /// idle, prepare, poll, check, close — which is exactly what the
    /// `nodefz-conform` ordering oracle checks against.
    pub iter: u64,
    /// Kind-specific detail.
    pub detail: EvDetail,
}

/// How an instrumented access touches its site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Observes shared state.
    Read,
    /// Replaces shared state.
    Write,
    /// A commutative read-modify-write (e.g. `+= 1`): write-ish for race
    /// candidacy, but two Updates against each other commute.
    Update,
}

impl AccessKind {
    /// Whether this access can invalidate another (is write-ish).
    pub fn is_write(self) -> bool {
        !matches!(self, AccessKind::Read)
    }
}

/// One instrumented shared-state access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The event that performed the access.
    pub event: CbId,
    /// Index into [`EventLog::sites`].
    pub site: u32,
    /// Read / Write / Update.
    pub kind: AccessKind,
}

/// The recorded event + access tables for one run, plus the provenance
/// maps the loop uses to thread causes through handles it hands out.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    /// Every dispatched event, in dispatch order (`events[i].id == CbId(i)`).
    pub events: Vec<EventRecord>,
    /// Every instrumented access, in program order.
    pub accesses: Vec<Access>,
    /// Distinct site names, indexed by [`Access::site`].
    pub sites: Vec<String>,
    /// Registering event per `TimerId` index.
    pub(crate) timer_cause: Vec<Option<CbId>>,
    /// Submitting event per `TaskId` index.
    pub(crate) task_submit: Vec<Option<CbId>>,
    /// The `PoolTask` event per `TaskId` index (set when the work runs).
    pub(crate) task_event: Vec<Option<CbId>>,
    /// Watcher-registering event per fd index (fds are never reused).
    pub(crate) fd_reg: Vec<Option<CbId>>,
    /// FIFO of readiness-producing events per fd index.
    pub(crate) fd_ready: Vec<VecDeque<Option<CbId>>>,
}

fn slot<T: Default>(v: &mut Vec<T>, idx: usize) -> &mut T {
    if v.len() <= idx {
        v.resize_with(idx + 1, T::default);
    }
    &mut v[idx]
}

impl EventLog {
    /// Appends an event record and returns its id.
    pub(crate) fn push_event(
        &mut self,
        kind: EvKind,
        cause: Option<CbId>,
        cause2: Option<CbId>,
        detail: EvDetail,
        decisions: u64,
        iter: u64,
    ) -> CbId {
        let id = CbId(u32::try_from(self.events.len()).expect("event log overflow"));
        self.events.push(EventRecord {
            id,
            kind,
            cause,
            cause2,
            decisions,
            iter,
            detail,
        });
        id
    }

    /// Appends an access row, interning `site`.
    pub(crate) fn touch(&mut self, event: CbId, site: &str, kind: AccessKind) {
        let site = self.intern(site);
        self.accesses.push(Access { event, site, kind });
    }

    /// Linear-scan intern: apps declare a handful of sites, so a scan
    /// beats a hash map here.
    fn intern(&mut self, site: &str) -> u32 {
        if let Some(i) = self.sites.iter().position(|s| s == site) {
            return u32::try_from(i).expect("site table overflow");
        }
        let i = u32::try_from(self.sites.len()).expect("site table overflow");
        self.sites.push(site.to_string());
        i
    }

    /// Resolves a site index to its name.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range for this log.
    pub fn site_name(&self, site: u32) -> &str {
        &self.sites[site as usize]
    }

    pub(crate) fn set_timer_cause(&mut self, timer: u64, cause: Option<CbId>) {
        *slot(
            &mut self.timer_cause,
            usize::try_from(timer).expect("timer id"),
        ) = cause;
    }

    pub(crate) fn timer_cause(&self, timer: u64) -> Option<CbId> {
        self.timer_cause
            .get(usize::try_from(timer).expect("timer id"))
            .copied()
            .flatten()
    }

    pub(crate) fn set_task_submit(&mut self, task: u64, cause: Option<CbId>) {
        *slot(
            &mut self.task_submit,
            usize::try_from(task).expect("task id"),
        ) = cause;
    }

    pub(crate) fn task_submit(&self, task: u64) -> Option<CbId> {
        self.task_submit
            .get(usize::try_from(task).expect("task id"))
            .copied()
            .flatten()
    }

    pub(crate) fn set_task_event(&mut self, task: u64, event: Option<CbId>) {
        *slot(
            &mut self.task_event,
            usize::try_from(task).expect("task id"),
        ) = event;
    }

    pub(crate) fn task_event(&self, task: u64) -> Option<CbId> {
        self.task_event
            .get(usize::try_from(task).expect("task id"))
            .copied()
            .flatten()
    }

    pub(crate) fn set_fd_reg(&mut self, fd: u32, cause: Option<CbId>) {
        *slot(&mut self.fd_reg, fd as usize) = cause;
    }

    pub(crate) fn fd_reg(&self, fd: u32) -> Option<CbId> {
        self.fd_reg.get(fd as usize).copied().flatten()
    }

    pub(crate) fn push_fd_ready(&mut self, fd: u32, cause: Option<CbId>) {
        slot(&mut self.fd_ready, fd as usize).push_back(cause);
    }

    pub(crate) fn pop_fd_ready(&mut self, fd: u32) -> Option<CbId> {
        self.fd_ready
            .get_mut(fd as usize)
            .and_then(VecDeque::pop_front)
            .flatten()
    }
}

/// Shared handle to an [`EventLog`], for attaching to a loop and reading
/// the result back after the run.
#[derive(Clone, Debug, Default)]
pub struct EventLogHandle(pub(crate) Rc<RefCell<EventLog>>);

impl EventLogHandle {
    /// Creates a handle around an empty log.
    pub fn fresh() -> EventLogHandle {
        EventLogHandle::default()
    }

    /// Clones out the current log contents.
    pub fn snapshot(&self) -> EventLog {
        self.0.borrow().clone()
    }

    /// Runs `f` against the live log without cloning it — the read path
    /// for per-run analyses (canonical-key folding) that would otherwise
    /// pay a full log copy on every execution.
    pub fn with<R>(&self, f: impl FnOnce(&EventLog) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Resets the log in place (so a handle can be reused across runs).
    /// Each per-fd ready queue is emptied, not dropped: an empty queue
    /// reads as an absent one, and the next run reuses its buffer.
    pub(crate) fn reset(&self) {
        let mut log = self.0.borrow_mut();
        log.events.clear();
        log.accesses.clear();
        log.sites.clear();
        log.timer_cause.clear();
        log.task_submit.clear();
        log.task_event.clear();
        log.fd_reg.clear();
        log.fd_ready.iter_mut().for_each(VecDeque::clear);
    }
}

impl PartialEq for EventLogHandle {
    fn eq(&self, other: &EventLogHandle) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_dense() {
        let mut log = EventLog::default();
        let e = log.push_event(EvKind::Setup, None, None, EvDetail::None, 0, 0);
        log.touch(e, "a", AccessKind::Read);
        log.touch(e, "b", AccessKind::Write);
        log.touch(e, "a", AccessKind::Update);
        assert_eq!(log.sites, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(log.accesses[0].site, 0);
        assert_eq!(log.accesses[1].site, 1);
        assert_eq!(log.accesses[2].site, 0);
        assert_eq!(log.site_name(1), "b");
    }

    #[test]
    fn provenance_maps_grow_on_demand() {
        let mut log = EventLog::default();
        let e = CbId(0);
        log.set_timer_cause(5, Some(e));
        assert_eq!(log.timer_cause(5), Some(e));
        assert_eq!(log.timer_cause(4), None);
        assert_eq!(log.timer_cause(99), None);
        log.push_fd_ready(3, Some(e));
        log.push_fd_ready(3, None);
        assert_eq!(log.pop_fd_ready(3), Some(e));
        assert_eq!(log.pop_fd_ready(3), None);
        assert_eq!(log.pop_fd_ready(3), None);
    }

    #[test]
    fn handle_reset_clears_everything() {
        let h = EventLogHandle::fresh();
        {
            let mut log = h.0.borrow_mut();
            let e = log.push_event(EvKind::Env, None, None, EvDetail::None, 2, 1);
            log.touch(e, "x", AccessKind::Write);
            log.set_task_submit(0, Some(e));
            log.push_fd_ready(4, Some(e));
        }
        h.reset();
        assert_eq!(
            h.0.borrow_mut().pop_fd_ready(4),
            None,
            "a kept queue is empty"
        );
        let log = h.snapshot();
        assert!(log.events.is_empty());
        assert!(log.accesses.is_empty());
        assert!(log.sites.is_empty());
        assert!(log.task_submit.is_empty());
    }

    #[test]
    fn write_ish_classification() {
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert!(AccessKind::Update.is_write());
    }
}
