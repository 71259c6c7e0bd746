//! The simulated poll (epoll) subsystem.
//!
//! Substrate crates (network, file system, key-value store, the worker
//! pool's done queue) allocate descriptors, register watcher callbacks, and
//! mark descriptors ready from environment events. The poll phase of the
//! loop collects ready entries in FIFO `(time, seq)` order — exactly what a
//! level-triggered epoll would deliver — and hands the list to the scheduler
//! for (legal) shuffling and deferral.
//!
//! Descriptors are a finite resource: allocation fails with `EMFILE` beyond
//! the configured limit, reproducing the incident the paper hit when
//! de-multiplexing the done queue of a 10 240-task test (§4.4).

use std::cell::RefCell;
use std::rc::Rc;

use crate::ctx::Ctx;
use crate::error::Errno;
use crate::time::VTime;
use crate::trace::CbKind;

/// A simulated file descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub u32);

/// What a descriptor is attached to; determines the trace kind of its events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FdKind {
    /// A listening server socket.
    NetListener,
    /// An established connection.
    NetConn,
    /// A key-value store client connection.
    KvConn,
    /// The worker pool's multiplexed done descriptor.
    PoolDone,
    /// A per-task done descriptor (de-multiplexed mode).
    TaskDone,
    /// Anything else.
    Other,
}

impl FdKind {
    /// The trace kind recorded when an event on this descriptor dispatches.
    pub fn event_kind(self) -> CbKind {
        match self {
            FdKind::NetListener => CbKind::NetAccept,
            FdKind::NetConn => CbKind::NetRead,
            FdKind::KvConn => CbKind::KvReply,
            FdKind::PoolDone => CbKind::PoolDone,
            FdKind::TaskDone => CbKind::PoolDone,
            FdKind::Other => CbKind::IoOther,
        }
    }
}

/// An I/O watcher callback: receives the context and the ready descriptor.
pub type IoCb = Rc<RefCell<dyn FnMut(&mut Ctx<'_>, Fd)>>;

/// One entry of the epoll ready list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadyEntry {
    /// The ready descriptor.
    pub fd: Fd,
    /// When it became ready.
    pub at: VTime,
    /// FIFO tiebreaker.
    pub seq: u64,
}

pub(crate) struct Watcher {
    pub kind: FdKind,
    pub cb: Option<IoCb>,
    /// Whether this descriptor keeps the loop alive (libuv ref/unref).
    pub refd: bool,
}

/// First descriptor handed out: 0/1/2 are "taken", as on a real process.
const FD_BASE: u32 = 3;

pub(crate) struct PollState {
    next_fd: u32,
    pub limit: usize,
    /// Watcher slab, indexed by `fd - FD_BASE`. Descriptors are allocated
    /// sequentially, so a `Vec<Option<_>>` replaces the hash map on the
    /// poll phase's per-event lookups; closed slots stay `None`.
    watchers: Vec<Option<Watcher>>,
    /// Count of open (`Some`) slots — the EMFILE limit check.
    open: usize,
    /// Count of open slots whose watcher is ref'd, so the loop's per-
    /// iteration liveness probe is O(1) instead of a slab scan.
    refd_open: usize,
    /// Events marked ready, FIFO.
    pub ready: Vec<ReadyEntry>,
    /// Events deferred by the scheduler to the next iteration.
    pub carried: Vec<ReadyEntry>,
    next_seq: u64,
}

impl PollState {
    pub fn new(limit: usize) -> PollState {
        PollState {
            next_fd: FD_BASE,
            limit,
            watchers: Vec::new(),
            open: 0,
            refd_open: 0,
            ready: Vec::new(),
            carried: Vec::new(),
            next_seq: 0,
        }
    }

    /// Clears all state for a fresh run, keeping allocated capacity.
    pub fn reset(&mut self, limit: usize) {
        self.next_fd = FD_BASE;
        self.limit = limit;
        self.watchers.clear();
        self.open = 0;
        self.refd_open = 0;
        self.ready.clear();
        self.carried.clear();
        self.next_seq = 0;
    }

    fn slot(&self, fd: Fd) -> Option<&Watcher> {
        let idx = fd.0.checked_sub(FD_BASE)? as usize;
        self.watchers.get(idx)?.as_ref()
    }

    fn slot_mut(&mut self, fd: Fd) -> Option<&mut Watcher> {
        let idx = fd.0.checked_sub(FD_BASE)? as usize;
        self.watchers.get_mut(idx)?.as_mut()
    }

    pub fn alloc(&mut self, kind: FdKind) -> Result<Fd, Errno> {
        if self.open >= self.limit {
            return Err(Errno::Emfile);
        }
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.watchers.push(Some(Watcher {
            kind,
            cb: None,
            refd: true,
        }));
        self.open += 1;
        self.refd_open += 1;
        Ok(fd)
    }

    pub fn set_watcher(&mut self, fd: Fd, cb: IoCb) -> Result<(), Errno> {
        match self.slot_mut(fd) {
            Some(w) => {
                w.cb = Some(cb);
                Ok(())
            }
            None => Err(Errno::Ebadf),
        }
    }

    pub fn set_refd(&mut self, fd: Fd, refd: bool) -> Result<(), Errno> {
        match self.slot_mut(fd) {
            Some(w) => {
                let was = w.refd;
                w.refd = refd;
                match (was, refd) {
                    (false, true) => self.refd_open += 1,
                    (true, false) => self.refd_open -= 1,
                    _ => {}
                }
                Ok(())
            }
            None => Err(Errno::Ebadf),
        }
    }

    pub fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        let Some(idx) = fd.0.checked_sub(FD_BASE).map(|i| i as usize) else {
            return Err(Errno::Ebadf);
        };
        match self.watchers.get_mut(idx).and_then(Option::take) {
            Some(w) => {
                self.open -= 1;
                if w.refd {
                    self.refd_open -= 1;
                }
            }
            None => return Err(Errno::Ebadf),
        }
        self.ready.retain(|e| e.fd != fd);
        self.carried.retain(|e| e.fd != fd);
        Ok(())
    }

    pub fn is_open(&self, fd: Fd) -> bool {
        self.slot(fd).is_some()
    }

    pub fn open_count(&self) -> usize {
        self.open
    }

    /// Marks one readiness event on `fd` at time `at`.
    ///
    /// Each mark is one dispatch: a connection with three undelivered
    /// messages has three entries in the ready list.
    pub fn mark_ready(&mut self, fd: Fd, at: VTime) -> Result<(), Errno> {
        if self.slot(fd).is_none() {
            return Err(Errno::Ebadf);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ready.push(ReadyEntry { fd, at, seq });
        Ok(())
    }

    /// Takes the current ready list (carried-over entries first, then fresh
    /// ones, both in FIFO order). The loop itself uses the allocation-free
    /// [`drain_ready_into`]; this stays as the convenient test-facing form.
    ///
    /// [`drain_ready_into`]: PollState::drain_ready_into
    #[cfg(test)]
    pub fn take_ready(&mut self) -> Vec<ReadyEntry> {
        let mut out = std::mem::take(&mut self.carried);
        out.append(&mut self.ready);
        out
    }

    /// Drains the ready list (carried first, then fresh, both FIFO) into a
    /// caller-owned scratch buffer — the allocation-free [`take_ready`].
    ///
    /// [`take_ready`]: PollState::take_ready
    pub fn drain_ready_into(&mut self, out: &mut Vec<ReadyEntry>) {
        out.append(&mut self.carried);
        out.append(&mut self.ready);
    }

    pub fn defer(&mut self, entry: ReadyEntry) {
        self.carried.push(entry);
    }

    pub fn has_pending(&self) -> bool {
        !self.ready.is_empty() || !self.carried.is_empty()
    }

    pub fn watcher_cb(&self, fd: Fd) -> Option<IoCb> {
        self.slot(fd).and_then(|w| w.cb.clone())
    }

    pub fn event_kind(&self, fd: Fd) -> CbKind {
        self.slot(fd)
            .map(|w| w.kind.event_kind())
            .unwrap_or(CbKind::IoOther)
    }

    pub fn fd_kind(&self, fd: Fd) -> Option<FdKind> {
        self.slot(fd).map(|w| w.kind)
    }

    /// Whether any ref'd watcher keeps the loop alive.
    pub fn any_refd(&self) -> bool {
        self.refd_open > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_limit() {
        let mut p = PollState::new(2);
        assert!(p.alloc(FdKind::Other).is_ok());
        assert!(p.alloc(FdKind::Other).is_ok());
        assert_eq!(p.alloc(FdKind::Other), Err(Errno::Emfile));
    }

    #[test]
    fn close_frees_slot() {
        let mut p = PollState::new(1);
        let fd = p.alloc(FdKind::Other).unwrap();
        assert_eq!(p.alloc(FdKind::Other), Err(Errno::Emfile));
        p.close(fd).unwrap();
        assert!(p.alloc(FdKind::Other).is_ok());
        assert_eq!(p.close(fd), Err(Errno::Ebadf));
    }

    #[test]
    fn fds_are_unique_and_start_at_3() {
        let mut p = PollState::new(16);
        let a = p.alloc(FdKind::Other).unwrap();
        let b = p.alloc(FdKind::Other).unwrap();
        assert_eq!(a, Fd(3));
        assert_eq!(b, Fd(4));
    }

    #[test]
    fn mark_ready_orders_fifo() {
        let mut p = PollState::new(8);
        let a = p.alloc(FdKind::NetConn).unwrap();
        let b = p.alloc(FdKind::NetConn).unwrap();
        p.mark_ready(b, VTime(5)).unwrap();
        p.mark_ready(a, VTime(7)).unwrap();
        let ready = p.take_ready();
        assert_eq!(ready.len(), 2);
        assert_eq!(ready[0].fd, b);
        assert_eq!(ready[1].fd, a);
        assert!(ready[0].seq < ready[1].seq);
        assert!(!p.has_pending());
    }

    #[test]
    fn mark_ready_on_closed_fd_fails() {
        let mut p = PollState::new(8);
        let fd = p.alloc(FdKind::Other).unwrap();
        p.close(fd).unwrap();
        assert_eq!(p.mark_ready(fd, VTime(1)), Err(Errno::Ebadf));
    }

    #[test]
    fn close_drops_pending_events() {
        let mut p = PollState::new(8);
        let fd = p.alloc(FdKind::NetConn).unwrap();
        p.mark_ready(fd, VTime(1)).unwrap();
        p.mark_ready(fd, VTime(2)).unwrap();
        p.close(fd).unwrap();
        assert!(p.take_ready().is_empty());
    }

    #[test]
    fn carried_entries_come_first() {
        let mut p = PollState::new(8);
        let a = p.alloc(FdKind::NetConn).unwrap();
        let b = p.alloc(FdKind::NetConn).unwrap();
        p.mark_ready(a, VTime(1)).unwrap();
        p.mark_ready(b, VTime(2)).unwrap();
        let ready = p.take_ready();
        p.defer(ready[1]); // Defer b.
        p.mark_ready(a, VTime(3)).unwrap();
        let next = p.take_ready();
        assert_eq!(next[0].fd, b, "carried entry first");
        assert_eq!(next[1].fd, a);
    }

    #[test]
    fn multiple_marks_multiple_events() {
        let mut p = PollState::new(8);
        let fd = p.alloc(FdKind::NetConn).unwrap();
        p.mark_ready(fd, VTime(1)).unwrap();
        p.mark_ready(fd, VTime(1)).unwrap();
        assert_eq!(p.take_ready().len(), 2);
    }

    #[test]
    fn unref_affects_liveness() {
        let mut p = PollState::new(8);
        let fd = p.alloc(FdKind::NetListener).unwrap();
        assert!(p.any_refd());
        p.set_refd(fd, false).unwrap();
        assert!(!p.any_refd());
        assert_eq!(p.set_refd(Fd(99), false), Err(Errno::Ebadf));
    }

    #[test]
    fn event_kind_follows_fd_kind() {
        let mut p = PollState::new(8);
        let fd = p.alloc(FdKind::KvConn).unwrap();
        assert_eq!(p.event_kind(fd), CbKind::KvReply);
        assert_eq!(p.event_kind(Fd(99)), CbKind::IoOther);
    }

    #[test]
    fn refd_count_survives_close_and_redundant_sets() {
        let mut p = PollState::new(8);
        let a = p.alloc(FdKind::Other).unwrap();
        let b = p.alloc(FdKind::Other).unwrap();
        p.set_refd(a, false).unwrap();
        p.set_refd(a, false).unwrap(); // Redundant: must not double-count.
        assert!(p.any_refd());
        p.close(b).unwrap(); // Closing the ref'd one.
        assert!(!p.any_refd());
        p.set_refd(a, true).unwrap();
        assert!(p.any_refd());
    }

    #[test]
    fn drain_ready_into_matches_take_ready_order() {
        let mut p = PollState::new(8);
        let a = p.alloc(FdKind::NetConn).unwrap();
        let b = p.alloc(FdKind::NetConn).unwrap();
        p.mark_ready(a, VTime(1)).unwrap();
        p.mark_ready(b, VTime(2)).unwrap();
        let first = p.take_ready();
        p.defer(first[1]);
        p.mark_ready(a, VTime(3)).unwrap();
        let mut scratch = Vec::new();
        p.drain_ready_into(&mut scratch);
        assert_eq!(scratch[0].fd, b, "carried entry first");
        assert_eq!(scratch[1].fd, a);
        assert!(!p.has_pending());
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut p = PollState::new(2);
        let fd = p.alloc(FdKind::NetConn).unwrap();
        p.alloc(FdKind::Other).unwrap();
        p.mark_ready(fd, VTime(1)).unwrap();
        p.reset(4);
        assert_eq!(p.open_count(), 0);
        assert!(!p.any_refd());
        assert!(!p.has_pending());
        assert!(!p.is_open(fd));
        assert_eq!(p.alloc(FdKind::Other).unwrap(), Fd(3));
    }

    #[test]
    fn kind_mapping_is_sensible() {
        assert_eq!(FdKind::NetListener.event_kind(), CbKind::NetAccept);
        assert_eq!(FdKind::NetConn.event_kind(), CbKind::NetRead);
        assert_eq!(FdKind::TaskDone.event_kind(), CbKind::PoolDone);
        assert_eq!(FdKind::PoolDone.event_kind(), CbKind::PoolDone);
    }
}
