//! The callback-side API surface of the event loop.
//!
//! Every callback receives a [`Ctx`], through which it can register timers,
//! queue microtasks and immediates, offload work to the worker pool, interact
//! with the simulated poll layer, schedule environment events, and report
//! application-level errors. This mirrors the API a Node.js program sees
//! (`setTimeout`, `process.nextTick`, `setImmediate`, `uv_queue_work`, …).

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use crate::envq::EnvTarget;
use crate::error::{AppError, Errno};
use crate::looper::LoopState;
use crate::poll::{Fd, FdKind, IoCb};
use crate::pool::{QueuedTask, TaskId, WorkCtx};
use crate::proc::{ChildEvent, ChildSpec, ChildState, Pid};
use crate::rng::Rng;
use crate::signal::Signal;
use crate::time::{VDur, VTime};
use crate::timers::TimerId;
use crate::trace::CbKind;

/// Identifier of an idle/prepare/check handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HandleId(pub u64);

/// The loop context handed to every callback.
pub struct Ctx<'a> {
    pub(crate) st: &'a mut LoopState,
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.st.now
    }

    /// The environment RNG: the modelled nondeterminism of the outside
    /// world (latencies, durations). Substrates should [`Rng::fork`] their
    /// own sub-stream at setup time.
    pub fn env_rng(&mut self) -> &mut Rng {
        &mut self.st.rng_env
    }

    /// Simulates `dur` of synchronous computation in the current callback.
    pub fn busy(&mut self, dur: VDur) {
        self.st.now += dur;
    }

    // ---- Shared-state access instrumentation --------------------------------
    //
    // Apps mark the accesses their planted races revolve around; with an
    // event log attached (see `EventLoop::set_event_log`) each mark becomes
    // an `Access` row against the currently running event, which is what
    // the nodefz-hb analyzer joins against the happens-before graph. With
    // no log attached all three are no-ops.

    /// Records a read of the named shared site by the current callback.
    pub fn touch_read(&mut self, site: &str) {
        self.st.touch(site, crate::events::AccessKind::Read);
    }

    /// Records a write of the named shared site by the current callback.
    pub fn touch_write(&mut self, site: &str) {
        self.st.touch(site, crate::events::AccessKind::Write);
    }

    /// Records a commutative read-modify-write (e.g. a counter increment)
    /// of the named shared site by the current callback.
    pub fn touch_update(&mut self, site: &str) {
        self.st.touch(site, crate::events::AccessKind::Update);
    }

    // ---- Timers -----------------------------------------------------------

    /// Schedules `cb` to run once, at least `delay` from now (`setTimeout`).
    pub fn set_timeout(&mut self, delay: VDur, cb: impl FnOnce(&mut Ctx<'_>) + 'static) -> TimerId {
        let mut cb = Some(cb);
        let wrapped = Rc::new(RefCell::new(move |cx: &mut Ctx<'_>| {
            if let Some(f) = cb.take() {
                f(cx);
            }
        }));
        let id = self.st.timers.insert(self.st.now + delay, None, wrapped);
        self.note_timer_cause(id);
        id
    }

    /// Schedules `cb` to run every `period`, starting after `period`
    /// (`setInterval`).
    pub fn set_interval(
        &mut self,
        period: VDur,
        cb: impl FnMut(&mut Ctx<'_>) + 'static,
    ) -> TimerId {
        let wrapped = Rc::new(RefCell::new(cb));
        let id = self
            .st
            .timers
            .insert(self.st.now + period, Some(period), wrapped);
        self.note_timer_cause(id);
        id
    }

    fn note_timer_cause(&mut self, id: TimerId) {
        if let Some(h) = &self.st.events {
            h.0.borrow_mut().set_timer_cause(id.0, self.st.current);
        }
    }

    /// Cancels a timer (`clearTimeout`/`clearInterval`). Returns whether it
    /// was still pending.
    pub fn clear_timer(&mut self, id: TimerId) -> bool {
        self.st.timers.cancel(id)
    }

    /// Whether a timer is still pending.
    pub fn timer_active(&self, id: TimerId) -> bool {
        self.st.timers.is_active(id)
    }

    // ---- Microtasks and phase queues ---------------------------------------

    /// Queues a microtask to run after the current callback completes
    /// (`process.nextTick`).
    pub fn next_tick(&mut self, cb: impl FnOnce(&mut Ctx<'_>) + 'static) {
        self.st.micro.push_back(Box::new(cb));
    }

    /// Queues a callback for the check phase of the next loop iteration
    /// (`setImmediate`).
    pub fn set_immediate(&mut self, cb: impl FnOnce(&mut Ctx<'_>) + 'static) {
        let cause = self.st.current;
        self.st.immediates.push_back((Box::new(cb), cause));
    }

    /// Queues a callback for the pending phase of the next loop iteration.
    pub fn defer_pending(&mut self, cb: impl FnOnce(&mut Ctx<'_>) + 'static) {
        let cause = self.st.current;
        self.st.pending.push_back((Box::new(cb), cause));
    }

    /// Queues a close callback (the loop's close phase), as when a handle is
    /// being torn down.
    pub fn enqueue_close(&mut self, cb: impl FnOnce(&mut Ctx<'_>) + 'static) {
        let cause = self.st.current;
        self.st.closing.push_back((Box::new(cb), cause));
    }

    // ---- Repeating handles -------------------------------------------------

    /// Registers an idle handle, run every iteration while active.
    pub fn add_idle(&mut self, cb: impl FnMut(&mut Ctx<'_>) + 'static) -> HandleId {
        let cause = self.st.current;
        self.st.idle.add(Rc::new(RefCell::new(cb)), cause)
    }

    /// Registers a prepare handle, run just before each poll phase.
    pub fn add_prepare(&mut self, cb: impl FnMut(&mut Ctx<'_>) + 'static) -> HandleId {
        let cause = self.st.current;
        self.st.prepare.add(Rc::new(RefCell::new(cb)), cause)
    }

    /// Registers a check handle, run just after each poll phase.
    pub fn add_check(&mut self, cb: impl FnMut(&mut Ctx<'_>) + 'static) -> HandleId {
        let cause = self.st.current;
        self.st.check.add(Rc::new(RefCell::new(cb)), cause)
    }

    /// Removes an idle handle.
    pub fn remove_idle(&mut self, id: HandleId) -> bool {
        self.st.idle.remove(id)
    }

    /// Removes a prepare handle.
    pub fn remove_prepare(&mut self, id: HandleId) -> bool {
        self.st.prepare.remove(id)
    }

    /// Removes a check handle.
    pub fn remove_check(&mut self, id: HandleId) -> bool {
        self.st.check.remove(id)
    }

    // ---- Worker pool --------------------------------------------------------

    /// Offloads `work` to the worker pool (`uv_queue_work`).
    ///
    /// `cost` is the nominal execution time of the task body; the pool
    /// jitters it. `work` runs "on a worker" at the task's virtual finish
    /// time; its return value is handed to `done`, which runs later on the
    /// event loop.
    ///
    /// # Errors
    ///
    /// Returns `EMFILE` when the done-queue de-multiplexer cannot allocate a
    /// per-task descriptor (§4.4 of the paper).
    pub fn submit_work<T: 'static>(
        &mut self,
        cost: VDur,
        work: impl FnOnce(&mut WorkCtx<'_>) -> T + 'static,
        done: impl FnOnce(&mut Ctx<'_>, T) + 'static,
    ) -> Result<TaskId, Errno> {
        let demux_fd = if self.st.demux_done {
            Some(self.st.poll.alloc(FdKind::TaskDone)?)
        } else {
            None
        };
        let id = self.st.pool.next_task_id();
        let work: crate::pool::WorkFn =
            Box::new(move |wcx: &mut WorkCtx<'_>| Box::new(work(wcx)) as Box<dyn Any>);
        let done: crate::pool::DoneFn = Box::new(move |cx: &mut Ctx<'_>, result| {
            let result = *result
                .downcast::<T>()
                .expect("worker task result type mismatch");
            done(cx, result);
        });
        self.st.pool.queue.push_back(QueuedTask {
            id,
            work,
            done,
            cost,
            demux_fd,
            submitted: self.st.now,
        });
        self.st.stats_submitted();
        if let Some(h) = &self.st.events {
            h.0.borrow_mut().set_task_submit(id.0, self.st.current);
        }
        Ok(id)
    }

    // ---- Poll layer (substrate API) -----------------------------------------

    /// Allocates a simulated file descriptor.
    ///
    /// # Errors
    ///
    /// Returns `EMFILE` at the configured descriptor limit.
    pub fn alloc_fd(&mut self, kind: FdKind) -> Result<Fd, Errno> {
        self.st.poll.alloc(kind)
    }

    /// Installs the watcher callback invoked for each readiness event on
    /// `fd`.
    pub fn register_watcher(
        &mut self,
        fd: Fd,
        cb: impl FnMut(&mut Ctx<'_>, Fd) + 'static,
    ) -> Result<(), Errno> {
        let cb: IoCb = Rc::new(RefCell::new(cb));
        self.st.poll.set_watcher(fd, cb)?;
        self.note_fd_registration(fd);
        Ok(())
    }

    fn note_fd_registration(&mut self, fd: Fd) {
        if let Some(h) = &self.st.events {
            h.0.borrow_mut().set_fd_reg(fd.0, self.st.current);
        }
    }

    /// Marks one readiness event on `fd` at the current time.
    pub fn mark_ready(&mut self, fd: Fd) -> Result<(), Errno> {
        self.st.mark_ready_traced(fd)
    }

    /// Closes a descriptor, dropping its watcher and undelivered events.
    pub fn close_fd(&mut self, fd: Fd) -> Result<(), Errno> {
        self.st.poll.close(fd)
    }

    /// Whether `fd` is open.
    pub fn fd_is_open(&self, fd: Fd) -> bool {
        self.st.poll.is_open(fd)
    }

    /// Number of open descriptors.
    pub fn open_fds(&self) -> usize {
        self.st.poll.open_count()
    }

    /// Sets whether `fd` keeps the loop alive (libuv `uv_ref`/`uv_unref`).
    pub fn set_fd_refd(&mut self, fd: Fd, refd: bool) -> Result<(), Errno> {
        self.st.poll.set_refd(fd, refd)
    }

    /// Overrides the trace kind recorded for events on `fd`.
    pub fn set_fd_trace_kind(&mut self, fd: Fd, kind: CbKind) -> Result<(), Errno> {
        self.st.poll.set_kind_override(fd, kind)
    }

    // ---- Signals -------------------------------------------------------------

    /// Registers a watcher for `sig` (`process.on('SIGINT', …)`).
    ///
    /// The watcher owns a descriptor (signalfd-style) whose readiness flows
    /// through the poll phase, so signal delivery is fuzzable like any other
    /// event. Signal watchers do not keep the loop alive, as in Node.js.
    ///
    /// # Errors
    ///
    /// Returns `EMFILE` at the descriptor limit.
    pub fn on_signal(
        &mut self,
        sig: Signal,
        mut cb: impl FnMut(&mut Ctx<'_>, Signal) + 'static,
    ) -> Result<Fd, Errno> {
        let fd = self.st.poll.alloc(FdKind::Other)?;
        self.st.poll.set_kind_override(fd, CbKind::Signal)?;
        self.st.poll.set_refd(fd, false)?;
        let wrapped: IoCb = Rc::new(RefCell::new(move |cx: &mut Ctx<'_>, _fd| cb(cx, sig)));
        self.st.poll.set_watcher(fd, wrapped)?;
        self.note_fd_registration(fd);
        self.st.signals.register(sig, fd);
        Ok(fd)
    }

    /// Removes a signal watcher registered with [`Ctx::on_signal`].
    pub fn remove_signal_watcher(&mut self, fd: Fd) -> Result<(), Errno> {
        if !self.st.signals.unregister(fd) {
            return Err(Errno::Ebadf);
        }
        self.st.poll.close(fd)
    }

    /// Raises a signal from the environment after `delay` (a `kill(1)`).
    pub fn raise_signal_after(&mut self, delay: VDur, sig: Signal) {
        self.schedule_env(delay, move |cx| cx.deliver_signal(sig));
    }

    /// Delivers a signal to every registered watcher right now.
    pub(crate) fn deliver_signal(&mut self, sig: Signal) {
        let fds = self.st.signals.watchers_of(sig);
        for fd in fds {
            if self.st.mark_ready_traced(fd).is_ok() {
                self.st.signals.delivered += 1;
            }
        }
    }

    /// Signal watchers currently registered for `sig`.
    pub fn signal_watchers(&self, sig: Signal) -> usize {
        self.st.signals.watcher_count(sig)
    }

    // ---- Child processes -------------------------------------------------------

    /// Spawns a simulated child process (`child_process.spawn`).
    ///
    /// `on_output` runs per output chunk; `on_exit` runs once with the exit
    /// code. Both arrive through the child's pipe descriptor in the poll
    /// phase. The child keeps the loop alive until its exit is delivered;
    /// `SIGCHLD` is raised when it terminates.
    ///
    /// # Errors
    ///
    /// Returns `EMFILE` at the descriptor limit.
    pub fn spawn_child(
        &mut self,
        spec: ChildSpec,
        mut on_output: impl FnMut(&mut Ctx<'_>, &[u8]) + 'static,
        on_exit: impl FnOnce(&mut Ctx<'_>, i32) + 'static,
    ) -> Result<Pid, Errno> {
        let fd = self.st.poll.alloc(FdKind::Other)?;
        self.st.poll.set_kind_override(fd, CbKind::ChildIo)?;
        let pid = self.st.procs.next_pid();
        self.st.procs.children.push(ChildState {
            pid,
            fd,
            inbox: Default::default(),
            killed: false,
            exited: false,
        });
        let mut on_exit = Some(on_exit);
        let watcher: IoCb = Rc::new(RefCell::new(move |cx: &mut Ctx<'_>, fd: Fd| {
            let event = cx.st.procs.by_fd(fd).and_then(|c| c.inbox.pop_front());
            match event {
                Some(ChildEvent::Output(bytes)) => on_output(cx, &bytes),
                Some(ChildEvent::Exit(code)) => {
                    cx.st.procs.remove(pid);
                    let _ = cx.st.poll.close(fd);
                    if let Some(f) = on_exit.take() {
                        f(cx, code);
                    }
                }
                None => {}
            }
        }));
        self.st.poll.set_watcher(fd, watcher)?;
        self.note_fd_registration(fd);
        // Schedule the child's environment-side life.
        let runtime = self.st.rng_env.jitter(spec.runtime, 0.3);
        for (offset, bytes) in spec.output {
            let at = offset.min(runtime);
            self.schedule_env(at, move |cx| {
                let fd = match cx.st.procs.get_mut(pid) {
                    Some(c) if !c.exited && !c.killed => {
                        c.inbox.push_back(ChildEvent::Output(bytes));
                        Some(c.fd)
                    }
                    _ => None,
                };
                if let Some(fd) = fd {
                    let _ = cx.mark_ready(fd);
                }
            });
        }
        let exit_code = spec.exit_code;
        self.schedule_env(runtime, move |cx| {
            cx.finish_child(pid, exit_code);
        });
        Ok(pid)
    }

    /// Kills a running child (`child.kill()`); its exit event reports code
    /// 137 and `SIGCHLD` is raised.
    ///
    /// # Errors
    ///
    /// Returns `ESRCH` if the child already exited or never existed.
    pub fn kill_child(&mut self, pid: Pid) -> Result<(), Errno> {
        match self.st.procs.get_mut(pid) {
            Some(c) if !c.exited => {
                c.killed = true;
            }
            _ => return Err(Errno::Esrch),
        }
        self.finish_child(pid, 137);
        Ok(())
    }

    fn finish_child(&mut self, pid: Pid, exit_code: i32) {
        let fd = match self.st.procs.get_mut(pid) {
            Some(c) if !c.exited => {
                c.exited = true;
                c.inbox.push_back(ChildEvent::Exit(exit_code));
                Some(c.fd)
            }
            _ => None,
        };
        if let Some(fd) = fd {
            let _ = self.st.mark_ready_traced(fd);
            self.deliver_signal(Signal::Chld);
        }
    }

    /// Children spawned and not yet exited.
    pub fn running_children(&self) -> usize {
        self.st.procs.running()
    }

    // ---- Environment --------------------------------------------------------

    /// Schedules an environment effect `delay` from now.
    ///
    /// Environment effects model the outside world; they run with a loop
    /// context but are not traced as application callbacks.
    pub fn schedule_env(&mut self, delay: VDur, f: impl FnOnce(&mut Ctx<'_>) + 'static) {
        let at = self.st.now + delay;
        self.schedule_env_at(at, f);
    }

    /// Schedules an environment effect at an absolute virtual time.
    ///
    /// The closure is boxed: fine for a handful of scripted effects per
    /// run. Per-message substrate traffic uses [`Ctx::wake_env_at`].
    pub fn schedule_env_at(&mut self, at: VTime, f: impl FnOnce(&mut Ctx<'_>) + 'static) {
        let at = at.max(self.st.now);
        let cause = self.st.current;
        self.st
            .env
            .schedule(at, crate::envq::EnvAction::Custom(Box::new(f), cause));
    }

    /// Schedules a typed wakeup of `target` with `token` at an absolute
    /// virtual time.
    ///
    /// Orders, runs and records exactly like a [`Ctx::schedule_env_at`]
    /// effect scheduled at the same point, but allocates nothing: the
    /// entry holds a clone of `target`'s `Rc` and the token.
    pub fn wake_env_at<T: EnvTarget + 'static>(&mut self, at: VTime, target: &Rc<T>, token: u64) {
        let at = at.max(self.st.now);
        let cause = self.st.current;
        let target: Rc<dyn EnvTarget> = target.clone();
        self.st
            .env
            .schedule(at, crate::envq::EnvAction::Wake(target, token, cause));
    }

    // ---- Errors and control ---------------------------------------------------

    /// Records a non-fatal application error (a thrown-and-caught error).
    pub fn report_error(&mut self, code: &str, message: impl Into<String>) {
        let err = AppError {
            at: self.st.now,
            code: code.to_string(),
            message: message.into(),
            fatal: false,
        };
        self.st.errors.push(err);
    }

    /// Records a fatal error and stops the loop (an uncaught exception).
    pub fn crash(&mut self, code: &str, message: impl Into<String>) {
        let err = AppError {
            at: self.st.now,
            code: code.to_string(),
            message: message.into(),
            fatal: true,
        };
        self.st.errors.push(err);
        self.st.stopped = true;
    }

    /// Stops the loop after the current callback (like `process.exit`, but
    /// orderly).
    pub fn stop(&mut self) {
        self.st.stopped = true;
    }

    /// Number of callbacks dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.st.trace.dispatched()
    }
}
