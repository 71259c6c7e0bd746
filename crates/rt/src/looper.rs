//! The event loop driver.
//!
//! [`EventLoop::run`] executes libuv's iteration structure in virtual time:
//! timers → pending → idle → prepare → poll → check → close, consulting the
//! installed [`Scheduler`] at every point of legal nondeterminism. The loop
//! terminates when nothing can keep it alive (no timers, no ref'd
//! descriptors, no queued work, no scheduled environment events), when a
//! callback calls [`Ctx::stop`]/[`Ctx::crash`], or at a configured safety
//! cap.

use std::cell::RefCell;
use std::rc::Rc;

use crate::ctx::{Ctx, HandleId};
use crate::envq::{EnvAction, EnvQueue};
use crate::error::AppError;
use crate::events::{CbId, EvDetail, EvKind, EventLogHandle};
use crate::obs::{ObsHandle, ObsSpan, Phase};
use crate::poll::{Fd, FdKind, PollState, ReadyEntry};
use crate::pool::{CompletedTask, PoolState, PoolStats, RunningTask, TaskId, WorkCtx};
use crate::rng::Rng;
use crate::sched::{PoolMode, Scheduler, TimerVerdict, VanillaScheduler};
use crate::time::{VDur, VTime};
use crate::timers::TimerHeap;
use crate::trace::{CbKind, TraceRecorder, TypeSchedule};

/// Wraps a loop-phase body in an observability span; a no-op unless an
/// [`ObsHandle`] is attached.
macro_rules! phased {
    ($self:ident, $phase:ident, $body:expr) => {{
        let span = $self.obs_enter();
        $body;
        $self.obs_exit_phase(span, Phase::$phase);
    }};
}

/// Wraps one callback dispatch in an observability span.
macro_rules! cb_span {
    ($self:ident, $kind:expr, $body:expr) => {{
        let kind = $kind;
        let span = $self.obs_enter();
        $body;
        $self.obs_exit_dispatch(span, kind);
    }};
}

/// A one-shot queued callback.
pub(crate) type Job = Box<dyn FnOnce(&mut Ctx<'_>)>;

/// A one-shot queued callback with its registering event (provenance).
pub(crate) type CausedJob = (Job, Option<CbId>);

type RepeatCb = Rc<RefCell<dyn FnMut(&mut Ctx<'_>)>>;

/// Registry for idle/prepare/check handles.
#[derive(Default)]
pub(crate) struct RepeatHandles {
    items: Vec<(HandleId, RepeatCb, Option<CbId>)>,
    next: u64,
}

impl RepeatHandles {
    pub fn add(&mut self, cb: RepeatCb, cause: Option<CbId>) -> HandleId {
        let id = HandleId(self.next);
        self.next += 1;
        self.items.push((id, cb, cause));
        id
    }

    pub fn remove(&mut self, id: HandleId) -> bool {
        let before = self.items.len();
        self.items.retain(|(hid, _, _)| *hid != id);
        self.items.len() != before
    }

    pub fn active(&self) -> usize {
        self.items.len()
    }

    fn snapshot_into(&self, out: &mut Vec<(RepeatCb, Option<CbId>)>) {
        out.extend(self.items.iter().map(|(_, cb, cause)| (cb.clone(), *cause)));
    }

    /// Clears all handles for a fresh run, keeping allocated capacity.
    fn reset(&mut self) {
        self.items.clear();
        self.next = 0;
    }
}

/// Event loop configuration.
#[derive(Clone, Debug)]
pub struct LoopConfig {
    /// Seed for the environment RNG (latencies, durations, costs).
    pub env_seed: u64,
    /// Per-process descriptor limit (`ulimit -n` analog).
    pub fd_limit: usize,
    /// Jitter fraction applied to worker-task cost hints.
    pub pool_cost_jitter: f64,
    /// Nominal virtual execution cost of one callback.
    pub cb_cost_base: VDur,
    /// Jitter fraction applied to callback costs.
    pub cb_cost_jitter: f64,
    /// Safety cap on loop iterations.
    pub max_iterations: u64,
    /// Safety cap on virtual time.
    pub max_vtime: VTime,
    /// Cap on microtasks drained after one callback (storm guard).
    pub microtask_limit: usize,
}

impl Default for LoopConfig {
    fn default() -> LoopConfig {
        LoopConfig {
            env_seed: 0,
            fd_limit: 10_240,
            pool_cost_jitter: 0.4,
            cb_cost_base: VDur::micros(20),
            cb_cost_jitter: 0.5,
            max_iterations: 10_000_000,
            max_vtime: VTime::ZERO + VDur::secs(3_600),
            microtask_limit: 10_000,
        }
    }
}

impl LoopConfig {
    /// Default configuration with the given environment seed.
    pub fn seeded(env_seed: u64) -> LoopConfig {
        LoopConfig {
            env_seed,
            ..LoopConfig::default()
        }
    }
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Termination {
    /// Nothing left to do: no live handles, work, or environment events.
    Quiescent,
    /// A callback called [`Ctx::stop`] or [`Ctx::crash`].
    Stopped,
    /// The iteration safety cap was hit.
    IterationCap,
    /// The virtual-time safety cap was hit.
    VTimeCap,
    /// The loop is alive (e.g. a ref'd descriptor is open) but no event can
    /// ever arrive: a real libuv loop would block in epoll forever. This is
    /// how "request hangs" impacts manifest.
    Hung,
}

/// The outcome of one [`EventLoop::run`].
#[derive(Debug)]
pub struct RunReport {
    /// Loop iterations executed.
    pub iterations: u64,
    /// Final virtual time.
    pub end_time: VTime,
    /// Total callbacks dispatched.
    pub dispatched: u64,
    /// Application errors reported during the run.
    pub errors: Vec<AppError>,
    /// The recorded type schedule (empty if tracing was disabled).
    pub schedule: TypeSchedule,
    /// Worker pool statistics.
    pub pool: PoolStats,
    /// Why the run ended.
    pub termination: Termination,
}

impl RunReport {
    /// Whether any error with the given code was reported.
    pub fn has_error(&self, code: &str) -> bool {
        self.errors.iter().any(|e| e.code == code)
    }

    /// Whether any fatal error (crash) was reported.
    pub fn crashed(&self) -> bool {
        self.errors.iter().any(|e| e.fatal)
    }
}

/// Live-resource counts for one loop, as used by the loop's liveness
/// check and by the [`LoopPool`] reuse guard.
///
/// Everything here must be zero immediately after `LoopState::reset`: a
/// recycled loop that still holds a handle, watcher, or queued job would
/// leak one run's state into the next run's schedule (and into any
/// attached telemetry). [`EventLoop::live_counts`] exposes the same view
/// for tests and diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveCounts {
    /// Armed timers.
    pub timers: usize,
    /// Open descriptors (watchers, pool descriptors, …).
    pub open_fds: usize,
    /// Queued microtasks (`next_tick`).
    pub microtasks: usize,
    /// Queued immediates (`set_immediate`).
    pub immediates: usize,
    /// Queued pending-phase callbacks.
    pub pending: usize,
    /// Queued close callbacks.
    pub closing: usize,
    /// Active idle handles.
    pub idle: usize,
    /// Active prepare handles.
    pub prepare: usize,
    /// Active check handles.
    pub check: usize,
    /// Scheduled environment events.
    pub env_events: usize,
    /// Worker-pool tasks waiting to start.
    pub pool_queued: usize,
    /// Worker-pool tasks in flight.
    pub pool_running: usize,
    /// Worker-pool completions awaiting delivery (mux + demux).
    pub pool_done: usize,
}

impl LiveCounts {
    /// Whether nothing is live.
    pub fn is_zero(&self) -> bool {
        *self == LiveCounts::default()
    }
}

pub(crate) struct LoopState {
    pub cfg: LoopConfig,
    pub now: VTime,
    pub rng_env: Rng,
    pub rng_cost: Rng,
    pub timers: TimerHeap,
    pub micro: std::collections::VecDeque<Job>,
    pub immediates: std::collections::VecDeque<CausedJob>,
    pub pending: std::collections::VecDeque<CausedJob>,
    pub closing: std::collections::VecDeque<CausedJob>,
    pub idle: RepeatHandles,
    pub prepare: RepeatHandles,
    pub check: RepeatHandles,
    pub poll: PollState,
    pub pool: PoolState,
    pub env: EnvQueue,
    pub trace: TraceRecorder,
    pub errors: Vec<AppError>,
    pub stopped: bool,
    pub hung: bool,
    pub demux_done: bool,
    pub iter: u64,
    /// Dispatch-provenance log, when one is attached (see
    /// [`EventLoop::set_event_log`]). `None` costs nothing.
    pub events: Option<EventLogHandle>,
    /// The event currently executing (provenance source for registrations).
    pub current: Option<CbId>,
    /// Scratch for the poll phase's ready list; reused across iterations.
    ready_scratch: Vec<ReadyEntry>,
    /// Scratch for repeat-phase handle snapshots; reused across iterations.
    repeat_scratch: Vec<(RepeatCb, Option<CbId>)>,
}

impl LoopState {
    fn new(cfg: LoopConfig, demux_done: bool) -> LoopState {
        let mut root = Rng::new(cfg.env_seed);
        let rng_env = root.fork();
        let rng_cost = root.fork();
        let rng_pool = root.fork();
        LoopState {
            now: VTime::ZERO,
            rng_env,
            rng_cost,
            timers: TimerHeap::default(),
            micro: Default::default(),
            immediates: Default::default(),
            pending: Default::default(),
            closing: Default::default(),
            idle: RepeatHandles::default(),
            prepare: RepeatHandles::default(),
            check: RepeatHandles::default(),
            poll: PollState::new(cfg.fd_limit),
            pool: PoolState::new(rng_pool, cfg.pool_cost_jitter),
            env: EnvQueue::default(),
            trace: TraceRecorder::default(),
            errors: Vec::new(),
            stopped: false,
            hung: false,
            demux_done,
            iter: 0,
            events: None,
            current: None,
            ready_scratch: Vec::new(),
            repeat_scratch: Vec::new(),
            cfg,
        }
    }

    /// Re-initializes a recycled state for a fresh run, keeping every
    /// collection's allocated capacity. Must leave the state exactly as
    /// [`LoopState::new`] would, apart from spare capacity.
    fn reset(&mut self, cfg: LoopConfig, demux_done: bool) {
        // The RNG fork order must match `new` exactly: replayed runs depend
        // on the env/cost/pool streams being identical.
        let mut root = Rng::new(cfg.env_seed);
        self.rng_env = root.fork();
        self.rng_cost = root.fork();
        let rng_pool = root.fork();
        self.now = VTime::ZERO;
        self.timers.reset();
        self.micro.clear();
        self.immediates.clear();
        self.pending.clear();
        self.closing.clear();
        self.idle.reset();
        self.prepare.reset();
        self.check.reset();
        self.poll.reset(cfg.fd_limit);
        self.pool.reset(rng_pool, cfg.pool_cost_jitter);
        self.env.reset();
        self.trace.reset();
        self.errors.clear();
        self.stopped = false;
        self.hung = false;
        self.demux_done = demux_done;
        self.iter = 0;
        // An attached event log is owned jointly with whoever holds the
        // other end of the handle: clear it on recycle so one run's
        // provenance can never leak into (or be misread as) the next
        // pooled run's. Callers wanting the log must snapshot it before
        // the state is recycled.
        if let Some(h) = self.events.take() {
            h.reset();
        }
        self.current = None;
        self.ready_scratch.clear();
        self.repeat_scratch.clear();
        self.cfg = cfg;
        // Pool-reuse guard: a reset that leaves any handle, watcher, or
        // queued job live would leak one run's state into the next. Each
        // sub-reset above is supposed to clear its module; this checks the
        // composition whenever a loop is recycled in a debug build.
        debug_assert!(
            self.live_counts().is_zero(),
            "LoopState::reset left live resources: {:?}",
            self.live_counts()
        );
        debug_assert!(
            self.events.is_none(),
            "LoopState::reset left an event log attached"
        );
    }

    fn live_counts(&self) -> LiveCounts {
        LiveCounts {
            timers: self.timers.len(),
            open_fds: self.poll.open_count(),
            microtasks: self.micro.len(),
            immediates: self.immediates.len(),
            pending: self.pending.len(),
            closing: self.closing.len(),
            idle: self.idle.active(),
            prepare: self.prepare.active(),
            check: self.check.active(),
            env_events: self.env.len(),
            pool_queued: self.pool.queue.len(),
            pool_running: self.pool.running.len(),
            pool_done: self.pool.done_mux.len() + self.pool.done_demux.len(),
        }
    }

    pub fn stats_submitted(&mut self) {
        self.pool.stats.submitted += 1;
    }

    /// Records a shared-state access against the currently running event.
    /// No-op when no event log is attached.
    pub fn touch(&mut self, site: &str, kind: crate::events::AccessKind) {
        if let (Some(h), Some(cur)) = (&self.events, self.current) {
            h.0.borrow_mut().touch(cur, site, kind);
        }
    }

    /// Marks `fd` ready, crediting the currently running event as the
    /// readiness producer in the attached event log (if any). All
    /// app-facing readiness must go through here; the loop's internal
    /// pool-descriptor marks bypass it because pool completions thread
    /// their provenance through the task tables instead.
    pub fn mark_ready_traced(&mut self, fd: Fd) -> Result<(), crate::error::Errno> {
        let now = self.now;
        let r = self.poll.mark_ready(fd, now);
        if r.is_ok() {
            if let Some(h) = &self.events {
                h.0.borrow_mut().push_fd_ready(fd.0, self.current);
            }
        }
        r
    }

    fn cb_cost(&mut self) -> VDur {
        let base = self.cfg.cb_cost_base;
        self.rng_cost.jitter(base, self.cfg.cb_cost_jitter)
    }

    fn alive(&self) -> bool {
        self.timers.len() > 0
            || self.poll.any_refd()
            || self.poll.has_pending()
            || self.pool.busy()
            || !self.env.is_empty()
            || !self.micro.is_empty()
            || !self.pending.is_empty()
            || !self.immediates.is_empty()
            || !self.closing.is_empty()
            || self.idle.active() > 0
            || self.prepare.active() > 0
            || self.check.active() > 0
    }
}

/// A reusable slab of recycled loop state.
///
/// Fuzzing campaigns run millions of short loops; building each one from
/// scratch re-grows every internal collection (timer heap, watcher slab,
/// queues, trace buffer) from zero. A pool keeps the state of finished
/// loops — reset but with capacity intact — and hands it to the next run,
/// making steady-state loop construction allocation-free.
///
/// Clones share the same slot. The pool holds exactly one state — campaign
/// workers run one loop at a time, and a single slot avoids unbounded
/// retention. State moves in and out by `mem::swap`, so recycling itself
/// never touches the heap.
#[derive(Clone)]
pub struct LoopPool {
    slot: Rc<RefCell<PoolSlot>>,
}

struct PoolSlot {
    st: LoopState,
    /// Whether `st` came back from a finished loop (vs. the initial dummy).
    primed: bool,
}

impl LoopPool {
    /// Creates an empty pool.
    pub fn new() -> LoopPool {
        LoopPool {
            slot: Rc::new(RefCell::new(PoolSlot {
                st: LoopState::new(LoopConfig::default(), false),
                primed: false,
            })),
        }
    }

    /// Swaps the pooled state into `dst`; returns whether it was recycled.
    fn take_into(&self, dst: &mut LoopState) -> bool {
        let mut slot = self.slot.borrow_mut();
        std::mem::swap(&mut slot.st, dst);
        std::mem::replace(&mut slot.primed, false)
    }

    /// Swaps a finished loop's state into the pool for the next run.
    fn put_from(&self, src: &mut LoopState) {
        let mut slot = self.slot.borrow_mut();
        std::mem::swap(&mut slot.st, src);
        slot.primed = true;
    }

    /// Whether a recycled state is currently available.
    pub fn is_primed(&self) -> bool {
        self.slot.borrow().primed
    }
}

impl Default for LoopPool {
    fn default() -> LoopPool {
        LoopPool::new()
    }
}

impl std::fmt::Debug for LoopPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopPool")
            .field("primed", &self.is_primed())
            .finish()
    }
}

/// A deterministic, virtual-time event loop with a pluggable scheduler.
///
/// # Examples
///
/// ```
/// use nodefz_rt::{EventLoop, LoopConfig, VDur};
///
/// let mut el = EventLoop::new(LoopConfig::seeded(1));
/// el.enter(|cx| {
///     cx.set_timeout(VDur::millis(5), |cx| {
///         cx.report_error("done", "timer fired");
///     });
/// });
/// let report = el.run();
/// assert!(report.has_error("done"));
/// ```
pub struct EventLoop {
    st: LoopState,
    sched: Box<dyn Scheduler>,
    pool_mode: PoolMode,
    /// Pool the state returns to when the loop is dropped.
    home: Option<LoopPool>,
    /// Attached observability, if any.
    obs: Option<ObsHandle>,
}

impl EventLoop {
    /// Creates a loop with the faithful [`VanillaScheduler`].
    pub fn new(cfg: LoopConfig) -> EventLoop {
        EventLoop::with_scheduler(cfg, Box::new(VanillaScheduler::new()))
    }

    /// Creates a loop driven by the given scheduler.
    pub fn with_scheduler(cfg: LoopConfig, sched: Box<dyn Scheduler>) -> EventLoop {
        let pool_mode = sched.pool_mode();
        let demux = sched.demux_done();
        EventLoop {
            st: LoopState::new(cfg, demux),
            sched,
            pool_mode,
            home: None,
            obs: None,
        }
    }

    /// Creates a loop driven by the given scheduler, reusing recycled state
    /// from `pool` when available. The state returns to the pool on drop.
    ///
    /// Behaviorally identical to [`EventLoop::with_scheduler`]: a recycled
    /// state is fully reset (RNG streams included), only spare collection
    /// capacity carries over.
    pub fn with_scheduler_pooled(
        cfg: LoopConfig,
        sched: Box<dyn Scheduler>,
        pool: &LoopPool,
    ) -> EventLoop {
        let pool_mode = sched.pool_mode();
        let demux = sched.demux_done();
        let mut st = LoopState::new(cfg.clone(), demux);
        // The swap always happens (primed or not), so reset unconditionally:
        // what came out of the slot was built for some other run's config.
        pool.take_into(&mut st);
        st.reset(cfg, demux);
        EventLoop {
            st,
            sched,
            pool_mode,
            home: Some(pool.clone()),
            obs: None,
        }
    }

    /// Counts of everything currently keeping this loop alive.
    ///
    /// Freshly constructed (or pool-recycled) loops report all zeros;
    /// the [`LoopPool`] reuse guard asserts exactly that in debug builds.
    pub fn live_counts(&self) -> LiveCounts {
        self.st.live_counts()
    }

    /// Attaches an observability handle: subsequent phases and dispatches
    /// are profiled into it (and forwarded to its sink, if any). A loop
    /// without a handle skips the profiling entirely.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = Some(obs);
    }

    fn obs_enter(&self) -> ObsSpan {
        self.obs
            .as_ref()
            .map(|_| (self.st.now, std::time::Instant::now()))
    }

    fn obs_exit_phase(&mut self, span: ObsSpan, phase: Phase) {
        if let (Some(obs), Some((start, wall))) = (&self.obs, span) {
            let wall_ns = wall.elapsed().as_nanos() as u64;
            obs.record_phase(phase, start, self.st.now, wall_ns);
        }
    }

    fn obs_exit_dispatch(&mut self, span: ObsSpan, kind: CbKind) {
        if let (Some(obs), Some((start, wall))) = (&self.obs, span) {
            let wall_ns = wall.elapsed().as_nanos() as u64;
            obs.record_dispatch(kind, start, self.st.now, wall_ns);
        }
    }

    /// Attaches (or replaces) a dispatch-provenance event log.
    ///
    /// The handle is reset and seeded with the synthetic `Setup` event
    /// (id 0), to which everything registered via [`EventLoop::enter`] is
    /// attributed. Every subsequently dispatched callback is recorded with
    /// its causal provenance; `nodefz-hb` consumes the result.
    pub fn set_event_log(&mut self, handle: &EventLogHandle) {
        handle.reset();
        let decisions = self.sched.decision_count();
        let id = handle.0.borrow_mut().push_event(
            EvKind::Setup,
            None,
            None,
            EvDetail::None,
            decisions,
            self.st.iter,
        );
        self.st.events = Some(handle.clone());
        self.st.current = Some(id);
    }

    /// Starts a provenance record for a dispatch and makes it current.
    /// Callers save and restore `st.current` around the dispatch body.
    fn begin_event(
        &mut self,
        kind: EvKind,
        cause: Option<CbId>,
        cause2: Option<CbId>,
        detail: EvDetail,
    ) {
        if let Some(h) = &self.st.events {
            let decisions = self.sched.decision_count();
            let id =
                h.0.borrow_mut()
                    .push_event(kind, cause, cause2, detail, decisions, self.st.iter);
            self.st.current = Some(id);
        }
    }

    /// Runs a setup closure with a loop context before (or between) runs.
    pub fn enter<R>(&mut self, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        let mut cx = Ctx { st: &mut self.st };
        let r = f(&mut cx);
        self.drain_micro();
        r
    }

    /// Runs the loop to completion and returns the run report.
    pub fn run(&mut self) -> RunReport {
        // A previous run's hang verdict does not carry over: re-entering
        // may have scheduled new work.
        self.st.hung = false;
        let termination = loop {
            if self.st.stopped {
                break Termination::Stopped;
            }
            if !self.st.alive() {
                break Termination::Quiescent;
            }
            if self.st.hung {
                break Termination::Hung;
            }
            if self.st.iter >= self.st.cfg.max_iterations {
                break Termination::IterationCap;
            }
            if self.st.now > self.st.cfg.max_vtime {
                break Termination::VTimeCap;
            }
            self.iterate();
        };
        RunReport {
            iterations: self.st.iter,
            end_time: self.st.now,
            dispatched: self.st.trace.dispatched(),
            errors: self.st.errors.clone(),
            schedule: self.st.trace.schedule().clone(),
            pool: self.st.pool.stats,
            termination,
        }
    }

    // ---- Internals -----------------------------------------------------------

    fn iterate(&mut self) {
        self.st.iter += 1;
        phased!(self, Timers, self.timer_phase());
        if self.st.stopped {
            return;
        }
        phased!(self, Pending, self.pending_phase());
        phased!(self, Idle, self.repeat_phase(CbKind::Idle));
        phased!(self, Prepare, self.repeat_phase(CbKind::Prepare));
        if self.st.stopped {
            return;
        }
        phased!(self, Poll, self.poll_phase());
        if self.st.stopped {
            return;
        }
        phased!(self, Check, {
            self.check_phase();
            self.repeat_phase(CbKind::Check);
        });
        if self.st.stopped {
            return;
        }
        phased!(self, Close, self.close_phase());
    }

    fn run_traced_job(&mut self, kind: CbKind, job: Job, cause: Option<CbId>) {
        self.st.trace.record(kind);
        // Microtasks drained below are absorbed into this event, so the
        // restore deliberately happens after the whole span.
        let prev = self.st.current;
        self.begin_event(EvKind::Cb(kind), cause, None, EvDetail::None);
        cb_span!(self, kind, {
            {
                let mut cx = Ctx { st: &mut self.st };
                job(&mut cx);
            }
            let cost = self.st.cb_cost();
            self.st.now += cost;
            self.drain_micro();
        });
        self.st.current = prev;
    }

    fn run_traced_repeat(
        &mut self,
        kind: CbKind,
        cb: RepeatCb,
        cause: Option<CbId>,
        detail: EvDetail,
    ) {
        self.st.trace.record(kind);
        let prev = self.st.current;
        self.begin_event(EvKind::Cb(kind), cause, None, detail);
        cb_span!(self, kind, {
            {
                let mut cx = Ctx { st: &mut self.st };
                (cb.borrow_mut())(&mut cx);
            }
            let cost = self.st.cb_cost();
            self.st.now += cost;
            self.drain_micro();
        });
        self.st.current = prev;
    }

    fn drain_micro(&mut self) {
        let mut drained = 0usize;
        while let Some(job) = self.st.micro.pop_front() {
            {
                let mut cx = Ctx { st: &mut self.st };
                job(&mut cx);
            }
            drained += 1;
            if drained > self.st.cfg.microtask_limit {
                let at = self.st.now;
                self.st.errors.push(AppError {
                    at,
                    code: "microtask-storm".into(),
                    message: format!("more than {} microtasks drained", drained),
                    fatal: true,
                });
                self.st.stopped = true;
                self.st.micro.clear();
                return;
            }
            if self.st.stopped {
                return;
            }
        }
    }

    fn timer_phase(&mut self) {
        loop {
            if self.st.stopped {
                return;
            }
            let Some(entry) = self.st.timers.pop_due(self.st.now) else {
                return;
            };
            match self.sched.on_timer() {
                TimerVerdict::Run => {
                    let cb = entry.cb.clone();
                    let detail = EvDetail::Timer {
                        deadline: entry.deadline,
                        seq: entry.seq,
                    };
                    let cause = self
                        .st
                        .events
                        .as_ref()
                        .and_then(|h| h.0.borrow().timer_cause(entry.id.0));
                    if let Some(period) = entry.period {
                        let next = self.st.now + period;
                        self.st.timers.reinsert(entry, next);
                    }
                    self.run_traced_repeat(CbKind::Timer, cb, cause, detail);
                }
                TimerVerdict::Defer { delay } => {
                    // Short-circuit: put the timer back untouched (keeping
                    // its seq via reinsert_deferred) and stop timer
                    // processing for this iteration, injecting the delay.
                    let deadline = entry.deadline;
                    self.st.timers.reinsert_deferred(entry, deadline);
                    self.st.now += delay;
                    return;
                }
            }
        }
    }

    fn pending_phase(&mut self) {
        let n = self.st.pending.len();
        for _ in 0..n {
            if self.st.stopped {
                return;
            }
            let Some((job, cause)) = self.st.pending.pop_front() else {
                return;
            };
            self.run_traced_job(CbKind::Pending, job, cause);
        }
    }

    fn check_phase(&mut self) {
        // Snapshot: immediates queued during the check phase run on the next
        // iteration (Node.js `setImmediate` semantics).
        let n = self.st.immediates.len();
        for _ in 0..n {
            if self.st.stopped {
                return;
            }
            let Some((job, cause)) = self.st.immediates.pop_front() else {
                return;
            };
            self.run_traced_job(CbKind::Check, job, cause);
        }
    }

    fn repeat_phase(&mut self, kind: CbKind) {
        let set = match kind {
            CbKind::Idle => &self.st.idle,
            CbKind::Prepare => &self.st.prepare,
            CbKind::Check => &self.st.check,
            _ => unreachable!("repeat_phase called with {kind:?}"),
        };
        // The phase runs the set as of phase entry, so an empty set means
        // nothing runs: handles added later wait for the next iteration.
        if set.active() == 0 {
            return;
        }
        // Snapshot into the reusable scratch: callbacks may add or remove
        // handles mid-phase.
        let mut handles = std::mem::take(&mut self.st.repeat_scratch);
        handles.clear();
        set.snapshot_into(&mut handles);
        for (cb, cause) in handles.drain(..) {
            if self.st.stopped {
                break;
            }
            self.run_traced_repeat(kind, cb, cause, EvDetail::None);
        }
        handles.clear();
        self.st.repeat_scratch = handles;
    }

    fn close_phase(&mut self) {
        let n = self.st.closing.len();
        for _ in 0..n {
            if self.st.stopped {
                return;
            }
            let Some((job, cause)) = self.st.closing.pop_front() else {
                return;
            };
            if self.sched.defer_close() {
                self.st.closing.push_back((job, cause));
                continue;
            }
            self.run_traced_job(CbKind::Close, job, cause);
        }
    }

    /// Delivers every environment event due at or before the current time.
    ///
    /// Profiled as [`Phase::Demux`]; note it runs nested inside the poll
    /// phase, so its time is a subset of the poll profile's.
    fn drain_env(&mut self) {
        phased!(self, Demux, {
            while let Some(entry) = self.st.env.pop_due(self.st.now) {
                debug_assert!(entry.at <= self.st.now);
                match entry.action {
                    EnvAction::TaskFinish(id) => self.finish_task(id),
                    EnvAction::PoolWakeup => { /* pump below */ }
                    EnvAction::Custom(job, cause) => self.run_env(cause, job),
                    EnvAction::Wake(target, token, cause) => {
                        self.run_env(cause, |cx| target.wake(cx, token));
                    }
                }
            }
            self.pump_pool();
        });
    }

    /// Runs one environment effect as an `Env` event caused by the
    /// callback that scheduled it.
    fn run_env(&mut self, cause: Option<CbId>, effect: impl FnOnce(&mut Ctx<'_>)) {
        let prev = self.st.current;
        self.begin_event(EvKind::Env, cause, None, EvDetail::None);
        effect(&mut Ctx { st: &mut self.st });
        self.st.current = prev;
    }

    /// Executes a finished task's body and stages its done callback.
    fn finish_task(&mut self, id: TaskId) {
        let Some(task) = self.st.pool.take_running(id) else {
            return;
        };
        let RunningTask {
            id,
            work,
            done,
            demux_fd,
            ..
        } = task;
        self.st.trace.record(CbKind::PoolTask);
        let prev = self.st.current;
        if self.st.events.is_some() {
            let cause = self
                .st
                .events
                .as_ref()
                .and_then(|h| h.0.borrow().task_submit(id.0));
            self.begin_event(
                EvKind::Cb(CbKind::PoolTask),
                cause,
                None,
                EvDetail::Task(id.0),
            );
            if let Some(h) = &self.st.events {
                h.0.borrow_mut().set_task_event(id.0, self.st.current);
            }
        }
        let result;
        cb_span!(self, CbKind::PoolTask, {
            let mut wcx = WorkCtx {
                now: self.st.now,
                rng: &mut self.st.pool.rng,
            };
            result = work(&mut wcx);
        });
        self.st.current = prev;
        self.st.pool.stats.executed += 1;
        let completed = CompletedTask { id, done, result };
        match demux_fd {
            Some(fd) => {
                // De-multiplexed: private descriptor per task (§4.3.3).
                if self.st.poll.is_open(fd) {
                    self.st.pool.put_done_demux(fd, completed);
                    let now = self.st.now;
                    let _ = self.st.poll.mark_ready(fd, now);
                }
            }
            None => {
                // Multiplexed: shared descriptor, drained in one event.
                self.st.pool.done_mux.push_back(completed);
                let fd = self.ensure_pool_fd();
                if !self.st.pool.pool_fd_armed {
                    self.st.pool.pool_fd_armed = true;
                    let now = self.st.now;
                    let _ = self.st.poll.mark_ready(fd, now);
                }
            }
        }
    }

    fn ensure_pool_fd(&mut self) -> Fd {
        if let Some(fd) = self.st.pool.pool_fd {
            return fd;
        }
        let fd = self
            .st
            .poll
            .alloc(FdKind::PoolDone)
            .expect("descriptor limit too low for the worker pool descriptor");
        // The shared pool descriptor never keeps the loop alive by itself.
        let _ = self.st.poll.set_refd(fd, false);
        self.st.pool.pool_fd = Some(fd);
        fd
    }

    /// Starts queued tasks according to the pool mode.
    fn pump_pool(&mut self) {
        match self.pool_mode {
            PoolMode::Concurrent { workers } => {
                while self.st.pool.running.len() < workers && !self.st.pool.queue.is_empty() {
                    self.start_task(0);
                }
            }
            PoolMode::Serialized {
                lookahead,
                max_delay,
            } => {
                if !self.st.pool.running.is_empty() {
                    return;
                }
                if self.st.pool.queue.is_empty() {
                    self.st.pool.wait_since = None;
                    return;
                }
                let filled = self.st.pool.queue.len() >= lookahead;
                if !filled {
                    let since = *self.st.pool.wait_since.get_or_insert(self.st.now);
                    let deadline = since + max_delay;
                    if self.st.now < deadline {
                        self.st.env.schedule(deadline, EnvAction::PoolWakeup);
                        return;
                    }
                }
                self.st.pool.wait_since = None;
                let window = lookahead.min(self.st.pool.queue.len()).max(1);
                let idx = self.sched.pick_task(window);
                debug_assert!(idx < window);
                self.start_task(idx.min(self.st.pool.queue.len() - 1));
            }
        }
    }

    fn start_task(&mut self, idx: usize) {
        let Some(task) = self.st.pool.queue.remove(idx) else {
            return;
        };
        let cost = self.st.pool.rng.jitter(task.cost, self.st.pool.cost_jitter);
        let finish = self.st.now + cost;
        self.st.env.schedule(finish, EnvAction::TaskFinish(task.id));
        self.st.pool.running.push(RunningTask {
            id: task.id,
            work: task.work,
            done: task.done,
            demux_fd: task.demux_fd,
            finish,
        });
    }

    fn poll_phase(&mut self) {
        self.drain_env();
        // Block (advance virtual time) only when nothing is ready and no
        // other phase has queued work; an active idle handle forces a
        // zero-timeout poll, as in libuv.
        let can_block = !self.st.poll.has_pending()
            && self.st.idle.active() == 0
            && self.st.micro.is_empty()
            && self.st.pending.is_empty()
            && self.st.immediates.is_empty()
            && self.st.closing.is_empty();
        if can_block {
            self.advance_to_next_wakeup();
            // If nothing became ready and no future wakeup exists, the loop
            // would block in epoll forever: report a hang instead of
            // spinning.
            if !self.st.poll.has_pending()
                && self.st.env.is_empty()
                && self.st.timers.len() == 0
                && !self.st.pool.busy()
                && self.st.micro.is_empty()
                && self.st.pending.is_empty()
                && self.st.immediates.is_empty()
                && self.st.closing.is_empty()
                && self.st.idle.active() == 0
                && self.st.prepare.active() == 0
                && self.st.check.active() == 0
            {
                self.st.hung = true;
                return;
            }
        }
        if self.st.stopped {
            return;
        }
        let mut list = std::mem::take(&mut self.st.ready_scratch);
        list.clear();
        self.st.poll.drain_ready_into(&mut list);
        if list.len() > 1 {
            self.sched.shuffle_ready(&mut list);
        }
        for entry in list.drain(..) {
            if self.st.stopped {
                break;
            }
            if !self.st.poll.is_open(entry.fd) {
                continue;
            }
            if self.sched.defer_ready(&entry) {
                self.st.poll.defer(entry);
                continue;
            }
            self.dispatch_fd(entry.fd);
            self.drain_env();
        }
        list.clear();
        self.st.ready_scratch = list;
    }

    /// Advances virtual time to the next environment event or timer
    /// deadline, delivering environment events until something is ready.
    fn advance_to_next_wakeup(&mut self) {
        loop {
            if self.st.poll.has_pending() || self.st.stopped {
                return;
            }
            let te = self.st.env.next_time();
            let td = self.st.timers.next_deadline();
            match (te, td) {
                (None, None) => return,
                (Some(te), Some(td)) if td < te => {
                    self.st.now = self.st.now.max(td);
                    return;
                }
                (Some(te), _) => {
                    self.st.now = self.st.now.max(te);
                    self.drain_env();
                }
                (None, Some(td)) => {
                    self.st.now = self.st.now.max(td);
                    return;
                }
            }
            if self.st.now > self.st.cfg.max_vtime {
                return;
            }
        }
    }

    fn dispatch_fd(&mut self, fd: Fd) {
        match self.st.poll.fd_kind(fd) {
            Some(FdKind::PoolDone) => {
                // Drain the multiplexed done queue back-to-back: this is the
                // atomicity the fuzzer's de-multiplexing breaks (§4.3.1).
                self.st.pool.pool_fd_armed = false;
                while let Some(task) = self.st.pool.done_mux.pop_front() {
                    if self.st.stopped {
                        return;
                    }
                    self.run_done(task);
                }
            }
            Some(FdKind::TaskDone) => {
                if let Some(task) = self.st.pool.take_done_demux(fd) {
                    let _ = self.st.poll.close(fd);
                    self.run_done(task);
                }
            }
            _ => {
                let kind = self.st.poll.event_kind(fd);
                if let Some(cb) = self.st.poll.watcher_cb(fd) {
                    self.st.trace.record(kind);
                    let prev = self.st.current;
                    if let Some(h) = &self.st.events {
                        // Primary cause: whoever produced this readiness
                        // (FIFO per fd — one mark is one dispatch).
                        // Secondary: whoever registered the watcher, so
                        // "accept before anything else on this fd" is an
                        // HB edge the analyzer can rely on.
                        let (cause, reg) = {
                            let mut log = h.0.borrow_mut();
                            (log.pop_fd_ready(fd.0), log.fd_reg(fd.0))
                        };
                        self.begin_event(EvKind::Cb(kind), cause, reg, EvDetail::Fd(fd.0));
                    }
                    cb_span!(self, kind, {
                        {
                            let mut cx = Ctx { st: &mut self.st };
                            (cb.borrow_mut())(&mut cx, fd);
                        }
                        let cost = self.st.cb_cost();
                        self.st.now += cost;
                        self.drain_micro();
                    });
                    self.st.current = prev;
                }
            }
        }
    }

    fn run_done(&mut self, task: CompletedTask) {
        self.st.pool.stats.completed += 1;
        self.st.trace.record(CbKind::PoolDone);
        let prev = self.st.current;
        if self.st.events.is_some() {
            let cause = self
                .st
                .events
                .as_ref()
                .and_then(|h| h.0.borrow().task_event(task.id.0));
            self.begin_event(
                EvKind::Cb(CbKind::PoolDone),
                cause,
                None,
                EvDetail::Task(task.id.0),
            );
        }
        cb_span!(self, CbKind::PoolDone, {
            {
                let mut cx = Ctx { st: &mut self.st };
                (task.done)(&mut cx, task.result);
            }
            let cost = self.st.cb_cost();
            self.st.now += cost;
            self.drain_micro();
        });
        self.st.current = prev;
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            home.put_from(&mut self.st);
        }
    }
}
