//! The generated-program DSL.
//!
//! A [`Prog`] is a tree of event-driven operations — timers, microtasks,
//! immediates, pending callbacks, close callbacks, worker-pool tasks, and
//! fd read chains — flattened into an arena where node `0` is the root
//! (the program's registration code). Installing a program into an event
//! loop registers the root's children; each node's callback, when
//! dispatched, leaves a *marker* shared-site access (`run:<id>`) the
//! ordering oracle uses to identify which dispatch ran which node, then
//! performs its generated shared-site touches and spawns its children.
//!
//! Programs print as (and parse from) a `nodefz-prog v1` text literal, so
//! a shrunk failing program is a copy-pasteable repro.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use nodefz_fs::SimFs;
use nodefz_kv::Kv;
use nodefz_rt::{
    series, AccessKind, Barrier, Ctx, Emitter, EventLoop, FdKind, SeriesNext, SeriesStep, TimerId,
    VDur,
};

/// Number of distinct generated shared sites (`s0` … `s3`).
pub const SHARED_SITES: u8 = 4;

/// One generated shared-site access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Touch {
    /// Site index in `0..SHARED_SITES` (site name `s<idx>`).
    pub site: u8,
    /// Access kind.
    pub kind: AccessKind,
}

/// What a node does when it runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// The program's registration code (node `0` only); runs during the
    /// synthetic `Setup` event.
    Root,
    /// `setTimeout(delay)`.
    Timer {
        /// Timer delay in virtual microseconds.
        delay_us: u32,
    },
    /// `process.nextTick` — a microtask absorbed into its parent's event.
    NextTick,
    /// `setImmediate` — a check-phase callback.
    Immediate,
    /// A pending-phase callback (`defer_pending`).
    Pending,
    /// A close callback (`enqueue_close`).
    Close,
    /// A worker-pool task (`uv_queue_work`); the node body runs in the
    /// *done* callback on the loop.
    Pool {
        /// Nominal task cost in virtual microseconds.
        cost_us: u32,
    },
    /// An fd read chain: `msgs` payloads written by the environment at
    /// `gap_us` spacing, consumed FIFO by a watcher; the node body runs
    /// after the last payload, then the fd is closed.
    FdChain {
        /// Number of payload messages (≥ 1, ≤ 9).
        msgs: u8,
        /// Virtual-microsecond spacing between payload writes.
        gap_us: u32,
    },
    /// `setInterval(period)`: fires `ticks` times, each tick leaving a
    /// `tick:<id>:<k>` marker; the last tick clears the interval (no
    /// fire-after-clear) and runs the node body.
    Interval {
        /// Interval period in virtual microseconds.
        period_us: u32,
        /// Number of ticks before the interval is cleared (≥ 1, ≤ 9).
        ticks: u8,
    },
    /// A [`Barrier`] over `parties` timer arrivals at distinct deadlines
    /// (each leaving an `arr:<id>:<k>` marker); the completion callback —
    /// run synchronously by the last arrival — is the node body.
    Barrier {
        /// Arrivals the barrier awaits (≥ 1, ≤ 9).
        parties: u8,
    },
    /// A [`series`] of `steps` timer-hop steps, each leaving a
    /// `step:<id>:<k>` marker and advancing via its `next` continuation;
    /// the final step runs the node body.
    Series {
        /// Steps in the waterfall (≥ 1, ≤ 9).
        steps: u8,
    },
    /// An [`Emitter`] with `listeners` persistent listeners plus one
    /// `once` and one registered-then-removed listener; a `setImmediate`
    /// emits twice (markers `lis:<id>:<round>:<k>`) and then runs the
    /// node body synchronously after the second emit.
    Emitter {
        /// Persistent listeners registered before the `once` (≤ 9).
        listeners: u8,
    },
    /// A key-value client chain: connect, `SET`, `GET`, `DEL` — each
    /// reply leaving a `kv:<id>:<op>` marker; the node body runs in the
    /// `DEL` reply.
    Kv,
    /// A simulated-fs chain: `writeFile` then `readFile` on the worker
    /// pool (markers `fs:<id>:write` / `fs:<id>:read`); the node body
    /// runs in the read completion.
    Fs,
}

impl Op {
    /// The literal op tag, as spelled in `nodefz-prog v1` documents.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Root => "root",
            Op::Timer { .. } => "timer",
            Op::NextTick => "nexttick",
            Op::Immediate => "immediate",
            Op::Pending => "pending",
            Op::Close => "close",
            Op::Pool { .. } => "pool",
            Op::FdChain { .. } => "fdchain",
            Op::Interval { .. } => "interval",
            Op::Barrier { .. } => "barrier",
            Op::Series { .. } => "series",
            Op::Emitter { .. } => "emitter",
            Op::Kv => "kv",
            Op::Fs => "fs",
        }
    }
}

/// One node of a generated program; its id is its index in
/// [`Prog::nodes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// The operation this node performs.
    pub op: Op,
    /// Child node ids spawned when this node's callback runs. Always
    /// greater than the node's own id (the program is a forward tree).
    pub children: Vec<u32>,
    /// Generated shared-site accesses performed by this node's callback.
    pub touches: Vec<Touch>,
}

/// A generated event-driven program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prog {
    /// Arena of nodes; `nodes[0]` is the root.
    pub nodes: Vec<Node>,
}

/// Why a `nodefz-prog v1` literal failed to parse or validate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgError(pub String);

impl fmt::Display for ProgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad nodefz-prog: {}", self.0)
    }
}

impl std::error::Error for ProgError {}

impl Prog {
    /// The marker site name for a node's run.
    pub fn run_marker(id: u32) -> String {
        format!("run:{id}")
    }

    /// The marker site name for one consumed chain payload.
    pub fn msg_marker(chain: u32, payload: u8) -> String {
        format!("msg:{chain}:{payload}")
    }

    /// The marker site name for one interval tick.
    pub fn tick_marker(id: u32, tick: u8) -> String {
        format!("tick:{id}:{tick}")
    }

    /// The marker site name for one barrier arrival.
    pub fn arr_marker(id: u32, party: u8) -> String {
        format!("arr:{id}:{party}")
    }

    /// The marker site name for one series step.
    pub fn step_marker(id: u32, step: u8) -> String {
        format!("step:{id}:{step}")
    }

    /// The marker site name for one emitter listener invocation in one
    /// emit round (`tag` is the listener index, `once`, or `removed`).
    pub fn lis_marker(id: u32, round: u8, tag: &str) -> String {
        format!("lis:{id}:{round}:{tag}")
    }

    /// The marker site name for one client-chain reply (`kind` is `kv`
    /// or `fs`; `op` names the request).
    pub fn client_marker(kind: &str, id: u32, op: &str) -> String {
        format!("{kind}:{id}:{op}")
    }

    /// Checks the program is a well-formed forward tree: node `0` is the
    /// only root, every child id points forward, and every non-root node
    /// is referenced by exactly one parent.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgError`] naming the first structural defect.
    pub fn validate(&self) -> Result<(), ProgError> {
        if self.nodes.is_empty() || self.nodes[0].op != Op::Root {
            return Err(ProgError("node 0 must be the root".into()));
        }
        let mut referenced = vec![0usize; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            if id > 0 && node.op == Op::Root {
                return Err(ProgError(format!("node {id}: root op off node 0")));
            }
            match node.op {
                Op::FdChain { msgs, .. } if msgs == 0 || msgs > 9 => {
                    return Err(ProgError(format!("node {id}: msgs must be in 1..=9")));
                }
                Op::Interval { ticks, .. } if ticks == 0 || ticks > 9 => {
                    return Err(ProgError(format!("node {id}: ticks must be in 1..=9")));
                }
                Op::Barrier { parties } if parties == 0 || parties > 9 => {
                    return Err(ProgError(format!("node {id}: parties must be in 1..=9")));
                }
                Op::Series { steps } if steps == 0 || steps > 9 => {
                    return Err(ProgError(format!("node {id}: steps must be in 1..=9")));
                }
                Op::Emitter { listeners } if listeners > 9 => {
                    return Err(ProgError(format!("node {id}: listeners must be <= 9")));
                }
                _ => {}
            }
            for touch in &node.touches {
                if touch.site >= SHARED_SITES {
                    return Err(ProgError(format!("node {id}: site out of range")));
                }
            }
            for &c in &node.children {
                if c as usize >= self.nodes.len() {
                    return Err(ProgError(format!("node {id}: child {c} out of range")));
                }
                if c as usize <= id {
                    return Err(ProgError(format!("node {id}: child {c} not forward")));
                }
                referenced[c as usize] += 1;
            }
        }
        for (id, &n) in referenced.iter().enumerate().skip(1) {
            if n != 1 {
                return Err(ProgError(format!("node {id}: referenced {n} times")));
            }
        }
        Ok(())
    }

    /// Projects the program onto a subset of non-root node ids (the
    /// shrinker's candidate), dropping every node whose id is absent *or*
    /// whose parent was dropped, and renumbering the survivors densely in
    /// original-id order.
    pub fn project(&self, keep: &[u32]) -> Prog {
        let mut kept = vec![false; self.nodes.len()];
        kept[0] = true;
        let wanted: std::collections::HashSet<u32> = keep.iter().copied().collect();
        // Children point forward, so one ascending pass settles ancestry.
        for (id, node) in self.nodes.iter().enumerate() {
            if !kept[id] {
                continue;
            }
            for &c in &node.children {
                if wanted.contains(&c) {
                    kept[c as usize] = true;
                }
            }
        }
        let mut remap = vec![u32::MAX; self.nodes.len()];
        let mut nodes = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if !kept[id] {
                continue;
            }
            remap[id] = nodes.len() as u32;
            let mut copy = node.clone();
            copy.children = node
                .children
                .iter()
                .copied()
                .filter(|&c| kept[c as usize])
                .collect();
            nodes.push(copy);
        }
        for node in &mut nodes {
            for c in &mut node.children {
                *c = remap[*c as usize];
            }
        }
        Prog { nodes }
    }

    /// All non-root node ids, ascending — the shrinker's starting list.
    pub fn non_root_ids(&self) -> Vec<u32> {
        (1..self.nodes.len() as u32).collect()
    }

    /// Renders the program as its `nodefz-prog v1` literal.
    pub fn encode(&self) -> String {
        let mut out = String::from("nodefz-prog v1\n");
        for (id, node) in self.nodes.iter().enumerate() {
            out.push_str(&format!("{id} {}", node.op.name()));
            match node.op {
                Op::Timer { delay_us } => out.push_str(&format!(" delay_us={delay_us}")),
                Op::Pool { cost_us } => out.push_str(&format!(" cost_us={cost_us}")),
                Op::FdChain { msgs, gap_us } => {
                    out.push_str(&format!(" msgs={msgs} gap_us={gap_us}"));
                }
                Op::Interval { period_us, ticks } => {
                    out.push_str(&format!(" period_us={period_us} ticks={ticks}"));
                }
                Op::Barrier { parties } => out.push_str(&format!(" parties={parties}")),
                Op::Series { steps } => out.push_str(&format!(" steps={steps}")),
                Op::Emitter { listeners } => out.push_str(&format!(" listeners={listeners}")),
                _ => {}
            }
            let children: Vec<String> = node.children.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!(" children={}", children.join(",")));
            let touches: Vec<String> = node
                .touches
                .iter()
                .map(|t| {
                    let k = match t.kind {
                        AccessKind::Read => 'r',
                        AccessKind::Write => 'w',
                        AccessKind::Update => 'u',
                    };
                    format!("{k}{}", t.site)
                })
                .collect();
            out.push_str(&format!(" touches={}\n", touches.join(",")));
        }
        out.push_str("end\n");
        out
    }

    /// Parses a `nodefz-prog v1` literal back into a program and
    /// validates it.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgError`] on any malformed line or structural defect.
    pub fn parse(text: &str) -> Result<Prog, ProgError> {
        let mut lines = text.lines();
        match lines.next() {
            Some("nodefz-prog v1") => {}
            other => return Err(ProgError(format!("bad header: {other:?}"))),
        }
        let mut nodes = Vec::new();
        let mut saw_end = false;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line == "end" {
                saw_end = true;
                break;
            }
            let mut tokens = line.split_whitespace();
            let id: usize = tokens
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| ProgError(format!("bad id on line '{line}'")))?;
            if id != nodes.len() {
                return Err(ProgError(format!("node {id} out of order")));
            }
            let opname = tokens
                .next()
                .ok_or_else(|| ProgError(format!("missing op on line '{line}'")))?;
            let mut kv = std::collections::HashMap::new();
            for tok in tokens {
                let (k, v) = tok
                    .split_once('=')
                    .ok_or_else(|| ProgError(format!("bad token '{tok}'")))?;
                kv.insert(k, v);
            }
            let num = |key: &str| -> Result<u32, ProgError> {
                kv.get(key)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ProgError(format!("node {id}: missing {key}")))
            };
            // Counts stored as `u8`: out-of-range values are errors, never
            // truncated into range.
            let count = |key: &str| -> Result<u8, ProgError> {
                u8::try_from(num(key)?)
                    .map_err(|_| ProgError(format!("node {id}: {key} out of range")))
            };
            let op = match opname {
                "root" => Op::Root,
                "timer" => Op::Timer {
                    delay_us: num("delay_us")?,
                },
                "nexttick" => Op::NextTick,
                "immediate" => Op::Immediate,
                "pending" => Op::Pending,
                "close" => Op::Close,
                "pool" => Op::Pool {
                    cost_us: num("cost_us")?,
                },
                "fdchain" => Op::FdChain {
                    msgs: count("msgs")?,
                    gap_us: num("gap_us")?,
                },
                "interval" => Op::Interval {
                    period_us: num("period_us")?,
                    ticks: count("ticks")?,
                },
                "barrier" => Op::Barrier {
                    parties: count("parties")?,
                },
                "series" => Op::Series {
                    steps: count("steps")?,
                },
                "emitter" => Op::Emitter {
                    listeners: count("listeners")?,
                },
                "kv" => Op::Kv,
                "fs" => Op::Fs,
                other => return Err(ProgError(format!("unknown op '{other}'"))),
            };
            let mut children = Vec::new();
            for part in kv.get("children").copied().unwrap_or("").split(',') {
                if part.is_empty() {
                    continue;
                }
                children.push(
                    part.parse()
                        .map_err(|_| ProgError(format!("node {id}: bad child '{part}'")))?,
                );
            }
            let mut touches = Vec::new();
            for part in kv.get("touches").copied().unwrap_or("").split(',') {
                if part.is_empty() {
                    continue;
                }
                let mut chars = part.chars();
                let kind = match chars.next() {
                    Some('r') => AccessKind::Read,
                    Some('w') => AccessKind::Write,
                    Some('u') => AccessKind::Update,
                    _ => return Err(ProgError(format!("node {id}: bad touch '{part}'"))),
                };
                let site = chars.as_str();
                let site: u8 = site
                    .parse()
                    .map_err(|_| ProgError(format!("node {id}: bad touch site '{site}'")))?;
                touches.push(Touch { site, kind });
            }
            nodes.push(Node {
                op,
                children,
                touches,
            });
        }
        if !saw_end {
            return Err(ProgError("missing 'end' line".into()));
        }
        let prog = Prog { nodes };
        prog.validate()?;
        Ok(prog)
    }
}

impl fmt::Display for Prog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Installs `prog` into the loop: runs the root's body (marker, touches,
/// child registration) inside [`EventLoop::enter`], so it is attributed
/// to the synthetic `Setup` event. The program executes when the caller
/// runs the loop.
pub fn install(prog: &Rc<Prog>, el: &mut EventLoop) {
    let prog = prog.clone();
    el.enter(move |cx| run_body(cx, &prog, 0));
}

/// A node's callback body: marker access, generated touches, children.
fn run_body(cx: &mut Ctx<'_>, prog: &Rc<Prog>, id: u32) {
    cx.touch_read(&Prog::run_marker(id));
    let node = &prog.nodes[id as usize];
    for touch in &node.touches {
        let site = format!("s{}", touch.site);
        match touch.kind {
            AccessKind::Read => cx.touch_read(&site),
            AccessKind::Write => cx.touch_write(&site),
            AccessKind::Update => cx.touch_update(&site),
        }
    }
    for &c in &node.children {
        spawn_child(cx, prog, c);
    }
}

/// Registers child `c`'s operation with the loop.
fn spawn_child(cx: &mut Ctx<'_>, prog: &Rc<Prog>, c: u32) {
    let p = prog.clone();
    match prog.nodes[c as usize].op {
        Op::Root => unreachable!("validated programs keep the root at node 0"),
        Op::Timer { delay_us } => {
            cx.set_timeout(VDur::micros(delay_us as u64), move |cx| {
                run_body(cx, &p, c);
            });
        }
        Op::NextTick => cx.next_tick(move |cx| run_body(cx, &p, c)),
        Op::Immediate => cx.set_immediate(move |cx| run_body(cx, &p, c)),
        Op::Pending => cx.defer_pending(move |cx| run_body(cx, &p, c)),
        Op::Close => cx.enqueue_close(move |cx| run_body(cx, &p, c)),
        Op::Pool { cost_us } => {
            let submitted = cx.submit_work(
                VDur::micros(cost_us as u64),
                |_| (),
                move |cx, ()| run_body(cx, &p, c),
            );
            if submitted.is_err() {
                cx.report_error("conform:emfile", format!("pool node {c}: fd limit"));
            }
        }
        Op::FdChain { msgs, gap_us } => spawn_chain(cx, prog, c, msgs, gap_us),
        Op::Interval { period_us, ticks } => spawn_interval(cx, prog, c, period_us, ticks),
        Op::Barrier { parties } => spawn_barrier(cx, prog, c, parties),
        Op::Series { steps } => spawn_series(cx, prog, c, steps),
        Op::Emitter { listeners } => spawn_emitter(cx, prog, c, listeners),
        Op::Kv => spawn_kv(cx, prog, c),
        Op::Fs => spawn_fs(cx, prog, c),
    }
}

/// Arms a repeating timer that marks each tick, clears itself on tick
/// `ticks - 1` (so it can never fire after its clear), and runs the node
/// body inside that last tick's dispatch.
fn spawn_interval(cx: &mut Ctx<'_>, prog: &Rc<Prog>, c: u32, period_us: u32, ticks: u8) {
    let p = prog.clone();
    let handle: Rc<Cell<Option<TimerId>>> = Rc::new(Cell::new(None));
    let slot = handle.clone();
    let mut fired = 0u8;
    let id = cx.set_interval(VDur::micros(period_us.max(1) as u64), move |cx| {
        cx.touch_read(&Prog::tick_marker(c, fired));
        fired = fired.saturating_add(1);
        if fired >= ticks {
            if let Some(t) = slot.get() {
                cx.clear_timer(t);
            }
            run_body(cx, &p, c);
        }
    });
    handle.set(Some(id));
}

/// Arms `parties` timers at distinct deadlines, each marking its arrival
/// before entering the barrier; the completion callback — run
/// synchronously inside the last arrival's timer dispatch — is the node
/// body. Distinct deadlines keep the arrival order deterministic
/// (timer-monotone); the *interleaving* with the rest of the program is
/// what the fuzzer perturbs.
fn spawn_barrier(cx: &mut Ctx<'_>, prog: &Rc<Prog>, c: u32, parties: u8) {
    let p = prog.clone();
    let barrier = Barrier::new(parties as usize, move |cx| run_body(cx, &p, c));
    for k in 0..parties {
        let b = barrier.clone();
        cx.set_timeout(VDur::micros(120 * (k as u64 + 1)), move |cx| {
            cx.touch_read(&Prog::arr_marker(c, k));
            if b.remaining() == 0 {
                cx.report_error("conform:barrier", format!("node {c}: arrival past zero"));
            }
            b.arrive(cx);
        });
    }
}

/// Runs a `series` waterfall of timer-hop steps. Later steps get
/// *shorter* delays, so only the continuation chain — not the deadlines —
/// keeps them in order; the final step runs the node body.
fn spawn_series(cx: &mut Ctx<'_>, prog: &Rc<Prog>, c: u32, steps: u8) {
    let mut v: Vec<SeriesStep> = Vec::new();
    for k in 0..steps {
        let p = prog.clone();
        v.push(Box::new(move |cx: &mut Ctx<'_>, next: SeriesNext| {
            cx.set_timeout(VDur::micros(60 * (steps - k) as u64), move |cx| {
                cx.touch_read(&Prog::step_marker(c, k));
                if k + 1 == steps {
                    run_body(cx, &p, c);
                }
                next.call(cx);
            });
        }));
    }
    series(cx, v);
}

/// Builds an emitter with `listeners` persistent listeners, one `once`
/// listener, and one listener registered then removed; a `setImmediate`
/// emits two rounds (payload = round index) and runs the node body after
/// the second. Listener markers record the exact synchronous,
/// registration-ordered dispatch the oracle's `emit-order` rule demands;
/// the removed listener's marker must never appear.
fn spawn_emitter(cx: &mut Ctx<'_>, prog: &Rc<Prog>, c: u32, listeners: u8) {
    let p = prog.clone();
    let em: Emitter<u8> = Emitter::new();
    for k in 0..listeners {
        em.on("evt", move |cx, round: &u8| {
            cx.touch_read(&Prog::lis_marker(c, *round, &k.to_string()));
        });
    }
    em.once("evt", move |cx, round: &u8| {
        cx.touch_read(&Prog::lis_marker(c, *round, "once"));
    });
    let removed = em.on("evt", move |cx, round: &u8| {
        cx.touch_read(&Prog::lis_marker(c, *round, "removed"));
    });
    if !em.remove_listener("evt", removed) || em.listener_count("evt") != listeners as usize + 1 {
        cx.report_error(
            "conform:emitter",
            format!("node {c}: listener bookkeeping broken"),
        );
    }
    cx.set_immediate(move |cx| {
        em.emit(cx, "evt", &0);
        em.emit(cx, "evt", &1);
        run_body(cx, &p, c);
    });
}

/// Connects a single-connection kv client and chains `SET` → `GET` →
/// `DEL` on one key, marking each reply; the node body runs in the `DEL`
/// reply. Reply payloads are checked, so a store that loses the write or
/// the delete surfaces as a loop error, not a silent pass.
fn spawn_kv(cx: &mut Ctx<'_>, prog: &Rc<Prog>, c: u32) {
    let kv = match Kv::connect(cx, 1) {
        Ok(kv) => kv,
        Err(_) => {
            cx.report_error("conform:emfile", format!("kv node {c}: no descriptors"));
            return;
        }
    };
    let p = prog.clone();
    let key = format!("k{c}");
    let kv_get = kv.clone();
    let key_get = key.clone();
    kv.set(cx, &key, "v", move |cx, ()| {
        cx.touch_read(&Prog::client_marker("kv", c, "set"));
        let kv_del = kv_get.clone();
        let key_del = key_get.clone();
        kv_get.get(cx, &key_get, move |cx, reply| {
            cx.touch_read(&Prog::client_marker("kv", c, "get"));
            if reply.as_deref() != Some("v") {
                cx.report_error("conform:kv", format!("node {c}: get returned {reply:?}"));
            }
            kv_del.del(cx, &key_del, move |cx, existed| {
                cx.touch_read(&Prog::client_marker("kv", c, "del"));
                if !existed {
                    cx.report_error("conform:kv", format!("node {c}: del lost the key"));
                }
                run_body(cx, &p, c);
            });
        });
    });
}

/// Writes then reads one file on a fresh simulated fs (both legs are
/// worker-pool tasks), marking each completion; the node body runs in
/// the read completion. Contents are verified round-trip.
fn spawn_fs(cx: &mut Ctx<'_>, prog: &Rc<Prog>, c: u32) {
    let fs = SimFs::new();
    let p = prog.clone();
    let path = format!("/n{c}");
    let data = vec![c as u8; 3];
    let fs_read = fs.clone();
    let path_read = path.clone();
    let expect = data.clone();
    fs.write_file(cx, &path, data, move |cx, res| {
        cx.touch_read(&Prog::client_marker("fs", c, "write"));
        if res.is_err() {
            cx.report_error("conform:fs", format!("node {c}: write failed: {res:?}"));
            return;
        }
        fs_read.read_file(cx, &path_read, move |cx, res| {
            cx.touch_read(&Prog::client_marker("fs", c, "read"));
            if res.as_deref().ok() != Some(expect.as_slice()) {
                cx.report_error("conform:fs", format!("node {c}: read mismatch: {res:?}"));
            }
            run_body(cx, &p, c);
        });
    });
}

/// Sets up an fd read chain: a watcher consuming `msgs` payloads FIFO
/// (each consumption touches `msg:<c>:<payload>`), environment writes at
/// `gap_us` spacing, and a close after the last payload — the node body
/// runs just before the close.
fn spawn_chain(cx: &mut Ctx<'_>, prog: &Rc<Prog>, c: u32, msgs: u8, gap_us: u32) {
    let fd = match cx.alloc_fd(FdKind::NetConn) {
        Ok(fd) => fd,
        Err(_) => {
            cx.report_error("conform:emfile", format!("chain node {c}: fd limit"));
            return;
        }
    };
    let payloads: Rc<RefCell<VecDeque<u8>>> = Rc::new(RefCell::new(VecDeque::new()));
    let queue = payloads.clone();
    let p = prog.clone();
    let mut consumed = 0u8;
    let registered = cx.register_watcher(fd, move |cx, fd| {
        // An empty queue here means the runtime dispatched a readiness
        // event it was never given; the sentinel payload makes the
        // oracle's FIFO rule reject the log.
        let payload = queue.borrow_mut().pop_front().unwrap_or(u8::MAX);
        cx.touch_read(&Prog::msg_marker(c, payload));
        consumed = consumed.saturating_add(1);
        if consumed == msgs {
            run_body(cx, &p, c);
            let _ = cx.close_fd(fd);
        }
    });
    if registered.is_err() {
        cx.report_error(
            "conform:watcher",
            format!("chain node {c}: register failed"),
        );
        return;
    }
    for k in 0..msgs {
        let queue = payloads.clone();
        cx.schedule_env(VDur::micros(gap_us as u64 * (k as u64 + 1)), move |cx| {
            queue.borrow_mut().push_back(k);
            let _ = cx.mark_ready(fd);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Prog {
        Prog {
            nodes: vec![
                Node {
                    op: Op::Root,
                    children: vec![1, 2],
                    touches: vec![],
                },
                Node {
                    op: Op::Timer { delay_us: 500 },
                    children: vec![3],
                    touches: vec![Touch {
                        site: 0,
                        kind: AccessKind::Write,
                    }],
                },
                Node {
                    op: Op::FdChain {
                        msgs: 2,
                        gap_us: 90,
                    },
                    children: vec![],
                    touches: vec![Touch {
                        site: 0,
                        kind: AccessKind::Read,
                    }],
                },
                Node {
                    op: Op::NextTick,
                    children: vec![],
                    touches: vec![Touch {
                        site: 1,
                        kind: AccessKind::Update,
                    }],
                },
            ],
        }
    }

    #[test]
    fn literal_round_trips() {
        let prog = sample();
        prog.validate().unwrap();
        let text = prog.encode();
        assert!(text.starts_with("nodefz-prog v1\n"));
        let back = Prog::parse(&text).unwrap();
        assert_eq!(back, prog);
        assert_eq!(back.encode(), text, "encode is a fixed point");
    }

    #[test]
    fn parse_rejects_structural_defects() {
        let listed_257_times = format!(
            "nodefz-prog v1\n0 root children={}\n1 close\nend\n",
            vec!["1"; 257].join(",")
        );
        for bad in [
            "nodefz-prog v2\nend\n",
            "nodefz-prog v1\n0 root children=0 touches=\nend\n",
            "nodefz-prog v1\n0 root children=5 touches=\nend\n",
            "nodefz-prog v1\n0 root children= touches=\n",
            "nodefz-prog v1\n0 timer delay_us=1 children= touches=\nend\n",
            "nodefz-prog v1\n0 root children=1,1 touches=\n1 close children= touches=\nend\n",
            // A multibyte touch kind, a child count past `u8`, and counts
            // that would truncate into range (257 as u8 is 1).
            "nodefz-prog v1\n0 root touches=é1\nend\n",
            &listed_257_times,
            "nodefz-prog v1\n0 root children=1\n1 fdchain msgs=257 gap_us=1\nend\n",
            "nodefz-prog v1\n0 root children=1\n1 interval period_us=1 ticks=257\nend\n",
            "nodefz-prog v1\n0 root children=1\n1 barrier parties=257\nend\n",
            "nodefz-prog v1\n0 root children=1\n1 series steps=257\nend\n",
            "nodefz-prog v1\n0 root children=1\n1 emitter listeners=257\nend\n",
        ] {
            assert!(Prog::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn project_drops_orphaned_subtrees_and_renumbers() {
        let prog = sample();
        // Keep node 3 but not its parent 1: both must go.
        let projected = prog.project(&[2, 3]);
        projected.validate().unwrap();
        assert_eq!(projected.nodes.len(), 2);
        assert_eq!(projected.nodes[0].children, vec![1]);
        assert!(matches!(projected.nodes[1].op, Op::FdChain { .. }));
        // Keeping everything is the identity.
        assert_eq!(prog.project(&prog.non_root_ids()), prog);
        // Keeping nothing leaves just the root.
        assert_eq!(prog.project(&[]).nodes.len(), 1);
    }

    #[test]
    fn installed_program_runs_to_quiescence() {
        let prog = Rc::new(sample());
        let mut el = EventLoop::new(nodefz_rt::LoopConfig::seeded(3));
        install(&prog, &mut el);
        let report = el.run();
        assert!(matches!(
            report.termination,
            nodefz_rt::Termination::Quiescent
        ));
        assert!(report.errors.is_empty());
    }
}
