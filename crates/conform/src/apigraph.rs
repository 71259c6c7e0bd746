//! API-graph program generation (RULF-style) for the conform harness.
//!
//! [`generate`] is a pure function of its seed: the same seed always
//! yields the same [`Prog`], which is what lets a campaign regenerate the
//! program from a finding's environment seed at replay time. It models
//! the public runtime surface as an explicit **API dependency graph**:
//! each node is one public call (a handle constructor, a
//! state-transforming member op, or a combinator entry point) declaring
//! which resource types it consumes and produces and the validity
//! constraint it lives under. Programs are generated by walking
//! producer→consumer edges, so every emitted [`Prog`] is valid *by
//! construction* — a member call can only appear downstream of the
//! constructor that produced its resource.
//!
//! Following Scheduzz, generation separates **setup** from **exercise**:
//! the first half of the node budget is a dependency-ordered construction
//! backbone carrying no shared-state accesses (registration order alone
//! pins it), while the second half is the schedule-sensitive payload
//! whose shared-site touches the fuzzer perturbs. The oracle's per-op
//! rules (`interval-ticks`, `barrier-gate`, `series-order`, `emit-order`,
//! `client-order`) then judge every combinator the graph reaches.
//!
//! Graph nodes group into *bundles* keyed by [`Op::name`]: one Prog op
//! exercises every call of its bundle (e.g. an [`Op::Kv`] node performs
//! `Kv::connect`, `set`, `get`, and `del`), so node coverage is a pure
//! function of which bundles a batch generated. [`ApiGraph::validate`]
//! checks resource closure — drop a producer (see
//! [`ApiGraph::without`]) and generation refuses to run, which the CI
//! canary relies on.

use nodefz_check::Gen;
use nodefz_rt::AccessKind;

use crate::prog::{Node, Op, Prog, Touch, SHARED_SITES};

/// Maximum nodes per generated program (including the root).
const MAX_NODES: usize = 12;
/// Maximum tree depth (root = depth 0).
const MAX_DEPTH: usize = 4;

/// Resource types flowing along producer→consumer edges. `DispatchCtx`
/// is ambient — every callback body provides one — so it never forms an
/// edge; everything else must be produced by a same-bundle constructor
/// before a member may consume it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resource {
    /// A live `&mut Ctx` callback scope; the loop itself provides it.
    DispatchCtx,
    /// An allocated but not yet registered descriptor.
    RawFd,
    /// A descriptor with a readiness watcher attached.
    RegisteredFd,
    /// An armed repeating timer handle (clearable).
    IntervalHandle,
    /// A barrier still awaiting arrivals.
    BarrierGate,
    /// A waterfall continuation token.
    SeriesToken,
    /// A constructed event emitter.
    EmitterHandle,
    /// A registered listener's identity.
    ListenerId,
    /// A connected key-value client.
    KvClient,
    /// A mounted simulated filesystem.
    FsHandle,
    /// A submitted worker-pool task awaiting completion.
    PoolTicket,
}

/// One public API call in the dependency graph.
#[derive(Clone, Copy, Debug)]
pub struct ApiNode {
    /// Qualified call name, e.g. `"Kv::connect"`.
    pub name: &'static str,
    /// The [`Op::name`] of the Prog op bundle that exercises this call.
    pub bundle: &'static str,
    /// Whether this call heads its bundle (the constructor/scheduler the
    /// generator emits as a Prog node; members ride inside it).
    pub head: bool,
    /// Resource types this call requires.
    pub consumes: &'static [Resource],
    /// Resource types this call makes available downstream.
    pub produces: &'static [Resource],
    /// The validity constraint the generator honours for this call.
    pub constraint: &'static str,
}

const CTX: &[Resource] = &[Resource::DispatchCtx];

macro_rules! api {
    ($name:literal, $bundle:literal, $head:literal, $consumes:expr, $produces:expr, $constraint:literal) => {
        ApiNode {
            name: $name,
            bundle: $bundle,
            head: $head,
            consumes: $consumes,
            produces: $produces,
            constraint: $constraint,
        }
    };
}

/// The enumerated public runtime surface: timers, microtasks, phase
/// queues, the worker pool, fd I/O, every combinator in
/// `crates/rt/src/combinators.rs`, and the kv/fs clients.
pub const API_NODES: &[ApiNode] = &[
    // -- one-shot schedulers ------------------------------------------------
    api!("Ctx::set_timeout", "timer", true, CTX, &[], "delay >= 0"),
    api!(
        "Ctx::next_tick",
        "nexttick",
        true,
        CTX,
        &[],
        "runs inside the spawning event"
    ),
    api!(
        "Ctx::set_immediate",
        "immediate",
        true,
        CTX,
        &[],
        "snapshot check-phase semantics"
    ),
    api!(
        "Ctx::defer_pending",
        "pending",
        true,
        CTX,
        &[],
        "pending phase only"
    ),
    api!(
        "Ctx::enqueue_close",
        "close",
        true,
        CTX,
        &[],
        "close phase runs last"
    ),
    api!(
        "Ctx::submit_work",
        "pool",
        true,
        CTX,
        &[Resource::PoolTicket],
        "done callback after task execution"
    ),
    // -- fd lifecycle -------------------------------------------------------
    api!(
        "Ctx::alloc_fd",
        "fdchain",
        true,
        CTX,
        &[Resource::RawFd],
        "fails EMFILE at the descriptor limit"
    ),
    api!(
        "Ctx::register_watcher",
        "fdchain",
        false,
        &[Resource::DispatchCtx, Resource::RawFd],
        &[Resource::RegisteredFd],
        "fd must be allocated and unregistered"
    ),
    api!(
        "Ctx::schedule_env",
        "fdchain",
        false,
        CTX,
        &[],
        "environment writes arrive via the poll phase"
    ),
    api!(
        "Ctx::mark_ready",
        "fdchain",
        false,
        &[Resource::DispatchCtx, Resource::RegisteredFd],
        &[],
        "fd must be registered before readiness"
    ),
    api!(
        "Ctx::close_fd",
        "fdchain",
        false,
        &[Resource::DispatchCtx, Resource::RegisteredFd],
        &[],
        "no read and no double-close after close"
    ),
    // -- repeating timers ---------------------------------------------------
    api!(
        "Ctx::set_interval",
        "interval",
        true,
        CTX,
        &[Resource::IntervalHandle],
        "period > 0; ticks fire in deadline order"
    ),
    api!(
        "Ctx::clear_timer",
        "interval",
        false,
        &[Resource::DispatchCtx, Resource::IntervalHandle],
        &[],
        "no tick may fire after its clear"
    ),
    // -- combinators (crates/rt/src/combinators.rs) -------------------------
    api!(
        "Barrier::new",
        "barrier",
        true,
        CTX,
        &[Resource::BarrierGate],
        "parties >= 1"
    ),
    api!(
        "Barrier::arrive",
        "barrier",
        false,
        &[Resource::DispatchCtx, Resource::BarrierGate],
        &[],
        "at most `parties` arrivals; last runs the body synchronously"
    ),
    api!(
        "Barrier::remaining",
        "barrier",
        false,
        &[Resource::BarrierGate],
        &[],
        "nonzero before every arrival"
    ),
    api!(
        "rt::series",
        "series",
        true,
        CTX,
        &[Resource::SeriesToken],
        "steps >= 1, run in continuation order"
    ),
    api!(
        "SeriesNext::call",
        "series",
        false,
        &[Resource::DispatchCtx, Resource::SeriesToken],
        &[],
        "consumed once per step"
    ),
    api!(
        "Emitter::new",
        "emitter",
        true,
        CTX,
        &[Resource::EmitterHandle],
        "listeners dispatch in registration order"
    ),
    api!(
        "Emitter::on",
        "emitter",
        false,
        &[Resource::EmitterHandle],
        &[Resource::ListenerId],
        "persistent across emits"
    ),
    api!(
        "Emitter::once",
        "emitter",
        false,
        &[Resource::EmitterHandle],
        &[Resource::ListenerId],
        "auto-removed after first dispatch"
    ),
    api!(
        "Emitter::remove_listener",
        "emitter",
        false,
        &[Resource::EmitterHandle, Resource::ListenerId],
        &[],
        "removed listeners never dispatch"
    ),
    api!(
        "Emitter::listener_count",
        "emitter",
        false,
        &[Resource::EmitterHandle],
        &[],
        "counts live listeners only"
    ),
    api!(
        "Emitter::emit",
        "emitter",
        false,
        &[Resource::DispatchCtx, Resource::EmitterHandle],
        &[],
        "synchronous, registration-ordered dispatch"
    ),
    // -- clients ------------------------------------------------------------
    api!(
        "Kv::connect",
        "kv",
        true,
        CTX,
        &[Resource::KvClient],
        "fails EMFILE at the descriptor limit"
    ),
    api!(
        "Kv::set",
        "kv",
        false,
        &[Resource::DispatchCtx, Resource::KvClient],
        &[],
        "reply carries the stored value"
    ),
    api!(
        "Kv::get",
        "kv",
        false,
        &[Resource::DispatchCtx, Resource::KvClient],
        &[],
        "observes the latest completed set"
    ),
    api!(
        "Kv::del",
        "kv",
        false,
        &[Resource::DispatchCtx, Resource::KvClient],
        &[],
        "reports whether the key existed"
    ),
    api!(
        "SimFs::new",
        "fs",
        true,
        CTX,
        &[Resource::FsHandle],
        "fresh empty filesystem"
    ),
    api!(
        "SimFs::write_file",
        "fs",
        false,
        &[Resource::DispatchCtx, Resource::FsHandle],
        &[],
        "completion on the worker pool"
    ),
    api!(
        "SimFs::read_file",
        "fs",
        false,
        &[Resource::DispatchCtx, Resource::FsHandle],
        &[],
        "no read of an unwritten path"
    ),
];

/// The API dependency graph: a node set plus derived producer→consumer
/// edges. Owns its nodes so tests can build damaged variants.
#[derive(Clone, Debug)]
pub struct ApiGraph {
    /// The enumerated API nodes, in declaration order.
    pub nodes: Vec<ApiNode>,
}

impl ApiGraph {
    /// The complete enumerated surface.
    pub fn full() -> ApiGraph {
        ApiGraph {
            nodes: API_NODES.to_vec(),
        }
    }

    /// A copy with one node dropped — the broken-graph canary: removing
    /// a producer orphans its consumers and [`ApiGraph::validate`]
    /// rejects the graph.
    pub fn without(&self, name: &str) -> ApiGraph {
        ApiGraph {
            nodes: self
                .nodes
                .iter()
                .filter(|n| n.name != name)
                .copied()
                .collect(),
        }
    }

    /// Bundle heads in declaration order — the ops the generator emits.
    pub fn heads(&self) -> Vec<&ApiNode> {
        self.nodes.iter().filter(|n| n.head).collect()
    }

    /// Producer→consumer edges, derived from resource flow: `(p, c)`
    /// whenever `p` produces a non-ambient resource `c` consumes within
    /// the same bundle.
    pub fn edges(&self) -> Vec<(&'static str, &'static str)> {
        let mut out = Vec::new();
        for c in &self.nodes {
            for &r in c.consumes {
                if r == Resource::DispatchCtx {
                    continue;
                }
                for p in &self.nodes {
                    if p.bundle == c.bundle && p.name != c.name && p.produces.contains(&r) {
                        out.push((p.name, c.name));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Checks resource closure: every non-ambient consumed resource has
    /// a same-bundle producer, and every bundle has exactly one head.
    pub fn validate(&self) -> Result<(), String> {
        for c in &self.nodes {
            for &r in c.consumes {
                if r == Resource::DispatchCtx {
                    continue;
                }
                let produced = self
                    .nodes
                    .iter()
                    .any(|p| p.bundle == c.bundle && p.name != c.name && p.produces.contains(&r));
                if !produced {
                    return Err(format!(
                        "api graph not closed: {} consumes {r:?} but no producer \
                         exists in bundle {}",
                        c.name, c.bundle
                    ));
                }
            }
        }
        let mut bundles: Vec<&str> = self.nodes.iter().map(|n| n.bundle).collect();
        bundles.sort_unstable();
        bundles.dedup();
        for b in bundles {
            let heads = self
                .nodes
                .iter()
                .filter(|n| n.bundle == b && n.head)
                .count();
            if heads != 1 {
                return Err(format!("bundle {b} has {heads} heads, expected exactly 1"));
            }
        }
        Ok(())
    }
}

/// The base the conformance program stream is drawn from. Its value
/// (3 × 0x6C62_272E_07BB_0142) is the one the frozen `nodefz-apicov-v1`
/// golden and the measured sweeps were taken under.
const STREAM_BASE: u64 = 0x4526_758A_1731_03C6;

/// The `i`-th seed of the conformance program stream: the one seed
/// sequence every conformance sweep walks (the differential acceptance
/// run, the oracle properties and the apicov golden), so the first `N`
/// programs of any of them are the same programs.
pub fn stream_seed(i: u64) -> u64 {
    STREAM_BASE ^ i
}

/// Generates the program for `seed` over the full API surface.
/// Deterministic; always yields a [`Prog::validate`]-clean tree with at
/// least one non-root node.
pub fn generate(seed: u64) -> Prog {
    generate_with(&ApiGraph::full(), seed).expect("the full API graph is closed")
}

/// Generates a program by traversing `graph` — refusing to generate at
/// all when the graph is not closed, so a damaged graph fails loudly
/// instead of silently narrowing coverage.
///
/// Deterministic in `(graph, seed)`. A swarm mask over bundle heads
/// picks the enabled surface; the tree then grows breadth-first along
/// producer→consumer edges, with the Scheduzz split: the first half of
/// the budget is the untouched setup backbone, the rest the
/// shared-site-touching exercise payload.
pub fn generate_with(graph: &ApiGraph, seed: u64) -> Result<Prog, String> {
    graph.validate()?;
    let heads = graph.heads();
    if heads.is_empty() {
        return Err("api graph has no bundle heads".to_string());
    }
    let mut g = Gen::new(seed ^ 0xA919_7A0B_5EED_C0DE);
    // Swarm mask over bundle heads: nonzero, so at least one op bundle
    // is available; programs that omit whole bundles reach corners a
    // uniform mix never does.
    let mask = g.range(1, 1u64 << heads.len());
    let enabled: Vec<&ApiNode> = heads
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1u64 << i) != 0)
        .map(|(_, n)| *n)
        .collect();
    let budget = g.range_usize(2, MAX_NODES + 1);
    // Scheduzz dual scheduling: nodes below `setup` form the
    // dependency-ordered construction backbone (no shared-state
    // accesses); later nodes are the schedule-sensitive payload.
    let setup = (budget / 2).max(1);
    let mut nodes = vec![Node {
        op: Op::Root,
        children: Vec::new(),
        touches: Vec::new(),
    }];
    let mut frontier = vec![(0u32, 0usize)];
    while nodes.len() < budget && !frontier.is_empty() {
        let slot = g.below(frontier.len() as u64) as usize;
        let (parent, depth) = frontier[slot];
        let id = nodes.len() as u32;
        let head = *g.pick(&enabled);
        nodes.push(Node {
            op: op_instance(&mut g, head.bundle),
            children: Vec::new(),
            touches: if (id as usize) < setup {
                Vec::new()
            } else {
                exercise_touches(&mut g)
            },
        });
        nodes[parent as usize].children.push(id);
        if depth + 1 < MAX_DEPTH {
            frontier.push((id, depth + 1));
        }
        if nodes[parent as usize].children.len() >= 3 {
            frontier.swap_remove(slot);
        }
    }
    let prog = Prog { nodes };
    prog.validate()
        .map_err(|e| format!("api-graph generator emitted an invalid program: {e}"))?;
    Ok(prog)
}

/// Instantiates the Prog op for a bundle head, drawing parameters inside
/// the bundle's validity constraints.
fn op_instance(g: &mut Gen, bundle: &str) -> Op {
    match bundle {
        "timer" => Op::Timer {
            delay_us: g.range(0, 5_000) as u32,
        },
        "nexttick" => Op::NextTick,
        "immediate" => Op::Immediate,
        "pending" => Op::Pending,
        "close" => Op::Close,
        "pool" => Op::Pool {
            cost_us: g.range(1, 2_000) as u32,
        },
        "fdchain" => Op::FdChain {
            msgs: g.range(1, 4) as u8,
            gap_us: g.range(10, 500) as u32,
        },
        "interval" => Op::Interval {
            period_us: g.range(50, 2_000) as u32,
            ticks: g.range(1, 5) as u8,
        },
        "barrier" => Op::Barrier {
            parties: g.range(1, 5) as u8,
        },
        "series" => Op::Series {
            steps: g.range(1, 5) as u8,
        },
        "emitter" => Op::Emitter {
            listeners: g.range(0, 4) as u8,
        },
        "kv" => Op::Kv,
        "fs" => Op::Fs,
        other => unreachable!("unknown bundle {other}"),
    }
}

/// Exercise-payload touches: always at least one shared-site access, so
/// every payload node is schedule-sensitive.
fn exercise_touches(g: &mut Gen) -> Vec<Touch> {
    let n = g.range_usize(1, 4);
    (0..n)
        .map(|_| Touch {
            site: g.below(SHARED_SITES as u64) as u8,
            kind: *g.pick(&[AccessKind::Read, AccessKind::Write, AccessKind::Update]),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_graph_is_closed() {
        ApiGraph::full().validate().unwrap();
        assert!(
            API_NODES.len() >= 25,
            "surface too small: {}",
            API_NODES.len()
        );
        assert_eq!(ApiGraph::full().heads().len(), 13);
        assert!(ApiGraph::full().edges().len() >= 15);
    }

    #[test]
    fn dropping_a_producer_breaks_closure() {
        for producer in [
            "Ctx::set_interval",
            "Kv::connect",
            "Barrier::new",
            "Ctx::alloc_fd",
        ] {
            let damaged = ApiGraph::full().without(producer);
            assert!(
                damaged.validate().is_err(),
                "{producer} drop went unnoticed"
            );
            assert!(generate_with(&damaged, 1).is_err());
        }
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in 0..200 {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            a.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(a.nodes.len() >= 2);
        }
    }

    #[test]
    fn setup_backbone_carries_no_touches() {
        // The Scheduzz split: the first half of every program is pure
        // construction.
        for seed in 0..100 {
            let prog = generate(seed);
            let setup = (prog.nodes.len() / 2).max(1);
            for node in &prog.nodes[..setup] {
                assert!(
                    node.touches.is_empty(),
                    "seed {seed}: setup node touched state"
                );
            }
        }
    }
}
