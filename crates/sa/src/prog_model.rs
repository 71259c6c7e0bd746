//! Lowering a `nodefz-prog v1` literal into a [`StaticModel`].
//!
//! The lowering mirrors the runtime's dispatch semantics exactly:
//!
//! * `nexttick` nodes are microtasks **absorbed into their parent's
//!   event**, so they are folded into the nearest non-nexttick ancestor:
//!   their touches merge into that atom and their children re-parent to
//!   it.
//! * Every other node becomes one atom; its parent is the atom whose
//!   callback registered it, which is a `cause`/`cause2` happens-before
//!   edge in every recorded run.
//! * A `pool` node's body runs in the *done* callback, an `fdchain`
//!   node's body inside the last watcher dispatch — both dispatched with
//!   the registering callback as happens-before ancestor, so plain
//!   parentage models them faithfully.

use nodefz_apps::statics::{Access, Atom, AtomKind, StaticModel};
use nodefz_conform::{Op, Prog};

/// A lowered program: the model plus the node→atom fold table the
/// soundness harness uses to map dynamic run markers back onto atoms.
pub struct ProgModel {
    /// The static model (atom 0 is the program root / setup).
    pub model: StaticModel,
    /// For each program node id, the atom its body folds into.
    pub atom_of_node: Vec<u32>,
}

fn kind_of(op: Op) -> AtomKind {
    match op {
        Op::Root => AtomKind::Setup,
        Op::Timer { .. } => AtomKind::Timer,
        Op::NextTick => unreachable!("nexttick nodes are folded"),
        Op::Immediate => AtomKind::Immediate,
        Op::Pending => AtomKind::Pending,
        Op::Close => AtomKind::Close,
        Op::Pool { .. } => AtomKind::Pool,
        Op::FdChain { .. } => AtomKind::Fd,
        // Interval, barrier, and series bodies all run inside a timer
        // dispatch (last tick / last arrival / last step hop), and the
        // runtime chains every timer dispatch into a per-run total
        // order, so Timer is the faithful — and MHP-precise — kind.
        Op::Interval { .. } | Op::Barrier { .. } | Op::Series { .. } => AtomKind::Timer,
        // An emitter body runs in the `setImmediate` that emits.
        Op::Emitter { .. } => AtomKind::Immediate,
        Op::Kv => AtomKind::Kv,
        Op::Fs => AtomKind::Fs,
    }
}

fn op_label(id: usize, op: Op) -> String {
    let name = match op {
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
    };
    format!("n{id}:{name}")
}

/// Lowers `prog` (assumed validated) to a static model named `name`.
pub fn model_of_prog(prog: &Prog, name: &str) -> ProgModel {
    let n = prog.nodes.len();
    // Parent node of each node in the registration tree.
    let mut node_parent = vec![0u32; n];
    for (id, node) in prog.nodes.iter().enumerate() {
        for &c in &node.children {
            node_parent[c as usize] = id as u32;
        }
    }
    let mut atoms: Vec<Atom> = Vec::new();
    let mut atom_of_node = vec![0u32; n];
    for (id, node) in prog.nodes.iter().enumerate() {
        let atom = if node.op == Op::NextTick {
            // Absorbed into the parent's event: same atom. Parents have
            // smaller ids, so the fold is already settled.
            atom_of_node[node_parent[id] as usize]
        } else {
            let atom = atoms.len() as u32;
            let parent = (id > 0).then(|| atom_of_node[node_parent[id] as usize]);
            atoms.push(Atom {
                label: op_label(id, node.op),
                kind: kind_of(node.op),
                parent,
                ordered_after: Vec::new(),
                accesses: Vec::new(),
            });
            atom
        };
        atom_of_node[id] = atom;
        let accesses = &mut atoms[atom as usize].accesses;
        for touch in &node.touches {
            accesses.push(Access {
                site: format!("s{}", touch.site),
                kind: touch.kind,
            });
        }
    }
    ProgModel {
        model: StaticModel {
            name: name.to_string(),
            variant: "v1".into(),
            atoms,
        },
        atom_of_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Prog {
        Prog::parse(text).expect("literal parses")
    }

    #[test]
    fn nexttick_folds_into_parent_atom() {
        let prog = parse(
            "nodefz-prog v1\n\
             0 root children=1 touches=\n\
             1 timer delay_us=100 children=2 touches=r0\n\
             2 nexttick children=3 touches=w1\n\
             3 close children= touches=u2\n\
             end\n",
        );
        let pm = model_of_prog(&prog, "p");
        // root, timer, close — the nexttick disappears.
        assert_eq!(pm.model.atoms.len(), 3);
        assert_eq!(pm.atom_of_node, vec![0, 1, 1, 2]);
        let timer = &pm.model.atoms[1];
        assert_eq!(timer.kind, AtomKind::Timer);
        // The nexttick's write merged into the timer atom.
        assert_eq!(timer.accesses.len(), 2);
        assert_eq!(timer.accesses[1].site, "s1");
        // The close node re-parented through the fold onto the timer.
        let close = &pm.model.atoms[2];
        assert_eq!(close.parent, Some(1));
        assert!(pm.model.validate().is_ok());
    }

    #[test]
    fn models_of_generated_programs_validate() {
        for seed in 0..100 {
            let prog = nodefz_conform::generate(seed);
            let pm = model_of_prog(&prog, "gen");
            pm.model
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(pm.atom_of_node.len(), prog.nodes.len());
        }
    }
}
