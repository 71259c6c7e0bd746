//! Shrinking failing programs to minimal `nodefz-prog v1` repros.
//!
//! When a generated program fails the differential harness, the raw tree
//! is rarely the smallest witness. [`shrink_prog`] delta-debugs the
//! program's non-root nodes with [`nodefz::ddmin`], re-running the
//! caller's failure predicate on each structurally-valid projection
//! ([`Prog::project`] drops orphaned subtrees and renumbers densely), and
//! returns the minimal still-failing program — printable as a
//! deterministic `nodefz-prog v1` literal via its `Display` impl.

use nodefz::ddmin;

use crate::prog::Prog;

/// The result of shrinking one failing program.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The minimal still-failing program.
    pub minimal: Prog,
    /// Non-root nodes in the original program.
    pub original_nodes: usize,
    /// Predicate evaluations spent.
    pub runs: u64,
}

/// Minimizes `prog` against `fails`: the predicate receives candidate
/// projections of the program and returns `true` while the failure still
/// reproduces. `fails(prog)` itself must hold, or shrinking returns the
/// original program unchanged. Deterministic for a deterministic
/// predicate.
pub fn shrink_prog<F: FnMut(&Prog) -> bool>(prog: &Prog, mut fails: F) -> ShrinkOutcome {
    let ids = prog.non_root_ids();
    let original_nodes = ids.len();
    if !fails(prog) {
        return ShrinkOutcome {
            minimal: prog.clone(),
            original_nodes,
            runs: 1,
        };
    }
    let result = ddmin(&ids, |keep| fails(&prog.project(keep)));
    ShrinkOutcome {
        minimal: prog.project(&result.items),
        original_nodes,
        runs: result.runs + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::prog::Op;

    /// A predicate that "fails" whenever the program still contains a
    /// pool task — shrinking should strip everything else.
    fn has_pool(p: &Prog) -> bool {
        p.nodes.iter().any(|n| matches!(n.op, Op::Pool { .. }))
    }

    #[test]
    fn shrinks_to_the_single_triggering_node() {
        // Find a generated program with a pool op plus other noise.
        let prog = (0..500)
            .map(generate)
            .find(|p| has_pool(p) && p.nodes.len() > 4)
            .expect("no seed generated a pool op among noise");
        let out = shrink_prog(&prog, has_pool);
        out.minimal.validate().expect("shrunk program invalid");
        assert!(has_pool(&out.minimal), "shrinking lost the failure");
        // The minimal witness is a root plus one pool chain; no siblings
        // of unrelated kinds survive.
        assert!(
            out.minimal.nodes.len() < prog.nodes.len(),
            "nothing was removed from {prog}"
        );
        assert!(out
            .minimal
            .nodes
            .iter()
            .all(|n| matches!(n.op, Op::Root | Op::Pool { .. })));
    }

    #[test]
    fn shrinking_is_deterministic_and_prints_a_literal() {
        let prog = (0..500)
            .map(generate)
            .find(|p| has_pool(p) && p.nodes.len() > 4)
            .unwrap();
        let a = shrink_prog(&prog, has_pool);
        let b = shrink_prog(&prog, has_pool);
        assert_eq!(a.minimal, b.minimal);
        let text = a.minimal.to_string();
        assert!(
            text.starts_with("nodefz-prog v1\n"),
            "not a literal: {text}"
        );
        assert_eq!(Prog::parse(&text).unwrap(), a.minimal);
    }

    #[test]
    fn non_failing_program_is_returned_unchanged() {
        let prog = generate(1);
        let out = shrink_prog(&prog, |_| false);
        assert_eq!(out.minimal, prog);
        assert_eq!(out.runs, 1);
    }
}
