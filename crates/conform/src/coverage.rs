//! Per-batch API coverage accounting, reported as `nodefz-apicov-v1`.
//!
//! [`ApiCoverage`] accumulates, over a batch of executed conform
//! programs, which parts of the enumerated surface were exercised along
//! five axes: API nodes (graph calls, via their op bundle), producer→
//! consumer edges, oracle rules put under test, loop phases dispatched,
//! and parent→child op pairs. [`ApiCoverage::snapshot`] freezes the
//! counters into an [`ApiCovSnapshot`] whose [`ApiCovSnapshot::to_json`]
//! is the `nodefz-apicov-v1` document embedded in `nodefz-metrics-v1`
//! and pinned by the coverage-regression golden.

use std::collections::BTreeSet;
use std::rc::Rc;

use nodefz::Mode;
use nodefz_rt::{EventLog, LoopPool, Termination};

use crate::apigraph::ApiGraph;
use crate::harness::run_logged;
use crate::oracle::{phase_label, rules_exercised, OracleCtx, RULES};
use crate::prog::Prog;

/// All loop phases an event can be attributed to.
const PHASES: usize = 8;

/// Accumulating coverage counters over a batch of executed programs.
#[derive(Clone, Debug, Default)]
pub struct ApiCoverage {
    programs: u64,
    nodes: BTreeSet<&'static str>,
    edges: BTreeSet<(&'static str, &'static str)>,
    rules: BTreeSet<&'static str>,
    phases: BTreeSet<&'static str>,
    pairs: BTreeSet<(String, String)>,
}

impl ApiCoverage {
    /// Folds one executed program into the counters. Node and edge
    /// coverage derive from the program's op bundles (each Prog op
    /// exercises every call of its bundle by construction); rule and
    /// phase coverage derive from the recorded log.
    pub fn record(&mut self, prog: &Prog, log: &EventLog, ctx: &OracleCtx) {
        self.programs += 1;
        let graph = ApiGraph::full();
        let bundles: BTreeSet<&str> = prog.nodes.iter().map(|n| n.op.name()).collect();
        for node in &graph.nodes {
            if bundles.contains(node.bundle) {
                self.nodes.insert(node.name);
            }
        }
        for (p, c) in graph.edges() {
            let bundle = graph.nodes.iter().find(|n| n.name == p).map(|n| n.bundle);
            if bundle.is_some_and(|b| bundles.contains(b)) {
                self.edges.insert((p, c));
            }
        }
        for rule in rules_exercised(prog, log, ctx) {
            self.rules.insert(rule);
        }
        for ev in &log.events {
            self.phases.insert(phase_label(ev.kind));
        }
        for node in &prog.nodes {
            for &child in &node.children {
                self.pairs.insert((
                    node.op.name().to_string(),
                    prog.nodes[child as usize].op.name().to_string(),
                ));
            }
        }
    }

    /// Runs `prog` once at `env_seed` under vanilla scheduling and folds
    /// the run in: the accounting step of the apicov golden and of a
    /// campaign's `CONFORM-API` arms.
    pub fn record_vanilla(&mut self, prog: &Rc<Prog>, env_seed: u64, pool: &Option<LoopPool>) {
        let (report, log) = run_logged(prog, env_seed, Mode::Vanilla, pool);
        let completed = matches!(report.termination, Termination::Quiescent);
        self.record(
            prog,
            &log,
            &OracleCtx {
                demux: false,
                completed,
            },
        );
    }

    /// Merges another accumulator (e.g. a different arm's batch).
    pub fn merge(&mut self, other: &ApiCoverage) {
        self.programs += other.programs;
        self.nodes.extend(&other.nodes);
        self.edges.extend(&other.edges);
        self.rules.extend(&other.rules);
        self.phases.extend(&other.phases);
        self.pairs.extend(other.pairs.iter().cloned());
    }

    /// Freezes the counters into a serialisable snapshot.
    pub fn snapshot(&self) -> ApiCovSnapshot {
        let graph = ApiGraph::full();
        let missing: Vec<String> = graph
            .nodes
            .iter()
            .filter(|n| !self.nodes.contains(n.name))
            .map(|n| n.name.to_string())
            .collect();
        ApiCovSnapshot {
            programs: self.programs,
            nodes_covered: self.nodes.len(),
            nodes_total: graph.nodes.len(),
            edges_covered: self.edges.len(),
            edges_total: graph.edges().len(),
            rules_covered: self.rules.len(),
            rules_total: RULES.len(),
            phases_covered: self.phases.len(),
            phases_total: PHASES,
            op_pairs: self.pairs.len(),
            nodes: self.nodes.iter().map(|n| n.to_string()).collect(),
            missing_nodes: missing,
            rules: self.rules.iter().map(|r| r.to_string()).collect(),
            phases: self.phases.iter().map(|p| p.to_string()).collect(),
        }
    }
}

/// Frozen coverage counters — the `nodefz-apicov-v1` document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiCovSnapshot {
    /// Programs folded into the batch.
    pub programs: u64,
    /// Distinct API nodes exercised.
    pub nodes_covered: usize,
    /// API nodes in the enumerated surface.
    pub nodes_total: usize,
    /// Distinct producer→consumer edges exercised.
    pub edges_covered: usize,
    /// Edges in the dependency graph.
    pub edges_total: usize,
    /// Distinct oracle rules put under test.
    pub rules_covered: usize,
    /// Rules in the oracle.
    pub rules_total: usize,
    /// Distinct loop phases dispatched.
    pub phases_covered: usize,
    /// Phases an event can be attributed to.
    pub phases_total: usize,
    /// Distinct parent→child op pairs across all program trees.
    pub op_pairs: usize,
    /// Covered API node names, sorted.
    pub nodes: Vec<String>,
    /// Enumerated-but-uncovered API node names, declaration order.
    pub missing_nodes: Vec<String>,
    /// Oracle rules put under test, sorted.
    pub rules: Vec<String>,
    /// Loop phases dispatched, sorted.
    pub phases: Vec<String>,
}

fn json_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(","))
}

impl ApiCovSnapshot {
    /// Serialises as a `nodefz-apicov-v1` JSON document. Deterministic:
    /// every list is sorted, so equal batches yield byte-equal output
    /// (the property the frozen golden relies on).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"nodefz-apicov-v1\",\"programs\":{},\
             \"nodes\":{{\"covered\":{},\"total\":{},\"hit\":{},\"missing\":{}}},\
             \"edges\":{{\"covered\":{},\"total\":{}}},\
             \"rules\":{{\"covered\":{},\"total\":{},\"hit\":{}}},\
             \"phases\":{{\"covered\":{},\"total\":{},\"hit\":{}}},\
             \"op_pairs\":{}}}",
            self.programs,
            self.nodes_covered,
            self.nodes_total,
            json_list(&self.nodes),
            json_list(&self.missing_nodes),
            self.edges_covered,
            self.edges_total,
            self.rules_covered,
            self.rules_total,
            json_list(&self.rules),
            self.phases_covered,
            self.phases_total,
            json_list(&self.phases),
            self.op_pairs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::generate;

    #[test]
    fn coverage_accumulates_and_serialises() {
        let mut cov = ApiCoverage::default();
        for seed in 0..30 {
            cov.record_vanilla(&Rc::new(generate(seed)), seed, &None);
        }
        let snap = cov.snapshot();
        assert_eq!(snap.programs, 30);
        assert!(snap.nodes_covered > 0 && snap.nodes_covered <= snap.nodes_total);
        let json = snap.to_json();
        assert!(json.starts_with("{\"schema\":\"nodefz-apicov-v1\""));
        assert!(json.contains("\"op_pairs\":"));
    }

    #[test]
    fn merge_is_a_union() {
        let (mut a, mut b) = (ApiCoverage::default(), ApiCoverage::default());
        for seed in 0..5 {
            let cov = if seed % 2 == 0 { &mut a } else { &mut b };
            cov.record_vanilla(&Rc::new(generate(seed)), seed, &None);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        let snap = merged.snapshot();
        assert_eq!(snap.programs, 5);
        assert!(snap.nodes_covered >= a.snapshot().nodes_covered);
        assert!(snap.nodes_covered >= b.snapshot().nodes_covered);
    }
}
