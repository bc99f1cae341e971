//! Provenance maintenance during evaluation (§3.2, optimised variant).
//!
//! [`CaptureSink`] implements the engine's derivation seam and materialises
//! the provenance graph as a side-computation of rule evaluation — the
//! paper's footnote-1 optimisation of the rule-rewrite scheme, where the
//! (shared) rule body is evaluated once and both dependency records are
//! emitted from the same grounding.

use crate::graph::{ProvGraph, ProvGraphBuilder};
use p3_datalog::ast::ClauseId;
use p3_datalog::engine::{Database, DerivationSink, Engine, TupleId};
use p3_datalog::explain::{self, ExplainPlan};
use p3_datalog::program::Program;

/// A [`DerivationSink`] that builds a [`ProvGraph`].
#[derive(Default, Debug)]
pub struct CaptureSink {
    graph: ProvGraphBuilder,
}

impl CaptureSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, returning the captured graph.
    pub fn into_graph(self) -> ProvGraph {
        self.graph.finish()
    }
}

impl DerivationSink for CaptureSink {
    // The engine reports each fact clause and each grounding exactly once
    // (see the engine module's semi-naive discipline), so no dedup is
    // needed here.
    fn base_fact(&mut self, clause: ClauseId, tuple: TupleId) {
        self.graph.add_base_unchecked(clause, tuple);
    }

    fn derived(&mut self, rule: ClauseId, head: TupleId, body: &[TupleId]) {
        self.graph.add_exec_unchecked(rule, head, body);
    }
}

/// Evaluates `program` with provenance maintenance, returning the database
/// and the provenance graph. This is the P3 execution mode.
pub fn evaluate_with_provenance(program: &Program) -> (Database, ProvGraph) {
    let (db, graph, _) = evaluate_with_provenance_plan(program);
    (db, graph)
}

/// Like [`evaluate_with_provenance`], but also returns the run's
/// [`ExplainPlan`] — per-rule cost attribution the engine would otherwise
/// drop with its stack frame. The plan's top rules are published to the
/// `p3_engine_rule_*` metric families as a side effect.
pub fn evaluate_with_provenance_plan(program: &Program) -> (Database, ProvGraph, ExplainPlan) {
    let mut span = p3_obs::span::span("provenance.capture");
    let mut sink = CaptureSink::new();
    let mut engine = Engine::new(program);
    let db = engine.run(&mut sink);
    let plan = ExplainPlan::from_engine(&engine);
    explain::publish_rule_metrics(&plan, explain::METRIC_TOP_RULES);
    let graph = sink.into_graph();
    span.add_field("tuples", db.len());
    span.add_field("execs", graph.num_execs());
    p3_obs::counter!(
        "p3_provenance_captured_execs_total",
        "Rule executions recorded into provenance graphs"
    )
    .add(graph.num_execs() as u64);
    (db, graph, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Derivation;

    #[test]
    fn captures_base_and_rule_derivations() {
        let p = Program::parse(
            "r1 1.0: q(X) :- p(X).
             t1 0.5: p(a).",
        )
        .unwrap();
        let (db, g) = evaluate_with_provenance(&p);
        let p_sym = p.symbols().get("p").unwrap();
        let q_sym = p.symbols().get("q").unwrap();
        let a = p3_datalog::ast::Const::Sym(p.symbols().get("a").unwrap());
        let pa = db.lookup(p_sym, &[a]).unwrap();
        let qa = db.lookup(q_sym, &[a]).unwrap();
        assert!(matches!(g.derivations(pa), [Derivation::Base(_)]));
        match g.derivations(qa) {
            [Derivation::Rule(e)] => {
                let exec = g.exec(*e);
                assert_eq!(exec.body, &[pa]);
                assert_eq!(exec.rule, p.clause_by_label("r1").unwrap());
            }
            other => panic!("unexpected derivations {other:?}"),
        }
    }

    #[test]
    fn acquaintance_graph_shape_matches_fig3() {
        // know("Ben","Elena") has exactly one rule execution (r3), whose
        // body contains know("Ben","Steve") (base) and know("Steve","Elena")
        // (two derivations: r1 and r2) — the structure of Fig 3.
        let src = r#"
            r1 0.8: know(P1,P2) :- live(P1,C), live(P2,C), P1 != P2.
            r2 0.4: know(P1,P2) :- like(P1,L), like(P2,L), P1 != P2.
            r3 0.2: know(P1,P3) :- know(P1,P2), know(P2,P3), P1 != P3.
            t1 1.0: live("Steve","DC").
            t2 1.0: live("Elena","DC").
            t3 1.0: live("Mary","NYC").
            t4 0.4: like("Steve","Veggies").
            t5 0.6: like("Elena","Veggies").
            t6 1.0: know("Ben","Steve").
        "#;
        let p = Program::parse(src).unwrap();
        let (db, g) = evaluate_with_provenance(&p);
        let know = p.symbols().get("know").unwrap();
        let s = |n: &str| p3_datalog::ast::Const::Sym(p.symbols().get(n).unwrap());
        let ben_elena = db.lookup(know, &[s("Ben"), s("Elena")]).unwrap();
        let steve_elena = db.lookup(know, &[s("Steve"), s("Elena")]).unwrap();
        let ben_steve = db.lookup(know, &[s("Ben"), s("Steve")]).unwrap();

        let r3 = p.clause_by_label("r3").unwrap();
        let derivs = g.derivations(ben_elena);
        assert_eq!(derivs.len(), 1);
        match derivs[0] {
            Derivation::Rule(e) => {
                let exec = g.exec(e);
                assert_eq!(exec.rule, r3);
                assert_eq!(exec.body, &[ben_steve, steve_elena]);
            }
            other => panic!("unexpected derivation {other:?}"),
        }
        assert_eq!(g.derivations(steve_elena).len(), 2, "via r1 and via r2");
        assert!(g.is_base(ben_steve));
    }

    #[test]
    fn recursive_program_graph_contains_cycles() {
        // a ↔ b reachability: reach(a) and reach(b) derive each other.
        let p = Program::parse(
            "r1 1.0: reach(X) :- src(X).
             r2 1.0: reach(Y) :- reach(X), edge(X,Y).
             t0 1.0: src(a).
             e1 0.5: edge(a,b).
             e2 0.5: edge(b,a).",
        )
        .unwrap();
        let (db, g) = evaluate_with_provenance(&p);
        let reach = p.symbols().get("reach").unwrap();
        let a = p3_datalog::ast::Const::Sym(p.symbols().get("a").unwrap());
        let b = p3_datalog::ast::Const::Sym(p.symbols().get("b").unwrap());
        let ra = db.lookup(reach, &[a]).unwrap();
        let rb = db.lookup(reach, &[b]).unwrap();
        // reach(a) is derivable from src(a) AND from reach(b) via the back
        // edge: two derivations, one of which is cyclic.
        assert_eq!(g.derivations(ra).len(), 2);
        assert!(g.reachable_tuples(ra).contains(&rb));
        assert!(g.reachable_tuples(rb).contains(&ra));
    }
}
