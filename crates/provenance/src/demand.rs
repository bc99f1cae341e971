//! Query-directed (demand) evaluation with provenance recorded onto the
//! source program.
//!
//! [`evaluate_query_with_provenance`] magic-transforms the program for one
//! ground query (see [`p3_datalog::transform`]) and evaluates the
//! transformed program — its seed and rules, over the program's shared
//! fact base — through a sink that *un-rewrites* as it records: magic-rule
//! firings and the seed fact are dropped, each guarded variant's firing is
//! recorded as a firing of its source rule (the demand guard, body
//! position 0, is stripped), and the base's facts, which the engine
//! reports with their source clauses, are recorded as they come. Tuples
//! keep the engine's ids; magic tuples simply get no derivations.
//!
//! The fact base is built once per program, on its first demand
//! evaluation ([`Program::fact_base`]); every later query reads it and
//! puts its own tuples in a per-query database whose ids start after it,
//! so [`DemandEvaluation::db`] holds the base by reference and only the
//! query's own tuples by value.
//!
//! The resulting graph is *content-identical* to the query-reachable
//! fragment of the naive-evaluation graph: the same source tuples, the same
//! source-rule executions, the same base assertions (tuple ids differ, being
//! assigned in a different derivation order). Every downstream consumer —
//! polynomial extraction, explanations, DOT rendering — therefore produces
//! the same answers it would against the full naive graph, while the engine
//! only ever derived the query-relevant portion of the model.
//!
//! One source grounding can fire in several adornment variants (the same
//! rule guarded by different demand patterns), so the naive engine's
//! exactly-once discipline does not survive the transformation. Firings of
//! a source rule with more than one variant therefore go through the
//! graph builder's duplicate guard; every other firing is appended
//! unchecked.

use crate::graph::{ProvGraph, ProvGraphBuilder};
use p3_datalog::ast::{ClauseId, Const};
use p3_datalog::engine::{Database, DerivationSink, Engine, EngineStats, Relation, TupleId};
use p3_datalog::explain::{self, ExplainPlan};
use p3_datalog::program::Program;
use p3_datalog::symbol::Symbol;
use p3_datalog::transform::{magic_transform, DemandProgram, TransformError, TransformStats};

/// Counters describing one demand evaluation.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct DemandStats {
    /// Transformation counters (adornments, variants, magic rules).
    pub transform: TransformStats,
    /// Engine counters over the *transformed* program (magic included).
    pub engine: EngineStats,
    /// Source-program tuples the run derived (base + derived).
    pub relevant_tuples: usize,
    /// Magic (demand) tuples the run derived; they have no derivations in
    /// the graph.
    pub magic_tuples: usize,
}

/// The result of one demand evaluation: the engine's database and a
/// provenance graph over the *source* program's clause ids.
pub struct DemandEvaluation {
    /// The engine's database over the transformed program: the shared
    /// fact base, extended by the query's derived and magic tuples.
    pub db: Database,
    /// Provenance over the engine's tuple ids and source clause ids.
    pub graph: ProvGraph,
    /// Evaluation counters.
    pub stats: DemandStats,
    /// Per-rule cost attribution, projected onto source clauses (magic
    /// work in the plan's `magic` bucket).
    pub plan: ExplainPlan,
}

/// Where a transformed rule's derivations go in the source graph.
#[derive(Clone, Copy)]
enum Target {
    /// A magic rule or the seed: not recorded.
    Magic,
    /// The only variant of its source rule.
    Once(ClauseId),
    /// One of several variants of its source rule: recorded through the
    /// duplicate guard.
    Guarded(ClauseId),
}

/// Records a demand run directly onto the source program.
struct DemandSink {
    /// Per transformed clause id.
    targets: Vec<Target>,
    /// The fact base's length: the facts below it are the source's.
    base_len: usize,
    graph: ProvGraphBuilder,
}

impl DemandSink {
    fn new(dp: &DemandProgram, source: &Program) -> Self {
        let mut variants = vec![0u32; source.len()];
        for (id, _) in dp.program.iter().filter(|(_, c)| c.is_rule()) {
            if let Some(orig) = dp.original_clause(id) {
                variants[orig.index()] += 1;
            }
        }
        let targets = dp
            .program
            .iter()
            .map(|(id, _)| match dp.original_clause(id) {
                None => Target::Magic,
                Some(orig) if variants[orig.index()] > 1 => Target::Guarded(orig),
                Some(orig) => Target::Once(orig),
            })
            .collect();
        Self {
            targets,
            base_len: dp.program.fact_base().len(),
            graph: ProvGraphBuilder::new(),
        }
    }
}

impl DerivationSink for DemandSink {
    /// The base's facts arrive with their source clauses and are recorded
    /// unchecked; the transformed program's own fact is the magic seed.
    fn base_fact(&mut self, clause: ClauseId, tuple: TupleId) {
        if tuple.index() < self.base_len {
            self.graph.add_base_unchecked(clause, tuple);
        }
    }

    fn derived(&mut self, rule: ClauseId, head: TupleId, body: &[TupleId]) {
        match self.targets[rule.index()] {
            Target::Magic => {}
            Target::Once(orig) => self.graph.add_exec_unchecked(orig, head, &body[1..]),
            Target::Guarded(orig) => self.graph.add_exec(orig, head, &body[1..]),
        }
    }
}

/// Magic-transforms `program` for the ground query `pred(args)` and
/// evaluates it, recording provenance onto the source program.
pub fn evaluate_query_with_provenance(
    program: &Program,
    pred: Symbol,
    args: &[Const],
) -> Result<DemandEvaluation, TransformError> {
    let mut span = p3_obs::span::span("provenance.demand");
    let dp = magic_transform(program, pred, args)?;

    let mut sink = DemandSink::new(&dp, program);
    let mut engine = Engine::new(&dp.program);
    engine.set_mode_label("demand");
    let db = engine.run(&mut sink);
    let graph = sink.graph.finish();

    let magic_tuples = db
        .predicates()
        .filter(|&p| dp.is_magic(p))
        .filter_map(|p| db.relation(p).map(Relation::len))
        .sum();
    let stats = DemandStats {
        transform: dp.stats,
        engine: engine.stats(),
        relevant_tuples: db.len() - magic_tuples,
        magic_tuples,
    };
    let plan = ExplainPlan::project_demand(&engine, &dp, program);
    explain::publish_rule_metrics(&plan, explain::METRIC_TOP_RULES);
    span.add_field("relevant_tuples", stats.relevant_tuples);
    span.add_field("magic_tuples", stats.magic_tuples);
    span.add_field("execs", graph.num_execs());
    Ok(DemandEvaluation {
        db,
        graph,
        stats,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::evaluate_with_provenance;
    use crate::extract::{extract_polynomial, ExtractOptions};
    use crate::vars::clause_vars;
    use p3_datalog::worlds;
    use std::collections::BTreeSet;

    const TRUST: &str = "
        r1 1.0: trustPath(P1,P2) :- trust(P1,P2).
        r2 1.0: trustPath(P1,P3) :- trust(P1,P2), trustPath(P2,P3), P1 != P3.
        r3 0.8: mutualTrustPath(P1,P2) :- trustPath(P1,P2), trustPath(P2,P1).
        t1 0.9: trust(1,2).
        t2 0.9: trust(2,1).
        t3 0.65: trust(1,13).
        t4 0.75: trust(2,6).
        t5 0.7: trust(6,2).
        t6 0.6: trust(13,2).
    ";

    /// Graph signature with tuples rendered as text and only the portion
    /// reachable from `root` retained, so graphs over databases with
    /// different tuple-id assignments compare structurally.
    fn reachable_signature(
        graph: &ProvGraph,
        db: &Database,
        program: &Program,
        root: TupleId,
    ) -> BTreeSet<(String, String, Vec<String>)> {
        let reachable = graph.reachable_tuples(root);
        let syms = program.symbols();
        let show = |t: TupleId| format!("{}", db.display_tuple(t, syms));
        graph
            .signature()
            .into_iter()
            .filter(|(tuple, _, _)| reachable.contains(tuple))
            .map(|(tuple, clause, body)| {
                (
                    show(tuple),
                    program.clause(clause).label.clone(),
                    body.into_iter().map(show).collect(),
                )
            })
            .collect()
    }

    fn assert_demand_agrees_with_naive(src: &str, query: &str) {
        let program = Program::parse(src).unwrap();
        let (pred, args) = worlds::parse_ground_query(&program, query).unwrap();
        let (naive_db, naive_graph) = evaluate_with_provenance(&program);
        let demand = evaluate_query_with_provenance(&program, pred, &args).unwrap();

        let naive_tuple = naive_db.lookup(pred, &args);
        let demand_tuple = demand.db.lookup(pred, &args);
        assert_eq!(naive_tuple.is_some(), demand_tuple.is_some(), "{query}");
        let (Some(nt), Some(dt)) = (naive_tuple, demand_tuple) else {
            return;
        };

        // The query-reachable provenance fragments are content-identical…
        assert_eq!(
            reachable_signature(&naive_graph, &naive_db, &program, nt),
            reachable_signature(&demand.graph, &demand.db, &program, dt),
            "{query}: provenance fragments diverge"
        );

        // …so the extracted polynomials (and probabilities) coincide.
        let opts = ExtractOptions::unbounded();
        let naive_dnf = extract_polynomial(&naive_graph, nt, opts);
        let demand_dnf = extract_polynomial(&demand.graph, dt, opts);
        assert_eq!(naive_dnf, demand_dnf, "{query}: DNF diverges");

        let vars = clause_vars(&program);
        let p = p3_prob::exact::probability(&naive_dnf, &vars);
        let oracle = worlds::success_probability_str(&program, query).unwrap();
        assert!((p - oracle).abs() < 1e-9, "{query}: {p} vs oracle {oracle}");
    }

    #[test]
    fn trust_case_study_all_derived_queries_agree() {
        let program = Program::parse(TRUST).unwrap();
        let (naive_db, _) = evaluate_with_provenance(&program);
        for pred_name in ["trustPath", "mutualTrustPath"] {
            let pred = program.symbols().get(pred_name).unwrap();
            for &t in naive_db.relation(pred).unwrap().tuples() {
                let stored = naive_db.tuple(t);
                let args: Vec<String> = stored
                    .args
                    .iter()
                    .map(|a| format!("{}", a.display(program.symbols())))
                    .collect();
                let query = format!("{pred_name}({})", args.join(","));
                assert_demand_agrees_with_naive(TRUST, &query);
            }
        }
    }

    #[test]
    fn underivable_query_yields_empty_relation() {
        let program = Program::parse(TRUST).unwrap();
        let pred = program.symbols().get("mutualTrustPath").unwrap();
        let args = [Const::Int(1), Const::Int(99)];
        let demand = evaluate_query_with_provenance(&program, pred, &args).unwrap();
        assert!(demand.db.lookup(pred, &args).is_none());
    }

    #[test]
    fn acquaintance_example_agrees() {
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
        assert_demand_agrees_with_naive(src, r#"know("Ben","Elena")"#);
    }

    #[test]
    fn multi_adornment_rederivations_are_deduped() {
        // p(a,a) is demanded through both p^bf (first body atom) and p^bb
        // (second); its single source grounding fires in both variants and
        // must appear once in the demand graph.
        let src = "
            r0 0.5: q(X) :- p(X,Y), p(Y,X).
            rp 0.9: p(A,B) :- e(A,B).
            e1 0.7: e(a,a).
        ";
        let program = Program::parse(src).unwrap();
        let (pred, args) = worlds::parse_ground_query(&program, "q(a)").unwrap();
        let demand = evaluate_query_with_provenance(&program, pred, &args).unwrap();
        let p = program.symbols().get("p").unwrap();
        let a = Const::Sym(program.symbols().get("a").unwrap());
        let paa = demand.db.lookup(p, &[a, a]).unwrap();
        assert_eq!(demand.graph.derivations(paa).len(), 1);
        assert_demand_agrees_with_naive(src, "q(a)");
    }

    #[test]
    fn demand_prunes_irrelevant_derivations() {
        // Line graph: naive derives all O(n^2) paths; demand for one
        // endpoint pair derives only the paths into the target.
        let mut src = String::from(
            "r1 0.9: path(X,Y) :- edge(X,Y).
             r2 0.9: path(X,Z) :- edge(X,Y), path(Y,Z).\n",
        );
        for i in 0..12 {
            src.push_str(&format!("e{i} 0.5: edge({i},{}).\n", i + 1));
        }
        let program = Program::parse(&src).unwrap();
        let (pred, args) = worlds::parse_ground_query(&program, "path(0,12)").unwrap();
        let (naive_db, _) = evaluate_with_provenance(&program);
        let demand = evaluate_query_with_provenance(&program, pred, &args).unwrap();
        assert!(demand.stats.relevant_tuples < naive_db.len());
        assert_demand_agrees_with_naive(&src, "path(0,12)");
    }
}
