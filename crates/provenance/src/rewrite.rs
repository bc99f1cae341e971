//! The literal §3.2 provenance-maintenance scheme: rule rewriting.
//!
//! The paper rewrites each rule `rid p: H() :- B1(),…,Bn().` into three
//! rules at compile time — the original derivation, a `prov` record linking
//! the derived tuple to the rule execution, and a `rule` record linking the
//! rule execution to its input tuples. Both records are functions of one
//! thing: the *complete grounding* of the rule's variables. We therefore
//! materialise exactly that — one bookkeeping relation per rule,
//!
//! ```text
//! __exec_rid(V1,…,Vk) :- B1(),…,Bn().
//! ```
//!
//! where `V1…Vk` are the rule's distinct variables. The paper's `prov` and
//! `rule` tables are projections of `__exec_rid` (apply the grounding to
//! the head atom, respectively the body atoms), and
//! [`graph_from_rewritten`] performs those projections to reconstruct the
//! provenance graph. The result is bit-for-bit the graph that direct
//! capture produces (see the equivalence tests).
//!
//! This mode exists for fidelity to the paper and for the Fig 9 style
//! overhead measurements; production use should prefer
//! [`crate::capture::evaluate_with_provenance`], which is the paper's own
//! footnote-1 optimisation (evaluate the shared body once).

use crate::graph::{ProvGraph, ProvGraphBuilder};
use p3_datalog::ast::{Atom, Clause, ClauseId, ClauseKind, Const, Term};
use p3_datalog::engine::{Database, Engine, NoopSink, TupleId};
use p3_datalog::program::{Program, ProgramError};
use p3_datalog::symbol::Symbol;
use std::collections::HashMap;

/// A program augmented with per-rule execution-recording relations.
pub struct Rewritten {
    /// The rewritten program: original clauses first (ids preserved),
    /// then one `__exec_*` rule per original rule.
    pub program: Program,
    metas: Vec<ExecMeta>,
}

struct ExecMeta {
    /// The original rule (same id in original and rewritten program).
    rule: ClauseId,
    /// The bookkeeping predicate.
    exec_pred: Symbol,
    /// The rule's distinct variables, in `__exec` argument order.
    vars: Vec<Symbol>,
}

/// Errors from rewriting.
#[derive(Debug)]
pub enum RewriteError {
    /// Rebuilding the program failed (e.g. a `__exec_*` name collision with
    /// a user predicate).
    Program(ProgramError),
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::Program(e) => write!(f, "rewrite produced an invalid program: {e}"),
        }
    }
}

impl std::error::Error for RewriteError {}

/// Rewrites `program`, appending one `__exec_<label>(vars…)` rule per rule.
pub fn rewrite(program: &Program) -> Result<Rewritten, RewriteError> {
    let mut symbols = program.symbols().clone();
    let mut clauses: Vec<Clause> = program.clauses().to_vec();
    let mut metas = Vec::new();

    for (id, clause) in program.iter() {
        let ClauseKind::Rule {
            body,
            negated,
            constraints,
        } = &clause.kind
        else {
            continue;
        };
        // Distinct variables in first-occurrence order (body then head; the
        // head introduces none by safety).
        let mut vars: Vec<Symbol> = Vec::new();
        for atom in body.iter().chain(std::iter::once(&clause.head)) {
            for v in atom.vars() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        let exec_name = format!("__exec_{}", clause.label);
        let exec_pred = symbols.intern(&exec_name);
        let exec_head = Atom {
            pred: exec_pred,
            args: vars.iter().map(|&v| Term::Var(v)).collect(),
        };
        clauses.push(Clause {
            label: format!("__exec_rule_{}", clause.label),
            prob: 1.0,
            head: exec_head,
            kind: ClauseKind::Rule {
                body: body.clone(),
                negated: negated.clone(),
                constraints: constraints.clone(),
            },
        });
        metas.push(ExecMeta {
            rule: id,
            exec_pred,
            vars,
        });
    }

    let program = Program::from_clauses(clauses, symbols).map_err(RewriteError::Program)?;
    Ok(Rewritten { program, metas })
}

/// Evaluates the rewritten program (plain engine, no sink) and reconstructs
/// the provenance graph from the bookkeeping relations. Returns the full
/// database (including `__exec_*` relations) and the graph.
pub fn evaluate_rewritten(original: &Program, rewritten: &Rewritten) -> (Database, ProvGraph) {
    let db = Engine::new(&rewritten.program).run(&mut NoopSink);
    let graph = graph_from_rewritten(original, rewritten, &db);
    (db, graph)
}

/// Projects the `__exec_*` relations back into a [`ProvGraph`].
pub fn graph_from_rewritten(original: &Program, rewritten: &Rewritten, db: &Database) -> ProvGraph {
    let mut graph = ProvGraphBuilder::new();

    // Base assertions come straight from the fact clauses.
    for (id, clause) in original.iter() {
        if !clause.is_fact() {
            continue;
        }
        let args: Vec<Const> = clause
            .head
            .args
            .iter()
            .map(|t| t.as_const().expect("facts are ground"))
            .collect();
        let tuple = db
            .lookup(clause.head.pred, &args)
            .expect("fact tuple present after evaluation");
        graph.add_base(id, tuple);
    }

    // Rule executions are the rows of the bookkeeping relations.
    for meta in &rewritten.metas {
        let rule_clause = original.clause(meta.rule);
        let exec_rows: Vec<TupleId> = db
            .relation(meta.exec_pred)
            .map(|r| r.tuples().to_vec())
            .unwrap_or_default();
        for row in exec_rows {
            let binding: HashMap<Symbol, Const> = {
                let stored = db.tuple(row);
                meta.vars
                    .iter()
                    .copied()
                    .zip(stored.args.iter().copied())
                    .collect()
            };
            let ground = |atom: &Atom, db: &Database| -> TupleId {
                let args: Vec<Const> = atom
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => *c,
                        Term::Var(v) => binding[v],
                    })
                    .collect();
                db.lookup(atom.pred, &args)
                    .expect("grounded atom present: the original rule fired on this grounding")
            };
            let head = ground(&rule_clause.head, db);
            let body: Vec<TupleId> = rule_clause.body().iter().map(|a| ground(a, db)).collect();
            graph.add_exec(meta.rule, head, &body);
        }
    }
    graph.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::evaluate_with_provenance;

    const ACQ: &str = r#"
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

    #[test]
    fn rewrite_adds_one_exec_rule_per_rule() {
        let p = Program::parse(ACQ).unwrap();
        let rw = rewrite(&p).unwrap();
        assert_eq!(rw.program.len(), p.len() + 3);
        assert!(rw.program.clause_by_label("__exec_rule_r1").is_some());
        // Original clause ids are preserved.
        for (id, clause) in p.iter() {
            assert_eq!(rw.program.clause(id).label, clause.label);
        }
    }

    /// Renders a graph signature with tuples spelled out as text, so graphs
    /// captured against *different databases* (whose tuple ids diverge once
    /// `__exec_*` tuples interleave) compare structurally.
    fn content_signature(
        graph: &ProvGraph,
        db: &Database,
        program: &Program,
    ) -> std::collections::BTreeSet<(String, String, Vec<String>)> {
        let syms = program.symbols();
        let show = |t: TupleId| format!("{}", db.display_tuple(t, syms));
        graph
            .signature()
            .into_iter()
            .map(|(tuple, clause, body)| {
                (
                    show(tuple),
                    original_label(program, clause),
                    body.into_iter().map(show).collect(),
                )
            })
            .collect()
    }

    fn original_label(program: &Program, clause: p3_datalog::ast::ClauseId) -> String {
        program.clause(clause).label.clone()
    }

    fn assert_capture_strategies_agree(src: &str) {
        let p = Program::parse(src).unwrap();
        let (db_direct, direct) = evaluate_with_provenance(&p);
        let rw = rewrite(&p).unwrap();
        let (db_rw, reconstructed) = evaluate_rewritten(&p, &rw);
        assert_eq!(
            content_signature(&direct, &db_direct, &p),
            content_signature(&reconstructed, &db_rw, &p),
        );
    }

    #[test]
    fn rewritten_graph_equals_direct_capture_acquaintance() {
        assert_capture_strategies_agree(ACQ);
    }

    #[test]
    fn rewritten_graph_equals_direct_capture_on_cycles() {
        assert_capture_strategies_agree(
            "r1 1.0: reach(X) :- src(X).
             r2 0.9: reach(Y) :- reach(X), edge(X,Y).
             t0 1.0: src(a).
             e1 0.5: edge(a,b). e2 0.6: edge(b,a). e3 0.7: edge(b,c).",
        );
    }

    #[test]
    fn exec_relations_are_materialised() {
        let p = Program::parse("r1 1.0: q(X) :- p(X). t1 0.5: p(a). t2 0.5: p(b).").unwrap();
        let rw = rewrite(&p).unwrap();
        let (db, _) = evaluate_rewritten(&p, &rw);
        let exec = rw.program.symbols().get("__exec_r1").unwrap();
        assert_eq!(db.relation(exec).unwrap().len(), 2, "one row per firing");
    }

    #[test]
    fn tuple_ids_of_original_relations_are_comparable() {
        // The rewritten run inserts the same original tuples; ids may differ
        // in general, but signatures compare structurally through lookups,
        // which is what the equality tests above rely on. Here we pin the
        // weaker invariant directly: every original tuple exists in the
        // rewritten database.
        let p = Program::parse(ACQ).unwrap();
        let (db_direct, _) = evaluate_with_provenance(&p);
        let rw = rewrite(&p).unwrap();
        let (db_rw, _) = evaluate_rewritten(&p, &rw);
        for pred in db_direct.predicates() {
            let rel = db_direct.relation(pred).unwrap();
            for &t in rel.tuples() {
                let stored = db_direct.tuple(t);
                assert!(
                    db_rw.lookup(stored.pred, &stored.args).is_some(),
                    "missing tuple in rewritten run"
                );
            }
        }
    }
}
