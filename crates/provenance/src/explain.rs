//! Textual rendering of derivations — the console form of an Explanation
//! Query's output.

use crate::graph::{Derivation, ProvGraph};
use p3_datalog::engine::{Database, TupleId};
use p3_datalog::program::Program;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Renders the derivations of `root` as an indented tree.
///
/// Cyclic back-references are printed as `(cycle back to <tuple>)` rather
/// than expanded. `max_depth` is the hop limit of extraction: a tuple `k`
/// rule executions below the root always lists its base derivations, and
/// its rule derivations only while `k < max_depth`; past that, one
/// `(depth limit)` line stands for them.
pub fn explain(
    graph: &ProvGraph,
    db: &Database,
    program: &Program,
    root: TupleId,
    max_depth: Option<usize>,
) -> String {
    let mut out = String::new();
    let mut path = HashSet::new();
    render(graph, db, program, root, 0, max_depth, &mut path, &mut out);
    out
}

/// Renders `tuple`, `nesting` rule executions below the root, indented by
/// four spaces per nesting.
#[allow(clippy::too_many_arguments)]
fn render(
    graph: &ProvGraph,
    db: &Database,
    program: &Program,
    tuple: TupleId,
    nesting: usize,
    max_depth: Option<usize>,
    path: &mut HashSet<TupleId>,
    out: &mut String,
) {
    let indent = "    ".repeat(nesting);
    let syms = program.symbols();
    let _ = writeln!(out, "{indent}{}", db.display_tuple(tuple, syms));
    let at_limit = max_depth.is_some_and(|m| nesting >= m);
    let mut truncated = false;
    path.insert(tuple);
    for d in graph.derivations(tuple) {
        match d {
            Derivation::Base(c) => {
                let clause = program.clause(*c);
                let _ = writeln!(
                    out,
                    "{indent}  = base tuple {} (p={})",
                    clause.label, clause.prob
                );
            }
            Derivation::Rule(_) if at_limit => {
                if !truncated {
                    let _ = writeln!(out, "{indent}  (depth limit)");
                    truncated = true;
                }
            }
            Derivation::Rule(e) => {
                let exec = graph.exec(*e);
                let clause = program.clause(exec.rule);
                let _ = writeln!(
                    out,
                    "{indent}  <- rule {} (p={})",
                    clause.label, clause.prob
                );
                for &b in exec.body.iter() {
                    if path.contains(&b) {
                        let _ = writeln!(
                            out,
                            "{indent}    (cycle back to {})",
                            db.display_tuple(b, syms)
                        );
                    } else {
                        render(graph, db, program, b, nesting + 1, max_depth, path, out);
                    }
                }
            }
        }
    }
    path.remove(&tuple);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::evaluate_with_provenance;

    #[test]
    fn explains_a_two_level_derivation() {
        let p = Program::parse(
            "r1 0.8: q(X) :- p(X).
             t1 0.5: p(a).",
        )
        .unwrap();
        let (db, g) = evaluate_with_provenance(&p);
        let q = p.symbols().get("q").unwrap();
        let a = p3_datalog::ast::Const::Sym(p.symbols().get("a").unwrap());
        let qa = db.lookup(q, &[a]).unwrap();
        let text = explain(&g, &db, &p, qa, None);
        assert!(text.contains("q(a)"));
        assert!(text.contains("<- rule r1 (p=0.8)"));
        assert!(text.contains("= base tuple t1 (p=0.5)"));
    }

    #[test]
    fn marks_cycles_instead_of_looping() {
        let p = Program::parse(
            "r1 1.0: reach(X) :- src(X).
             r2 1.0: reach(Y) :- reach(X), edge(X,Y).
             t0 1.0: src(a).
             e1 0.5: edge(a,b). e2 0.5: edge(b,a).",
        )
        .unwrap();
        let (db, g) = evaluate_with_provenance(&p);
        let reach = p.symbols().get("reach").unwrap();
        let a = p3_datalog::ast::Const::Sym(p.symbols().get("a").unwrap());
        let ra = db.lookup(reach, &[a]).unwrap();
        let text = explain(&g, &db, &p, ra, None);
        assert!(text.contains("(cycle back to"), "{text}");
    }

    #[test]
    fn depth_limit_truncates() {
        let p = Program::parse(
            "r1 1.0: reach(X) :- src(X).
             r2 1.0: reach(Y) :- reach(X), edge(X,Y).
             t0 1.0: src(a).
             e1 0.5: edge(a,b). e2 0.5: edge(b,c).",
        )
        .unwrap();
        let (db, g) = evaluate_with_provenance(&p);
        let reach = p.symbols().get("reach").unwrap();
        let c = p3_datalog::ast::Const::Sym(p.symbols().get("c").unwrap());
        let rc = db.lookup(reach, &[c]).unwrap();
        let text = explain(&g, &db, &p, rc, Some(1));
        assert!(text.contains("(depth limit)"), "{text}");
    }
}
