//! Reachability analysis: dead rules (P3401) and unused fact predicates
//! (P3402), via a support fixpoint over predicates.

use p3_datalog::diag::Diagnostic;
use p3_datalog::symbol::Symbol;
use p3_datalog::validate::Ctx;
use std::collections::HashSet;

pub(crate) fn run(ctx: &mut Ctx<'_>) {
    // A predicate is *supported* when some derivation could produce a tuple
    // for it: it has a fact, or a rule all of whose positive body predicates
    // are supported. (Negated atoms need no support — a negated atom over an
    // empty predicate is trivially satisfied.)
    let mut supported: HashSet<Symbol> = ctx
        .clauses
        .iter()
        .filter(|c| c.is_fact())
        .map(|c| c.head.pred)
        .collect();
    loop {
        let mut changed = false;
        for clause in ctx.clauses.iter().filter(|c| c.is_rule()) {
            if supported.contains(&clause.head.pred) {
                continue;
            }
            if clause.body().iter().all(|a| supported.contains(&a.pred)) {
                supported.insert(clause.head.pred);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // P3401: a rule with an unsupported positive body atom can never fire.
    let mut findings = Vec::new();
    for (i, clause) in ctx.clauses.iter().enumerate() {
        if !clause.is_rule() {
            continue;
        }
        if let Some((j, atom)) = clause
            .body()
            .iter()
            .enumerate()
            .find(|(_, a)| !supported.contains(&a.pred))
        {
            findings.push((i, j, atom.pred, clause.label.clone()));
        }
    }
    for (i, j, pred, label) in findings {
        let d = Diagnostic::warn(
            "P3401",
            format!(
                "rule '{}' can never fire: predicate '{}' has no derivable tuples",
                label,
                ctx.name(pred)
            ),
        )
        .with_span(ctx.body_span(i, j))
        .with_clause(&label)
        .with_help(
            "no fact or reachable rule produces this predicate, so the body is unsatisfiable",
        );
        ctx.emit(d);
    }

    // P3402: a predicate defined only by facts that no rule body ever reads
    // is dead weight (in a program that has rules at all).
    if !ctx.clauses.iter().any(|c| c.is_rule()) {
        return;
    }
    let rule_defined: HashSet<Symbol> = ctx
        .clauses
        .iter()
        .filter(|c| c.is_rule())
        .map(|c| c.head.pred)
        .collect();
    let read: HashSet<Symbol> = ctx
        .clauses
        .iter()
        .flat_map(|c| c.body().iter().chain(c.negated().iter()))
        .map(|a| a.pred)
        .collect();
    let mut reported: HashSet<Symbol> = HashSet::new();
    let mut findings = Vec::new();
    for (i, clause) in ctx.clauses.iter().enumerate() {
        let pred = clause.head.pred;
        if clause.is_fact()
            && !rule_defined.contains(&pred)
            && !read.contains(&pred)
            && reported.insert(pred)
        {
            findings.push((i, pred, clause.label.clone()));
        }
    }
    for (i, pred, label) in findings {
        let d = Diagnostic::info(
            "P3402",
            format!(
                "fact predicate '{}' is never used by any rule body",
                ctx.name(pred)
            ),
        )
        .with_span(ctx.head_span(i))
        .with_clause(&label)
        .with_help("its tuples are only reachable by querying the predicate directly");
        ctx.emit(d);
    }
}
