//! Graph-level checks over the validator's dependency graph: negation
//! outside the provenance model (P3202), recursive-SCC cost notes (P3601),
//! high rule fan-in (P3602), the demand-mode recommendation (P3603) and the
//! persistent-store recommendation (P3604).

use crate::messages::{DEMAND_MODE, WARM_RESTART};
use p3_datalog::diag::Diagnostic;
use p3_datalog::graph::DepGraph;
use p3_datalog::symbol::Symbol;
use p3_datalog::validate::Ctx;
use std::collections::HashMap;

pub(crate) fn run(ctx: &mut Ctx<'_>, graph: &DepGraph) {
    negation(ctx);
    recursive_cost(ctx, graph);
    let heavy_fan_in = fan_in(ctx);
    demand_hint(ctx, graph, heavy_fan_in);
    store_hint(ctx, graph);
}

/// The sizes of the graph's recursive SCCs, dependencies first.
fn recursive_sizes(graph: &DepGraph) -> impl Iterator<Item = usize> + '_ {
    (0..graph.num_sccs())
        .filter(|&k| graph.is_recursive(k))
        .map(|k| graph.members(k).len())
}

/// P3202, once, at the program's first negated atom.
fn negation(ctx: &mut Ctx<'_>) {
    if let Some(i) = ctx.clauses.iter().position(|c| !c.negated().is_empty()) {
        let d = Diagnostic::warn(
            "P3202",
            "program uses negation: provenance queries will be rejected (the P3 model \
             is negation-free)"
                .to_string(),
        )
        .with_span(ctx.negated_span(i, 0))
        .with_help(
            "the engine evaluates stratified negation, but Boolean provenance and all \
             probability computations require a positive program",
        );
        ctx.emit(d);
    }
}

fn recursive_cost(ctx: &mut Ctx<'_>, graph: &DepGraph) {
    for k in 0..graph.num_sccs() {
        if !graph.is_recursive(k) {
            continue;
        }
        let component = graph.members(k);
        let mut names: Vec<&str> = component.iter().map(|&v| ctx.name(graph.pred(v))).collect();
        names.sort_unstable();
        let listed = names.join(", ");
        // Anchor the note at the first rule whose head is in this SCC; a
        // cycle's edges all come from rules, so there is one.
        let i = graph.rules(k)[0];
        // Softened since demand evaluation became the default for recursive
        // programs: the full-model cost described here is only paid under
        // --eval-mode naive.
        let d = Diagnostic::info("P3601", format!("recursive cycle through {{{listed}}}"))
            .with_span(ctx.clause_span(i))
            .with_clause(&ctx.clauses[i].label)
            .with_help(
                "cyclic derivations are cut by the hop-limited cycle elimination of \u{a7}3.3; \
             deep recursion grows grounding time and provenance size under naive \
             evaluation (auto mode already evaluates recursive programs on demand)",
            );
        ctx.emit(d);
    }
}

/// Emits P3602 for high-fan-in predicates; returns whether any were found
/// (an input to the P3603 demand-mode recommendation).
fn fan_in(ctx: &mut Ctx<'_>) -> bool {
    const FAN_IN_NOTE: usize = 4;
    let mut rule_counts: HashMap<Symbol, usize> = HashMap::new();
    for clause in ctx.clauses.iter().filter(|c| c.is_rule()) {
        *rule_counts.entry(clause.head.pred).or_insert(0) += 1;
    }
    let mut flagged: Vec<(usize, Symbol, usize, String)> = Vec::new();
    for (i, clause) in ctx.clauses.iter().enumerate() {
        if !clause.is_rule() {
            continue;
        }
        let count = rule_counts[&clause.head.pred];
        if count >= FAN_IN_NOTE && !flagged.iter().any(|f| f.1 == clause.head.pred) {
            flagged.push((i, clause.head.pred, count, clause.label.clone()));
        }
    }
    let any = !flagged.is_empty();
    for (i, pred, count, label) in flagged {
        let d = Diagnostic::info(
            "P3602",
            format!("predicate '{}' is defined by {count} rules", ctx.name(pred)),
        )
        .with_span(ctx.head_span(i))
        .with_clause(&label)
        .with_help(
            "each alternative multiplies the derivation DNF; consider splitting the \
             predicate if provenance extraction slows down",
        );
        ctx.emit(d);
    }
    any
}

/// P3603: one note per program when its shape (recursive SCCs or heavy rule
/// fan-in) makes query-directed evaluation pay off.
fn demand_hint(ctx: &mut Ctx<'_>, graph: &DepGraph, heavy_fan_in: bool) {
    let recursive = recursive_sizes(graph).next().is_some();
    if !recursive && !heavy_fan_in {
        return;
    }
    let shape = match (recursive, heavy_fan_in) {
        (true, true) => "recursive cycles and high rule fan-in",
        (true, false) => "recursive cycles",
        (false, true) => "high rule fan-in",
        (false, false) => unreachable!(),
    };
    // Anchor at the first rule so the note lands on executable logic.
    let anchor = ctx.clauses.iter().position(|c| c.is_rule());
    let (span, label) = match anchor {
        Some(i) => (ctx.clause_span(i), Some(ctx.clauses[i].label.clone())),
        None => (None, None),
    };
    let mut d = DEMAND_MODE
        .note(format!("program shape ({shape})"))
        .with_span(span);
    if let Some(label) = label {
        d = d.with_clause(&label);
    }
    ctx.emit(d);
}

/// P3604: one note per program when its recursion is heavy enough (several
/// recursive SCCs, or one spanning ≥ 3 predicates) that re-deriving
/// provenance on every process start is the dominant cost of a restart —
/// recommend the persistent store, mirroring the P3603 demand-mode hint.
fn store_hint(ctx: &mut Ctx<'_>, graph: &DepGraph) {
    let recursive: Vec<usize> = recursive_sizes(graph).collect();
    let widest = recursive.iter().copied().max().unwrap_or(0);
    if recursive.len() < 2 && widest < 3 {
        return;
    }
    let shape = if recursive.len() >= 2 {
        format!("{} recursive cycles", recursive.len())
    } else {
        format!("a recursive cycle spanning {widest} predicates")
    };
    // Anchor at the first rule so the note lands on executable logic.
    let anchor = ctx.clauses.iter().position(|c| c.is_rule());
    let (span, label) = match anchor {
        Some(i) => (ctx.clause_span(i), Some(ctx.clauses[i].label.clone())),
        None => (None, None),
    };
    let mut d = WARM_RESTART
        .note(format!("program shape ({shape})"))
        .with_span(span);
    if let Some(label) = label {
        d = d.with_clause(&label);
    }
    ctx.emit(d);
}
