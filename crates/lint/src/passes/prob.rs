//! Probability checks: zero-probability clauses (P3302) and duplicate
//! ground facts combined by noisy-or (P3303).

use p3_datalog::ast::{Atom, Term};
use p3_datalog::diag::Diagnostic;
use p3_datalog::validate::Ctx;
use std::collections::HashMap;

pub(crate) fn run(ctx: &mut Ctx<'_>) {
    for (i, clause) in ctx.clauses.iter().enumerate() {
        if clause.prob == 0.0 {
            let d = Diagnostic::warn(
                "P3302",
                format!(
                    "clause '{}' has probability 0: it can never be present in a sampled world",
                    clause.label
                ),
            )
            .with_span(ctx.prob_span(i))
            .with_clause(&clause.label)
            .with_help("delete the clause, or give it a positive probability");
            ctx.emit(d);
        }
    }
    duplicate_facts(ctx);
}

/// Two facts with the same ground head are legal — their presence variables
/// are independent and the query probability noisy-ors them — but are most
/// often an accidental repetition, so flag the later occurrences.
fn duplicate_facts(ctx: &mut Ctx<'_>) {
    let mut seen: HashMap<(usize, Vec<Term>), usize> = HashMap::new();
    let mut findings = Vec::new();
    for (i, clause) in ctx.clauses.iter().enumerate() {
        if !clause.is_fact() || !clause.head.is_ground() {
            continue;
        }
        let key = (clause.head.pred.index(), clause.head.args.clone());
        if let Some(&first) = seen.get(&key) {
            findings.push((i, first));
        } else {
            seen.insert(key, i);
        }
    }
    for (i, first) in findings {
        let head: &Atom = &ctx.clauses[i].head;
        let label = ctx.clauses[i].label.clone();
        let first_label = ctx.clauses[first].label.clone();
        let rendered = format!("{}", head.display(ctx.symbols));
        let d = Diagnostic::warn("P3303", format!("duplicate ground fact {rendered}"))
            .with_span(ctx.head_span(i))
            .with_clause(&label)
            .with_help(format!(
                "'{first_label}' already asserts this tuple; the duplicates are independent \
             variables and their probabilities combine by noisy-or"
            ));
        ctx.emit(d);
    }
}
