//! Name hygiene: undefined predicates with typo suggestions (P3501).

use p3_datalog::diag::Diagnostic;
use p3_datalog::symbol::Symbol;
use p3_datalog::validate::Ctx;
use std::collections::HashSet;

pub(crate) fn run(ctx: &mut Ctx<'_>) {
    let defined: HashSet<Symbol> = ctx.clauses.iter().map(|c| c.head.pred).collect();
    let mut reported: HashSet<Symbol> = HashSet::new();
    let mut findings = Vec::new();
    for (i, clause) in ctx.clauses.iter().enumerate() {
        let atoms = clause
            .body()
            .iter()
            .enumerate()
            .map(|(j, a)| (a, ctx.body_span(i, j)))
            .chain(
                clause
                    .negated()
                    .iter()
                    .enumerate()
                    .map(|(j, a)| (a, ctx.negated_span(i, j))),
            );
        for (atom, span) in atoms {
            if !defined.contains(&atom.pred) && reported.insert(atom.pred) {
                findings.push((atom.pred, span, clause.label.clone()));
            }
        }
    }
    for (pred, span, label) in findings {
        let name = ctx.name(pred);
        let suggestion = defined
            .iter()
            .map(|&d| ctx.name(d))
            .filter(|cand| edit_distance_at_most_one(name, cand))
            .min()
            .map(str::to_string);
        let mut d = Diagnostic::warn(
            "P3501",
            format!("predicate '{name}' is used in a body but never defined by any fact or rule"),
        )
        .with_span(span)
        .with_clause(&label);
        if let Some(candidate) = suggestion {
            d = d.with_help(format!("did you mean '{candidate}'?"));
        }
        ctx.emit(d);
    }
}

/// True when `a` and `b` differ by at most one insertion, deletion or
/// substitution (and are not equal).
fn edit_distance_at_most_one(a: &str, b: &str) -> bool {
    if a == b {
        return false;
    }
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    if long.len() - short.len() > 1 {
        return false;
    }
    let mut i = 0;
    while i < short.len() && short[i] == long[i] {
        i += 1;
    }
    if short.len() == long.len() {
        // One substitution: tails after the mismatch must agree.
        short[i + 1..] == long[i + 1..]
    } else {
        // One insertion in `long`: skip the extra char and compare tails.
        short[i..] == long[i + 1..]
    }
}

#[cfg(test)]
mod tests {
    use super::edit_distance_at_most_one;

    #[test]
    fn edit_distance_one() {
        assert!(edit_distance_at_most_one("edge", "edgs"));
        assert!(edit_distance_at_most_one("edge", "edg"));
        assert!(edit_distance_at_most_one("edg", "edge"));
        assert!(edit_distance_at_most_one("edge", "ledge"));
        assert!(!edit_distance_at_most_one("edge", "edge"));
        assert!(!edit_distance_at_most_one("edge", "node"));
        assert!(!edit_distance_at_most_one("edge", "ed"));
    }
}
