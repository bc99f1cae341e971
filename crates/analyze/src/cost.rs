//! Cardinality and cost propagation.
//!
//! Relations are abstracted to a single `u64` cardinality bound. EDB
//! predicates start at their exact fact count; rule heads accumulate
//! predicted firings, computed by a left-to-right join estimate that
//! divides each atom's cardinality by the distinct counts of its bound
//! columns (the classic System-R selectivity model over the inferred
//! [`crate::domain::ArgDomain`]s).
//!
//! Evaluation order is the dependencies-first SCC order of the program's
//! predicate dependency graph ([`Program::graph`]); strata only split on
//! negation, so positive recursion is iterated here. A recursive SCC is
//! iterated to a local fixpoint; if cardinalities are still growing after
//! [`WIDEN_AFTER`] rounds, every predicate in the SCC is widened to its
//! Cartesian bound (the product of its argument-domain sizes) and the
//! iteration stops — mirroring how the engine's semi-naive fixpoint is
//! bounded by the finite Herbrand base.

use crate::domain::{var_domains, ArgDomain, Domains};
use crate::plan::PredictedRuleCost;
use p3_datalog::ast::{Clause, ClauseId, CmpOp, Term};
use p3_datalog::diag::Diagnostic;
use p3_datalog::program::Program;
use p3_datalog::symbol::Symbol;
use std::collections::{HashMap, HashSet};

/// Every cardinality, candidate and cost figure saturates here (~10^12):
/// beyond this the prediction is "too big to run", and unbounded growth
/// would make rank comparisons meaningless anyway.
pub const COST_CAP: u64 = 1 << 40;

/// In-SCC fixpoint rounds before widening to the Cartesian bound.
pub const WIDEN_AFTER: usize = 3;

/// Cap on the predicted semi-naive iteration count of a recursive SCC.
pub const ITER_CAP: u64 = 64;

/// Predicted-DNF-width saturation point (monomials per derived tuple).
pub const WIDTH_CAP: u64 = 1 << 20;

/// Widths at or above this trigger the `P3701` wide-DNF warning.
pub const WIDE_DNF_THRESHOLD: u64 = 256;

/// A body reordering must predict at least this improvement factor
/// before `P3702` suggests it.
const REORDER_GAIN: u64 = 2;

fn cap(v: u64) -> u64 {
    v.min(COST_CAP)
}

fn mul(a: u64, b: u64) -> u64 {
    cap(a.saturating_mul(b))
}

fn add(a: u64, b: u64) -> u64 {
    cap(a.saturating_add(b))
}

/// The full static cost model for one program.
pub struct CostModel {
    /// Predicted cardinality bound per predicate.
    pub card: HashMap<Symbol, u64>,
    /// Predicates whose cardinality was widened to the Cartesian bound.
    pub widened: HashSet<Symbol>,
    /// Predicted DNF width (monomials per derived tuple) per predicate.
    pub dnf_width: HashMap<Symbol, u64>,
    /// Number of distinct rules deriving each predicate (proof fan-in).
    pub fan_in: HashMap<Symbol, u64>,
    /// Per-rule predicted costs, unsorted (the plan sorts them).
    pub rules: Vec<PredictedRuleCost>,
    /// Predicted semi-naive iterations per recursive predicate.
    pub iterations: HashMap<Symbol, u64>,
    /// `P37xx` diagnostics raised while estimating.
    pub diagnostics: Vec<Diagnostic>,
}

impl CostModel {
    /// Total predicted cost across all rules.
    pub fn total_cost(&self) -> u64 {
        self.rules.iter().fold(0, |acc, r| add(acc, r.cost()))
    }
}

/// Cartesian bound of an atom: the product of its argument-domain sizes.
fn cartesian_bound(pred: Symbol, arity: usize, domains: &Domains) -> u64 {
    (0..arity).fold(1u64, |acc, i| mul(acc, domains.arg_size(pred, i)))
}

/// Distinct values of column `i` of `pred`, clamped into `[1, card]`.
fn distinct(pred: Symbol, i: usize, card: u64, domains: &Domains) -> u64 {
    domains.arg_size(pred, i).clamp(1, card.max(1))
}

/// Left-to-right join estimate over `order` (indices into the body).
///
/// Returns `(firings, candidates)`: the predicted result rows and the
/// total join candidates scanned. Each atom contributes
/// `card / Π distinct(bound column)` matches per in-flight row.
fn join_estimate(
    clause: &Clause,
    order: &[usize],
    card: &HashMap<Symbol, u64>,
    domains: &Domains,
) -> (u64, u64) {
    let body = clause.body();
    let mut rows = 1u64;
    let mut candidates = 0u64;
    let mut bound: HashSet<Symbol> = HashSet::new();
    for &bi in order {
        let atom = &body[bi];
        let n = card.get(&atom.pred).copied().unwrap_or(0);
        if n == 0 {
            return (0, candidates);
        }
        let mut div = 1u64;
        for (i, term) in atom.args.iter().enumerate() {
            let selective = match term {
                Term::Const(_) => true,
                Term::Var(v) => bound.contains(v),
            };
            if selective {
                div = mul(div, distinct(atom.pred, i, n, domains));
            }
        }
        let matches = (n / div.max(1)).max(1);
        candidates = add(candidates, mul(rows, matches));
        rows = mul(rows, matches);
        for term in &atom.args {
            if let Term::Var(v) = term {
                bound.insert(*v);
            }
        }
    }
    (rows, candidates)
}

/// Greedy body reordering: repeatedly pick the atom with the fewest
/// predicted matches given the variables already bound.
fn greedy_order(clause: &Clause, card: &HashMap<Symbol, u64>, domains: &Domains) -> Vec<usize> {
    let body = clause.body();
    let mut remaining: Vec<usize> = (0..body.len()).collect();
    let mut order = Vec::with_capacity(body.len());
    let mut bound: HashSet<Symbol> = HashSet::new();
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &bi)| {
                let atom = &body[bi];
                let n = card.get(&atom.pred).copied().unwrap_or(0);
                if n == 0 {
                    return 0;
                }
                let mut div = 1u64;
                for (i, term) in atom.args.iter().enumerate() {
                    let selective = match term {
                        Term::Const(_) => true,
                        Term::Var(v) => bound.contains(v),
                    };
                    if selective {
                        div = mul(div, distinct(atom.pred, i, n, domains));
                    }
                }
                (n / div.max(1)).max(1)
            })
            .expect("remaining is non-empty");
        remaining.remove(pos);
        order.push(best);
        for term in &body[best].args {
            if let Term::Var(v) = term {
                bound.insert(*v);
            }
        }
    }
    order
}

/// Runs the whole cost analysis: cardinalities, per-rule costs, DNF
/// widths and the `P37xx` prediction diagnostics.
pub fn estimate(program: &Program, domains: &Domains) -> CostModel {
    let graph = program.graph();
    let mut card: HashMap<Symbol, u64> = HashMap::new();
    let mut widened: HashSet<Symbol> = HashSet::new();
    let mut fan_in: HashMap<Symbol, u64> = HashMap::new();

    // EDB layer: exact fact counts.
    for (_, clause) in program.iter() {
        if clause.is_fact() {
            *card.entry(clause.head.pred).or_insert(0) += 1;
        } else {
            *fan_in.entry(clause.head.pred).or_insert(0) += 1;
        }
    }

    // Rules grouped by head SCC, processed dependencies-first.
    let rules_of_scc: Vec<Vec<&Clause>> = (0..graph.num_sccs())
        .map(|k| {
            graph
                .rules(k)
                .iter()
                .map(|&i| &program.clauses()[i])
                .collect()
        })
        .collect();

    let mut iterations: HashMap<Symbol, u64> = HashMap::new();
    for (scc_i, rules) in rules_of_scc.iter().enumerate() {
        if rules.is_empty() {
            continue;
        }
        let recursive = graph.is_recursive(scc_i);
        let mut rounds = 0usize;
        loop {
            let mut changed = false;
            let mut derived: HashMap<Symbol, u64> = HashMap::new();
            for &clause in rules {
                let order: Vec<usize> = (0..clause.body().len()).collect();
                let (firings, _) = join_estimate(clause, &order, &card, domains);
                let head_bound = cartesian_bound(clause.head.pred, clause.head.args.len(), domains);
                let tuples = firings.min(head_bound);
                let entry = derived.entry(clause.head.pred).or_insert(0);
                *entry = add(*entry, tuples);
            }
            for (&pred, &tuples) in &derived {
                let head_bound = cartesian_bound(pred, program.arity(pred).unwrap_or(0), domains);
                let entry = card.entry(pred).or_insert(0);
                let next = entry.saturating_add(tuples).min(head_bound).min(COST_CAP);
                if next > *entry {
                    *entry = next;
                    changed = true;
                }
            }
            rounds += 1;
            if !changed || !recursive {
                break;
            }
            if rounds >= WIDEN_AFTER {
                // Still growing: widen every head in the SCC to its
                // Cartesian bound and stop iterating.
                for &clause in rules {
                    let pred = clause.head.pred;
                    let bound = cartesian_bound(pred, clause.head.args.len(), domains);
                    let entry = card.entry(pred).or_insert(0);
                    if bound > *entry {
                        *entry = bound;
                        widened.insert(pred);
                    }
                }
                break;
            }
        }
        if recursive {
            // Fixpoint depth ≈ the longest chain a recursive argument can
            // take, bounded by the widest argument domain in the SCC.
            let members = || graph.members(scc_i).iter().map(|&v| graph.pred(v));
            let depth = members()
                .map(|p| {
                    (0..program.arity(p).unwrap_or(0))
                        .map(|i| domains.arg_size(p, i))
                        .max()
                        .unwrap_or(1)
                })
                .max()
                .unwrap_or(1)
                .clamp(2, ITER_CAP);
            for p in members() {
                iterations.insert(p, depth);
            }
        }
    }

    // Final per-rule pass with the settled cardinalities.
    let mut rules_out: Vec<PredictedRuleCost> = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let symbols = program.symbols();
    for (id, clause) in program.iter() {
        if !clause.is_rule() {
            continue;
        }
        let head_pred = clause.head.pred;
        let source_order: Vec<usize> = (0..clause.body().len()).collect();
        let (mut firings, mut candidates) = join_estimate(clause, &source_order, &card, domains);
        // Semi-naive only re-runs a rule when its body reads a delta
        // relation from the head's own SCC; a rule that joins nothing
        // but lower strata fires in round one and never again.
        let in_fixpoint_loop = graph.rule_is_recursive(clause);
        let iters = if in_fixpoint_loop {
            iterations.get(&head_pred).copied().unwrap_or(2)
        } else {
            1
        };
        firings = mul(firings, iters);
        candidates = mul(candidates, iters);
        let head_bound = cartesian_bound(head_pred, clause.head.args.len(), domains);
        let new_tuples = firings.min(head_bound);
        rules_out.push(PredictedRuleCost {
            clause: Some(id),
            label: clause.label.clone(),
            head: symbols.resolve(head_pred).to_string(),
            recursive: in_fixpoint_loop,
            firings,
            new_tuples,
            candidates,
            iterations: iters,
        });

        // P3702: join-order hint.
        if clause.body().len() >= 2 {
            let best_order = greedy_order(clause, &card, domains);
            if best_order != source_order {
                let (_, best_candidates) = join_estimate(clause, &best_order, &card, domains);
                if best_candidates > 0
                    && candidates / iters.max(1) >= best_candidates.saturating_mul(REORDER_GAIN)
                {
                    let suggested: Vec<String> = best_order
                        .iter()
                        .map(|&bi| symbols.resolve(clause.body()[bi].pred).to_string())
                        .collect();
                    diagnostics.push(
                        Diagnostic::info(
                            "P3702",
                            format!(
                                "rule '{}' joins its body in a suboptimal order: predicted {} \
                                 join candidates as written vs {} with order {}",
                                clause.label,
                                candidates / iters.max(1),
                                best_candidates,
                                suggested.join(", "),
                            ),
                        )
                        .with_span(program.clause_spans(id).map(|s| s.clause))
                        .with_clause(clause.label.clone())
                        .with_help(
                            "place the most selective atoms first so earlier bindings restrict \
                             each probe; the engine joins body atoms left to right",
                        ),
                    );
                }
            }
        }

        // P3703: domain mismatches that make the rule unsatisfiable or
        // compare symbols by order.
        diagnostics.extend(domain_mismatches(program, id, clause, domains));
    }

    // DNF widths: dependencies-first, recursive SCCs saturate.
    let mut dnf_width: HashMap<Symbol, u64> = HashMap::new();
    let mut fact_preds: HashSet<Symbol> = HashSet::new();
    for (_, clause) in program.iter() {
        if clause.is_fact() {
            dnf_width.entry(clause.head.pred).or_insert(1);
            fact_preds.insert(clause.head.pred);
        }
    }
    for (scc_i, rules) in rules_of_scc.iter().enumerate() {
        if rules.is_empty() {
            continue;
        }
        let recursive = graph.is_recursive(scc_i);
        let mut rounds = 0usize;
        loop {
            let mut changed = false;
            for &clause in rules {
                let head = clause.head.pred;
                let body_width = clause.body().iter().fold(1u64, |acc, atom| {
                    mul(acc, dnf_width.get(&atom.pred).copied().unwrap_or(1))
                });
                // Alternative derivations of the same head tuple stack as
                // extra monomials: rules add, joins multiply.
                let base = u64::from(fact_preds.contains(&head));
                let total = rules
                    .iter()
                    .filter(|c| c.head.pred == head)
                    .fold(base, |acc, c| {
                        let w = c.body().iter().fold(1u64, |a, atom| {
                            mul(a, dnf_width.get(&atom.pred).copied().unwrap_or(1))
                        });
                        add(acc, w)
                    })
                    .min(WIDTH_CAP)
                    .max(body_width.min(WIDTH_CAP));
                let entry = dnf_width.entry(head).or_insert(0);
                if total > *entry {
                    *entry = total;
                    changed = true;
                }
            }
            rounds += 1;
            if !changed {
                break;
            }
            if recursive && rounds >= WIDEN_AFTER {
                for clause in rules {
                    dnf_width.insert(clause.head.pred, WIDTH_CAP);
                }
                break;
            }
        }
    }

    // P3701: wide-DNF warning per IDB predicate.
    let mut warned: HashSet<Symbol> = HashSet::new();
    for (id, clause) in program.iter() {
        if !clause.is_rule() || !warned.insert(clause.head.pred) {
            continue;
        }
        let pred = clause.head.pred;
        let width = dnf_width.get(&pred).copied().unwrap_or(1);
        if width >= WIDE_DNF_THRESHOLD {
            let shown = if width >= WIDTH_CAP {
                format!("{WIDTH_CAP}+ (saturated)")
            } else {
                width.to_string()
            };
            diagnostics.push(
                Diagnostic::warn(
                    "P3701",
                    format!(
                        "predicted provenance width for '{}' is {} monomials per tuple \
                         (proof fan-in {} rules)",
                        symbols.resolve(pred),
                        shown,
                        fan_in.get(&pred).copied().unwrap_or(0),
                    ),
                )
                .with_span(program.clause_spans(id).map(|s| s.clause))
                .with_clause(clause.label.clone())
                .with_help(
                    "wide DNFs make exact probability computation expensive; consider a hop \
                     limit (--hop-limit) or Monte-Carlo estimation for queries over this \
                     predicate",
                ),
            );
        }
    }

    CostModel {
        card,
        widened,
        dnf_width,
        fan_in,
        rules: rules_out,
        iterations,
        diagnostics,
    }
}

/// `P3703` detection for one rule: join variables whose occurrence
/// domains cannot intersect, and order comparisons over symbol-only
/// positions (symbols only support a meaningful `=` / `!=`).
fn domain_mismatches(
    program: &Program,
    id: ClauseId,
    clause: &Clause,
    domains: &Domains,
) -> Vec<Diagnostic> {
    use crate::domain::AbsType;
    let symbols = program.symbols();
    let mut out = Vec::new();
    let span = program.clause_spans(id).map(|s| s.clause);

    // Per-variable occurrence list over the body.
    let mut occurrences: HashMap<Symbol, Vec<(Symbol, usize)>> = HashMap::new();
    for atom in clause.body() {
        for (i, term) in atom.args.iter().enumerate() {
            if let Term::Var(v) = term {
                occurrences.entry(*v).or_default().push((atom.pred, i));
            }
        }
    }
    let mut flagged: HashSet<Symbol> = HashSet::new();
    for (&var, occs) in &occurrences {
        if occs.len() < 2 {
            continue;
        }
        for w in occs.windows(2) {
            let a = domains.arg(w[0].0, w[0].1);
            let b = domains.arg(w[1].0, w[1].1);
            if a.disjoint_with(&b) && flagged.insert(var) {
                out.push(
                    Diagnostic::warn(
                        "P3703",
                        format!(
                            "rule '{}' can never fire: variable {} joins {}[{}] ({}) with \
                             {}[{}] ({}) but the domains share no constant",
                            clause.label,
                            symbols.resolve(var),
                            symbols.resolve(w[0].0),
                            w[0].1,
                            a.render(),
                            symbols.resolve(w[1].0),
                            w[1].1,
                            b.render(),
                        ),
                    )
                    .with_span(span)
                    .with_clause(clause.label.clone())
                    .with_help(
                        "the inferred argument domains are disjoint, so the join is empty in \
                         every world; check for a typo'd predicate or a sym/int mismatch",
                    ),
                );
                break;
            }
        }
    }

    // Ordering constraints over symbol-only variables.
    let vars = var_domains(clause, domains);
    for constraint in clause.constraints() {
        if matches!(constraint.op, CmpOp::Eq | CmpOp::Ne) {
            continue;
        }
        let sym_only = |t: &Term| -> bool {
            match t {
                Term::Var(v) => vars.get(v).map(|d| d.ty == AbsType::Sym).unwrap_or(false),
                Term::Const(c) => AbsType::of(c) == AbsType::Sym,
            }
        };
        if sym_only(&constraint.lhs) || sym_only(&constraint.rhs) {
            out.push(
                Diagnostic::warn(
                    "P3703",
                    format!(
                        "rule '{}' orders symbol-typed terms with '{}': symbols compare by \
                         interning order, which is source order, not a meaningful value order",
                        clause.label,
                        constraint.op.token(),
                    ),
                )
                .with_span(span)
                .with_clause(clause.label.clone())
                .with_help(
                    "only = and != are meaningful on symbols; use integer arguments if the \
                     comparison is intentional",
                ),
            );
        }
    }
    out
}

/// Helper shared by the plan and mode recommendation: an [`ArgDomain`]
/// rendered against the universe size (re-exported for tests).
pub fn domain_size(domain: &ArgDomain, universe: u64) -> u64 {
    domain.size(universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::infer;

    fn model(src: &str) -> (Program, CostModel) {
        let p = Program::parse(src).unwrap();
        let d = infer(&p);
        let m = estimate(&p, &d);
        (p, m)
    }

    #[test]
    fn flat_rule_costs_match_join_shape() {
        let (p, m) = model(
            "t1 0.5: edge(1,2).\nt2 0.5: edge(2,3).\n\
             r1 1.0: path(X,Y) :- edge(X,Y).\n",
        );
        let path = p.symbols().get("path").unwrap();
        assert_eq!(m.card[&path], 2);
        let r1 = m.rules.iter().find(|r| r.label == "r1").unwrap();
        assert!(!r1.recursive);
        assert_eq!(r1.iterations, 1);
        assert_eq!(r1.firings, 2);
    }

    #[test]
    fn recursive_scc_is_widened_and_iterated() {
        let (p, m) = model(
            "t1 0.5: edge(1,2).\nt2 0.5: edge(2,3).\nt3 0.5: edge(3,4).\n\
             r1 1.0: path(X,Y) :- edge(X,Y).\n\
             r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).\n",
        );
        let path = p.graph().scc(p.symbols().get("path").unwrap()).unwrap();
        assert!(p.graph().is_recursive(path));
        let r2 = m.rules.iter().find(|r| r.label == "r2").unwrap();
        assert!(r2.recursive);
        assert!(r2.iterations >= 2);
        let r1 = m.rules.iter().find(|r| r.label == "r1").unwrap();
        assert!(r2.cost() > r1.cost(), "recursive rule must dominate");
    }

    #[test]
    fn mutual_recursion_detected() {
        let (p, m) = model(
            "t1 0.5: seed(1).\n\
             r1 1.0: a(X) :- seed(X).\n\
             r2 1.0: a(X) :- b(X).\n\
             r3 1.0: b(X) :- a(X).\n",
        );
        let scc = |name| p.graph().scc(p.symbols().get(name).unwrap()).unwrap();
        assert!(p.graph().is_recursive(scc("a")));
        assert_eq!(scc("a"), scc("b"));
        let recursive = |label: &str| m.rules.iter().find(|r| r.label == label).unwrap().recursive;
        assert_eq!(
            [recursive("r1"), recursive("r2"), recursive("r3")],
            [false, true, true]
        );
    }

    #[test]
    fn disjoint_join_raises_p3703() {
        let (_, m) = model("t1 0.5: a(1).\nt2 0.5: b(two).\nr1 1.0: both(X) :- a(X), b(X).\n");
        assert!(m.diagnostics.iter().any(|d| d.code == "P3703"));
    }

    #[test]
    fn symbol_ordering_raises_p3703() {
        let (_, m) = model(
            "t1 0.5: person(alice).\nt2 0.5: person(bob).\n\
             r1 1.0: pair(X,Y) :- person(X), person(Y), X < Y.\n",
        );
        assert!(m
            .diagnostics
            .iter()
            .any(|d| d.code == "P3703" && d.message.contains("interning order")));
    }

    #[test]
    fn bad_join_order_raises_p3702() {
        // `huge` joined first scans everything; greedy would start at the
        // constant-bound `tiny` atom.
        let mut src = String::new();
        for i in 0..40 {
            for j in 0..40 {
                src.push_str(&format!("huge({i},{j}).\n"));
            }
        }
        src.push_str("tiny(1).\n");
        src.push_str("r1 1.0: out(X,Y) :- huge(X,Y), tiny(X).\n");
        let (_, m) = model(&src);
        assert!(m.diagnostics.iter().any(|d| d.code == "P3702"));
    }

    #[test]
    fn costs_saturate_at_cap() {
        // Self-join chain over a widened relation stays below COST_CAP.
        let mut src = String::new();
        for i in 0..100 {
            src.push_str(&format!("e({i},{}).\n", i + 1));
        }
        src.push_str("r1 1.0: p(A,E) :- e(A,B), e(B,C), e(C,D), e(D,E).\n");
        src.push_str("r2 1.0: p(A,C) :- p(A,B), p(B,C).\n");
        let (_, m) = model(&src);
        for r in &m.rules {
            assert!(r.cost() <= 3 * COST_CAP);
        }
    }
}
