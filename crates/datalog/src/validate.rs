//! The validity rules of the language, checked all at once.
//!
//! [`validate`] runs every error-severity check over raw clauses and
//! reports every violation, not just the first: unsafe variables
//! (`P3101`), non-ground facts (`P3102`), empty rule bodies (`P3103`),
//! duplicate clause labels (`P3104`), arity mismatches (`P3105`),
//! unstratified negation (`P3201`) and probabilities outside `[0, 1]`
//! (`P3301`). [`Program`](crate::Program) validation fails when any is
//! found; `p3-lint` reports them beside its warnings and notes, which it
//! computes over the same [`Ctx`].

use crate::ast::{Clause, ClauseId, ClauseKind};
use crate::diag::Diagnostic;
use crate::graph::DepGraph;
use crate::parser::{ClauseSpans, Span};
use crate::symbol::{Symbol, SymbolTable};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// A clause list under check: the clauses, their names and spans, and the
/// findings so far.
pub struct Ctx<'a> {
    /// The clauses, in source order.
    pub clauses: &'a [Clause],
    /// The table their symbols resolve in.
    pub symbols: &'a SymbolTable,
    spans: &'a [ClauseSpans],
    /// The findings recorded so far.
    pub diagnostics: Vec<Diagnostic>,
}

impl<'a> Ctx<'a> {
    /// A context with no findings. `spans` may be empty (or shorter than
    /// `clauses`) for programmatically built programs.
    pub fn new(clauses: &'a [Clause], symbols: &'a SymbolTable, spans: &'a [ClauseSpans]) -> Self {
        Self {
            clauses,
            symbols,
            spans,
            diagnostics: Vec::new(),
        }
    }

    /// Resolves a predicate or variable symbol to its name.
    pub fn name(&self, sym: Symbol) -> &str {
        self.symbols.resolve(sym)
    }

    /// Records one finding.
    pub fn emit(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// The span of clause `i`; like every span accessor, `None` for a
    /// programmatically built program, which carries no spans.
    pub fn clause_span(&self, i: usize) -> Option<Span> {
        self.spans.get(i).map(|s| s.clause)
    }

    /// The span of clause `i`'s head.
    pub fn head_span(&self, i: usize) -> Option<Span> {
        self.spans.get(i).map(|s| s.head)
    }

    /// The span of clause `i`'s probability literal, else of the clause.
    pub fn prob_span(&self, i: usize) -> Option<Span> {
        self.spans
            .get(i)
            .and_then(|s| s.prob)
            .or_else(|| self.clause_span(i))
    }

    /// The span of clause `i`'s `j`-th positive body atom.
    pub fn body_span(&self, i: usize, j: usize) -> Option<Span> {
        self.spans.get(i).and_then(|s| s.body.get(j).copied())
    }

    /// The span of clause `i`'s `j`-th negated atom.
    pub fn negated_span(&self, i: usize, j: usize) -> Option<Span> {
        self.spans.get(i).and_then(|s| s.negated.get(j).copied())
    }

    /// The span of clause `i`'s `j`-th constraint.
    pub fn constraint_span(&self, i: usize, j: usize) -> Option<Span> {
        self.spans
            .get(i)
            .and_then(|s| s.constraints.get(j).copied())
    }
}

/// What [`validate`] finds, and what its checks learn on the way.
pub struct Validation {
    /// Every violation, in [`sort`] order.
    pub errors: Vec<Diagnostic>,
    /// The predicate dependency graph the stratification check reads.
    pub graph: DepGraph,
    /// The first clause of each label.
    pub(crate) labels: HashMap<String, ClauseId>,
    /// The arity each predicate is first used at.
    pub(crate) arities: HashMap<Symbol, usize>,
    /// The stratum of each of `graph`'s SCCs; empty when some negation is
    /// unstratified.
    pub(crate) strata: Vec<usize>,
}

/// Checks every validity rule over raw clauses, as parsed or built.
/// `spans` may be empty for programmatically built programs; the findings
/// then carry no span.
pub fn validate(clauses: &[Clause], symbols: &SymbolTable, spans: &[ClauseSpans]) -> Validation {
    let mut ctx = Ctx::new(clauses, symbols, spans);
    safety(&mut ctx);
    let labels = duplicate_labels(&mut ctx);
    let arities = arities(&mut ctx);
    probabilities(&mut ctx);
    let graph = DepGraph::build(clauses);
    let strata = stratification(&mut ctx, &graph);
    sort(&mut ctx.diagnostics);
    Validation {
        errors: ctx.diagnostics,
        graph,
        labels,
        arities,
        strata,
    }
}

/// Sorts findings by source position, spanless ones last, then by code;
/// the sort is stable, so equal keys keep the order they were found in.
pub fn sort(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| {
        let pos = |d: &Diagnostic| d.span.map_or((usize::MAX, 0), |s| (s.start, s.end));
        pos(a).cmp(&pos(b)).then_with(|| a.code.cmp(b.code))
    });
}

/// Range restriction: unsafe variables (P3101), non-ground facts (P3102)
/// and empty rule bodies (P3103).
fn safety(ctx: &mut Ctx<'_>) {
    // Each unbound variable is reported once per clause; the set is
    // allocated by the first violation and cleared per rule.
    let mut reported: HashSet<Symbol> = HashSet::new();
    for (i, clause) in ctx.clauses.iter().enumerate() {
        match &clause.kind {
            ClauseKind::Fact => {
                if !clause.head.is_ground() {
                    let d = Diagnostic::error(
                        "P3102",
                        format!("base tuple '{}' contains a variable", clause.label),
                    )
                    .with_span(ctx.head_span(i))
                    .with_clause(&clause.label)
                    .with_help("facts must be ground: replace each variable with a constant");
                    ctx.emit(d);
                }
            }
            ClauseKind::Rule {
                body,
                negated,
                constraints,
            } => {
                if body.is_empty() {
                    let d = Diagnostic::error(
                        "P3103",
                        format!("rule '{}' has no body atoms", clause.label),
                    )
                    .with_span(ctx.clause_span(i))
                    .with_clause(&clause.label)
                    .with_help(
                        "a rule needs at least one positive body atom to bind its variables",
                    );
                    ctx.emit(d);
                }
                let bound: HashSet<Symbol> = body.iter().flat_map(|a| a.vars()).collect();
                // Report each unbound variable at the span of the first part
                // that uses it.
                reported.clear();
                let mut findings = Vec::new();
                for var in clause.head.vars() {
                    if !bound.contains(&var) && reported.insert(var) {
                        findings.push((var, ctx.head_span(i)));
                    }
                }
                for (j, constraint) in constraints.iter().enumerate() {
                    for var in constraint.vars() {
                        if !bound.contains(&var) && reported.insert(var) {
                            findings.push((var, ctx.constraint_span(i, j)));
                        }
                    }
                }
                for (j, atom) in negated.iter().enumerate() {
                    for var in atom.vars() {
                        if !bound.contains(&var) && reported.insert(var) {
                            findings.push((var, ctx.negated_span(i, j)));
                        }
                    }
                }
                for (var, span) in findings {
                    let d = Diagnostic::error(
                        "P3101",
                        format!(
                            "clause '{}' is unsafe: variable {} does not occur in any body atom",
                            clause.label,
                            ctx.name(var)
                        ),
                    )
                    .with_span(span)
                    .with_clause(&clause.label)
                    .with_help(
                        "every head, constraint and negated-atom variable must also appear \
                         in a positive body atom",
                    );
                    ctx.emit(d);
                }
            }
        }
    }
}

/// Duplicate clause labels (P3104). Returns each label's first clause.
fn duplicate_labels(ctx: &mut Ctx<'_>) -> HashMap<String, ClauseId> {
    let mut labels: HashMap<String, ClauseId> = HashMap::new();
    let mut findings = Vec::new();
    for (i, clause) in ctx.clauses.iter().enumerate() {
        match labels.entry(clause.label.clone()) {
            Entry::Occupied(first) => findings.push((i, first.get().index(), clause.label.clone())),
            Entry::Vacant(slot) => {
                slot.insert(ClauseId(i as u32));
            }
        }
    }
    for (i, first, label) in findings {
        let d = Diagnostic::error("P3104", format!("duplicate clause label '{label}'"))
            .with_span(ctx.clause_span(i))
            .with_clause(&label)
            .with_help(format!(
                "the label was first used by clause {}; labels name the Boolean \
                 random variables, so each must be unique",
                first + 1
            ));
        ctx.emit(d);
    }
    labels
}

/// Arity mismatches (P3105). Returns the arity each predicate is first
/// used at.
fn arities(ctx: &mut Ctx<'_>) -> HashMap<Symbol, usize> {
    let mut arities: HashMap<Symbol, usize> = HashMap::new();
    let mut findings: Vec<(Symbol, usize, usize, Option<Span>, String)> = Vec::new();
    let mut check = |arities: &mut HashMap<Symbol, usize>,
                     pred: Symbol,
                     arity: usize,
                     span: Option<Span>,
                     label: &str| {
        match arities.get(&pred) {
            Some(&expected) if expected != arity => {
                findings.push((pred, expected, arity, span, label.to_string()));
            }
            Some(_) => {}
            None => {
                arities.insert(pred, arity);
            }
        }
    };
    for (i, clause) in ctx.clauses.iter().enumerate() {
        check(
            &mut arities,
            clause.head.pred,
            clause.head.args.len(),
            ctx.head_span(i),
            &clause.label,
        );
        for (j, atom) in clause.body().iter().enumerate() {
            check(
                &mut arities,
                atom.pred,
                atom.args.len(),
                ctx.body_span(i, j),
                &clause.label,
            );
        }
        for (j, atom) in clause.negated().iter().enumerate() {
            check(
                &mut arities,
                atom.pred,
                atom.args.len(),
                ctx.negated_span(i, j),
                &clause.label,
            );
        }
    }
    for (pred, expected, found, span, label) in findings {
        let d = Diagnostic::error(
            "P3105",
            format!(
                "predicate '{}' used with arity {found} but previously with arity {expected}",
                ctx.name(pred)
            ),
        )
        .with_span(span)
        .with_clause(&label);
        ctx.emit(d);
    }
    arities
}

/// Probabilities outside `[0, 1]` (P3301). The parser rejects such a
/// literal itself, so this finds the ones a builder or a what-if copy sets.
fn probabilities(ctx: &mut Ctx<'_>) {
    for (i, clause) in ctx.clauses.iter().enumerate() {
        if !(0.0..=1.0).contains(&clause.prob) {
            let d = Diagnostic::error(
                "P3301",
                format!(
                    "clause '{}' has probability {} outside [0, 1]",
                    clause.label, clause.prob
                ),
            )
            .with_span(ctx.prob_span(i))
            .with_clause(&clause.label);
            ctx.emit(d);
        }
    }
}

/// Unstratified negation (P3201): every negated atom whose predicate lies
/// in its rule head's SCC. Returns the strata, or nothing when there is
/// such an atom.
fn stratification(ctx: &mut Ctx<'_>, graph: &DepGraph) -> Vec<usize> {
    if let Ok(strata) = graph.strata(ctx.clauses) {
        return strata;
    }
    let clauses = ctx.clauses;
    for (i, clause) in clauses.iter().enumerate() {
        for j in graph.unstratified(clause) {
            let d = Diagnostic::error(
                "P3201",
                format!(
                    "program is not stratified: predicate '{}' is negated within a recursive \
                     cycle",
                    ctx.name(clause.negated()[j].pred)
                ),
            )
            .with_span(ctx.negated_span(i, j))
            .with_clause(&clause.label)
            .with_help(
                "negation through recursion has no least fixpoint; break the cycle or \
                 move the negated predicate to a lower stratum",
            );
            ctx.emit(d);
        }
    }
    Vec::new()
}
