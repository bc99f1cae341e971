//! Validated probabilistic logic programs.
//!
//! A [`Program`] owns its clauses and symbol table and guarantees the static
//! well-formedness properties the engine relies on, which
//! [`validate`](crate::validate) checks, reporting every violation:
//!
//! * base tuples are ground;
//! * rules are *safe*: they have a positive body atom, and every head,
//!   constraint and negated-atom variable occurs in one;
//! * predicates are used at a consistent arity;
//! * clause labels are unique;
//! * clause probabilities lie in `[0, 1]`;
//! * negation is stratified.
//!
//! A program also owns the [`FactBase`] its demand evaluations share: its
//! facts interned once, on first use, for every clone, what-if copy and
//! program the demand transform derives from it.

use crate::ast::{Atom, Clause, ClauseId, ClauseKind, CmpOp, Const, Constraint, Term};
use crate::diag::Diagnostic;
use crate::engine::FactBase;
use crate::graph::DepGraph;
use crate::parser::{self, ClauseSpans, ParseError};
use crate::symbol::{Symbol, SymbolTable};
use crate::validate::validate;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A validated ProbLog-like program.
#[derive(Debug, Clone)]
pub struct Program {
    clauses: Vec<Clause>,
    symbols: SymbolTable,
    labels: HashMap<String, ClauseId>,
    arities: HashMap<Symbol, usize>,
    graph: DepGraph,
    /// The stratum of each of `graph`'s SCCs.
    strata: Vec<usize>,
    /// Byte spans per clause; empty for programmatically built programs.
    spans: Vec<ClauseSpans>,
    /// The original source text, when the program was parsed from text.
    source: Option<String>,
    /// Where the fact base of demand evaluation comes from.
    facts: Facts,
}

/// The fact base of a program's demand evaluations.
#[derive(Debug, Clone)]
enum Facts {
    /// Built from the program's own fact clauses on first use; the cell is
    /// shared by clones and what-if copies.
    Own(Arc<OnceLock<Arc<FactBase>>>),
    /// A derived program's: the base of the program it was derived from,
    /// which holds all of its facts but the ones among its own clauses.
    Over(Arc<FactBase>),
}

/// Why a program was refused: its source failed to parse, or its clauses
/// break the language's validity rules.
#[derive(Debug)]
pub enum ProgramError {
    /// The source text failed to parse.
    Parse(ParseError),
    /// Every error-severity finding of [`validate`], in source order, each
    /// located against the source when there is one.
    Invalid(Vec<Diagnostic>),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Parse(e) => write!(f, "{}", e.to_diagnostic()),
            ProgramError::Invalid(errors) => {
                write!(f, "program rejected: {} error(s)", errors.len())?;
                for d in errors {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for ProgramError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProgramError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for ProgramError {
    fn from(e: ParseError) -> Self {
        ProgramError::Parse(e)
    }
}

impl Program {
    /// Parses and validates source text, retaining clause spans and the
    /// source itself so later diagnostics can render rustc-style excerpts.
    pub fn parse(src: &str) -> Result<Self, ProgramError> {
        let parsed = parser::parse(src)?;
        Self::validated(
            parsed.clauses,
            parsed.symbols,
            parsed.spans,
            Some(src.to_string()),
        )
    }

    /// Validates clauses constructed programmatically (for example by a
    /// [`ProgramBuilder`]). Such programs carry no spans.
    pub fn from_clauses(clauses: Vec<Clause>, symbols: SymbolTable) -> Result<Self, ProgramError> {
        Self::validated(clauses, symbols, Vec::new(), None)
    }

    fn validated(
        clauses: Vec<Clause>,
        symbols: SymbolTable,
        spans: Vec<ClauseSpans>,
        source: Option<String>,
    ) -> Result<Self, ProgramError> {
        let checked = validate(&clauses, &symbols, &spans);
        if !checked.errors.is_empty() {
            let mut errors = checked.errors;
            if let Some(src) = &source {
                errors = errors.into_iter().map(|d| d.locate(src)).collect();
            }
            return Err(ProgramError::Invalid(errors));
        }
        Ok(Self {
            clauses,
            symbols,
            labels: checked.labels,
            arities: checked.arities,
            graph: checked.graph,
            strata: checked.strata,
            spans,
            source,
            facts: Facts::Own(Arc::default()),
        })
    }

    /// Validates clauses derived from another program that evaluate over
    /// its fact base `base`: the base holds the source's facts, `clauses`
    /// only what the derivation adds.
    pub(crate) fn over(
        clauses: Vec<Clause>,
        symbols: SymbolTable,
        base: Arc<FactBase>,
    ) -> Result<Self, ProgramError> {
        let mut program = Self::from_clauses(clauses, symbols)?;
        program.facts = Facts::Over(base);
        Ok(program)
    }

    /// All clauses, in source order. A clause's position is its [`ClauseId`].
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// The clause with identifier `id`.
    pub fn clause(&self, id: ClauseId) -> &Clause {
        &self.clauses[id.index()]
    }

    /// Looks up a clause by its source label.
    pub fn clause_by_label(&self, label: &str) -> Option<ClauseId> {
        self.labels.get(label).copied()
    }

    /// The program's symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Iterates over `(id, clause)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClauseId, &Clause)> {
        self.clauses
            .iter()
            .enumerate()
            .map(|(i, c)| (ClauseId(i as u32), c))
    }

    /// The arity of `pred`, if the predicate appears in the program.
    pub fn arity(&self, pred: Symbol) -> Option<usize> {
        self.arities.get(&pred).copied()
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the program has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Renders the whole program back to surface syntax.
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        for clause in &self.clauses {
            out.push_str(&format!("{}\n", clause.display(&self.symbols)));
        }
        out
    }

    /// The evaluation stratum of `pred` (0 when the predicate is unknown).
    ///
    /// Negation-free programs have a single stratum 0. With stratified
    /// negation, a rule's negated predicates always sit in strictly lower
    /// strata than its head.
    pub fn stratum(&self, pred: Symbol) -> usize {
        self.graph.scc(pred).map_or(0, |k| self.strata[k])
    }

    /// The number of strata (1 for negation-free programs).
    pub fn num_strata(&self) -> usize {
        self.strata.iter().copied().max().unwrap_or(0) + 1
    }

    /// The predicate dependency graph, condensed into SCCs.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// Whether any rule uses negation.
    pub fn has_negation(&self) -> bool {
        self.clauses.iter().any(|c| !c.negated().is_empty())
    }

    /// Returns a copy of this program with the probability of clause `id`
    /// replaced by `prob`. Used by modification queries to apply a fix.
    /// Spans and source are preserved so diagnostics keep their locations.
    /// The copy shares this program's fact base: probabilities are not
    /// part of it.
    pub fn with_probability(&self, id: ClauseId, prob: f64) -> Result<Self, ProgramError> {
        let mut clauses = self.clauses.clone();
        clauses[id.index()].prob = prob;
        let mut program = Self::validated(
            clauses,
            self.symbols.clone(),
            self.spans.clone(),
            self.source.clone(),
        )?;
        program.facts = self.facts.clone();
        Ok(program)
    }

    /// The frozen [`FactBase`] of this program's facts, built on the first
    /// call (the first demand evaluation) and shared from then on by every
    /// clone, what-if copy ([`Self::with_probability`]) and program derived
    /// from this one. A derived program answers its source's base.
    pub fn fact_base(&self) -> &Arc<FactBase> {
        match &self.facts {
            Facts::Own(cell) => cell.get_or_init(|| Arc::new(FactBase::build(self))),
            Facts::Over(base) => base,
        }
    }

    /// The fact base if it is built already; never builds it.
    pub fn built_fact_base(&self) -> Option<&Arc<FactBase>> {
        match &self.facts {
            Facts::Own(cell) => cell.get(),
            Facts::Over(base) => Some(base),
        }
    }

    /// The fact base a derived program evaluates over, in place of fact
    /// clauses of its own; `None` for a program whose facts are its
    /// clauses.
    pub fn over_base(&self) -> Option<&Arc<FactBase>> {
        match &self.facts {
            Facts::Own(_) => None,
            Facts::Over(base) => Some(base),
        }
    }

    /// The original source text, when the program was parsed from text.
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// Byte spans of every clause's parts, parallel to [`Self::clauses`].
    /// Empty for programmatically built programs.
    pub fn spans(&self) -> &[ClauseSpans] {
        &self.spans
    }

    /// The spans of clause `id`, when the program was parsed from text.
    pub fn clause_spans(&self, id: ClauseId) -> Option<&ClauseSpans> {
        self.spans.get(id.index())
    }
}

/// Incremental construction of programs without going through source text.
///
/// ```
/// use p3_datalog::program::{ProgramBuilder, T};
///
/// let mut b = ProgramBuilder::new();
/// b.fact("t1", 0.7, "trust", &[T::int(1), T::int(2)]);
/// b.rule("r1", 1.0, ("trustPath", &[T::var("X"), T::var("Y")]),
///        &[("trust", &[T::var("X"), T::var("Y")])], &[]);
/// let program = b.build().unwrap();
/// assert_eq!(program.len(), 2);
/// ```
#[derive(Default)]
pub struct ProgramBuilder {
    symbols: SymbolTable,
    clauses: Vec<Clause>,
}

/// A term spec for [`ProgramBuilder`] arguments.
#[derive(Clone, Debug)]
pub enum T {
    /// A symbol constant.
    Sym(String),
    /// An integer constant.
    Int(i64),
    /// A variable.
    Var(String),
}

impl T {
    /// A symbol constant.
    pub fn sym(s: impl Into<String>) -> Self {
        T::Sym(s.into())
    }

    /// An integer constant.
    pub fn int(i: i64) -> Self {
        T::Int(i)
    }

    /// A variable.
    pub fn var(s: impl Into<String>) -> Self {
        T::Var(s.into())
    }
}

/// A constraint spec for [`ProgramBuilder`] rules.
pub type ConstraintSpec<'a> = (T, CmpOp, T);

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn term(&mut self, t: &T) -> Term {
        match t {
            T::Sym(s) => Term::Const(Const::Sym(self.symbols.intern(s))),
            T::Int(i) => Term::Const(Const::Int(*i)),
            T::Var(v) => Term::Var(self.symbols.intern(v)),
        }
    }

    fn atom(&mut self, pred: &str, args: &[T]) -> Atom {
        let pred = self.symbols.intern(pred);
        let args = args.iter().map(|t| self.term(t)).collect();
        Atom { pred, args }
    }

    /// Adds a probabilistic base tuple.
    pub fn fact(&mut self, label: &str, prob: f64, pred: &str, args: &[T]) -> &mut Self {
        let head = self.atom(pred, args);
        self.clauses.push(Clause {
            label: label.to_string(),
            prob,
            head,
            kind: ClauseKind::Fact,
        });
        self
    }

    /// Adds a weighted conjunctive rule.
    pub fn rule(
        &mut self,
        label: &str,
        prob: f64,
        head: (&str, &[T]),
        body: &[(&str, &[T])],
        constraints: &[ConstraintSpec<'_>],
    ) -> &mut Self {
        let head = self.atom(head.0, head.1);
        let body = body.iter().map(|(p, args)| self.atom(p, args)).collect();
        let constraints = constraints
            .iter()
            .map(|(lhs, op, rhs)| Constraint {
                op: *op,
                lhs: self.term(lhs),
                rhs: self.term(rhs),
            })
            .collect();
        self.clauses.push(Clause {
            label: label.to_string(),
            prob,
            head,
            kind: ClauseKind::Rule {
                body,
                negated: Vec::new(),
                constraints,
            },
        });
        self
    }

    /// Validates and returns the finished program.
    pub fn build(self) -> Result<Program, ProgramError> {
        Program::from_clauses(self.clauses, self.symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_acquaintance_program() {
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
        assert_eq!(p.len(), 9);
        assert!(p.clause_by_label("r3").is_some());
        let r3 = p.clause(p.clause_by_label("r3").unwrap());
        assert!((r3.prob - 0.2).abs() < 1e-12);
        assert!(r3.is_rule());
    }

    /// The codes of a validation error's findings, in order.
    fn codes(err: &ProgramError) -> Vec<&'static str> {
        match err {
            ProgramError::Invalid(errors) => errors.iter().map(|d| d.code).collect(),
            ProgramError::Parse(e) => panic!("expected a validation error, got {e}"),
        }
    }

    #[test]
    fn rejects_non_ground_fact() {
        let err = Program::parse("t1 0.5: live(X).").unwrap_err();
        assert_eq!(codes(&err), ["P3102"], "{err}");
    }

    #[test]
    fn rejects_unsafe_head_variable() {
        let err = Program::parse("r1 0.5: p(X,Y) :- q(X).").unwrap_err();
        assert_eq!(codes(&err), ["P3101"], "{err}");
    }

    #[test]
    fn rejects_unsafe_constraint_variable() {
        let err = Program::parse("r1 0.5: p(X) :- q(X), X != Z.").unwrap_err();
        assert_eq!(codes(&err), ["P3101"], "{err}");
        assert!(err.to_string().contains("variable Z"), "{err}");
    }

    #[test]
    fn rejects_duplicate_labels() {
        let err = Program::parse("t1 0.5: p(a). t1 0.5: p(b).").unwrap_err();
        assert_eq!(codes(&err), ["P3104"], "{err}");
    }

    #[test]
    fn rejects_arity_mismatch() {
        let err = Program::parse("t1 0.5: p(a). r1 1.0: q(X) :- p(X,X).").unwrap_err();
        assert_eq!(codes(&err), ["P3105"], "{err}");
    }

    #[test]
    fn reports_every_violation_in_source_order() {
        let err = Program::parse("f(X).\ng(a) :- X != a.\n").unwrap_err();
        assert_eq!(codes(&err), ["P3102", "P3103", "P3101"], "{err}");
    }

    #[test]
    fn builder_and_parser_agree() {
        let mut b = ProgramBuilder::new();
        b.fact("t1", 0.7, "trust", &[T::int(1), T::int(2)]);
        b.rule(
            "r1",
            1.0,
            ("trustPath", &[T::var("X"), T::var("Y")]),
            &[("trust", &[T::var("X"), T::var("Y")])],
            &[],
        );
        let built = b.build().unwrap();
        let parsed =
            Program::parse("t1 0.7: trust(1,2). r1 1.0: trustPath(X,Y) :- trust(X,Y).").unwrap();
        assert_eq!(built.to_source(), parsed.to_source());
    }

    #[test]
    fn builder_rejects_bad_probability() {
        let mut b = ProgramBuilder::new();
        b.fact("t1", 1.5, "p", &[T::sym("a")]);
        assert_eq!(codes(&b.build().unwrap_err()), ["P3301"]);
    }

    #[test]
    fn to_source_round_trips() {
        let src = "r1 0.8: know(P1,P2) :- live(P1,C), live(P2,C), P1 != P2.\nt1 1.0: live(\"Steve\",\"DC\").\n";
        let p = Program::parse(src).unwrap();
        let p2 = Program::parse(&p.to_source()).unwrap();
        assert_eq!(p.to_source(), p2.to_source());
    }

    #[test]
    fn validation_errors_carry_spans_and_codes() {
        // Multi-line program: the error is on line 3 and must resolve there.
        let src = "t1 1.0: p(a).\nt2 1.0: p(b).\nr1 0.5: q(X) :- p(X), X != Z.\n";
        let ProgramError::Invalid(errors) = Program::parse(src).unwrap_err() else {
            panic!("expected a validation error");
        };
        let [d] = &errors[..] else {
            panic!("{errors:?}")
        };
        assert_eq!(d.code, "P3101");
        let span = d.span.expect("parsed programs have spans");
        assert_eq!(&src[span.start..span.end], "X != Z");
        assert_eq!(d.line, 3);
        assert!(d.column > 1);
        let rendered = d.render(Some(src), Some("bad.pl"));
        assert!(rendered.contains("error[P3101]"), "{rendered}");
        assert!(rendered.contains("bad.pl:3:"), "{rendered}");
        assert!(rendered.contains("^"), "{rendered}");
    }

    #[test]
    fn not_stratified_names_each_negated_predicate_at_its_atom() {
        // `lose` only reads the cycle through `win`; it is not on it.
        let src = "t1 1.0: base(a).\n\
                   r1 1.0: win(X) :- base(X), \\+ win(X).\n\
                   r2 1.0: lose(X) :- base(X), \\+ win(X).\n";
        let ProgramError::Invalid(errors) = Program::parse(src).unwrap_err() else {
            panic!("expected a validation error");
        };
        let [d] = &errors[..] else {
            panic!("{errors:?}")
        };
        assert_eq!(d.code, "P3201");
        assert!(d.message.contains("predicate 'win'"), "{}", d.message);
        assert_eq!(d.line, 2);
        // `b` negates `c` inside their cycle: the negated predicate is named,
        // at the negated atom.
        let src = "a(x).\nb(X) :- a(X), \\+ c(X).\nc(X) :- b(X).\n";
        let ProgramError::Invalid(errors) = Program::parse(src).unwrap_err() else {
            panic!("expected a validation error");
        };
        let [d] = &errors[..] else {
            panic!("{errors:?}")
        };
        assert_eq!(d.code, "P3201");
        assert!(d.message.contains("predicate 'c'"), "{}", d.message);
        let span = d.span.expect("parsed programs have spans");
        assert_eq!(&src[span.start..span.end], "\\+ c(X)");
    }

    #[test]
    fn builder_errors_have_no_span_but_keep_codes() {
        let mut b = ProgramBuilder::new();
        b.fact("t1", 1.5, "p", &[T::sym("a")]);
        let err = b.build().unwrap_err();
        let ProgramError::Invalid(errors) = &err else {
            panic!("expected a validation error");
        };
        assert_eq!(errors[0].code, "P3301");
        assert!(errors[0].span.is_none());
        assert!(err.to_string().contains("P3301"), "{err}");
    }

    #[test]
    fn parsed_program_retains_source_and_spans() {
        let src = "t1 0.5: p(a).\nr1 1.0: q(X) :- p(X).\n";
        let p = Program::parse(src).unwrap();
        assert_eq!(p.source(), Some(src));
        assert_eq!(p.spans().len(), 2);
        let id = p.clause_by_label("r1").unwrap();
        let spans = p.clause_spans(id).unwrap();
        assert_eq!(&src[spans.head.start..spans.head.end], "q(X)");
    }

    #[test]
    fn with_probability_changes_only_the_target_clause() {
        let p = Program::parse("t1 0.5: p(a). t2 0.6: p(b).").unwrap();
        let id = p.clause_by_label("t2").unwrap();
        let p2 = p.with_probability(id, 0.9).unwrap();
        assert_eq!(p2.clause(id).prob, 0.9);
        assert_eq!(p2.clause(p.clause_by_label("t1").unwrap()).prob, 0.5);
    }
}
