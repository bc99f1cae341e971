//! Validated probabilistic logic programs.
//!
//! A [`Program`] owns its clauses and symbol table and guarantees the static
//! well-formedness properties the engine relies on:
//!
//! * base tuples are ground;
//! * rules are *safe*: every head variable and every constraint variable
//!   occurs in a positive body atom;
//! * predicates are used at a consistent arity;
//! * clause labels are unique;
//! * clause probabilities lie in `[0, 1]`.
//!
//! A program also owns the [`FactBase`] its demand evaluations share: its
//! facts interned once, on first use, for every clone, what-if copy and
//! program the demand transform derives from it.

use crate::ast::{Atom, Clause, ClauseId, ClauseKind, CmpOp, Const, Constraint, Term};
use crate::diag::Diagnostic;
use crate::engine::FactBase;
use crate::graph::DepGraph;
use crate::parser::{self, ClauseSpans, ParseError, Span};
use crate::symbol::{Symbol, SymbolTable};
use std::collections::{HashMap, HashSet};
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

/// Errors raised by program validation (or the parser, wrapped).
///
/// Every variant maps onto the shared [`Diagnostic`] structure — stable
/// `P3xxx` code, severity, optional source span — via
/// [`ProgramError::to_diagnostic`], so validation failures and `p3-lint`
/// findings render through one path.
#[derive(Debug)]
pub enum ProgramError {
    /// The source text failed to parse.
    Parse(ParseError),
    /// A base tuple contains a variable.
    NonGroundFact {
        /// The offending clause's label.
        label: String,
        /// The fact's head span, when parsed from source.
        span: Option<Span>,
    },
    /// A head or constraint variable is not bound by any body atom.
    UnsafeVariable {
        /// The offending clause's label.
        label: String,
        /// The unbound variable's name.
        var: String,
        /// The span of the clause part using the unbound variable.
        span: Option<Span>,
    },
    /// A predicate is used with two different arities.
    ArityMismatch {
        /// The predicate name.
        pred: String,
        /// Arity seen first.
        expected: usize,
        /// Conflicting arity.
        found: usize,
        /// The conflicting atom's span, when parsed from source.
        span: Option<Span>,
    },
    /// Two clauses share a label.
    DuplicateLabel {
        /// The repeated label.
        label: String,
        /// The second clause's span, when parsed from source.
        span: Option<Span>,
    },
    /// A clause probability outside `[0, 1]` (programmatic construction).
    BadProbability {
        /// The offending clause's label.
        label: String,
        /// The out-of-range value.
        prob: f64,
        /// The probability literal's span, when parsed from source.
        span: Option<Span>,
    },
    /// A rule whose body contains no atoms (only constraints, or nothing).
    EmptyBody {
        /// The offending clause's label.
        label: String,
        /// The rule's span, when parsed from source.
        span: Option<Span>,
    },
    /// Negation occurs inside a recursive cycle, so no stratification
    /// exists.
    NotStratified {
        /// The head of the first clause, in source order, that negates a
        /// predicate of its own SCC.
        pred: String,
        /// That clause's span, when parsed from source.
        span: Option<Span>,
    },
}

impl ProgramError {
    /// The stable diagnostic code (`P3xxx`) for this error.
    pub fn code(&self) -> &'static str {
        match self {
            ProgramError::Parse(e) => e.code(),
            ProgramError::UnsafeVariable { .. } => "P3101",
            ProgramError::NonGroundFact { .. } => "P3102",
            ProgramError::EmptyBody { .. } => "P3103",
            ProgramError::DuplicateLabel { .. } => "P3104",
            ProgramError::ArityMismatch { .. } => "P3105",
            ProgramError::NotStratified { .. } => "P3201",
            ProgramError::BadProbability { .. } => "P3301",
        }
    }

    /// The source span of the offending construct, when known.
    pub fn span(&self) -> Option<Span> {
        match self {
            ProgramError::Parse(e) => Some(e.span),
            ProgramError::NonGroundFact { span, .. }
            | ProgramError::UnsafeVariable { span, .. }
            | ProgramError::ArityMismatch { span, .. }
            | ProgramError::DuplicateLabel { span, .. }
            | ProgramError::BadProbability { span, .. }
            | ProgramError::EmptyBody { span, .. }
            | ProgramError::NotStratified { span, .. } => *span,
        }
    }

    /// The label of the offending clause, when the error concerns one.
    pub fn clause_label(&self) -> Option<&str> {
        match self {
            ProgramError::NonGroundFact { label, .. }
            | ProgramError::UnsafeVariable { label, .. }
            | ProgramError::DuplicateLabel { label, .. }
            | ProgramError::BadProbability { label, .. }
            | ProgramError::EmptyBody { label, .. } => Some(label),
            _ => None,
        }
    }

    /// The human message, without code or location.
    pub fn message(&self) -> String {
        match self {
            ProgramError::Parse(e) => e.to_diagnostic().message,
            ProgramError::NonGroundFact { label, .. } => {
                format!("base tuple '{label}' contains a variable")
            }
            ProgramError::UnsafeVariable { label, var, .. } => format!(
                "clause '{label}' is unsafe: variable {var} does not occur in any body atom"
            ),
            ProgramError::ArityMismatch {
                pred,
                expected,
                found,
                ..
            } => format!(
                "predicate '{pred}' used with arity {found} but previously with arity {expected}"
            ),
            ProgramError::DuplicateLabel { label, .. } => {
                format!("duplicate clause label '{label}'")
            }
            ProgramError::BadProbability { label, prob, .. } => {
                format!("clause '{label}' has probability {prob} outside [0, 1]")
            }
            ProgramError::EmptyBody { label, .. } => {
                format!("rule '{label}' has no body atoms")
            }
            ProgramError::NotStratified { pred, .. } => format!(
                "program is not stratified: predicate '{pred}' is negated within a \
                 recursive cycle"
            ),
        }
    }

    /// Converts to the shared diagnostic structure. All validation errors
    /// are error severity; the span (when present) still needs
    /// [`Diagnostic::locate`] against the source to resolve line/column.
    pub fn to_diagnostic(&self) -> Diagnostic {
        if let ProgramError::Parse(e) = self {
            return e.to_diagnostic();
        }
        let mut d = Diagnostic::error(self.code(), self.message()).with_span(self.span());
        if let Some(label) = self.clause_label() {
            d = d.with_clause(label);
        }
        d
    }
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One formatting path for parse, validation, and lint findings:
        // everything renders through `Diagnostic`.
        write!(f, "{}", self.to_diagnostic())
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
        let mut labels = HashMap::new();
        let mut arities: HashMap<Symbol, usize> = HashMap::new();

        let mut check_arity =
            |atom: &Atom, span: Option<Span>, syms: &SymbolTable| -> Result<(), ProgramError> {
                match arities.get(&atom.pred) {
                    Some(&expected) if expected != atom.args.len() => {
                        Err(ProgramError::ArityMismatch {
                            pred: syms.resolve(atom.pred).to_string(),
                            expected,
                            found: atom.args.len(),
                            span,
                        })
                    }
                    Some(_) => Ok(()),
                    None => {
                        arities.insert(atom.pred, atom.args.len());
                        Ok(())
                    }
                }
            };

        for (i, clause) in clauses.iter().enumerate() {
            let cspans = spans.get(i);
            if !(0.0..=1.0).contains(&clause.prob) {
                return Err(ProgramError::BadProbability {
                    label: clause.label.clone(),
                    prob: clause.prob,
                    span: cspans.map(|s| s.prob.unwrap_or(s.clause)),
                });
            }
            if labels
                .insert(clause.label.clone(), ClauseId(i as u32))
                .is_some()
            {
                return Err(ProgramError::DuplicateLabel {
                    label: clause.label.clone(),
                    span: cspans.map(|s| s.clause),
                });
            }
            check_arity(&clause.head, cspans.map(|s| s.head), &symbols)?;
            match &clause.kind {
                ClauseKind::Fact => {
                    if !clause.head.is_ground() {
                        return Err(ProgramError::NonGroundFact {
                            label: clause.label.clone(),
                            span: cspans.map(|s| s.head),
                        });
                    }
                }
                ClauseKind::Rule {
                    body,
                    negated,
                    constraints,
                } => {
                    if body.is_empty() {
                        return Err(ProgramError::EmptyBody {
                            label: clause.label.clone(),
                            span: cspans.map(|s| s.clause),
                        });
                    }
                    let mut bound: HashSet<Symbol> = HashSet::new();
                    for (j, atom) in body.iter().enumerate() {
                        check_arity(atom, cspans.and_then(|s| s.body.get(j).copied()), &symbols)?;
                        bound.extend(atom.vars());
                    }
                    // Safety: each unbound use is reported at the span of
                    // the clause part (head, constraint, negated atom)
                    // that uses the variable.
                    let unsafe_var =
                        |var: Symbol, span: Option<Span>| ProgramError::UnsafeVariable {
                            label: clause.label.clone(),
                            var: symbols.resolve(var).to_string(),
                            span,
                        };
                    for var in clause.head.vars() {
                        if !bound.contains(&var) {
                            return Err(unsafe_var(var, cspans.map(|s| s.head)));
                        }
                    }
                    for (j, constraint) in constraints.iter().enumerate() {
                        for var in constraint.vars() {
                            if !bound.contains(&var) {
                                return Err(unsafe_var(
                                    var,
                                    cspans.and_then(|s| s.constraints.get(j).copied()),
                                ));
                            }
                        }
                    }
                    for (j, atom) in negated.iter().enumerate() {
                        let span = cspans.and_then(|s| s.negated.get(j).copied());
                        for var in atom.vars() {
                            if !bound.contains(&var) {
                                return Err(unsafe_var(var, span));
                            }
                        }
                        check_arity(atom, span, &symbols)?;
                    }
                }
            }
        }

        // `check_arity` captured `arities` mutably; it is no longer used
        // past this point, so the borrow ends here.
        let _ = &arities;
        let mut arities_final: HashMap<Symbol, usize> = HashMap::new();
        for clause in &clauses {
            arities_final.insert(clause.head.pred, clause.head.args.len());
            for atom in clause.body().iter().chain(clause.negated()) {
                arities_final.insert(atom.pred, atom.args.len());
            }
        }

        let graph = DepGraph::build(&clauses);
        let strata = graph
            .strata(&clauses)
            .map_err(|i| ProgramError::NotStratified {
                pred: symbols.resolve(clauses[i].head.pred).to_string(),
                span: spans.get(i).map(|s| s.clause),
            })?;
        Ok(Self {
            clauses,
            symbols,
            labels,
            arities: arities_final,
            graph,
            strata,
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

    #[test]
    fn rejects_non_ground_fact() {
        let err = Program::parse("t1 0.5: live(X).").unwrap_err();
        assert!(matches!(err, ProgramError::NonGroundFact { .. }), "{err}");
    }

    #[test]
    fn rejects_unsafe_head_variable() {
        let err = Program::parse("r1 0.5: p(X,Y) :- q(X).").unwrap_err();
        assert!(matches!(err, ProgramError::UnsafeVariable { .. }), "{err}");
    }

    #[test]
    fn rejects_unsafe_constraint_variable() {
        let err = Program::parse("r1 0.5: p(X) :- q(X), X != Z.").unwrap_err();
        match err {
            ProgramError::UnsafeVariable { var, .. } => assert_eq!(var, "Z"),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn rejects_duplicate_labels() {
        let err = Program::parse("t1 0.5: p(a). t1 0.5: p(b).").unwrap_err();
        assert!(matches!(err, ProgramError::DuplicateLabel { .. }), "{err}");
    }

    #[test]
    fn rejects_arity_mismatch() {
        let err = Program::parse("t1 0.5: p(a). r1 1.0: q(X) :- p(X,X).").unwrap_err();
        assert!(matches!(err, ProgramError::ArityMismatch { .. }), "{err}");
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
        assert!(matches!(
            b.build(),
            Err(ProgramError::BadProbability { .. })
        ));
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
        let err = Program::parse(src).unwrap_err();
        assert_eq!(err.code(), "P3101");
        let span = err.span().expect("parsed programs have spans");
        assert_eq!(&src[span.start..span.end], "X != Z");
        let d = err.to_diagnostic().locate(src);
        assert_eq!(d.line, 3);
        assert!(d.column > 1);
        let rendered = d.render(Some(src), Some("bad.pl"));
        assert!(rendered.contains("error[P3101]"), "{rendered}");
        assert!(rendered.contains("bad.pl:3:"), "{rendered}");
        assert!(rendered.contains("^"), "{rendered}");
    }

    #[test]
    fn not_stratified_names_the_first_clause_negating_its_own_scc() {
        // `lose` only reads the cycle through `win`; it is not on it.
        let src = "t1 1.0: base(a).\n\
                   r1 1.0: win(X) :- base(X), \\+ win(X).\n\
                   r2 1.0: lose(X) :- base(X), \\+ win(X).\n";
        let err = Program::parse(src).unwrap_err();
        assert_eq!(err.code(), "P3201");
        assert!(matches!(&err, ProgramError::NotStratified { pred, .. } if pred == "win"));
        assert_eq!(err.to_diagnostic().locate(src).line, 2);
    }

    #[test]
    fn builder_errors_have_no_span_but_keep_codes() {
        let mut b = ProgramBuilder::new();
        b.fact("t1", 1.5, "p", &[T::sym("a")]);
        let err = b.build().unwrap_err();
        assert_eq!(err.code(), "P3301");
        assert!(err.span().is_none());
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
