//! `p3-lint` — static analysis for probabilistic logic programs.
//!
//! A multi-pass analyzer over the parsed AST and the predicate dependency
//! graph. Its errors are the language's validity rules, which
//! [`validate()`] checks for [`Program`] too (`P3101`–`P3105`, `P3201`,
//! `P3301`); its own passes add the warnings and notes, in order:
//!
//! 1. **names** — undefined predicates with edit-distance-1 typo
//!    suggestions (`P3501`).
//! 2. **prob** — zero-probability clauses (`P3302`), duplicate ground facts
//!    (`P3303`).
//! 3. **reach** — dead rules that can never fire (`P3401`), unused fact
//!    predicates (`P3402`).
//! 4. **strata** — negation outside the provenance model (`P3202`),
//!    recursive-SCC cost notes (`P3601`), high rule fan-in (`P3602`),
//!    demand-mode recommendation for programs whose shape suits
//!    query-directed evaluation (`P3603`), persistent-store recommendation
//!    for recursion-heavy programs whose provenance is worth journaling
//!    across restarts (`P3604`).
//!
//! A lint run reports *every* finding, each with a source span, a
//! severity, and a stable `P3xxx` code. [`LintReport::render`] produces
//! rustc-style text; [`LintReport::to_value`] a machine-readable JSON
//! array.

pub mod cost;
pub mod messages;
mod passes;

use p3_datalog::ast::Clause;
use p3_datalog::parser::{self, ClauseSpans};
use p3_datalog::symbol::SymbolTable;
use p3_datalog::validate::{self, validate, Ctx};
use p3_datalog::Program;
use p3_obs::json::Value;

pub use p3_datalog::diag::{Diagnostic, Severity};

/// The outcome of linting one program: all findings, sorted by source
/// position then code.
#[derive(Debug)]
pub struct LintReport {
    /// The findings, located (line/column resolved) and sorted.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// True when no finding has error severity.
    pub fn is_clean(&self) -> bool {
        !self.has_errors()
    }

    /// True when at least one finding has error severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Number of info-severity findings.
    pub fn info_count(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The highest severity present, or `None` for a finding-free program.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Only the findings at or above `min` severity.
    pub fn at_least(&self, min: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity >= min)
    }

    /// Renders every finding rustc-style against `src`, followed by a
    /// one-line summary. `path` labels the source in `-->` lines.
    pub fn render(&self, src: Option<&str>, path: Option<&str>) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(src, path));
            out.push('\n');
        }
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }

    /// The `N errors, M warnings, K notes` summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{} error(s), {} warning(s), {} note(s)",
            self.error_count(),
            self.warn_count(),
            self.info_count()
        )
    }

    /// The findings as a JSON array of [`Diagnostic::to_value`] objects.
    pub fn to_value(&self) -> Value {
        self.diagnostics.iter().map(Diagnostic::to_value).collect()
    }
}

/// Lints source text. A parse failure yields a single-diagnostic report
/// (code `P3001`, or `P3301` for an out-of-range probability literal) —
/// the analyzer never returns `Err`.
pub fn lint_source(src: &str) -> LintReport {
    match parser::parse(src) {
        Ok(parsed) => lint_clauses(&parsed.clauses, &parsed.symbols, &parsed.spans, Some(src)),
        Err(e) => finish(vec![e.to_diagnostic()]),
    }
}

/// Lints an already-validated [`Program`]. Validation has ruled out every
/// error, so this surfaces the warning- and info-level findings.
pub fn lint_program(program: &Program) -> LintReport {
    lint_clauses(
        program.clauses(),
        program.symbols(),
        program.spans(),
        program.source(),
    )
}

/// Runs the validator, then the pass pipeline, over raw clauses, and
/// locates the findings against `src` when there is one. Spans may be
/// empty (or shorter than the clause list) for programmatically built
/// programs.
fn lint_clauses(
    clauses: &[Clause],
    symbols: &SymbolTable,
    spans: &[ClauseSpans],
    src: Option<&str>,
) -> LintReport {
    let validation = validate(clauses, symbols, spans);
    let mut ctx = Ctx::new(clauses, symbols, spans);
    ctx.diagnostics = validation.errors;
    passes::names::run(&mut ctx);
    passes::prob::run(&mut ctx);
    passes::reach::run(&mut ctx);
    passes::strata::run(&mut ctx, &validation.graph);
    let mut diagnostics = ctx.diagnostics;
    if let Some(src) = src {
        diagnostics = diagnostics.into_iter().map(|d| d.locate(src)).collect();
    }
    validate::sort(&mut diagnostics);
    finish(diagnostics)
}

/// The report of `diagnostics`, counted in the lint metrics.
fn finish(diagnostics: Vec<Diagnostic>) -> LintReport {
    let report = LintReport { diagnostics };
    p3_obs::counter!("p3_lint_runs_total", "Lint runs executed").inc();
    for severity in [Severity::Error, Severity::Warn, Severity::Info] {
        let n = report.count(severity);
        if n == 0 {
            continue;
        }
        let labels = p3_obs::metrics::render_labels(&[("severity", severity.as_str())]);
        let counter = p3_obs::metrics::labeled_counter(
            "p3_lint_findings_total",
            "Lint findings reported, by severity",
            &labels,
        );
        for _ in 0..n {
            counter.inc();
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_has_no_findings() {
        let report = lint_source(
            "e1 0.5: edge(a,b).\n\
             e2 0.6: edge(b,c).\n\
             r1 0.9: path(X,Y) :- edge(X,Y).\n\
             r2 0.9: path(X,Y) :- path(X,Z), edge(Z,Y).\n",
        );
        let serious: Vec<_> = report.at_least(Severity::Warn).collect();
        assert!(serious.is_empty(), "{:?}", serious);
        // The recursive path SCC is still noted.
        assert!(codes(&report).contains(&"P3601"));
    }

    #[test]
    fn lint_keeps_going_past_the_first_error() {
        let report = lint_source(
            "f(X).\n\
             g(a) :- X != a.\n",
        );
        let codes = codes(&report);
        assert!(codes.contains(&"P3102"), "{codes:?}");
        assert!(codes.contains(&"P3103"), "{codes:?}");
        assert!(codes.contains(&"P3101"), "{codes:?}");
        assert_eq!(report.error_count(), 3);
        assert!(report.has_errors());
        assert!(!report.is_clean());
    }

    #[test]
    fn parse_failure_becomes_a_single_diagnostic() {
        let report = lint_source("p(a) :-\n");
        assert_eq!(codes(&report), vec!["P3001"]);
        assert_eq!(report.worst(), Some(Severity::Error));
    }

    #[test]
    fn out_of_range_probability_literal_reports_p3301() {
        let report = lint_source("t1 1.5: p(a).\n");
        assert_eq!(codes(&report), vec!["P3301"]);
    }

    #[test]
    fn findings_are_sorted_by_source_position() {
        let report = lint_source(
            "p(a).\n\
             q(X) :- missing(X).\n\
             r(Y) :- p(Y), \\+ r(Y).\n",
        );
        let starts: Vec<_> = report
            .diagnostics
            .iter()
            .map(|d| d.span.map_or(usize::MAX, |s| s.start))
            .collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn unstratified_negation_is_an_error() {
        let report = lint_source("p(a).\nwin(X) :- p(X), \\+ win(X).\n");
        assert!(codes(&report).contains(&"P3201"));
        assert!(codes(&report).contains(&"P3202"));
        assert!(report.has_errors());
    }

    #[test]
    fn stratified_negation_is_only_a_warning() {
        let report = lint_source("p(a).\nq(a).\ns(X) :- p(X), \\+ q(X).\n");
        assert!(!codes(&report).contains(&"P3201"));
        assert!(codes(&report).contains(&"P3202"));
        assert!(!report.has_errors());
    }

    #[test]
    fn lint_program_works_without_spans() {
        use p3_datalog::program::{ProgramBuilder, T};
        let mut b = ProgramBuilder::new();
        b.fact("t1", 0.5, "p", &[T::sym("a")]);
        b.fact("t2", 0.5, "orphan", &[T::sym("b")]);
        b.rule(
            "r1",
            0.9,
            ("q", &[T::var("X")][..]),
            &[("p", &[T::var("X")][..])],
            &[],
        );
        let program = b.build().expect("valid");
        let report = lint_program(&program);
        assert!(codes(&report).contains(&"P3402"));
        for d in &report.diagnostics {
            assert!(d.span.is_none());
            assert_eq!(d.line, 0, "no located line without source");
        }
    }

    #[test]
    fn json_output_is_an_array() {
        let report = lint_source("f(X).\n");
        let json = report.to_value().to_json();
        assert!(json.starts_with('['), "{json}");
        assert!(json.contains("\"code\":\"P3102\""), "{json}");
    }

    #[test]
    fn render_includes_summary_line() {
        let report = lint_source("f(X).\n");
        let text = report.render(Some("f(X).\n"), Some("bad.pl"));
        assert!(text.contains("error[P3102]"), "{text}");
        assert!(text.contains("bad.pl:1:"), "{text}");
        assert!(text.contains("1 error(s)"), "{text}");
    }
}
