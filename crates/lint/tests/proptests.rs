//! Property-based tests: the analyzer must never panic, whatever program it
//! is handed, generated workload programs must pass the error-severity
//! gate (they are valid by construction — warnings such as duplicate ground
//! facts are acceptable), and program validation reports exactly lint's
//! errors.

use p3_datalog::{Program, ProgramError};
use p3_lint::{lint_program, lint_source, Diagnostic, Severity};
use p3_workloads::random_programs::{generate, RandomConfig};
use proptest::prelude::*;

/// Defect `kind` as a clause numbered `k`; `label` is a label the program
/// already uses. Generated programs read `e/2` and define `p0/2 … p2/2`.
fn defect(kind: usize, k: usize, label: &str) -> String {
    match kind {
        0 => format!("u{k} 0.5: p0(X,W) :- e(X,Y)."),
        1 => format!("{label} 0.5: e(9,{k})."),
        2 => format!("a{k} 0.5: e({k})."),
        3 => format!("n{k} 1.0: p1(X,Y) :- e(X,Y), \\+ p1(X,Y)."),
        _ => format!("g{k} 0.5: e(X,{k})."),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_workloads_lint_clean_at_error_severity(
        domain in 2usize..6,
        facts in 1usize..30,
        rules in 0usize..12,
        recursion_bias in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let program = generate(RandomConfig { domain, facts, rules, recursion_bias, seed });

        // Lint the structured program (spanless path)...
        let report = lint_program(&program);
        prop_assert!(
            !report.has_errors(),
            "generated program has lint errors (seed {seed}):\n{}",
            report.render(program.source(), None)
        );

        // ...and its rendered source (full parse → lint pipeline). Both views
        // must agree that the program passes the gate.
        let src = program.source().expect("generated programs carry source");
        let report = lint_source(src);
        prop_assert!(
            !report.has_errors(),
            "generated source has lint errors (seed {seed}):\n{}",
            report.render(Some(src), None)
        );
    }

    #[test]
    fn linting_arbitrary_text_never_panics(src in "[a-zA-Z0-9_ (),.:%\\-\\\\+!=<>\n]{0,160}") {
        // Any byte soup must produce a report, not a panic: worst case is a
        // single P3001 parse diagnostic.
        let report = lint_source(&src);
        for d in &report.diagnostics {
            prop_assert!(!d.code.is_empty());
        }
    }

    #[test]
    fn validation_reports_exactly_lints_errors(
        facts in 1usize..20,
        rules in 0usize..10,
        seed in 0u64..1_000_000,
        defects in proptest::collection::vec((0usize..5, 0usize..1000), 0..=3),
    ) {
        let program = generate(RandomConfig { domain: 3, facts, rules, recursion_bias: 0.5, seed });
        let mut lines: Vec<String> = program.to_source().lines().map(str::to_string).collect();
        let label = program.clauses()[0].label.clone();
        for (k, &(kind, at)) in defects.iter().enumerate() {
            lines.insert(at % (lines.len() + 1), defect(kind, k, &label));
        }
        let src = lines.join("\n");

        let lint_errors: Vec<Diagnostic> = lint_source(&src)
            .diagnostics
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        match Program::parse(&src) {
            Ok(_) => prop_assert!(lint_errors.is_empty(), "{src}\n{lint_errors:?}"),
            Err(ProgramError::Invalid(errors)) => prop_assert_eq!(errors, lint_errors, "{}", src),
            Err(e) => panic!("defects must parse: {e}\n{src}"),
        }
    }
}
