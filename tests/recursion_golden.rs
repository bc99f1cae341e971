//! Golden snapshot of every reader of the predicate dependency graph.
//!
//! For each program the snapshot holds what recursion and stratification
//! decide downstream: the lint findings (as `crates/lint/tests/corpus.rs`
//! prints them), the static `AnalyzePlan` JSON (with `analysis_us` masked),
//! each predicate's stratum, and the naive EXPLAIN rows
//! `(label, recursive, cost)`. A program that fails validation contributes
//! its lint findings only.
//!
//! Regenerate after an intentional change with
//! `P3_UPDATE_EXPECTED=1 cargo test --test recursion_golden`.

use p3::datalog::engine::Engine;
use p3::datalog::explain::ExplainPlan;
use p3::datalog::Program;
use p3::lint::{lint_source, LintReport};
use p3::workloads::random_programs::{generate, RandomConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

mod support;
use support::NEGATION;

/// The mutual-recursion shape every reader must agree on: r1 and r2 form
/// the cycle `a <-> b`, r3 grounds it.
const MUTUAL: &str = "r1 1.0: a(X) :- b(X).
r2 1.0: b(X) :- a(X).
r3 1.0: a(X) :- e(X).
t1 0.5: e(1).
t2 0.5: e(2).
";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `.pl` files of `dir`, sorted by name.
fn pl_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "pl"))
        .collect();
    files.sort();
    files
}

/// One finding per line, exactly as the lint corpus snapshots print them.
fn brief(report: &LintReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(
            out,
            "{}[{}] {}:{} {}",
            d.severity.as_str(),
            d.code,
            d.line,
            d.column,
            d.message
        );
    }
    out
}

/// Every predicate the program mentions, sorted by name, with its stratum.
fn strata(program: &Program) -> String {
    let symbols = program.symbols();
    let mut preds: Vec<(&str, usize)> = Vec::new();
    for clause in program.clauses() {
        for atom in std::iter::once(&clause.head)
            .chain(clause.body())
            .chain(clause.negated())
        {
            let name = symbols.resolve(atom.pred);
            if !preds.iter().any(|&(n, _)| n == name) {
                preds.push((name, program.stratum(atom.pred)));
            }
        }
    }
    preds.sort();
    preds
        .iter()
        .map(|(name, stratum)| format!("{name} {stratum}\n"))
        .collect()
}

fn section(name: &str, src: &str) -> String {
    let mut out = format!("== {name}\n-- lint\n");
    out.push_str(&brief(&lint_source(src)));
    let Ok(program) = Program::parse(src) else {
        return out;
    };
    let mut plan = p3::analyze::analyze(&program);
    plan.analysis_us = 0;
    out.push_str("-- analyze\n");
    out.push_str(&plan.to_value().to_json());
    out.push_str("\n-- strata\n");
    out.push_str(&strata(&program));
    out.push_str("-- explain naive\n");
    let mut engine = Engine::new(&program);
    engine.run_plain();
    for rule in &ExplainPlan::from_engine(&engine).rules {
        let _ = writeln!(out, "{} {} {}", rule.label, rule.recursive, rule.cost());
    }
    out
}

fn snapshot() -> String {
    let root = root();
    let mut out = String::new();
    for dir in ["examples", "crates/lint/tests/corpus/clean"] {
        for path in pl_files(&root.join(dir)) {
            let src = std::fs::read_to_string(&path).unwrap();
            let name = path.strip_prefix(&root).unwrap().display().to_string();
            out.push_str(&section(&name, &src));
        }
    }
    for (i, src) in NEGATION.iter().enumerate() {
        out.push_str(&section(&format!("negation #{i}"), src));
    }
    for seed in 0..50u64 {
        let default = generate(RandomConfig {
            seed,
            ..Default::default()
        });
        let recursive = generate(RandomConfig {
            seed: seed.wrapping_mul(6007),
            recursion_bias: 0.9,
            rules: 5,
            facts: 7,
            ..Default::default()
        });
        for (config, program) in [("default", default), ("recursive", recursive)] {
            let src = program.source().expect("generated from text");
            out.push_str(&section(&format!("random {config} seed {seed}"), src));
        }
    }
    out.push_str(&section("mutual recursion", MUTUAL));
    out
}

#[test]
fn recursion_readers_match_the_golden_snapshot() {
    let path = root().join("tests/golden/recursion.txt");
    let actual = snapshot();
    if std::env::var_os("P3_UPDATE_EXPECTED").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} (set P3_UPDATE_EXPECTED=1 to create): {e}",
            path.display()
        )
    });
    if actual != expected {
        let drift: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .take(10)
            .map(|(e, a)| format!("- {e}\n+ {a}"))
            .collect();
        panic!(
            "recursion readers drifted from {} ({} vs {} lines):\n{}",
            path.display(),
            expected.lines().count(),
            actual.lines().count(),
            drift.join("\n")
        );
    }
}
