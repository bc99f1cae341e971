//! Stratified negation — the engine-level extension (the paper's stated
//! future work). Provenance does not cover it; these tests exercise
//! parsing, stratification, evaluation, and the possible-worlds semantics.

use p3_datalog::engine::Engine;
use p3_datalog::program::{Program, ProgramError};
use p3_datalog::worlds;

fn count(p: &Program, db: &p3_datalog::engine::Database, pred: &str) -> usize {
    p.symbols()
        .get(pred)
        .and_then(|s| db.relation(s))
        .map(|r| r.len())
        .unwrap_or(0)
}

/// The codes of a validation error's findings, in order.
fn codes(err: &ProgramError) -> Vec<&'static str> {
    match err {
        ProgramError::Invalid(errors) => errors.iter().map(|d| d.code).collect(),
        ProgramError::Parse(e) => panic!("expected a validation error, got {e}"),
    }
}

#[test]
fn both_negation_spellings_parse() {
    for src in [
        r"r1 1.0: orphan(X) :- person(X), \+ parent(X). person(a). parent(a).",
        r"r1 1.0: orphan(X) :- person(X), not parent(X). person(a). parent(a).",
    ] {
        let p = Program::parse(src).unwrap();
        let r1 = p.clause(p.clause_by_label("r1").unwrap());
        assert_eq!(r1.negated().len(), 1, "{src}");
        assert_eq!(r1.body().len(), 1);
    }
}

#[test]
fn an_atom_named_not_is_still_an_atom() {
    // `not(X)` with parentheses directly after is a positive atom.
    let p = Program::parse("r1 1.0: q(X) :- not(X). t1 1.0: not(a).").unwrap();
    let r1 = p.clause(p.clause_by_label("r1").unwrap());
    assert_eq!(r1.negated().len(), 0);
    assert_eq!(r1.body().len(), 1);
    let db = Engine::new(&p).run_plain();
    assert_eq!(count(&p, &db, "q"), 1);
}

#[test]
fn negation_filters_tuples() {
    let p = Program::parse(
        r"r1 1.0: unreachable(X) :- node(X), \+ reach(X).
          r2 1.0: reach(X) :- src(X).
          r3 1.0: reach(Y) :- reach(X), edge(X,Y).
          node(a). node(b). node(c). node(d).
          src(a). edge(a,b). edge(b,c).",
    )
    .unwrap();
    assert!(p.has_negation());
    assert_eq!(p.num_strata(), 2);
    let db = Engine::new(&p).run_plain();
    assert_eq!(count(&p, &db, "reach"), 3, "a, b, c");
    assert_eq!(count(&p, &db, "unreachable"), 1, "only d");
}

#[test]
fn strata_order_is_respected_even_when_rules_are_listed_backwards() {
    // The negation-dependent rule is listed first; stratification must
    // still evaluate `reach` to completion before `unreachable` fires.
    let p = Program::parse(
        r"r0 1.0: unreachable(X) :- node(X), \+ reach(X).
          r1 1.0: reach(X) :- src(X).
          r2 1.0: reach(Y) :- reach(X), edge(X,Y).
          node(a). node(b). node(c).
          src(a). edge(a,b). edge(b,c).",
    )
    .unwrap();
    let db = Engine::new(&p).run_plain();
    assert_eq!(count(&p, &db, "unreachable"), 0, "all nodes reachable");
}

#[test]
fn unstratified_program_is_rejected() {
    let err = Program::parse(r"r1 1.0: p(X) :- q(X), \+ p(X). q(a).").unwrap_err();
    assert_eq!(codes(&err), ["P3201"], "{err}");
    // Mutual negative recursion.
    let err = Program::parse(
        r"r1 1.0: win(X) :- move(X,Y), \+ win(Y).
          move(a,b). move(b,a).",
    )
    .unwrap_err();
    assert_eq!(codes(&err), ["P3201"], "{err}");
}

#[test]
fn negated_variables_must_be_bound_positively() {
    let err = Program::parse(r"r1 1.0: p(X) :- q(X), \+ r(Y). q(a).").unwrap_err();
    assert_eq!(codes(&err), ["P3101"], "{err}");
}

#[test]
fn multi_level_stratification() {
    let p = Program::parse(
        r"r1 1.0: a(X) :- base(X).
          r2 1.0: b(X) :- base(X), \+ a(X).
          r3 1.0: c(X) :- base(X), \+ b(X).
          base(x1). base(x2).",
    )
    .unwrap();
    assert_eq!(p.num_strata(), 3);
    let db = Engine::new(&p).run_plain();
    // a holds everywhere, so b nowhere, so c everywhere.
    assert_eq!(count(&p, &db, "a"), 2);
    assert_eq!(count(&p, &db, "b"), 0);
    assert_eq!(count(&p, &db, "c"), 2);
}

#[test]
fn possible_worlds_with_probabilistic_negation() {
    // q(a) holds when the blocker is absent: P[q] = 1 − P[blocker] = 0.7.
    let p = Program::parse(
        r"r1 1.0: q(X) :- cand(X), \+ blocked(X).
          cand(a).
          b1 0.3: blocked(a).",
    )
    .unwrap();
    let prob = worlds::success_probability_str(&p, "q(a)").unwrap();
    assert!((prob - 0.7).abs() < 1e-12, "got {prob}");
}

#[test]
fn possible_worlds_with_negation_over_derived_predicates() {
    // reach(b) needs edge e1; unreachable(b) = ¬reach(b): P = 1 − 0.6.
    let p = Program::parse(
        r"r1 1.0: reach(X) :- src(X).
          r2 1.0: reach(Y) :- reach(X), edge(X,Y).
          r3 1.0: unreachable(X) :- node(X), \+ reach(X).
          node(b). src(a).
          e1 0.6: edge(a,b).",
    )
    .unwrap();
    let prob = worlds::success_probability_str(&p, "unreachable(b)").unwrap();
    assert!((prob - 0.4).abs() < 1e-12, "got {prob}");
}

#[test]
fn negation_round_trips_through_display() {
    let src = r"r1 0.9: orphan(X) :- person(X), \+ parent(X).
person(a).";
    let p = Program::parse(src).unwrap();
    let rendered = p.to_source();
    assert!(rendered.contains(r"\+ parent(X)"), "{rendered}");
    let reparsed = Program::parse(&rendered).unwrap();
    assert_eq!(p.to_source(), reparsed.to_source());
}

#[test]
fn negation_with_constraints_and_joins() {
    let p = Program::parse(
        r"r1 1.0: lonely(X) :- person(X), \+ knows(X,X), \+ friend(X).
          r2 1.0: knows(X,Y) :- intro(X,Y), X != Y.
          person(a). person(b).
          intro(a,b). friend(b).",
    )
    .unwrap();
    let db = Engine::new(&p).run_plain();
    // knows(a,a) never derived (X != Y); friend(a) absent → lonely(a).
    // friend(b) present → not lonely(b).
    assert_eq!(count(&p, &db, "lonely"), 1);
}

#[test]
fn negation_free_programs_report_single_stratum() {
    let p = Program::parse("r1 1.0: q(X) :- p(X). p(a).").unwrap();
    assert!(!p.has_negation());
    assert_eq!(p.num_strata(), 1);
}
