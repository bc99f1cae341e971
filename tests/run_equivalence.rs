//! `QuerySession::run` is a view, not a second implementation: every
//! class's answer must be bit-identical to the per-class session method
//! called on the same `DnfId` (on a fresh session over the same system, so
//! nothing is merely read back from `run`'s own caches), and the
//! explanation renderings must not depend on the eval mode.
//!
//! Inputs: every derived atom of the Fig 2 acquaintance program and of the
//! Fig 8 trust case study, and of seeds 0–59 of the heavily recursive
//! random-program configuration, each in naive and demand sessions.

use p3::core::{
    DerivationAlgo, EvalMode, InfluenceMethod, InfluenceOptions, ModificationOptions, ProbMethod,
    QueryAnswer, QueryClass, SessionOptions, P3,
};
use p3::datalog::program::Program;
use p3::provenance::extract::ExtractOptions;
use p3::workloads::random_programs::{all_derived_queries, generate, RandomConfig};
use p3::workloads::{acquaintance, trust};

fn classes() -> Vec<QueryClass> {
    vec![
        QueryClass::Probability(ProbMethod::Exact),
        QueryClass::Explanation(ProbMethod::Exact),
        QueryClass::Derivation {
            eps: 0.05,
            algo: DerivationAlgo::NaiveGreedy,
            method: ProbMethod::Exact,
        },
        QueryClass::Influence(InfluenceOptions {
            method: InfluenceMethod::Exact,
            ..Default::default()
        }),
        QueryClass::Modification {
            target: 0.5,
            opts: ModificationOptions {
                tolerance: 1e-9,
                ..Default::default()
            },
        },
    ]
}

/// Explanation text, DOT and rendered polynomial, per atom.
type Rendered = Vec<(String, String, String)>;

/// Runs every class on every atom in one `mode` and checks each answer
/// against the per-class method on a fresh session; returns the
/// explanation renderings for the cross-mode comparison.
fn check_mode(program: &Program, atoms: &[String], mode: EvalMode, label: &str) -> Rendered {
    let p3 = P3::from_program(program.clone()).expect("negation-free program");
    let options = SessionOptions {
        eval_mode: mode,
        ..Default::default()
    };
    let session = p3.session_with(options);
    let fresh = p3.session_with(options);
    let opts = ExtractOptions::unbounded();
    let mut rendered = Vec::new();
    for atom in atoms {
        let at = format!("{label} {mode:?} {atom}");
        for class in classes() {
            let (answer, report) = session.run(atom, &class, opts);
            let answer = answer.unwrap();
            let id = report.dnf;
            assert_eq!(id, fresh.provenance_id_with(atom, opts).unwrap(), "{at}");
            match (answer, &class) {
                (QueryAnswer::Probability(p), QueryClass::Probability(method)) => {
                    assert_eq!(
                        p.to_bits(),
                        fresh.probability_of(id, *method).to_bits(),
                        "{at}"
                    );
                }
                (QueryAnswer::Explanation(e), QueryClass::Explanation(method)) => {
                    let direct = p3.explain_with(atom, *method, opts).unwrap();
                    assert_eq!(
                        e.probability.to_bits(),
                        direct.probability.to_bits(),
                        "{at}"
                    );
                    assert_eq!(e.polynomial, direct.polynomial, "{at}");
                    assert_eq!(e.num_derivations, direct.num_derivations, "{at}");
                    assert_eq!((&e.text, &e.dot), (&direct.text, &direct.dot), "{at}");
                    let polynomial = p3.render_polynomial(&e.polynomial);
                    rendered.push((e.text, e.dot, polynomial));
                }
                (QueryAnswer::Derivation(s), QueryClass::Derivation { eps, algo, method }) => {
                    let direct = fresh.sufficient_provenance_of(id, *eps, *algo, *method);
                    assert_eq!(s.polynomial, direct.polynomial, "{at}");
                    assert_eq!(s.original_len, direct.original_len, "{at}");
                    for (a, b) in [
                        (s.probability, direct.probability),
                        (s.original_probability, direct.original_probability),
                        (s.error, direct.error),
                        (s.compression_ratio, direct.compression_ratio),
                    ] {
                        assert_eq!(a.to_bits(), b.to_bits(), "{at}");
                    }
                }
                (QueryAnswer::Influence(entries), QueryClass::Influence(o)) => {
                    let bits = |es: &[p3::core::InfluenceEntry]| -> Vec<_> {
                        es.iter().map(|e| (e.var, e.influence.to_bits())).collect()
                    };
                    assert_eq!(bits(&entries), bits(&fresh.influence_of(id, o)), "{at}");
                }
                (QueryAnswer::Modification(plan), QueryClass::Modification { target, opts: o }) => {
                    let direct = fresh.modification_of(id, *target, o);
                    let steps = |plan: &p3::core::ModificationPlan| -> Vec<_> {
                        plan.steps
                            .iter()
                            .map(|s| {
                                let bits =
                                    [s.from, s.to, s.resulting_probability].map(f64::to_bits);
                                (s.var, bits)
                            })
                            .collect()
                    };
                    assert_eq!(steps(&plan), steps(&direct), "{at}");
                    assert_eq!(
                        plan.total_cost.to_bits(),
                        direct.total_cost.to_bits(),
                        "{at}"
                    );
                    assert_eq!(
                        plan.achieved_probability.to_bits(),
                        direct.achieved_probability.to_bits(),
                        "{at}"
                    );
                    assert_eq!(plan.reached_target, direct.reached_target, "{at}");
                }
                (answer, class) => panic!("{at}: {class:?} answered as {answer:?}"),
            }
        }
    }
    rendered
}

fn check(program: Program, label: &str) {
    let atoms = all_derived_queries(&program);
    let naive = check_mode(&program, &atoms, EvalMode::Naive, label);
    let demand = check_mode(&program, &atoms, EvalMode::Demand, label);
    for ((n, d), atom) in naive.iter().zip(&demand).zip(&atoms) {
        assert_eq!(
            n, d,
            "{label} {atom}: explanation differs across eval modes"
        );
    }
}

#[test]
fn run_matches_the_per_class_methods_on_the_paper_programs() {
    check(acquaintance::program(), "acquaintance");
    check(trust::case_study_program(), "trust case study");
}

#[test]
fn run_matches_the_per_class_methods_on_recursive_random_programs() {
    for seed in 0..60u64 {
        // The recursive configuration of `explain_equivalence.rs`.
        let program = generate(RandomConfig {
            seed: seed.wrapping_mul(6007),
            recursion_bias: 0.9,
            rules: 5,
            facts: 7,
            ..Default::default()
        });
        check(program, &format!("seed {seed}"));
    }
}
