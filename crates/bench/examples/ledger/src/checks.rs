//! The fixed paper checks every run makes, outside the timed region.
//!
//! These are the µs-scale inputs of the paper (Fig 2, Fig 8, §5.1 and a
//! small random program): too small to time usefully, but each has an
//! independent oracle, so they gate correctness on every run.

use crate::common::Outcome;
use p3_core::{ProbMethod, P3};
use p3_datalog::worlds;
use p3_workloads::random_programs::{self, RandomConfig};
use p3_workloads::{acquaintance, trust, vqa};

/// The paper's Fig 8 case-study probability (exact; the paper's 0.3524 is
/// a Monte-Carlo estimate of it).
const FIG8_PROBABILITY: f64 = 0.3549420;

/// Derived tuples of the random program checked against the oracle.
const RANDOM_QUERIES: usize = 8;

fn exact(p3: &P3, query: &str) -> f64 {
    p3.probability(query, ProbMethod::Exact)
        .unwrap_or_else(|e| panic!("{query}: {e}"))
}

pub fn paper_checks(out: &mut Outcome) {
    // Fig 2: the acquaintance answer against possible-worlds enumeration.
    let program = acquaintance::program();
    let p3 = P3::from_program(program.clone()).expect("negation-free");
    let got = exact(&p3, acquaintance::QUERY);
    let oracle = worlds::success_probability_str(&program, acquaintance::QUERY)
        .expect("the oracle handles the Fig 2 program");
    out.check((got - oracle).abs() < 1e-9, || {
        format!("Fig 2: P3 {got} vs possible worlds {oracle}")
    });

    // Fig 8: the trust case study.
    let p3 = P3::from_program(trust::case_study_program()).expect("negation-free");
    let got = exact(&p3, trust::CASE_STUDY_QUERY);
    out.check((got - FIG8_PROBABILITY).abs() < 1e-9, || {
        format!("Fig 8: {got} vs {FIG8_PROBABILITY}")
    });

    // §5.1: the buggy similarity table ranks barn over church; the fix
    // reverses the ranking.
    for (instance, barn_wins) in [
        (vqa::church_image_buggy(), true),
        (vqa::church_image_fixed(), false),
    ] {
        let p3 = P3::from_program(instance.to_program()).expect("negation-free");
        let barn = exact(&p3, vqa::ANS_BARN);
        let church = exact(&p3, vqa::ANS_CHURCH);
        out.check((barn > church) == barn_wins, || {
            format!("§5.1: barn {barn} church {church}, barn should win: {barn_wins}")
        });
    }

    // A recursive random program: exact probability of derived tuples
    // against possible-worlds enumeration, which costs 2^(facts + rules)
    // evaluations per query; the sizes keep the whole check well under 1 s.
    let program = random_programs::generate(RandomConfig {
        domain: 4,
        facts: 8,
        rules: 4,
        recursion_bias: 0.6,
        seed: 20200817,
    });
    let p3 = P3::from_program(program.clone()).expect("negation-free");
    for query in random_programs::all_derived_queries(&program)
        .into_iter()
        .take(RANDOM_QUERIES)
    {
        let got = exact(&p3, &query);
        let oracle = worlds::success_probability_str(&program, &query)
            .expect("the random program stays within the oracle's limit");
        out.check((got - oracle).abs() < 1e-9, || {
            format!("random program {query}: P3 {got} vs possible worlds {oracle}")
        });
    }
}
