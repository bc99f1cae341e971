//! The central soundness test of the reproduction: for random PLP programs
//! (recursive ones included), the provenance pipeline — capture →
//! cycle-eliminating extraction → exact DNF probability — must agree with
//! the brute-force possible-worlds semantics (Eq. 1–4) on **every** derived
//! tuple. This validates §3.3's cycle-elimination theorem end to end.

use p3::core::P3;
use p3::datalog::{worlds, Const, Program, Symbol};
use p3::prob::exact;
use p3::provenance::extract::{ExtractOptions, Extractor};
use p3::provenance::rewrite;
use p3::workloads::random_programs::{all_derived_queries, generate, RandomConfig};
use std::collections::HashMap;

/// The possible-worlds probability of `query` from one enumeration of the
/// program's worlds (0 for an atom no world derives).
fn oracle(program: &Program, oracles: &HashMap<(Symbol, Vec<Const>), f64>, query: &str) -> f64 {
    let key =
        worlds::parse_ground_query(program, query).unwrap_or_else(|e| panic!("query {query}: {e}"));
    oracles.get(&key).copied().unwrap_or(0.0)
}

#[test]
fn extraction_matches_possible_worlds_on_random_programs() {
    let mut checked_tuples = 0usize;
    for seed in 0..25u64 {
        let program = generate(RandomConfig {
            seed,
            ..Default::default()
        });
        let p3 = P3::from_program(program.clone()).expect("negation-free program");
        let extractor = Extractor::new(p3.graph());
        let oracles =
            worlds::success_probabilities(&program).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for query in all_derived_queries(&program) {
            let oracle = oracle(&program, &oracles, &query);
            let tuple = p3.tuple(&query).expect("derived tuple resolvable");
            let dnf = extractor.polynomial(tuple, ExtractOptions::unbounded());
            let prob = exact::probability(&dnf, p3.vars());
            assert!(
                (prob - oracle).abs() < 1e-9,
                "seed {seed}, {query}: provenance {prob} vs worlds {oracle}\nprogram:\n{}",
                program.to_source()
            );
            checked_tuples += 1;
        }
    }
    assert!(
        checked_tuples > 100,
        "the sweep must exercise many tuples: {checked_tuples}"
    );
}

#[test]
fn extraction_matches_possible_worlds_on_heavily_recursive_programs() {
    for seed in 0..10u64 {
        let program = generate(RandomConfig {
            seed: seed.wrapping_mul(7919),
            recursion_bias: 0.9,
            rules: 5,
            facts: 7,
            ..Default::default()
        });
        let p3 = P3::from_program(program.clone()).expect("negation-free program");
        let extractor = Extractor::new(p3.graph());
        let oracles = worlds::success_probabilities(&program).unwrap();
        for query in all_derived_queries(&program) {
            let oracle = oracle(&program, &oracles, &query);
            let tuple = p3.tuple(&query).unwrap();
            let dnf = extractor.polynomial(tuple, ExtractOptions::unbounded());
            let prob = exact::probability(&dnf, p3.vars());
            assert!(
                (prob - oracle).abs() < 1e-9,
                "seed {seed}, {query}: provenance {prob} vs worlds {oracle}\nprogram:\n{}",
                program.to_source()
            );
        }
    }
}

#[test]
fn bdd_backend_agrees_with_shannon_on_random_provenance() {
    use p3::prob::bdd::Bdd;
    for seed in 0..10u64 {
        let program = generate(RandomConfig {
            seed: seed + 1000,
            ..Default::default()
        });
        let p3 = P3::from_program(program.clone()).expect("negation-free program");
        let extractor = Extractor::new(p3.graph());
        for query in all_derived_queries(&program) {
            let tuple = p3.tuple(&query).unwrap();
            let dnf = extractor.polynomial(tuple, ExtractOptions::unbounded());
            let shannon = exact::probability(&dnf, p3.vars());
            let mut bdd = Bdd::new();
            let node = bdd.from_dnf(&dnf);
            let wmc = bdd.wmc(node, p3.vars());
            assert!((shannon - wmc).abs() < 1e-9, "seed {seed} {query}");
        }
    }
}

#[test]
fn rewrite_capture_equals_direct_capture_on_random_programs() {
    use p3::provenance::capture::evaluate_with_provenance;
    for seed in 0..15u64 {
        let program = generate(RandomConfig {
            seed: seed + 31,
            ..Default::default()
        });
        let (db_direct, direct) = evaluate_with_provenance(&program);
        let rewritten = rewrite::rewrite(&program).expect("rewrite succeeds");
        let (db_rw, reconstructed) = rewrite::evaluate_rewritten(&program, &rewritten);

        // Compare content signatures (tuple ids differ across databases).
        let syms = program.symbols();
        let sig = |g: &p3::provenance::ProvGraph, db: &p3::datalog::engine::Database| {
            g.signature()
                .into_iter()
                .map(|(t, c, body)| {
                    (
                        format!("{}", db.display_tuple(t, syms)),
                        program.clause(c).label.clone(),
                        body.iter()
                            .map(|&b| format!("{}", db.display_tuple(b, syms)))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(
            sig(&direct, &db_direct),
            sig(&reconstructed, &db_rw),
            "seed {seed}:\n{}",
            program.to_source()
        );
    }
}

#[test]
fn hop_limited_probability_is_a_lower_bound() {
    // Dropping derivations can only lower a monotone formula's probability.
    for seed in 0..10u64 {
        let program = generate(RandomConfig {
            seed: seed + 77,
            ..Default::default()
        });
        let p3 = P3::from_program(program.clone()).expect("negation-free program");
        let extractor = Extractor::new(p3.graph());
        for query in all_derived_queries(&program) {
            let tuple = p3.tuple(&query).unwrap();
            let full = extractor.polynomial(tuple, ExtractOptions::unbounded());
            let p_full = exact::probability(&full, p3.vars());
            let mut prev = 0.0f64;
            for depth in 0..6 {
                let cut = extractor.polynomial(tuple, ExtractOptions::with_max_depth(depth));
                let p_cut = exact::probability(&cut, p3.vars());
                assert!(
                    p_cut <= p_full + 1e-12,
                    "seed {seed} {query} depth {depth}: {p_cut} > {p_full}"
                );
                assert!(
                    p_cut >= prev - 1e-12,
                    "deeper extraction must not lose probability: {p_cut} < {prev}"
                );
                prev = p_cut;
            }
        }
    }
}
