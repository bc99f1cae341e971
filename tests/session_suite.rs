//! Session-layer guarantees: cached answers equal fresh ones (property
//! tests over random programs) and a shared `P3`/`QuerySession` serves
//! concurrent mixed workloads with the same answers as a sequential run.

use p3::core::{
    DerivationAlgo, EvalMode, InfluenceMethod, InfluenceOptions, ModificationOptions, ProbMethod,
    SessionOptions, P3,
};
use p3::workloads::random_programs::{all_derived_queries, generate, RandomConfig};
use p3::workloads::trust::{self, NetworkConfig};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

/// `P3` and `QuerySession` must be shareable across threads.
#[test]
fn p3_and_sessions_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<P3>();
    assert_send_sync::<p3::core::QuerySession>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every derived tuple of a random program, the session answer —
    /// first call (cache miss) and second call (cache hit) — equals a
    /// fresh, uncached computation.
    #[test]
    fn session_probability_equals_fresh_on_random_programs(
        seed in 0u64..1_000,
        domain in 2usize..=4,
        facts in 3usize..=8,
        rules in 2usize..=5,
    ) {
        let program = generate(RandomConfig { domain, facts, rules, seed, ..Default::default() });
        let queries = all_derived_queries(&program);
        prop_assume!(!queries.is_empty());
        let p3 = P3::from_program(program).unwrap();
        let session = p3.session();
        for q in queries.iter().take(12) {
            let fresh = p3.probability(q, ProbMethod::Exact).unwrap();
            let first = session.probability(q, ProbMethod::Exact).unwrap();
            let second = session.probability(q, ProbMethod::Exact).unwrap();
            prop_assert_eq!(first, fresh, "first call differs for {}", q);
            prop_assert_eq!(second, fresh, "cached call differs for {}", q);
        }
    }

    /// Session-cached extraction hands back the same polynomial as the
    /// uncached extractor, and interning is stable: asking twice yields the
    /// same `DnfId`.
    #[test]
    fn session_extraction_equals_fresh_on_random_programs(
        seed in 0u64..1_000,
        facts in 3usize..=8,
        rules in 2usize..=5,
    ) {
        let program = generate(RandomConfig { facts, rules, seed, ..Default::default() });
        let queries = all_derived_queries(&program);
        prop_assume!(!queries.is_empty());
        let p3 = P3::from_program(program).unwrap();
        let session = p3.session();
        for q in queries.iter().take(12) {
            let fresh = p3.provenance(q).unwrap();
            let id = session.provenance_id(q).unwrap();
            prop_assert_eq!(&*session.dnf(id), &fresh, "polynomial differs for {}", q);
            prop_assert_eq!(session.provenance_id(q).unwrap(), id, "unstable id for {}", q);
        }
    }

    /// Monte-Carlo answers are deterministic per seed, so they too must
    /// survive the cache unchanged.
    #[test]
    fn session_mc_probability_is_deterministic(seed in 0u64..500) {
        let program = generate(RandomConfig { seed, ..Default::default() });
        let queries = all_derived_queries(&program);
        prop_assume!(!queries.is_empty());
        let p3 = P3::from_program(program).unwrap();
        let session = p3.session();
        let method = ProbMethod::MonteCarlo(p3::prob::McConfig { samples: 2_000, seed: 7 });
        let q = &queries[0];
        let fresh = p3.probability(q, method).unwrap();
        prop_assert_eq!(session.probability(q, method).unwrap(), fresh);
        prop_assert_eq!(session.probability(q, method).unwrap(), fresh);
    }
}

/// The acquaintance program of the paper's running example.
const ACQ: &str = r#"
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

/// One shared `P3` + one shared session, hammered by 8 threads running all
/// four query classes concurrently; every thread's answers must equal the
/// sequential baseline computed up front.
#[test]
fn concurrent_mixed_queries_match_sequential() {
    let p3 = P3::from_source(ACQ).unwrap();
    let session = p3.session();
    let queries = [
        r#"know("Ben","Elena")"#,
        r#"know("Steve","Elena")"#,
        r#"know("Ben","Steve")"#,
    ];
    let inf_opts = InfluenceOptions {
        method: InfluenceMethod::Exact,
        ..Default::default()
    };
    let mod_opts = ModificationOptions::default();

    // Sequential baseline, computed before any session cache is warm.
    let baseline: Vec<_> = queries
        .iter()
        .map(|q| {
            let explanation = p3.explain(q).unwrap();
            let sufficient = p3::core::sufficient_provenance(
                &explanation.polynomial,
                p3.vars(),
                0.01,
                DerivationAlgo::NaiveGreedy,
                ProbMethod::Exact,
            );
            let influence =
                p3::core::influence_query(&explanation.polynomial, p3.vars(), &inf_opts);
            let modification =
                p3::core::modification_query(&explanation.polynomial, p3.vars(), 0.9, &mod_opts);
            (explanation, sufficient, influence, modification)
        })
        .collect();

    const THREADS: usize = 8;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let session = session.clone();
            let baseline = &baseline;
            let inf_opts = &inf_opts;
            let mod_opts = &mod_opts;
            scope.spawn(move || {
                // Each thread walks the queries from a different offset so
                // cache misses and hits interleave across threads.
                for round in 0..queries.len() {
                    let i = (t + round) % queries.len();
                    let q = queries[i];
                    let (exp, suff, inf, plan) = &baseline[i];
                    match t % 4 {
                        // Explanation class: probability + polynomial.
                        0 => {
                            let p = session.probability(q, ProbMethod::Exact).unwrap();
                            assert_eq!(p, exp.probability, "{q}");
                            assert_eq!(session.provenance(q).unwrap(), exp.polynomial);
                        }
                        // Derivation class.
                        1 => {
                            let s = session
                                .sufficient_provenance(
                                    q,
                                    0.01,
                                    DerivationAlgo::NaiveGreedy,
                                    ProbMethod::Exact,
                                )
                                .unwrap();
                            assert_eq!(s.polynomial, suff.polynomial, "{q}");
                            assert_eq!(s.probability, suff.probability, "{q}");
                        }
                        // Influence class.
                        2 => {
                            let entries = session.influence(q, inf_opts).unwrap();
                            assert_eq!(entries.len(), inf.len(), "{q}");
                            for (a, b) in entries.iter().zip(inf) {
                                assert_eq!(a.var, b.var, "{q}");
                                assert!((a.influence - b.influence).abs() < 1e-12, "{q}");
                            }
                        }
                        // Modification class.
                        _ => {
                            let m = session.modification(q, 0.9, mod_opts).unwrap();
                            assert_eq!(m.steps.len(), plan.steps.len(), "{q}");
                            assert!(
                                (m.achieved_probability - plan.achieved_probability).abs() < 1e-12,
                                "{q}"
                            );
                        }
                    }
                    // Cross-class check through the same shared caches.
                    assert_eq!(
                        session.probability(q, ProbMethod::Exact).unwrap(),
                        exp.probability,
                        "{q}"
                    );
                }
            });
        }
    });

    // The shared caches actually absorbed the repeat traffic.
    let stats = session.stats();
    assert!(
        stats.hits > 0,
        "expected cross-thread cache hits, got {stats:?}"
    );
}

/// `P3::batch_probabilities` (scoped worker threads over a shared session)
/// agrees with one-at-a-time evaluation.
#[test]
fn batch_probabilities_match_sequential() {
    let program = generate(RandomConfig {
        facts: 10,
        rules: 5,
        seed: 42,
        ..Default::default()
    });
    let queries = all_derived_queries(&program);
    assert!(!queries.is_empty());
    let p3 = P3::from_program(program).unwrap();
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    let batch = p3.batch_probabilities(&refs, ProbMethod::Exact, 4);
    assert_eq!(batch.len(), refs.len());
    for (q, got) in refs.iter().zip(&batch) {
        let expected = p3.probability(q, ProbMethod::Exact).unwrap();
        assert_eq!(*got.as_ref().unwrap(), expected, "{q}");
    }
}

/// What a demand session answers for one atom: the polynomial, the exact
/// probability's bits and the demand core's counters.
fn demand_answer(p3: &P3, atom: &str) -> (p3::prob::Dnf, u64, p3::provenance::DemandStats) {
    let session = p3.session_with(SessionOptions {
        eval_mode: EvalMode::Demand,
        ..Default::default()
    });
    let dnf = session.provenance(atom).unwrap();
    let p = session.probability(atom, ProbMethod::Exact).unwrap();
    let (pred, args) = p3::datalog::worlds::parse_ground_query(p3.program(), atom).unwrap();
    (dnf, p.to_bits(), p3.demand_stats(pred, &args).unwrap())
}

/// Threads that start at once on a fresh `P3`, each forcing the demand
/// cores of its own atoms, race to build the program's fact base; one
/// wins, all share it, and every answer is bit-identical to a sequential
/// run's.
#[test]
fn concurrent_first_demand_queries_share_one_base() {
    let program = trust::generate(NetworkConfig {
        nodes: 400,
        edges: 2_000,
        seed: 9,
        ..NetworkConfig::default()
    })
    .sample_bfs(60, 3)
    .to_program();
    let atoms: Vec<String> = all_derived_queries(&program)
        .into_iter()
        .filter(|q| q.starts_with("trustPath(") || q.starts_with("mutualTrustPath("))
        .step_by(5)
        .take(24)
        .collect();
    assert_eq!(atoms.len(), 24);
    let src = program.to_source();

    let sequential = P3::from_source(&src).unwrap();
    let expected: Vec<_> = atoms
        .iter()
        .map(|a| demand_answer(&sequential, a))
        .collect();

    const THREADS: usize = 4;
    let p3 = P3::from_source(&src).unwrap();
    assert!(p3.program().built_fact_base().is_none());
    let start = Barrier::new(THREADS);
    let bases: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (p3, atoms, expected, start) = (&p3, &atoms, &expected, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in (t..atoms.len()).step_by(THREADS) {
                        assert_eq!(demand_answer(p3, &atoms[i]), expected[i], "{}", atoms[i]);
                    }
                    Arc::clone(p3.program().built_fact_base().unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(bases.iter().all(|b| Arc::ptr_eq(b, &bases[0])));
    assert_eq!(p3.demand_evaluations(), atoms.len());
}
