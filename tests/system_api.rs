//! Cross-crate behaviour of the public API: probability backends agree,
//! hop limits, parallel drivers, error paths, and ExSPAN-rewrite parity
//! through the facade.

use p3::core::{P3Error, ProbMethod, P3};
use p3::prob::McConfig;
use p3::provenance::extract::ExtractOptions;
use p3::workloads::{acquaintance, trust};

#[test]
fn all_probability_backends_agree_on_acquaintance() {
    let p3 = P3::from_source(acquaintance::SOURCE).unwrap();
    let exact = p3
        .probability(acquaintance::QUERY, ProbMethod::Exact)
        .unwrap();
    let bdd = p3
        .probability(acquaintance::QUERY, ProbMethod::Bdd)
        .unwrap();
    assert!((exact - bdd).abs() < 1e-12);
    let cfg = McConfig {
        samples: 200_000,
        seed: 3,
    };
    for method in [
        ProbMethod::MonteCarlo(cfg),
        ProbMethod::KarpLuby(cfg),
        ProbMethod::ParallelMc(cfg, 4),
    ] {
        let est = p3.probability(acquaintance::QUERY, method).unwrap();
        assert!((est - exact).abs() < 0.01, "{method:?}: {est} vs {exact}");
    }
}

#[test]
fn error_paths_are_typed() {
    let p3 = P3::from_source(acquaintance::SOURCE).unwrap();
    assert!(matches!(
        p3.probability(r#"know("Nobody","Elena")"#, ProbMethod::Exact),
        Err(P3Error::BadQuery(_)) | Err(P3Error::NotDerivable(_))
    ));
    assert!(matches!(
        p3.probability("<<<", ProbMethod::Exact),
        Err(P3Error::BadQuery(_))
    ));
    assert!(matches!(P3::from_source("p(X."), Err(P3Error::Program(_))));
}

#[test]
fn hop_limits_monotonically_reveal_derivations() {
    let p3 = P3::from_source(&trust::case_study_source()).unwrap();
    let mut last = 0usize;
    for depth in 0..8 {
        let dnf = p3
            .provenance_with(
                trust::CASE_STUDY_QUERY,
                ExtractOptions::with_max_depth(depth),
            )
            .unwrap();
        assert!(dnf.len() >= last, "depth {depth}");
        last = dnf.len();
    }
    assert_eq!(last, 2, "both Fig 8 derivations visible at full depth");
}

#[test]
fn extractor_reuse_matches_one_shot_extraction() {
    let p3 = P3::from_source(&trust::case_study_source()).unwrap();
    let extractor = p3.extractor();
    let tp = p3.tuple("trustPath(1,6)").unwrap();
    let one_shot = p3.provenance("trustPath(1,6)").unwrap();
    let reused = extractor.polynomial(tp, ExtractOptions::unbounded());
    assert_eq!(one_shot, reused);
}

#[test]
fn facade_exposes_graph_statistics() {
    let p3 = P3::from_source(acquaintance::SOURCE).unwrap();
    let graph = p3.graph();
    assert!(graph.num_execs() > 0);
    assert!(graph.num_tuples() >= 6, "at least the base tuples");
    assert!(
        graph.num_edges() > graph.num_execs(),
        "bodies are non-empty"
    );
}

#[test]
fn rewritten_execution_supports_the_same_queries() {
    // Run the §3.2 literal rewrite end to end and check the polynomial
    // probability matches the direct-capture facade.
    let program = p3::datalog::Program::parse(acquaintance::SOURCE).unwrap();
    let direct = P3::from_program(program.clone()).expect("negation-free program");
    let expected = direct
        .probability(acquaintance::QUERY, ProbMethod::Exact)
        .unwrap();

    let rewritten = p3::provenance::rewrite::rewrite(&program).unwrap();
    let (db, graph) = p3::provenance::rewrite::evaluate_rewritten(&program, &rewritten);
    let (pred, args) =
        p3::datalog::worlds::parse_ground_query(&program, acquaintance::QUERY).unwrap();
    let tuple = db.lookup(pred, &args).unwrap();
    let dnf = p3::provenance::extract_polynomial(&graph, tuple, ExtractOptions::unbounded());
    let vars = p3::provenance::clause_vars(&program);
    let p = p3::prob::exact::probability(&dnf, &vars);
    assert!((p - expected).abs() < 1e-12);
    // Ad-hoc column matching works on the rewritten run's database even for
    // column sets the engine never planned an index for.
    let know = program.symbols().get("know").unwrap();
    let ben = p3::datalog::ast::Const::Sym(program.symbols().get("Ben").unwrap());
    assert!(!db.matching(know, &[0], &[ben]).is_empty());
}

#[test]
fn parallel_influence_agrees_with_sequential_through_the_facade() {
    let p3 = P3::from_source(&trust::case_study_source()).unwrap();
    let dnf = p3.provenance(trust::CASE_STUDY_QUERY).unwrap();
    let cfg = McConfig {
        samples: 50_000,
        seed: 21,
    };
    let seq = p3::core::influence_query(
        &dnf,
        p3.vars(),
        &p3::core::InfluenceOptions {
            method: p3::core::InfluenceMethod::Mc(cfg),
            ..Default::default()
        },
    );
    let par = p3::core::influence_query(
        &dnf,
        p3.vars(),
        &p3::core::InfluenceOptions {
            method: p3::core::InfluenceMethod::ParallelMc(cfg, 4),
            ..Default::default()
        },
    );
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.var, b.var);
        assert!(
            (a.influence - b.influence).abs() < 1e-12,
            "parallel influence is exact-equal"
        );
    }
}

#[test]
fn provenance_rejects_negation_but_the_engine_evaluates_it() {
    // The engine extension (stratified negation) works …
    let src = r"r1 1.0: q(X) :- cand(X), \+ blocked(X).
                cand(a).
                b1 0.3: blocked(a).";
    let program = p3::datalog::Program::parse(src).unwrap();
    let prob = p3::datalog::worlds::success_probability_str(&program, "q(a)").unwrap();
    assert!((prob - 0.7).abs() < 1e-12);
    // … but the provenance model is negation-free, so P3 refuses.
    assert!(matches!(
        P3::from_source(src),
        Err(P3Error::UnsupportedNegation)
    ));
}

#[test]
fn database_relations_are_inspectable_by_name() {
    let p3 = P3::from_source(acquaintance::SOURCE).unwrap();
    let know = p3.database().relation_by_name("know").unwrap();
    // know(Ben,Steve) base + derived pairs.
    assert!(know.len() >= 3);
    assert!(p3.database().relation_by_name("nothing").is_none());
}
