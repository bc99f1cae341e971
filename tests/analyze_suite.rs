//! Integration suite for the static analyzer (`p3 analyze`).
//!
//! Three properties are pinned here:
//!
//! 1. **Totality** — the analyzer accepts every program the parser
//!    accepts (generated workloads and adversarial hand-written shapes)
//!    and always terminates with a finite, renderable plan. It never
//!    panics and never runs the engine.
//! 2. **Observation-only** — answering the same queries with
//!    `QuerySession::analyze` interleaved must intern the *same* DNF
//!    sequence (identical `DnfId`s) and produce bit-identical
//!    probabilities, in both eval modes. Any write path from the
//!    analysis plane into evaluation would shift an id or a bit.
//! 3. **Calibration** — on a sampled trust network the statically
//!    predicted most-expensive rule matches the EXPLAIN-measured top
//!    rule in both eval modes (the acceptance bar `BENCH_analyze.json`
//!    re-checks under criterion timing).

use p3::core::{rank_correlation, EvalMode, ProbMethod, SessionOptions, P3};
use p3::prob::DnfId;
use p3::provenance::extract::ExtractOptions;
use p3::workloads::random_programs::{all_derived_queries, generate, RandomConfig};
use p3::workloads::trust;
use proptest::prelude::*;

// ---------------------------------------------------------------- totality

/// Analyzes a program end to end: full-program plan, per-query plan for
/// every derivable atom shape, and both render paths. Returns the plan so
/// callers can assert on it.
fn analyze_all_paths(program: &p3::datalog::program::Program) -> p3::core::AnalyzePlan {
    let plan = p3::analyze::analyze(program);
    // Both renderers must succeed on any plan.
    let text = plan.render_text();
    assert!(text.starts_with("analyze:"), "header missing:\n{text}");
    let json = plan.to_value().to_json();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    // Diagnostics, if any, carry P37xx codes only.
    for d in &plan.diagnostics {
        assert!(d.code.starts_with("P37"), "unexpected code {}", d.code);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn analyzer_is_total_on_generated_programs(seed in 0u64..400) {
        let program = generate(RandomConfig { seed, ..Default::default() });
        let plan = analyze_all_paths(&program);
        prop_assert!(plan.total_cost() <= 1u64 << 41, "cost cap breached");
        // Per-query analysis is total for any syntactically valid atom,
        // derivable or not.
        for query in ["p(1)", "nosuch(\"x\",Y)", "zero()"] {
            let _ = p3::analyze::analyze_query(&program, query);
        }
    }

    #[test]
    fn analyzer_is_total_on_recursive_workloads(seed in 0u64..200) {
        let program = generate(RandomConfig {
            seed: seed.wrapping_mul(6007),
            recursion_bias: 0.9,
            rules: 5,
            facts: 7,
            ..Default::default()
        });
        let plan = analyze_all_paths(&program);
        // A recursion recommendation must come with a reason string.
        prop_assert!(!plan.reason.is_empty());
    }

    #[test]
    fn analyzer_never_panics_on_clause_shaped_text(
        head in "[a-z][a-z0-9_]{0,8}",
        args in "[A-Za-z0-9_,\"\\. ]{0,30}",
        p in 0.0f64..1.5,
    ) {
        for src in [
            format!("{p}::{head}({args})."),
            format!("x1 {p}: {head}({args}) :- {head}({args})."),
        ] {
            if let Ok(program) = p3::datalog::Program::parse(&src) {
                analyze_all_paths(&program);
            }
        }
    }
}

#[test]
fn analyzer_is_total_on_hostile_shapes() {
    // Hand-written adversarial shapes: empty, facts-only, self-joins,
    // mutual recursion, Cartesian blowup, disjoint domains, constraint
    // heads, deep chains. Each must parse and analyze without panicking.
    let chain: String = (0..40)
        .map(|i| format!("c{i} 0.5: p{}(X) :- p{i}(X).\n", i + 1))
        .chain(std::iter::once("f0 1.0: p0(1).\n".to_string()))
        .collect();
    let hostile: Vec<String> = vec![
        String::new(),
        "t1 1.0: lonely(1).".into(),
        "r1 0.5: self(X,Y) :- self(Y,X).".into(),
        "r1 0.5: a(X) :- b(X). r2 0.5: b(X) :- a(X). t1 1.0: b(1).".into(),
        "r1 0.9: pair(X,Y) :- p(X), q(Y). t1 1.0: p(1). t2 1.0: q(2).".into(),
        // Disjoint join domains: the body can never unify.
        "r1 0.5: m(X) :- p(X), q(X). t1 1.0: p(1). t2 1.0: q(\"a\").".into(),
        "r1 0.5: big(A,B,C,D) :- e(A,B), e(B,C), e(C,D), A != D. t1 0.5: e(1,2). t2 0.5: e(2,3). t3 0.5: e(3,1).".into(),
        chain,
    ];
    for src in &hostile {
        let program = p3::datalog::Program::parse(src).expect("hostile source parses");
        let plan = analyze_all_paths(&program);
        assert!(plan.total_cost() <= 1u64 << 41, "source: {src}");
    }
}

#[test]
fn recommendation_agrees_with_auto_mode_resolution() {
    // `EvalMode::Auto` and the analyzer must never disagree: the session's
    // resolved mode is exactly the plan's recommendation.
    for seed in 0..40u64 {
        let program = generate(RandomConfig {
            seed,
            ..Default::default()
        });
        let plan = p3::analyze::analyze(&program);
        let decision = EvalMode::Auto.decide(&program);
        let expect = if plan.recommend_demand {
            EvalMode::Demand
        } else {
            EvalMode::Naive
        };
        assert_eq!(decision.mode, expect, "seed {seed}");
        assert_eq!(decision.reason, plan.reason, "seed {seed}");
    }
}

// ---------------------------------------------------------- observation-only

/// Answers every query through a fresh session, returning the interned id
/// and the probability's raw bits. With `analyze` set, the static analyzer
/// runs before the session answers anything and again around every query —
/// the observation path under test.
fn transcript(
    program: &p3::datalog::program::Program,
    queries: &[String],
    mode: EvalMode,
    analyze: bool,
) -> Vec<(DnfId, u64)> {
    let p3 = P3::from_program(program.clone()).expect("negation-free program");
    let session = p3.session_with(SessionOptions {
        eval_mode: mode,
        ..Default::default()
    });
    if analyze {
        let plan = session.analyze(None);
        assert!(plan.query.is_none());
    }
    let mut out = Vec::new();
    for query in queries {
        if analyze {
            let plan = session.analyze(Some(query));
            assert_eq!(
                plan.query.as_ref().map(|q| q.query.as_str()),
                Some(query.as_str())
            );
        }
        let id = session
            .provenance_id_with(query, ExtractOptions::unbounded())
            .unwrap();
        let p = session.probability_of(id, ProbMethod::Exact);
        if analyze {
            session.analyze(Some(query));
        }
        out.push((id, p.to_bits()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn analyze_never_perturbs_ids_or_probabilities(seed in 0u64..400) {
        let program = generate(RandomConfig { seed, ..Default::default() });
        let queries = all_derived_queries(&program);
        prop_assume!(!queries.is_empty());
        for mode in [EvalMode::Naive, EvalMode::Demand] {
            let plain = transcript(&program, &queries, mode, false);
            let analyzed = transcript(&program, &queries, mode, true);
            prop_assert_eq!(
                &plain,
                &analyzed,
                "seed {}, {:?}: analyze perturbed evaluation\nprogram:\n{}",
                seed,
                mode,
                program.to_source()
            );
        }
    }

    #[test]
    fn analyze_never_perturbs_recursive_workloads(seed in 0u64..200) {
        let program = generate(RandomConfig {
            seed: seed.wrapping_mul(6007),
            recursion_bias: 0.9,
            rules: 5,
            facts: 7,
            ..Default::default()
        });
        let queries = all_derived_queries(&program);
        prop_assume!(!queries.is_empty());
        for mode in [EvalMode::Naive, EvalMode::Demand] {
            let plain = transcript(&program, &queries, mode, false);
            let analyzed = transcript(&program, &queries, mode, true);
            prop_assert_eq!(&plain, &analyzed, "seed {}, {:?}", seed, mode);
        }
    }
}

// ---------------------------------------------------------------- calibration

/// The measured top rule of an EXPLAIN plan: highest cost among rules that
/// did any work, label ascending as the tiebreak (the plan is pre-sorted
/// exactly this way, so the first non-zero row wins).
fn measured_top(plan: &p3::datalog::explain::ExplainPlan) -> Option<String> {
    plan.rules
        .iter()
        .find(|r| r.cost() > 0)
        .or_else(|| plan.rules.first())
        .map(|r| r.label.clone())
}

#[test]
fn trust_top_rule_prediction_matches_explain_in_both_modes() {
    // A sparse sampled trust network where the transitive-closure rule r2
    // dominates measured cost under BOTH eval modes — the workload the
    // acceptance criterion names. (Denser samples with many mutual pairs
    // let r3's quadratic trustPath self-join win under naive while r2
    // still wins under demand; no mode-independent static prediction can
    // match both there.)
    let net = trust::generate(trust::NetworkConfig {
        nodes: 200,
        edges: 260,
        seed: 7,
        ..trust::NetworkConfig::default()
    });
    let sample = net.sample_bfs(80, 11);
    let program = sample.to_program();
    let query = all_derived_queries(&program)
        .into_iter()
        .find(|q| q.starts_with("mutualTrustPath("))
        .expect("sample derives at least one mutualTrustPath tuple");

    for mode in [EvalMode::Naive, EvalMode::Demand] {
        let p3 = P3::from_program(program.clone()).expect("negation-free program");
        let session = p3.session_with(SessionOptions {
            eval_mode: mode,
            ..Default::default()
        });
        let plan = session.analyze(Some(&query));
        let predicted = plan.top_rule().expect("plan has rules").label.clone();
        let explained = session.explain(&query).0.expect("query explains");
        let measured = measured_top(&explained.plan).expect("explain has rules");
        assert_eq!(
            predicted, measured,
            "{mode:?}: predicted top rule diverges from measured"
        );

        // The full ranking correlates against the naive (whole-program)
        // measurement — that is what the static model predicts; a demand
        // plan only covers the query's magic fragment, so only its top
        // slot is comparable.
        if mode == EvalMode::Naive {
            let predicted_costs: Vec<(String, u64)> = plan
                .rules
                .iter()
                .map(|r| (r.label.clone(), r.cost()))
                .collect();
            let measured_costs: Vec<(String, u64)> = explained
                .plan
                .rules
                .iter()
                .map(|r| (r.label.clone(), r.cost()))
                .collect();
            let rho = rank_correlation(&predicted_costs, &measured_costs);
            assert!(rho >= 0.6, "naive rank correlation {rho} too low");
        }
    }
}

#[test]
fn trust_analysis_recommends_demand_and_predicts_recursion() {
    let program = trust::case_study_program();
    let plan = p3::analyze::analyze(&program);
    assert!(plan.recommend_demand, "recursive trust program");
    assert!(
        plan.rules.iter().any(|r| r.recursive),
        "r2 is in the trustPath fixpoint loop"
    );
    // The analysis itself must be fast enough to run on every query:
    // microseconds, not milliseconds (generous bound for debug builds).
    assert!(plan.analysis_us < 1_000_000, "{}us", plan.analysis_us);
}

// ---------------------------------------------------------------- recursion

/// Mutual recursion: r1 and r2 form the cycle `a <-> b`; r3 grounds it.
const MUTUAL: &str = "r1 1.0: a(X) :- b(X).
r2 1.0: b(X) :- a(X).
r3 1.0: a(X) :- e(X).
t1 0.5: e(1).
t2 0.5: e(2).
";

fn naive_plan(program: &p3::datalog::program::Program) -> p3::datalog::explain::ExplainPlan {
    let mut engine = p3::datalog::engine::Engine::new(program);
    engine.run_plain();
    p3::datalog::explain::ExplainPlan::from_engine(&engine)
}

/// Asserts every row of `plan` carries the analyzer's `recursive` flag for
/// the same label.
fn assert_flags_agree(
    what: &str,
    analyzed: &p3::core::AnalyzePlan,
    plan: &p3::datalog::explain::ExplainPlan,
) {
    for rule in &plan.rules {
        let predicted = analyzed
            .rules
            .iter()
            .find(|r| r.label == rule.label)
            .unwrap_or_else(|| panic!("{what}: rule {} not analyzed", rule.label));
        assert_eq!(
            rule.recursive, predicted.recursive,
            "{what}: {} plan marks rule {} recursive={}, analyze says {}",
            plan.mode, rule.label, rule.recursive, predicted.recursive
        );
    }
}

#[test]
fn explain_and_analyze_agree_on_which_rules_recurse() {
    let mut programs = vec![(
        "mutual recursion".to_string(),
        p3::datalog::Program::parse(MUTUAL).unwrap(),
    )];
    for seed in 0..400u64 {
        let program = generate(RandomConfig {
            seed,
            ..Default::default()
        });
        programs.push((format!("seed {seed}"), program));
    }
    for (what, program) in &programs {
        let analyzed = p3::analyze::analyze(program);
        assert_flags_agree(what, &analyzed, &naive_plan(program));
        let Some(query) = all_derived_queries(program).into_iter().next() else {
            continue;
        };
        let p3 = P3::from_program(program.clone()).expect("negation-free program");
        let session = p3.session_with(SessionOptions {
            eval_mode: EvalMode::Demand,
            ..Default::default()
        });
        let explained = session.explain(&query).0.expect("derived atom explains");
        assert_eq!(explained.plan.mode, "demand");
        assert_flags_agree(what, &analyzed, &explained.plan);
    }
}

#[test]
fn measured_demand_advice_fires_inside_a_mutually_recursive_cycle() {
    let program = p3::datalog::Program::parse(MUTUAL).unwrap();
    let plan = naive_plan(&program);
    let recommendations = p3::lint::cost::cost_recommendations(&plan);
    assert!(
        recommendations
            .iter()
            .any(|d| d.code == "P3603" && d.clause.as_deref() == Some("r2")),
        "rows {:?}\nrecommendations {recommendations:?}",
        plan.rules
            .iter()
            .map(|r| (&r.label, r.recursive, r.cost()))
            .collect::<Vec<_>>()
    );
}
