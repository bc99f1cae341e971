//! Explain is observation-only: answering the same queries with per-rule
//! stat collection on (and `explain` called per query) must intern the
//! *same* DNF sequence — identical `DnfId`s, since hash-consing makes ids
//! a transcript of evaluation order — and produce bit-identical
//! probabilities, in both eval modes. Any write path from the EXPLAIN
//! plane into evaluation would shift an id or a bit and fail here.

use p3::core::{EvalMode, ProbMethod, SessionOptions, P3};
use p3::datalog::engine::set_rule_stat_collection;
use p3::prob::DnfId;
use p3::provenance::extract::ExtractOptions;
use p3::workloads::random_programs::{all_derived_queries, generate, RandomConfig};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises access to the process-global collection toggle across this
/// binary's tests; `.unwrap_or_else` keeps going past another test's panic.
static TOGGLE: Mutex<()> = Mutex::new(());

/// Answers every query through a fresh system, returning the interned id
/// and the probability's raw bits. With `explain` set, stat collection is
/// on and `QuerySession::explain` runs after each query — the observation
/// path under test.
fn transcript(
    program: &p3::datalog::program::Program,
    queries: &[String],
    mode: EvalMode,
    explain: bool,
) -> Vec<(DnfId, u64)> {
    set_rule_stat_collection(explain);
    let p3 = P3::from_program(program.clone()).expect("negation-free program");
    let session = p3.session_with(SessionOptions {
        eval_mode: mode,
        ..Default::default()
    });
    let mut out = Vec::new();
    for query in queries {
        let id = session
            .provenance_id_with(query, ExtractOptions::unbounded())
            .unwrap();
        let p = session.probability_of(id, ProbMethod::Exact);
        if explain {
            let explained = session.explain(query).0.expect("explainable query");
            assert_eq!(explained.mode(), mode.resolve(program).as_str());
        }
        out.push((id, p.to_bits()));
    }
    out
}

fn assert_explain_is_observation_only(config: RandomConfig) {
    let seed = config.seed;
    let program = generate(config);
    let queries = all_derived_queries(&program);
    if queries.is_empty() {
        return;
    }
    let _guard = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    for mode in [EvalMode::Naive, EvalMode::Demand] {
        let plain = transcript(&program, &queries, mode, false);
        let explained = transcript(&program, &queries, mode, true);
        set_rule_stat_collection(true);
        assert_eq!(
            plain,
            explained,
            "seed {seed}, {mode:?}: explain perturbed evaluation\nprogram:\n{}",
            program.to_source()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn explain_never_perturbs_ids_or_probabilities(seed in 0u64..400) {
        assert_explain_is_observation_only(RandomConfig { seed, ..Default::default() });
    }

    #[test]
    fn explain_never_perturbs_recursive_workloads(seed in 0u64..200) {
        assert_explain_is_observation_only(RandomConfig {
            seed: seed.wrapping_mul(6007),
            recursion_bias: 0.9,
            rules: 5,
            facts: 7,
            ..Default::default()
        });
    }
}
