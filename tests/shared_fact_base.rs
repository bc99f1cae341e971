//! The fact base that demand evaluations share.
//!
//! A program's facts are interned once, on its first demand evaluation,
//! and every later query of the program — on clones, what-if copies and
//! demand cores alike — reads that one base and puts its own tuples in a
//! database of its own. These tests check that no answer depends on which
//! queries ran before: on one `P3`, each atom's demand evaluation, asked in
//! two orders, equals the one a fresh `P3` gives it (same tuple ids, same
//! derivations in the same order, same counters), and the base is built
//! lazily, shared, and never written.

use p3::core::{EvalMode, ProbMethod, SessionOptions, P3};
use p3::datalog::ast::Const;
use p3::datalog::engine::{FactBase, StoredTuple, TupleId};
use p3::datalog::symbol::Symbol;
use p3::datalog::{worlds, Program};
use p3::provenance::{evaluate_query_with_provenance, DemandEvaluation};
use p3::workloads::random_programs::all_derived_queries;
use p3::workloads::trust::{self, NetworkConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

fn trust_example() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/trust.pl"))
        .expect("examples/trust.pl")
}

/// Every atom of a predicate some rule derives, in text order.
fn derived_atoms(program: &Program) -> Vec<String> {
    let heads: BTreeSet<String> = program
        .iter()
        .filter(|(_, c)| c.is_rule())
        .map(|(_, c)| program.symbols().resolve(c.head.pred).to_string())
        .collect();
    all_derived_queries(program)
        .into_iter()
        .filter(|q| heads.contains(q.split('(').next().unwrap()))
        .collect()
}

/// The trust-cold network and ten of its atoms: the two wide
/// `mutualTrustPath` atoms the benchmark ledger asks and every
/// `len / 8`-th `trustPath` atom of the naive model in text order.
fn trust_cold() -> (String, Vec<String>) {
    let program = trust::generate(NetworkConfig {
        nodes: 2000,
        edges: 10_000,
        seed: 5,
        ..NetworkConfig::default()
    })
    .sample_bfs(250, 11)
    .to_program();
    let mut atoms = vec![
        "mutualTrustPath(332,1626)".to_string(),
        "mutualTrustPath(1237,7)".to_string(),
    ];
    let paths: Vec<String> = derived_atoms(&program)
        .into_iter()
        .filter(|q| q.starts_with("trustPath("))
        .collect();
    let step = (paths.len() / 8).max(1);
    atoms.extend(paths.into_iter().step_by(step).take(8));
    (program.to_source(), atoms)
}

fn query(program: &Program, atom: &str) -> (Symbol, Vec<Const>) {
    worlds::parse_ground_query(program, atom).expect("ground atom")
}

fn demand(program: &Program, atom: &str) -> DemandEvaluation {
    let (pred, args) = query(program, atom);
    evaluate_query_with_provenance(program, pred, &args).expect("negation-free program")
}

/// Every stored tuple in id order. Magic predicates are interned after the
/// source's symbols in a fixed order, so equal runs store equal tuples.
fn tuples(eval: &DemandEvaluation) -> Vec<StoredTuple> {
    (0..eval.db.len())
        .map(|i| {
            let id = TupleId(u32::try_from(i).expect("tuple id fits u32"));
            eval.db.tuple(id).clone()
        })
        .collect()
}

/// No tuple the run added past the base is in the base.
fn assert_overlay_stays_out_of(base: &FactBase, eval: &DemandEvaluation, atom: &str) {
    for i in base.len()..eval.db.len() {
        let t = eval
            .db
            .tuple(TupleId(u32::try_from(i).expect("tuple id fits u32")));
        assert!(
            base.lookup(t.pred, &t.args).is_none(),
            "{atom}: tuple #{i} landed in the base"
        );
    }
}

/// On one `P3`, each atom's demand evaluation — asked in order, then in
/// reverse — equals the evaluation on a fresh `P3`, and so do the counters
/// the `P3`'s own demand cores keep.
fn assert_history_free(src: &str, atoms: &[String]) {
    let fresh: Vec<DemandEvaluation> = atoms
        .iter()
        .map(|atom| demand(P3::from_source(src).unwrap().program(), atom))
        .collect();

    let p3 = P3::from_source(src).unwrap();
    let session = p3.session_with(SessionOptions {
        eval_mode: EvalMode::Demand,
        ..Default::default()
    });
    let forward: Vec<usize> = (0..atoms.len()).collect();
    let backward: Vec<usize> = forward.iter().rev().copied().collect();
    for order in [forward, backward] {
        for i in order {
            let (atom, expected) = (&atoms[i], &fresh[i]);
            let program = p3.program();
            let eval = demand(program, atom);
            assert_eq!(eval.graph, expected.graph, "{atom}: graph");
            assert_eq!(eval.stats, expected.stats, "{atom}: stats");
            assert_eq!(tuples(&eval), tuples(expected), "{atom}: tuple ids");
            assert_overlay_stays_out_of(program.fact_base(), &eval, atom);

            session.probability(atom, ProbMethod::Exact).unwrap();
            let (pred, args) = query(program, atom);
            assert_eq!(
                p3.demand_stats(pred, &args),
                Some(expected.stats),
                "{atom}: demand core"
            );
        }
    }
}

#[test]
fn trust_example_answers_do_not_depend_on_query_history() {
    let src = trust_example();
    let atoms = derived_atoms(&Program::parse(&src).unwrap());
    assert_eq!(atoms.len(), 24);
    assert_history_free(&src, &atoms);
}

#[test]
fn trust_cold_answers_do_not_depend_on_query_history() {
    let (src, atoms) = trust_cold();
    assert_eq!(atoms.len(), 10);
    assert_history_free(&src, &atoms);
}

#[test]
fn the_base_is_built_on_first_demand_and_shared() {
    let src = trust_example();
    let p3 = P3::from_source(&src).unwrap();
    assert!(
        p3.program().built_fact_base().is_none(),
        "loading builds no base"
    );
    let naive = p3.session_with(SessionOptions {
        eval_mode: EvalMode::Naive,
        ..Default::default()
    });
    naive
        .probability("trustPath(1,2)", ProbMethod::Exact)
        .unwrap();
    assert!(
        p3.program().built_fact_base().is_none(),
        "naive evaluation builds no base"
    );

    let session = p3.session_with(SessionOptions {
        eval_mode: EvalMode::Demand,
        ..Default::default()
    });
    session
        .probability("mutualTrustPath(1,2)", ProbMethod::Exact)
        .unwrap();
    let base = Arc::clone(p3.program().built_fact_base().expect("built by the query"));
    let facts: BTreeSet<String> = p3
        .program()
        .iter()
        .filter(|(_, c)| c.is_fact())
        .map(|(_, c)| c.head.display(p3.program().symbols()).to_string())
        .collect();
    assert_eq!(base.len(), facts.len());
    assert_eq!(base.facts().len(), 6);

    session
        .probability("trustPath(6,13)", ProbMethod::Exact)
        .unwrap();
    assert!(Arc::ptr_eq(p3.program().built_fact_base().unwrap(), &base));

    let t1 = p3.program().clause_by_label("t1").unwrap();
    let copy = p3
        .with_probabilities(&[(p3::provenance::vars::var_of(t1), 0.5)])
        .unwrap();
    assert!(Arc::ptr_eq(
        copy.program().built_fact_base().unwrap(),
        &base
    ));
    let copied = copy.session_with(SessionOptions {
        eval_mode: EvalMode::Demand,
        ..Default::default()
    });
    copied
        .probability("trustPath(13,6)", ProbMethod::Exact)
        .unwrap();
    assert!(Arc::ptr_eq(copy.program().fact_base(), &base));
    assert_eq!(
        p3.demand_evaluations(),
        3,
        "the copy shares the demand cores"
    );
    assert_eq!(base.len(), facts.len(), "no query wrote the base");
}
