//! Provenance capture against what the engine reports.
//!
//! * Naive capture: over generated programs (the default configuration
//!   and a recursion-heavy one), every tuple's `derivations` in the
//!   captured graph are exactly what a recording sink saw in the same
//!   run, in arrival order.
//! * Demand capture: for every derived atom of the same programs, the
//!   demand graph's fragment reachable from the atom is the naive graph's,
//!   derivation for derivation. A fixed program in which one source rule
//!   is demanded under two adornments covers the duplicate guard. The
//!   same programs with facts appended over the derived predicates cover
//!   relations that hold tuples both in the shared fact base and in a
//!   query's own database.
//! * The demand tuple counts of `examples/trust.pl` are pinned.

use p3::datalog::ast::ClauseId;
use p3::datalog::engine::{Database, DerivationSink, Engine, TupleId};
use p3::datalog::{worlds, Program};
use p3::provenance::capture::{evaluate_with_provenance, CaptureSink};
use p3::provenance::{evaluate_query_with_provenance, Derivation, ProvGraph};
use p3::workloads::random_programs::{all_derived_queries, generate, RandomConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One derivation as the sink reported it: `(clause, body)`, with an
/// empty body for a base assertion.
type Reported = (ClauseId, Vec<TupleId>);

/// Records every derivation per tuple id in arrival order and forwards it
/// to a [`CaptureSink`] running beside it.
#[derive(Default)]
struct Transcript {
    seen: Vec<Vec<Reported>>,
    capture: CaptureSink,
}

impl Transcript {
    fn slot(&mut self, tuple: TupleId) -> &mut Vec<Reported> {
        if tuple.index() >= self.seen.len() {
            self.seen.resize_with(tuple.index() + 1, Vec::new);
        }
        &mut self.seen[tuple.index()]
    }
}

impl DerivationSink for Transcript {
    fn base_fact(&mut self, clause: ClauseId, tuple: TupleId) {
        self.slot(tuple).push((clause, Vec::new()));
        self.capture.base_fact(clause, tuple);
    }

    fn derived(&mut self, rule: ClauseId, head: TupleId, body: &[TupleId]) {
        self.slot(head).push((rule, body.to_vec()));
        self.capture.derived(rule, head, body);
    }
}

/// The derivations of `tuple` in `graph`, in the form the sink saw them.
fn captured(graph: &ProvGraph, tuple: TupleId) -> Vec<Reported> {
    graph
        .derivations(tuple)
        .iter()
        .map(|d| match *d {
            Derivation::Base(c) => (c, Vec::new()),
            Derivation::Rule(e) => (graph.exec_rule(e), graph.exec_body(e).to_vec()),
        })
        .collect()
}

fn assert_capture_matches_transcript(program: &Program) {
    let mut sink = Transcript::default();
    let db = Engine::new(program).run(&mut sink);
    let Transcript { seen, capture } = sink;
    let graph = capture.into_graph();
    for i in 0..db.len() {
        let t = TupleId(u32::try_from(i).expect("tuple id fits u32"));
        let expected = seen.get(i).cloned().unwrap_or_default();
        assert_eq!(
            captured(&graph, t),
            expected,
            "tuple #{i}\nprogram:\n{}",
            program.to_source()
        );
    }
    let listed: Vec<TupleId> = graph.tuples().collect();
    let reported: Vec<TupleId> = seen
        .iter()
        .enumerate()
        .filter(|(_, d)| !d.is_empty())
        .map(|(i, _)| TupleId(u32::try_from(i).expect("tuple id fits u32")))
        .collect();
    assert_eq!(listed, reported);
    assert_eq!(graph.num_tuples(), reported.len());
    assert_eq!(
        graph.num_execs(),
        seen.iter().flatten().filter(|(_, b)| !b.is_empty()).count()
    );
}

/// The derivations reachable from `root`, with tuples and clauses shown
/// as text so graphs over different tuple ids compare.
fn reachable_signature(
    graph: &ProvGraph,
    db: &Database,
    program: &Program,
    root: TupleId,
) -> BTreeSet<(String, String, Vec<String>)> {
    let reachable = graph.reachable_tuples(root);
    let show = |t: TupleId| db.display_tuple(t, program.symbols()).to_string();
    graph
        .signature()
        .into_iter()
        .filter(|(tuple, _, _)| reachable.contains(tuple))
        .map(|(tuple, clause, body)| {
            (
                show(tuple),
                program.clause(clause).label.clone(),
                body.into_iter().map(show).collect(),
            )
        })
        .collect()
}

/// Every derived atom's demand graph holds the naive graph's reachable
/// fragment, and no tuple holds the same derivation twice.
fn assert_demand_matches_naive(program: &Program) {
    let (naive_db, naive_graph) = evaluate_with_provenance(program);
    for query in all_derived_queries(program) {
        let (pred, args) = worlds::parse_ground_query(program, &query).expect("ground atom");
        let eval = evaluate_query_with_provenance(program, pred, &args).expect("negation-free");
        let naive = naive_db.lookup(pred, &args).expect("derived atom");
        let demand = eval.db.lookup(pred, &args).expect("demand derives it too");
        assert_eq!(
            reachable_signature(&naive_graph, &naive_db, program, naive),
            reachable_signature(&eval.graph, &eval.db, program, demand),
            "{query}\nprogram:\n{}",
            program.to_source()
        );
        for t in eval.graph.tuples() {
            let derivations = captured(&eval.graph, t);
            let distinct: BTreeSet<&Reported> = derivations.iter().collect();
            assert_eq!(distinct.len(), derivations.len(), "{query}: duplicate");
        }
    }
}

/// The recursion-heavy configuration of `tests/analyze_suite.rs`.
fn recursive_config(seed: u64) -> RandomConfig {
    RandomConfig {
        seed: seed.wrapping_mul(6007),
        recursion_bias: 0.9,
        rules: 5,
        facts: 7,
        ..Default::default()
    }
}

/// `program` with three facts appended over its derived vocabulary
/// `p0..p2`, so a relation can be both asserted and derived: a demand run
/// then finds some of its tuples in the shared fact base and derives the
/// rest into its own database.
fn with_derived_facts(program: &Program, seed: u64) -> Program {
    let mut src = program.to_source();
    for i in 0..3u64 {
        let (a, b) = ((seed + i) % 3, (seed / 3 + 2 * i) % 3);
        let _ = writeln!(src, "d{i} 0.{}: p{i}({a},{b}).", 4 + i);
    }
    Program::parse(&src).expect("facts over p0..p2 keep the program valid")
}

/// Whether some demand run of `program` holds a relation with tuples in
/// both the fact base and its own database.
fn splits_a_relation(program: &Program) -> bool {
    all_derived_queries(program).iter().any(|query| {
        let (pred, args) = worlds::parse_ground_query(program, query).expect("ground atom");
        let eval = evaluate_query_with_provenance(program, pred, &args).expect("negation-free");
        let base = program.fact_base().len();
        let split = eval.db.predicates().any(|p| {
            let ids = eval.db.relation(p).expect("listed predicate").tuples();
            ids.first().is_some_and(|t| t.index() < base)
                && ids.last().is_some_and(|t| t.index() >= base)
        });
        split
    })
}

#[test]
fn derived_facts_split_relations_across_the_base() {
    let split = (0..40u64)
        .filter(|&seed| {
            let program = generate(RandomConfig {
                seed,
                ..Default::default()
            });
            splits_a_relation(&with_derived_facts(&program, seed))
        })
        .count();
    assert!(split >= 10, "only {split} of 40 programs split a relation");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn demand_capture_matches_naive_with_derived_facts(seed in 0u64..400) {
        let program = generate(RandomConfig { seed, ..Default::default() });
        assert_demand_matches_naive(&with_derived_facts(&program, seed));
    }

    #[test]
    fn demand_capture_matches_naive_with_derived_facts_on_recursive_workloads(seed in 0u64..200) {
        let program = with_derived_facts(&generate(recursive_config(seed)), seed);
        assert_demand_matches_naive(&program);
    }

    #[test]
    fn naive_capture_keeps_arrival_order(seed in 0u64..400) {
        assert_capture_matches_transcript(&generate(RandomConfig { seed, ..Default::default() }));
    }

    #[test]
    fn naive_capture_keeps_arrival_order_on_recursive_workloads(seed in 0u64..200) {
        assert_capture_matches_transcript(&generate(recursive_config(seed)));
    }

    #[test]
    fn demand_capture_matches_naive(seed in 0u64..400) {
        assert_demand_matches_naive(&generate(RandomConfig { seed, ..Default::default() }));
    }

    #[test]
    fn demand_capture_matches_naive_on_recursive_workloads(seed in 0u64..200) {
        assert_demand_matches_naive(&generate(recursive_config(seed)));
    }
}

#[test]
fn a_rule_demanded_under_two_adornments_is_recorded_once() {
    // `p` is demanded as p^bf (first body atom of r0) and p^bb (second),
    // so `rp` has two guarded variants, and p(a,a) fires in both.
    let src = "
        r0 0.5: q(X) :- p(X,Y), p(Y,X).
        rp 0.9: p(A,B) :- e(A,B).
        e1 0.7: e(a,a).
        e2 0.4: e(a,b).
        e3 0.6: e(b,a).
    ";
    let program = Program::parse(src).unwrap();
    let (pred, args) = worlds::parse_ground_query(&program, "q(a)").unwrap();
    let eval = evaluate_query_with_provenance(&program, pred, &args).unwrap();
    assert_eq!(eval.stats.transform.variants, 3, "r0@b, rp@bf, rp@bb");
    assert_capture_matches_transcript(&program);
    assert_demand_matches_naive(&program);
}

/// `(atom, relevant_tuples, magic_tuples)` for every derived atom of
/// `examples/trust.pl`, in text order.
const TRUST_COUNTS: &[(&str, usize, usize)] = &[
    ("mutualTrustPath(1,13)", 13, 9),
    ("mutualTrustPath(1,2)", 11, 7),
    ("mutualTrustPath(1,6)", 12, 8),
    ("mutualTrustPath(13,1)", 13, 9),
    ("mutualTrustPath(13,2)", 11, 7),
    ("mutualTrustPath(13,6)", 13, 9),
    ("mutualTrustPath(2,1)", 11, 7),
    ("mutualTrustPath(2,13)", 11, 7),
    ("mutualTrustPath(2,6)", 11, 7),
    ("mutualTrustPath(6,1)", 12, 8),
    ("mutualTrustPath(6,13)", 13, 9),
    ("mutualTrustPath(6,2)", 11, 7),
    ("trustPath(1,13)", 9, 4),
    ("trustPath(1,2)", 8, 3),
    ("trustPath(1,6)", 9, 4),
    ("trustPath(13,1)", 9, 4),
    ("trustPath(13,2)", 7, 2),
    ("trustPath(13,6)", 9, 4),
    ("trustPath(2,1)", 8, 3),
    ("trustPath(2,13)", 9, 4),
    ("trustPath(2,6)", 9, 4),
    ("trustPath(6,1)", 8, 3),
    ("trustPath(6,13)", 9, 4),
    ("trustPath(6,2)", 7, 2),
];

#[test]
fn trust_demand_tuple_counts_are_pinned() {
    let src = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/trust.pl"))
        .expect("examples/trust.pl");
    let program = Program::parse(&src).unwrap();
    let derived: BTreeSet<_> = program
        .iter()
        .filter(|(_, c)| c.is_rule())
        .map(|(_, c)| program.symbols().resolve(c.head.pred).to_string())
        .collect();
    let counts: Vec<(String, usize, usize)> = all_derived_queries(&program)
        .into_iter()
        .filter(|q| derived.contains(q.split('(').next().unwrap()))
        .map(|q| {
            let (pred, args) = worlds::parse_ground_query(&program, &q).unwrap();
            let eval = evaluate_query_with_provenance(&program, pred, &args).unwrap();
            (q, eval.stats.relevant_tuples, eval.stats.magic_tuples)
        })
        .collect();
    let expected: Vec<(String, usize, usize)> = TRUST_COUNTS
        .iter()
        .map(|&(q, r, m)| (q.to_string(), r, m))
        .collect();
    assert_eq!(counts, expected);
}
