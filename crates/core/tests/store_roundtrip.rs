//! Round-trip properties of the persistent provenance store: exporting a
//! populated `DnfStore` + session memos and replaying into a fresh session
//! must reproduce identical `DnfId`s and probabilities — for every formula
//! kind (constants, literals, multi-monomial), and in both naive and demand
//! eval modes.

use p3_core::{EvalMode, ProbMethod, SessionOptions, P3};
use p3_prob::{Dnf, DnfId, Monomial, VarId};
use proptest::prelude::*;

/// 12 independent facts — var ids 0..12 are valid under this program's
/// variable table, so arbitrary formulas over those ids have well-defined
/// probabilities.
fn fact_source() -> String {
    (0..12)
        .map(|i| format!("t{i} 0.{}: p{i}(c).\n", (i % 9) + 1))
        .collect()
}

/// A recursive program whose provenance has constants, single literals and
/// fat multi-monomial polynomials.
const RECURSIVE_SRC: &str = "
    e1 0.6: edge(a, b).
    e2 0.7: edge(b, c).
    e3 0.5: edge(a, c).
    e4 0.4: edge(c, d).
    e5 0.8: edge(b, d).
    r1 0.9: path(X, Y) :- edge(X, Y).
    r2 0.9: path(X, Z) :- path(X, Y), edge(Y, Z).
";

fn session(src: &str, mode: EvalMode) -> p3_core::QuerySession {
    P3::from_source(src).unwrap().session_with(SessionOptions {
        eval_mode: mode,
        ..SessionOptions::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Store-level round trip under proptest-generated formulas: export →
    /// restore reproduces the id sequence, every formula bit-for-bit, and
    /// every exact probability, in both eval modes.
    #[test]
    fn populated_store_roundtrips_ids_and_probabilities(
        formulas in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(0u32..12, 0..4),
                0..5,
            ),
            1..32,
        ),
        demand in 0u8..2,
    ) {
        let src = fact_source();
        let mode = if demand == 1 { EvalMode::Demand } else { EvalMode::Naive };
        let a = session(&src, mode);
        let store_a = a.p3().store();

        // All node kinds: the constants are pre-interned at ids 0 and 1;
        // the generated formulas cover empty (false), empty-monomial
        // (true), literal and multi-monomial shapes.
        let mut ids = vec![DnfId::FALSE, DnfId::TRUE];
        for monomials in &formulas {
            let dnf = Dnf::new(
                monomials
                    .iter()
                    .map(|lits| Monomial::new(lits.iter().map(|&v| VarId(v)).collect()))
                    .collect(),
            );
            ids.push(store_a.intern(dnf));
        }

        // Memoize an exact probability for every distinct id.
        ids.sort_unstable();
        ids.dedup();
        let probs: Vec<f64> = ids.iter().map(|&id| a.probability_of(id, ProbMethod::Exact)).collect();

        // Export, then replay into a fresh session over the same program.
        let records = a.export_records();
        let b = session(&src, mode);
        let restored = b.restore_records(&records);
        prop_assert_eq!(restored.skipped, 0);
        prop_assert_eq!(restored.formulas, store_a.len());
        let store_b = b.p3().store();
        prop_assert_eq!(store_b.len(), store_a.len());

        // Identical id ⇄ formula mapping...
        for i in 0..store_a.len() {
            let id = DnfId::from_index(i);
            prop_assert_eq!(&*store_a.get(id), &*store_b.get(id), "formula {} diverged", i);
            // ...and re-interning in the restored store yields the same id.
            prop_assert_eq!(store_b.intern((*store_a.get(id)).clone()), id);
        }
        // Identical probabilities, answered from the restored memo (no
        // recomputation: misses stay 0).
        for (&id, &p) in ids.iter().zip(&probs) {
            prop_assert_eq!(b.probability_of(id, ProbMethod::Exact).to_bits(), p.to_bits());
        }
        prop_assert_eq!(b.stats().misses, 0);
        prop_assert_eq!(b.stats().warm_restored, restored.memos() as u64);
    }
}

/// Query-level round trip on a recursive program: a session in each eval
/// mode exports its state; a fresh same-mode session restores it and must
/// answer the same queries with bit-identical probabilities, entirely from
/// the warm layer (zero misses), and report them as warm-restored.
#[test]
fn both_eval_modes_roundtrip_query_memos() {
    let queries = ["path(a, d)", "path(a, c)", "path(b, d)"];
    let mut by_mode = Vec::new();
    for mode in [EvalMode::Naive, EvalMode::Demand] {
        let warm_src = session(RECURSIVE_SRC, mode);
        let probs: Vec<f64> = queries
            .iter()
            .map(|q| warm_src.probability(q, ProbMethod::Exact).unwrap())
            .collect();

        // Query memos only reach the export through the warm layer, which
        // mirrors what the service journals — so run the queries under an
        // attached (Mem) backend, exactly like `p3-serve --store-dir`.
        let journaled = session(RECURSIVE_SRC, mode);
        journaled.attach_store(std::sync::Arc::new(p3_store::MemBackend::new()));
        for q in &queries {
            journaled.probability(q, ProbMethod::Exact).unwrap();
        }
        let records = journaled.export_records();
        assert!(records.len() > 2);

        let cold = session(RECURSIVE_SRC, mode);
        let restored = cold.restore_records(&records);
        assert!(restored.formulas > 2, "mode {mode:?} exported no formulas");
        assert_eq!(restored.dnf_memos, queries.len());
        assert_eq!(restored.skipped, 0);
        assert_eq!(cold.stats().warm_restored, restored.memos() as u64);

        for (q, &p) in queries.iter().zip(&probs) {
            let warm_p = cold.probability(q, ProbMethod::Exact).unwrap();
            assert_eq!(warm_p.to_bits(), p.to_bits(), "query {q} mode {mode:?}");
        }
        assert_eq!(cold.stats().misses, 0, "restored session recomputed");
        assert_eq!(cold.stats().hits, 2 * queries.len() as u64);
        by_mode.push(probs);
    }
    // Naive and demand agree (and therefore so do their restored stores).
    assert_eq!(by_mode[0], by_mode[1]);
}

/// The MemBackend journal stream alone (no export) must also rebuild an
/// equivalent session: this is exactly what a crash before any snapshot
/// leaves on disk.
#[test]
fn journal_stream_alone_is_sufficient_to_warm_boot() {
    let a = session(RECURSIVE_SRC, EvalMode::Demand);
    let backend = std::sync::Arc::new(p3_store::MemBackend::new());
    a.attach_store(backend.clone());
    let p = a.probability("path(a, d)", ProbMethod::Exact).unwrap();
    // The journal saw every intern (minus the 2 constants) and both memos.
    let records = backend.records();
    let interns = records
        .iter()
        .filter(|r| matches!(r, p3_store::Record::Intern { .. }))
        .count();
    assert_eq!(interns, a.p3().store().len() - 2);

    // Constants are pre-interned in any fresh store, so replaying the
    // journaled tail after them reproduces the id space.
    let b = session(RECURSIVE_SRC, EvalMode::Demand);
    let restored = b.restore_records(&records);
    assert_eq!(restored.skipped, 0);
    assert_eq!(b.p3().store().len(), a.p3().store().len());
    assert_eq!(
        b.probability("path(a, d)", ProbMethod::Exact)
            .unwrap()
            .to_bits(),
        p.to_bits()
    );
    assert_eq!(b.stats().misses, 0);
}

/// The `DnfMemo` records a store-attached session journaled, as
/// `(query, depth)` pairs in order.
fn dnf_memos(backend: &p3_store::MemBackend) -> Vec<(String, u64)> {
    backend
        .records()
        .into_iter()
        .filter_map(|r| match r {
            p3_store::Record::DnfMemo { query, depth, .. } => Some((query, depth)),
            _ => None,
        })
        .collect()
}

/// A reported (`run`) or explained query resolves through the same
/// resolver as a plain one, so it journals its `DnfMemo` exactly as the
/// plain query does — and is therefore warm after a restart.
#[test]
fn run_and_explain_journal_the_dnf_memo_like_a_plain_query() {
    let query = "path(a, d)";
    let class = p3_core::QueryClass::Probability(ProbMethod::Exact);
    for mode in [EvalMode::Naive, EvalMode::Demand] {
        let journal = |ask: &dyn Fn(&p3_core::QuerySession)| {
            let s = session(RECURSIVE_SRC, mode);
            let backend = std::sync::Arc::new(p3_store::MemBackend::new());
            s.attach_store(backend.clone());
            ask(&s);
            (dnf_memos(&backend), backend.records())
        };
        let (plain, _) = journal(&|s| {
            s.probability(query, ProbMethod::Exact).unwrap();
        });
        assert_eq!(plain.len(), 1, "{mode:?}: {plain:?}");
        let unbounded = p3_provenance::extract::ExtractOptions::unbounded();
        let (ran, ran_records) = journal(&|s| {
            s.run(query, &class, unbounded).0.unwrap();
        });
        assert_eq!(ran, plain, "{mode:?}: run journals like a plain query");
        let (explained, _) = journal(&|s| {
            s.explain(query).0.unwrap();
        });
        assert_eq!(explained, plain, "{mode:?}: explain journals too");

        // After a restart the reported query is answered from the warm
        // layer, before any parsing or evaluation.
        let warm = session(RECURSIVE_SRC, mode);
        warm.restore_records(&ran_records);
        let (answer, report) = warm.run(query, &class, unbounded);
        answer.unwrap();
        let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["extract", "probability"], "{mode:?}");
        assert_eq!(warm.stats().misses, 0, "{mode:?}");
        assert!(!warm.p3().fully_evaluated() && warm.p3().demand_evaluations() == 0);
        // Explaining the warm answer looks its evaluation up, forcing it.
        let (explained, report) = warm.explain(query);
        let explained = explained.unwrap();
        assert_eq!(report.evaluations.len(), 1, "{mode:?}");
        assert_eq!(
            explained.plan.total_cost(),
            report.evaluations[0].total_cost()
        );
        assert!(explained.plan.total_cost() > 0, "{mode:?}");
    }
}
