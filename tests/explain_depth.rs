//! Hop-limited explanations agree with their own polynomial.
//!
//! The test reads the process-wide hop-truncation counter around each
//! explanation, so it is the only test in its binary: no other test may
//! move that counter meanwhile.

use p3::core::{ProbMethod, P3};
use p3::provenance::extract::ExtractOptions;

/// A three-hop chain: `reach(c)` needs `r2`, `r2`, `r1` nested.
const CHAIN: &str = "r1 1.0: reach(X) :- src(X).
                     r2 1.0: reach(Y) :- reach(X), edge(X,Y).
                     t0 1.0: src(a).
                     e1 0.5: edge(a,b).
                     e2 0.5: edge(b,c).";

fn hop_truncations() -> u64 {
    p3::obs::counter!(
        "p3_provenance_hop_truncations_total",
        "Derivations dropped because the hop limit was exhausted"
    )
    .get()
}

#[test]
fn hop_limited_explanations_show_every_literal_of_their_polynomial() {
    for hops in 0..=4 {
        let p3 = P3::from_source(CHAIN).unwrap();
        let before = hop_truncations();
        let explanation = p3
            .explain_with(
                "reach(c)",
                ProbMethod::Exact,
                ExtractOptions::with_max_depth(hops),
            )
            .unwrap();
        let truncated = hop_truncations() > before;
        let text = &explanation.text;
        for m in explanation.polynomial.monomials() {
            for &lit in m.literals() {
                let label = p3.vars().name(lit);
                assert!(
                    text.contains(&format!("rule {label} "))
                        || text.contains(&format!("base tuple {label} ")),
                    "hop limit {hops}: {label} missing from\n{text}"
                );
            }
        }
        assert_eq!(
            text.contains("(depth limit)"),
            truncated,
            "hop limit {hops}: extraction truncated={truncated}, text:\n{text}"
        );
    }
    // The whole chain fits in three hops.
    let p3 = P3::from_source(CHAIN).unwrap();
    let full = p3
        .explain_with(
            "reach(c)",
            ProbMethod::Exact,
            ExtractOptions::with_max_depth(3),
        )
        .unwrap();
    assert_eq!(p3.render_polynomial(&full.polynomial), "r1·r2·t0·e1·e2");
}
