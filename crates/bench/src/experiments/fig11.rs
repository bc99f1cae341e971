//! Figure 11: compression ratio of sufficient provenance as the
//! approximation error ε grows from 0.1% to 10% (of `P[λ]`).
//!
//! The paper observes ~50% monomial reduction already at ε = 0.1% and
//! ≈99.8% reduction at 10%.

use crate::experiments::common::trust_query_setup;
use crate::report::{f4, secs, Report};
use crate::{time, Scale};
use p3_core::{sufficient_provenance, DerivationAlgo, ProbMethod};
use p3_prob::McConfig;

/// The ε sweep, as fractions of `P[λ]` (the paper's "X% of `P[λ]`").
pub const EPS_SWEEP: [f64; 8] = [0.001, 0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.1];

/// Runs the experiment.
pub fn run(scale: &Scale) -> Report {
    let setup = trust_query_setup(scale);
    let dnf = &setup.polynomial;
    let vars = setup.p3.vars();
    let method = ProbMethod::MonteCarlo(McConfig {
        samples: scale.mc_samples,
        seed: 11,
    });

    let mut report = Report::new(
        "fig11",
        "Figure 11: sufficient-provenance compression ratio vs approximation error",
        &[
            "eps (% of P)",
            "monomials kept",
            "of",
            "compression ratio %",
            "error",
            "time (s)",
        ],
    );
    report.note(format!(
        "queried tuple: {} — polynomial has {} monomials over {} distinct literals",
        setup.query,
        dnf.len(),
        dnf.vars().len()
    ));

    for &eps_frac in &EPS_SWEEP {
        let p_full = method.probability(dnf, vars);
        let eps = eps_frac * p_full;
        let (suff, t) =
            time(|| sufficient_provenance(dnf, vars, eps, DerivationAlgo::NaiveGreedy, method));
        report.row(vec![
            format!("{:.1}", eps_frac * 100.0),
            suff.polynomial.len().to_string(),
            dnf.len().to_string(),
            format!("{:.1}", suff.compression_ratio * 100.0),
            f4(suff.error),
            secs(t),
        ]);
    }
    report.note(
        "paper: ~50% reduction at 0.1% error, ~99.8% reduction at 10%; computation stays \
         under a second and shrinks as eps grows",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_is_monotone_in_eps() {
        let report = run(&Scale::quick());
        let kept: Vec<usize> = report.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(!kept.is_empty());
        for w in kept.windows(2) {
            assert!(w[1] <= w[0], "larger eps keeps fewer monomials: {kept:?}");
        }
    }
}
