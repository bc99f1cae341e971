//! Influence Query (§4.3): the most influential clauses of a derived tuple.
//!
//! Definition 4.1 (after Kanagal–Li–Deshpande): the influence of literal
//! `x` on polynomial `λ` is the partial derivative of the arithmetised
//! formula, `Inf_x(λ) = P[λ|x=1] − P[λ|x=0]`. P3 estimates it by
//! Monte-Carlo (sequential or parallel) or computes it exactly, optionally
//! preprocessing `λ` down to a sufficient provenance first (§6.2's
//! optimisation: most literals have negligible influence, so rank on the
//! compressed polynomial). Exact influence compiles `λ` once into a
//! [`Circuit`] and takes every literal's derivative in one backward pass;
//! [`exact_influence`] keeps the definition's two expansions as the
//! reference the tests and benches compare against.

use crate::prob_method::ProbMethod;
use crate::query::derivation::{sufficient_provenance, DerivationAlgo};
use p3_prob::{exact, mc, parallel, Circuit, Dnf, McConfig, VarId, VarTable};

/// How influence values are computed.
///
/// `Eq`/`Hash` support session-level memoization of whole influence
/// rankings (sound for Monte-Carlo because estimates are deterministic per
/// seed). For [`InfluenceMethod::ParallelMc`], a thread count of `0` means
/// "use [`p3_prob::parallel::default_threads`]".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InfluenceMethod {
    /// Exact: the formula compiled once into a [`Circuit`], one backward
    /// pass for every literal.
    Exact,
    /// Sequential paired Monte-Carlo.
    Mc(McConfig),
    /// Paired Monte-Carlo through the parallel driver (`0` = default thread
    /// count); its one sampling pass gives [`Self::Mc`]'s answer.
    ParallelMc(McConfig, usize),
}

impl Default for InfluenceMethod {
    fn default() -> Self {
        InfluenceMethod::Mc(McConfig::default())
    }
}

impl InfluenceMethod {
    /// The method spelled `name` (`exact`, `mc` or `pmc`), as the service
    /// takes it; the sampled methods use `cfg`, and `pmc` runs on `threads`.
    pub fn parse(name: &str, cfg: McConfig, threads: usize) -> Result<Self, String> {
        match name {
            "exact" => Ok(InfluenceMethod::Exact),
            "mc" => Ok(InfluenceMethod::Mc(cfg)),
            "pmc" => Ok(InfluenceMethod::ParallelMc(cfg, threads)),
            other => Err(format!(
                "unknown influence method '{other}' (expected exact|mc|pmc)"
            )),
        }
    }

    /// The probability backend matching this method: exact stays exact,
    /// Monte-Carlo stays Monte-Carlo.
    pub(crate) fn prob_method(self) -> ProbMethod {
        match self {
            InfluenceMethod::Exact => ProbMethod::Exact,
            InfluenceMethod::Mc(cfg) => ProbMethod::MonteCarlo(cfg),
            InfluenceMethod::ParallelMc(cfg, threads) => ProbMethod::ParallelMc(cfg, threads),
        }
    }
}

/// Options for an Influence Query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InfluenceOptions {
    /// Estimation backend.
    pub method: InfluenceMethod,
    /// Keep only the K most influential entries.
    pub top_k: Option<usize>,
    /// When set, first compress the polynomial to a sufficient provenance
    /// with this error limit (naive greedy, probability backend matching
    /// [`Self::method`]) and rank influence on the compressed polynomial.
    pub preprocess_epsilon: Option<f64>,
    /// When set, only these literals are ranked (e.g. "base tuples of the
    /// `sim` relation only" in the VQA case study).
    pub restrict_to: Option<Vec<VarId>>,
}

/// One ranked literal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InfluenceEntry {
    /// The literal (clause variable).
    pub var: VarId,
    /// Its influence value `Inf_x(λ) ∈ [0, 1]`.
    pub influence: f64,
}

/// Runs an Influence Query over `dnf`, returning entries sorted by
/// descending influence.
pub fn influence_query(dnf: &Dnf, vars: &VarTable, opts: &InfluenceOptions) -> Vec<InfluenceEntry> {
    // Optional sufficient-provenance preprocessing. Probability
    // re-evaluation during compression uses a backend matching the
    // influence backend (exact Shannon on a large tangled polynomial would
    // dominate the very cost the preprocessing is meant to save — §6.2).
    let compressed;
    let target: &Dnf = match opts.preprocess_epsilon {
        Some(eps) => {
            compressed = sufficient_provenance(
                dnf,
                vars,
                eps,
                DerivationAlgo::NaiveGreedy,
                opts.method.prob_method(),
            )
            .polynomial;
            &compressed
        }
        None => dnf,
    };
    finalize_entries(influences(target, vars, opts.method), opts)
}

/// The influence of every literal of `dnf` under `vars`, by `method`, in
/// no particular order. Shared with the session's influence path in
/// [`crate::session`].
pub(crate) fn influences(
    dnf: &Dnf,
    vars: &VarTable,
    method: InfluenceMethod,
) -> Vec<InfluenceEntry> {
    let all = match method {
        InfluenceMethod::Exact => Circuit::compile(dnf).influences(vars),
        InfluenceMethod::Mc(cfg) => mc::influence_all(dnf, vars, cfg),
        InfluenceMethod::ParallelMc(cfg, threads) => {
            parallel::influence_all(dnf, vars, cfg, threads)
        }
    };
    all.into_iter()
        .map(|(var, influence)| InfluenceEntry { var, influence })
        .collect()
}

/// Applies an Influence Query's post-processing: literal filtering,
/// descending-influence sort (ties by variable id), top-K truncation.
/// Shared with the session-cached influence path in [`crate::session`].
pub(crate) fn finalize_entries(
    mut entries: Vec<InfluenceEntry>,
    opts: &InfluenceOptions,
) -> Vec<InfluenceEntry> {
    if let Some(allowed) = &opts.restrict_to {
        entries.retain(|e| allowed.contains(&e.var));
    }
    entries.sort_by(|a, b| {
        b.influence
            .partial_cmp(&a.influence)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.var.cmp(&b.var))
    });
    if let Some(k) = opts.top_k {
        entries.truncate(k);
    }
    entries
}

/// Exact influence by Definition 4.1: `P[λ|x=1] − P[λ|x=0]`, two Shannon
/// expansions per literal. The queries take every literal's influence from
/// one [`Circuit`] instead; this is the reference they are tested against.
pub fn exact_influence(dnf: &Dnf, vars: &VarTable, x: VarId) -> f64 {
    let hi = exact::probability(&dnf.restrict(x, true), vars);
    let lo = exact::probability(&dnf.restrict(x, false), vars);
    hi - lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_prob::Monomial;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn m(lits: &[u32]) -> Monomial {
        Monomial::new(lits.iter().map(|&i| v(i)).collect())
    }

    fn table(probs: &[f64]) -> VarTable {
        let mut t = VarTable::new();
        for (i, &p) in probs.iter().enumerate() {
            t.add(format!("x{i}"), p);
        }
        t
    }

    /// The acquaintance polynomial with Fig 2 probabilities; vars are
    /// 0=r1, 1=r2, 2=r3, 3=t1, 4=t2, 5=t4, 6=t5, 7=t6.
    fn acquaintance() -> (Dnf, VarTable) {
        let vars = table(&[0.8, 0.4, 0.2, 1.0, 1.0, 0.4, 0.6, 1.0]);
        let dnf = Dnf::new(vec![m(&[2, 7, 0, 3, 4]), m(&[2, 7, 1, 5, 6])]);
        (dnf, vars)
    }

    #[test]
    fn table2_ranking_exact() {
        // Paper Table 2: r3 most influential, then r1, then t6 (our exact
        // values: 0.8192, 0.1808, 0.16384).
        let (dnf, vars) = acquaintance();
        let opts = InfluenceOptions {
            method: InfluenceMethod::Exact,
            top_k: Some(3),
            ..Default::default()
        };
        let top = influence_query(&dnf, &vars, &opts);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].var, v(2));
        assert!((top[0].influence - 0.8192).abs() < 1e-12);
        assert_eq!(top[1].var, v(0));
        assert!((top[1].influence - 0.1808).abs() < 1e-12);
        assert_eq!(top[2].var, v(7));
        assert!((top[2].influence - 0.16384).abs() < 1e-12);
    }

    #[test]
    fn mc_ranking_matches_exact() {
        let (dnf, vars) = acquaintance();
        let exact = influence_query(
            &dnf,
            &vars,
            &InfluenceOptions {
                method: InfluenceMethod::Exact,
                ..Default::default()
            },
        );
        let mc = influence_query(
            &dnf,
            &vars,
            &InfluenceOptions {
                method: InfluenceMethod::Mc(McConfig {
                    samples: 200_000,
                    seed: 2,
                }),
                ..Default::default()
            },
        );
        assert_eq!(exact[0].var, mc[0].var);
        for (e, m) in exact.iter().zip(&mc) {
            assert!((e.influence - m.influence).abs() < 0.01);
        }
    }

    #[test]
    fn restrict_to_filters_literals() {
        let (dnf, vars) = acquaintance();
        let opts = InfluenceOptions {
            method: InfluenceMethod::Exact,
            restrict_to: Some(vec![v(5), v(6)]),
            ..Default::default()
        };
        let out = influence_query(&dnf, &vars, &opts);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|e| e.var == v(5) || e.var == v(6)));
    }

    #[test]
    fn preprocessing_keeps_the_top_literal() {
        // §6.2 / Fig 12: with a moderate ε the top literal survives
        // compression.
        let (dnf, vars) = acquaintance();
        let full = influence_query(
            &dnf,
            &vars,
            &InfluenceOptions {
                method: InfluenceMethod::Exact,
                ..Default::default()
            },
        );
        let pre = influence_query(
            &dnf,
            &vars,
            &InfluenceOptions {
                method: InfluenceMethod::Exact,
                preprocess_epsilon: Some(0.01),
                ..Default::default()
            },
        );
        assert_eq!(full[0].var, pre[0].var);
        // Compression dropped the r2 branch, so fewer literals are ranked.
        assert!(pre.len() < full.len());
    }

    #[test]
    fn influence_is_nonnegative_for_monotone_formulas() {
        let (dnf, vars) = acquaintance();
        for e in influence_query(
            &dnf,
            &vars,
            &InfluenceOptions {
                method: InfluenceMethod::Exact,
                ..Default::default()
            },
        ) {
            assert!(e.influence >= 0.0);
        }
    }

    #[test]
    fn counterfactual_literal_has_influence_one() {
        // λ = x0 alone: flipping x0 flips the result.
        let vars = table(&[0.3]);
        let dnf = Dnf::new(vec![m(&[0])]);
        let out = influence_query(
            &dnf,
            &vars,
            &InfluenceOptions {
                method: InfluenceMethod::Exact,
                ..Default::default()
            },
        );
        assert_eq!(out.len(), 1);
        assert!((out[0].influence - 1.0).abs() < 1e-12);
    }
}
