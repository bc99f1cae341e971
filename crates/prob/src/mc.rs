//! Monte-Carlo estimation of DNF probabilities and influence.
//!
//! The paper evaluates success probabilities by Monte-Carlo simulation
//! (§3.3, citing Karp–Luby) and influence values by the estimator implied by
//! Definition 4.1, `Inf_x(λ) = E[λ|x=1 − λ|x=0]`. This module implements:
//!
//! * [`estimate`] — the naive sampler: draw a world, evaluate the formula;
//! * [`karp_luby`] — the Karp–Luby union ("coverage") estimator, whose
//!   relative error does not degrade when `P[λ]` is small;
//! * [`influence_all`] — the paired (common-random-numbers) influence
//!   estimator for every literal at once: both restrictions `λ|x=1` and
//!   `λ|x=0` are evaluated on the *same* world, and one pass over the worlds
//!   counts, for every literal, the worlds in which it is critical.
//!
//! All three share one layout, [`CompiledDnf`]: the formula's `V` variables
//! are slots numbered in ascending [`VarId`] order, each monomial is a row
//! of `⌈V/64⌉` words with one bit per slot (the exact kernel's layout), and
//! each sampled world is drawn into words of the same shape. A row holds in
//! world `w` when `row & !w == 0`, one word operation per 64 slots.
//!
//! A world draws one `f64` per slot, in slot order, and sets the slot when
//! the draw is below its probability. Every estimator is deterministic given
//! [`McConfig::seed`].

use crate::dnf::Dnf;
use crate::exact::{bit_rows, for_each_var};
use crate::var::{VarId, VarTable};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Monte-Carlo parameters.
///
/// `Eq`/`Hash` hold because both fields are integers; session caches key
/// probability results on `(DnfId, ProbMethod)`, which embeds this config.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct McConfig {
    /// Number of samples to draw.
    pub samples: usize,
    /// RNG seed; equal configs yield equal estimates.
    pub seed: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            samples: 100_000,
            seed: 0x7033,
        }
    }
}

/// A DNF compiled to bitset rows over dense slots, one per variable it
/// uses (see the module docs). Sampling then touches only live variables.
#[derive(Clone, Debug)]
pub struct CompiledDnf {
    /// Words per row and per world; at least one, so that the constant
    /// `true` (one empty monomial) is one all-zero row that always holds.
    words: usize,
    /// Row `i` is `dnf.monomials()[i]`, at `rows[i * words..][..words]`.
    rows: Vec<u64>,
    slot_probs: Vec<f64>,
    slot_vars: Vec<VarId>,
}

impl CompiledDnf {
    /// Compiles `dnf`, reading probabilities from `vars`.
    pub fn compile(dnf: &Dnf, vars: &VarTable) -> Self {
        let slot_vars = dnf.vars();
        let words = slot_vars.len().div_ceil(64).max(1);
        Self {
            words,
            rows: bit_rows(dnf, &slot_vars, words),
            slot_probs: slot_vars.iter().map(|&v| vars.prob(v)).collect(),
            slot_vars,
        }
    }

    /// Number of distinct variables.
    pub fn num_slots(&self) -> usize {
        self.slot_vars.len()
    }

    /// The variable occupying `slot`.
    pub fn slot_var(&self, slot: usize) -> VarId {
        self.slot_vars[slot]
    }

    fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.rows.chunks_exact(self.words)
    }

    fn world(&self) -> Vec<u64> {
        vec![0; self.words]
    }

    /// Draws the next world of `rng` into `world`.
    #[inline]
    fn sample_into(&self, world: &mut [u64], rng: &mut SmallRng) {
        for (word, probs) in world.iter_mut().zip(self.slot_probs.chunks(64)) {
            let mut bits = 0u64;
            for (bit, &p) in probs.iter().enumerate() {
                bits |= u64::from(rng.random::<f64>() < p) << bit;
            }
            *word = bits;
        }
    }

    #[inline]
    fn eval(&self, world: &[u64]) -> bool {
        self.rows().any(|row| holds(row, world))
    }

    /// Counts, per slot, the first `samples` worlds of the stream seeded
    /// with `seed` in which the slot's literal `x` is critical: `λ(w[x:=1])`
    /// holds and `λ(w[x:=0])` fails.
    ///
    /// The formula is monotone, so in a world where some row holds, `x` is
    /// critical exactly when it is in every row that holds (the AND of
    /// those rows); in a world where none holds, exactly when it is the one
    /// literal some row lacks (the OR of `row & !w` over such rows).
    pub(crate) fn critical_counts(&self, seed: u64, samples: usize) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut world = self.world();
        let mut every = self.world();
        let mut lone = self.world();
        let mut hits = vec![0u64; self.num_slots()];
        for _ in 0..samples {
            self.sample_into(&mut world, &mut rng);
            every.fill(!0);
            lone.fill(0);
            let mut satisfied = false;
            for row in self.rows() {
                match lacking(row, &world) {
                    Lack::None => {
                        satisfied = true;
                        every.iter_mut().zip(row).for_each(|(e, &m)| *e &= m);
                        if every.iter().all(|&e| e == 0) {
                            break; // no literal is in every satisfied row
                        }
                    }
                    Lack::One(k, bit) if !satisfied => lone[k] |= bit,
                    _ => {}
                }
            }
            for_each_var(if satisfied { &every } else { &lone }, |s| hits[s] += 1);
        }
        hits
    }

    /// `(var, hits / samples)` per slot, in slot order.
    pub(crate) fn hit_ratios(&self, hits: &[u64], samples: usize) -> Vec<(VarId, f64)> {
        let n = samples.max(1) as f64;
        self.slot_vars
            .iter()
            .zip(hits)
            .map(|(&v, &h)| (v, h as f64 / n))
            .collect()
    }
}

/// Whether `row` holds in `world`.
#[inline]
fn holds(row: &[u64], world: &[u64]) -> bool {
    row.iter().zip(world).all(|(&m, &w)| m & !w == 0)
}

/// How many of a row's literals a world lacks.
enum Lack {
    None,
    /// Exactly one: this bit of word `k`.
    One(usize, u64),
    More,
}

#[inline]
fn lacking(row: &[u64], world: &[u64]) -> Lack {
    let mut lack = Lack::None;
    for (k, (&m, &w)) in row.iter().zip(world).enumerate() {
        let missing = m & !w;
        if missing != 0 {
            if !matches!(lack, Lack::None) || missing & (missing - 1) != 0 {
                return Lack::More;
            }
            lack = Lack::One(k, missing);
        }
    }
    lack
}

/// Naive Monte-Carlo estimate of `P[λ]`.
pub fn estimate(dnf: &Dnf, vars: &VarTable, cfg: McConfig) -> f64 {
    if dnf.is_false() {
        return 0.0;
    }
    if dnf.is_true() {
        return 1.0;
    }
    let compiled = CompiledDnf::compile(dnf, vars);
    estimate_compiled(&compiled, cfg)
}

/// Naive estimate over an already-compiled formula.
pub fn estimate_compiled(compiled: &CompiledDnf, cfg: McConfig) -> f64 {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut world = compiled.world();
    let mut hits = 0usize;
    for _ in 0..cfg.samples {
        compiled.sample_into(&mut world, &mut rng);
        if compiled.eval(&world) {
            hits += 1;
        }
    }
    hits as f64 / cfg.samples.max(1) as f64
}

/// The Karp–Luby coverage estimator of `P[⋃ monomials]`.
///
/// Draw a monomial `i` with probability `P(m_i)/U` (where `U = Σ P(m_j)`),
/// then a world conditioned on `m_i` being true; the unbiased estimate is
/// `U · E[1/N]` with `N` the number of satisfied monomials in that world.
pub fn karp_luby(dnf: &Dnf, vars: &VarTable, cfg: McConfig) -> f64 {
    let mut span = p3_obs::span::span("prob.karp_luby");
    span.add_field("samples", cfg.samples as u64);
    if dnf.is_false() {
        return 0.0;
    }
    if dnf.is_true() {
        return 1.0;
    }
    let compiled = CompiledDnf::compile(dnf, vars);
    let weights: Vec<f64> = dnf
        .monomials()
        .iter()
        .map(|m| m.probability(vars))
        .collect();
    let total: f64 = weights.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut world = compiled.world();
    let mut acc = 0.0f64;
    for _ in 0..cfg.samples {
        // Weighted monomial choice by cumulative scan; the monomial count is
        // modest so a linear scan beats building an alias table here.
        let mut pick = rng.random::<f64>() * total;
        let mut chosen = weights.len() - 1;
        for (i, w) in weights.iter().enumerate() {
            pick -= w;
            if pick <= 0.0 {
                chosen = i;
                break;
            }
        }
        // Sample a world conditioned on the chosen monomial being true.
        compiled.sample_into(&mut world, &mut rng);
        let row = &compiled.rows[chosen * compiled.words..][..compiled.words];
        world.iter_mut().zip(row).for_each(|(w, &m)| *w |= m);
        let satisfied = compiled.rows().filter(|row| holds(row, &world)).count();
        debug_assert!(satisfied >= 1, "the conditioned monomial is satisfied");
        acc += 1.0 / satisfied as f64;
    }
    (total * acc / cfg.samples.max(1) as f64).min(1.0)
}

/// Paired Monte-Carlo estimate of `Inf_x(λ) = P[λ|x=1] − P[λ|x=0]`
/// (Definition 4.1) for every variable `x` of `dnf`, as `(x, influence)`
/// pairs in ascending variable order. For monotone formulas the paired
/// difference is an indicator, so each estimate is a hit ratio, and one
/// pass over the worlds counts the hits of every variable.
pub fn influences(dnf: &Dnf, vars: &VarTable, cfg: McConfig) -> Vec<(VarId, f64)> {
    let compiled = CompiledDnf::compile(dnf, vars);
    let hits = compiled.critical_counts(cfg.seed, cfg.samples);
    compiled.hit_ratios(&hits, cfg.samples)
}

/// Influence of every variable occurring in `dnf`, from one sampling pass.
///
/// Returns `(var, influence)` pairs sorted by descending influence (ties by
/// variable id, so the output is deterministic).
pub fn influence_all(dnf: &Dnf, vars: &VarTable, cfg: McConfig) -> Vec<(VarId, f64)> {
    let mut out = influences(dnf, vars, cfg);
    sort_by_influence(&mut out);
    out
}

/// Sorts `(var, influence)` pairs by descending influence, ties by id.
pub fn sort_by_influence(entries: &mut [(VarId, f64)]) {
    entries.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnf::Monomial;
    use crate::exact;

    fn table(probs: &[f64]) -> VarTable {
        let mut t = VarTable::new();
        for (i, &p) in probs.iter().enumerate() {
            t.add(format!("x{i}"), p);
        }
        t
    }

    fn m(lits: &[u32]) -> Monomial {
        Monomial::new(lits.iter().map(|&i| VarId(i)).collect())
    }

    const CFG: McConfig = McConfig {
        samples: 200_000,
        seed: 7,
    };

    #[test]
    fn naive_estimate_converges() {
        let vars = table(&[0.5, 0.4, 0.2]);
        let dnf = Dnf::new(vec![m(&[0, 1]), m(&[0, 2])]);
        let exact = exact::probability(&dnf, &vars);
        let est = estimate(&dnf, &vars, CFG);
        assert!((est - exact).abs() < 0.01, "est={est} exact={exact}");
    }

    #[test]
    fn karp_luby_converges() {
        let vars = table(&[0.5, 0.4, 0.2]);
        let dnf = Dnf::new(vec![m(&[0, 1]), m(&[0, 2])]);
        let exact = exact::probability(&dnf, &vars);
        let est = karp_luby(&dnf, &vars, CFG);
        assert!((est - exact).abs() < 0.01, "est={est} exact={exact}");
    }

    #[test]
    fn karp_luby_handles_small_probabilities_well() {
        // P ≈ 1e-4: the naive estimator would need millions of samples; the
        // coverage estimator has bounded relative error.
        let vars = table(&[0.01, 0.01]);
        let dnf = Dnf::new(vec![m(&[0, 1])]);
        let exact = 0.0001;
        let est = karp_luby(
            &dnf,
            &vars,
            McConfig {
                samples: 50_000,
                seed: 3,
            },
        );
        assert!((est - exact).abs() / exact < 0.05, "est={est}");
    }

    #[test]
    fn estimators_are_deterministic_under_a_seed() {
        let vars = table(&[0.5, 0.4]);
        let dnf = Dnf::new(vec![m(&[0]), m(&[1])]);
        assert_eq!(estimate(&dnf, &vars, CFG), estimate(&dnf, &vars, CFG));
        assert_eq!(karp_luby(&dnf, &vars, CFG), karp_luby(&dnf, &vars, CFG));
        assert_eq!(
            influence_all(&dnf, &vars, CFG),
            influence_all(&dnf, &vars, CFG)
        );
    }

    #[test]
    fn constants() {
        let vars = table(&[0.5]);
        assert_eq!(estimate(&Dnf::zero(), &vars, CFG), 0.0);
        assert_eq!(estimate(&Dnf::one(), &vars, CFG), 1.0);
        assert_eq!(karp_luby(&Dnf::zero(), &vars, CFG), 0.0);
        assert_eq!(karp_luby(&Dnf::one(), &vars, CFG), 1.0);
        assert!(influence_all(&Dnf::zero(), &vars, CFG).is_empty());
        assert!(influence_all(&Dnf::one(), &vars, CFG).is_empty());
    }

    #[test]
    fn influence_matches_exact_restrictions() {
        let vars = table(&[0.5, 0.4, 0.2]);
        let dnf = Dnf::new(vec![m(&[0, 1]), m(&[0, 2])]);
        for (x, est) in influences(&dnf, &vars, CFG) {
            let expected = exact::probability(&dnf.restrict(x, true), &vars)
                - exact::probability(&dnf.restrict(x, false), &vars);
            assert!(
                (est - expected).abs() < 0.01,
                "{x}: est={est} expected={expected}"
            );
        }
    }

    #[test]
    fn influence_all_ranks_the_acquaintance_literals() {
        // vars: 0=r1 0.8, 1=r2 0.4, 2=r3 0.2, 3=t1 1, 4=t2 1, 5=t4 0.4,
        //       6=t5 0.6, 7=t6 1. Exact influences: r3=0.8192, r1=0.1808,
        //       t6=0.16384 (see EXPERIMENTS.md; the paper's Table 2 agrees
        //       on the ranking).
        let vars = table(&[0.8, 0.4, 0.2, 1.0, 1.0, 0.4, 0.6, 1.0]);
        let dnf = Dnf::new(vec![m(&[2, 7, 0, 3, 4]), m(&[2, 7, 1, 5, 6])]);
        let ranked = influence_all(&dnf, &vars, CFG);
        assert_eq!(ranked[0].0, VarId(2), "r3 is the most influential");
        assert!((ranked[0].1 - 0.8192).abs() < 0.01);
        assert_eq!(ranked[1].0, VarId(0), "r1 is second");
        assert!((ranked[1].1 - 0.1808).abs() < 0.01);
        assert_eq!(ranked[2].0, VarId(7), "t6 is third");
        assert!((ranked[2].1 - 0.16384).abs() < 0.01);
    }

    #[test]
    fn compiled_slots_cover_only_live_variables() {
        let vars = table(&[0.5, 0.4, 0.3, 0.9]);
        let dnf = Dnf::new(vec![m(&[1, 3])]);
        let c = CompiledDnf::compile(&dnf, &vars);
        assert_eq!(c.num_slots(), 2);
        assert_eq!(c.slot_var(0), VarId(1));
        assert_eq!(c.slot_var(1), VarId(3));
    }
}
