//! Exact success probability of a monotone DNF.
//!
//! Computing `P[λ]` exactly is #P-hard in general (Valiant), but provenance
//! polynomials from small-to-medium queries decompose well:
//!
//! 1. **Independence factoring** — monomials are grouped into connected
//!    components of the "shares a variable" relation; components are
//!    independent, so `P[λ] = 1 − Π (1 − P[component])`.
//! 2. **Shannon expansion** — within a component, expand on the most
//!    frequent variable: `P = p·P[λ|x=1] + (1−p)·P[λ|x=0]`, with
//!    memoization on the restricted formulas.
//!
//! The expansion runs on bitsets: the formula's `V` variables are numbered
//! densely in ascending [`VarId`] order, each monomial is
//! `⌈V/64⌉` words with one bit per variable, and a formula is its
//! monomials' words laid end to end in [`Dnf`]'s canonical order (length
//! first, then literals). Restriction keeps that order and the
//! absorption-free invariant without re-sorting, and equal formulas have
//! equal words, so the memo is keyed by them. The kernel makes the
//! decisions `Dnf` operations would make, in the same order, so its answers
//! are those of Shannon expansion over [`Dnf`]s bit for bit.
//!
//! A work budget guards against blow-up; [`probability`] panics past it,
//! [`try_probability`] reports [`ExactError::BudgetExceeded`] so callers can
//! fall back to Monte-Carlo.

use crate::dnf::Dnf;
use crate::var::{VarId, VarTable};
use std::collections::HashMap;

/// Default work budget (number of Shannon expansion steps).
pub const DEFAULT_BUDGET: usize = 1 << 22;

/// Why an exact computation was abandoned.
#[derive(Debug, PartialEq, Eq)]
pub enum ExactError {
    /// More expansion steps than the budget allows.
    BudgetExceeded {
        /// The budget that was exhausted.
        budget: usize,
    },
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::BudgetExceeded { budget } => {
                write!(
                    f,
                    "exact probability exceeded budget of {budget} expansion steps"
                )
            }
        }
    }
}

impl std::error::Error for ExactError {}

/// Exact `P[λ]` with the default budget.
///
/// # Panics
/// Panics if the formula exceeds [`DEFAULT_BUDGET`] expansion steps; use
/// [`try_probability`] to handle that case.
pub fn probability(dnf: &Dnf, vars: &VarTable) -> f64 {
    try_probability(dnf, vars, DEFAULT_BUDGET).expect("exact probability budget exceeded")
}

/// Exact `P[λ]`, abandoning past `budget` expansion steps.
pub fn try_probability(dnf: &Dnf, vars: &VarTable, budget: usize) -> Result<f64, ExactError> {
    let mut span = p3_obs::span::span("prob.exact");
    span.add_field("monomials", dnf.len() as u64);
    if dnf.is_false() {
        return Ok(0.0);
    }
    if dnf.is_true() {
        return Ok(1.0);
    }
    if dnf.len() == 1 {
        return Ok(dnf.monomials()[0].probability(vars));
    }
    let (mut kernel, rows) = Kernel::new(dnf, vars, budget);
    kernel.prob(rows)
}

/// No monomial (an empty [`Kernel::owner`] slot).
const NONE: u32 = u32::MAX;

/// Shannon expansion over one formula's bitset rows (see the module docs).
/// A formula is a `Vec<u64>` of `words`-word rows; a row with no bits set
/// only ever stands alone, as the constant `true`.
struct Kernel {
    words: usize,
    /// Probability of each local variable.
    probs: Vec<f64>,
    /// Per variable, the first monomial to mention it in the split under
    /// way; [`NONE`] between splits.
    owner: Vec<u32>,
    /// Per variable, how many monomials mention it in the split under way;
    /// 0 between splits.
    counts: Vec<u32>,
    memo: HashMap<Vec<u64>, f64>,
    steps: usize,
    budget: usize,
}

/// How [`Kernel::split`] decomposes a formula.
enum Split {
    /// Independent components, in the order their factors are multiplied.
    Components(Vec<Vec<u64>>),
    /// One component: expand on this (most frequent) variable.
    Expand(usize),
}

impl Kernel {
    /// The kernel for `dnf`'s variables and `dnf` as rows.
    fn new(dnf: &Dnf, vars: &VarTable, budget: usize) -> (Kernel, Vec<u64>) {
        debug_assert!(
            dnf.is_canonically_ordered(),
            "restriction, the memo and the split rely on Dnf's canonical order"
        );
        let ids = dnf.vars();
        let words = ids.len().div_ceil(64);
        let rows = bit_rows(dnf, &ids, words);
        let kernel = Kernel {
            words,
            probs: ids.iter().map(|&v| vars.prob(v)).collect(),
            owner: vec![NONE; ids.len()],
            counts: vec![0; ids.len()],
            memo: HashMap::new(),
            steps: 0,
            budget,
        };
        (kernel, rows)
    }

    fn prob(&mut self, f: Vec<u64>) -> Result<f64, ExactError> {
        match f.len() / self.words {
            0 => return Ok(0.0),
            // Literals multiplied in ascending order, as `Monomial::probability`.
            1 => {
                let mut p = 1.0;
                for_each_var(&f, |v| p *= self.probs[v]);
                return Ok(p);
            }
            _ => {}
        }
        if let Some(&p) = self.memo.get(&f) {
            return Ok(p);
        }
        self.steps += 1;
        if self.steps > self.budget {
            return Err(ExactError::BudgetExceeded {
                budget: self.budget,
            });
        }
        let p = match self.split(&f) {
            Split::Components(components) => {
                // Independent alternatives: P[∪ Ci] = 1 − Π(1 − P[Ci]).
                let mut q = 1.0f64;
                for c in components {
                    q *= 1.0 - self.prob(c)?;
                }
                1.0 - q
            }
            Split::Expand(x) => {
                let p_x = self.probs[x];
                let hi = self.prob(self.restrict_true(&f, x))?;
                let lo = self.prob(self.restrict_false(&f, x))?;
                p_x * hi + (1.0 - p_x) * lo
            }
        };
        self.memo.insert(f, p);
        Ok(p)
    }

    /// Connected components of the shares-a-variable relation (union-find
    /// over monomials), or the variable to expand on when there is one.
    fn split(&mut self, f: &[u64]) -> Split {
        let w = self.words;
        let mut parent: Vec<u32> = (0..(f.len() / w) as u32).collect();
        let mut roots = parent.len();
        let mut mentioned = vec![0u64; w];
        for (i, row) in f.chunks_exact(w).enumerate() {
            let mut root = i;
            for_each_var(row, |v| {
                self.counts[v] += 1;
                match self.owner[v] {
                    NONE => self.owner[v] = i as u32,
                    j => {
                        let other = find(&mut parent, j as usize);
                        if other != root {
                            parent[root] = other as u32;
                            root = other;
                            roots -= 1;
                        }
                    }
                }
            });
            mentioned.iter_mut().zip(row).for_each(|(m, r)| *m |= r);
        }
        // Reset the per-variable slots; the most frequent variable wins,
        // the smallest on a tie.
        let (mut best, mut best_count) = (0, 0);
        for_each_var(&mentioned, |v| {
            self.owner[v] = NONE;
            let count = std::mem::take(&mut self.counts[v]);
            if count > best_count {
                (best, best_count) = (v, count);
            }
        });
        if roots == 1 {
            return Split::Expand(best);
        }
        // One formula per component, its monomials in their order here.
        // `Dnf` orders disjoint formulas by their first monomials, which
        // differ in their smallest variable.
        let mut slot = vec![NONE; parent.len()];
        let mut components: Vec<(usize, Vec<u64>)> = Vec::with_capacity(roots);
        for (i, row) in f.chunks_exact(w).enumerate() {
            let root = find(&mut parent, i);
            if slot[root] == NONE {
                slot[root] = components.len() as u32;
                let mut first = usize::MAX;
                for_each_var(row, |v| first = first.min(v));
                components.push((first, Vec::new()));
            }
            components[slot[root] as usize].1.extend_from_slice(row);
        }
        components.sort_unstable_by_key(|&(first, _)| first);
        Split::Components(components.into_iter().map(|(_, c)| c).collect())
    }

    /// `f | x = false`: the monomials without `x`, already in order and
    /// absorption-free.
    fn restrict_false(&self, f: &[u64], x: usize) -> Vec<u64> {
        let (k, bit) = (x / 64, 1u64 << (x % 64));
        let mut out = Vec::with_capacity(f.len());
        for row in f.chunks_exact(self.words).filter(|row| row[k] & bit == 0) {
            out.extend_from_slice(row);
        }
        out
    }

    /// `f | x = true`: `x` cleared. The shrunk monomials stay in order and
    /// absorb no other one; an untouched monomial is dropped when a shorter
    /// shrunk one absorbs it. The two ordered runs are then merged.
    fn restrict_true(&self, f: &[u64], x: usize) -> Vec<u64> {
        let (w, k, bit) = (self.words, x / 64, 1u64 << (x % 64));
        let mut shrunk: Vec<u64> = Vec::new();
        let mut lens: Vec<u32> = Vec::new();
        for row in f.chunks_exact(w).filter(|row| row[k] & bit != 0) {
            shrunk.extend_from_slice(row);
            let at = shrunk.len() - w + k;
            shrunk[at] &= !bit;
            lens.push(len(row) - 1);
        }
        if lens[0] == 0 {
            // `x` alone was a monomial: the restriction is `true`.
            return vec![0; w];
        }
        let mut out = Vec::with_capacity(f.len());
        // Shrunk rows shorter than `row`, and shrunk rows already emitted.
        let (mut shorter, mut done) = (0, 0);
        for row in f.chunks_exact(w).filter(|row| row[k] & bit == 0) {
            let n = len(row);
            while shorter < lens.len() && lens[shorter] < n {
                shorter += 1;
            }
            if shrunk[..shorter * w]
                .chunks_exact(w)
                .any(|s| s.iter().zip(row).all(|(s, r)| s & !r == 0))
            {
                continue;
            }
            let from = done;
            while done < lens.len()
                && (lens[done] < n || lens[done] == n && lex_less(&shrunk[done * w..][..w], row))
            {
                done += 1;
            }
            out.extend_from_slice(&shrunk[from * w..done * w]);
            out.extend_from_slice(row);
        }
        out.extend_from_slice(&shrunk[done * w..]);
        out
    }
}

/// Union-find root of `i`, halving the path on the way.
fn find(parent: &mut [u32], mut i: usize) -> usize {
    while parent[i] as usize != i {
        parent[i] = parent[parent[i] as usize];
        i = parent[i] as usize;
    }
    i
}

/// `dnf`'s monomials as rows of `words` words laid end to end, in
/// `dnf.monomials()` order, with bit `v` set for the variable `ids[v]`.
/// `ids` must hold every variable of `dnf` in ascending order and `words`
/// must be at least one.
pub(crate) fn bit_rows(dnf: &Dnf, ids: &[VarId], words: usize) -> Vec<u64> {
    let mut rows = vec![0u64; dnf.len() * words];
    for (m, row) in dnf.monomials().iter().zip(rows.chunks_exact_mut(words)) {
        for lit in m.literals() {
            let v = ids.binary_search(lit).expect("a variable of the formula");
            row[v / 64] |= 1 << (v % 64);
        }
    }
    rows
}

/// Calls `visit` with each variable of `row`, ascending.
pub(crate) fn for_each_var(row: &[u64], mut visit: impl FnMut(usize)) {
    for (k, &word) in row.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            visit(k * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Literals in a row.
fn len(row: &[u64]) -> u32 {
    row.iter().map(|word| word.count_ones()).sum()
}

/// Whether row `a` precedes distinct row `b` of the same length in
/// lexicographic order of their sorted literals: the smallest variable
/// they differ in is `a`'s.
fn lex_less(a: &[u64], b: &[u64]) -> bool {
    a.iter()
        .zip(b)
        .map(|(a, b)| (a, a ^ b))
        .find(|&(_, diff)| diff != 0)
        .is_some_and(|(a, diff)| a & diff & diff.wrapping_neg() != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnf::Monomial;
    use crate::var::VarId;

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

    #[test]
    fn constants() {
        let vars = table(&[0.5]);
        assert_eq!(probability(&Dnf::zero(), &vars), 0.0);
        assert_eq!(probability(&Dnf::one(), &vars), 1.0);
    }

    #[test]
    fn single_monomial_is_a_product() {
        let vars = table(&[0.5, 0.4]);
        let dnf = Dnf::new(vec![m(&[0, 1])]);
        assert!((probability(&dnf, &vars) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn disjoint_union_inclusion_exclusion() {
        // P[a + b] = 1 − (1−0.5)(1−0.4) = 0.7 for independent a, b.
        let vars = table(&[0.5, 0.4]);
        let dnf = Dnf::new(vec![m(&[0]), m(&[1])]);
        assert!((probability(&dnf, &vars) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn shared_variable_requires_shannon() {
        // λ = a·b + a·c: P = p_a (1 − (1−p_b)(1−p_c)).
        let vars = table(&[0.5, 0.4, 0.2]);
        let dnf = Dnf::new(vec![m(&[0, 1]), m(&[0, 2])]);
        let expected = 0.5 * (1.0 - 0.6 * 0.8);
        assert!((probability(&dnf, &vars) - expected).abs() < 1e-12);
    }

    #[test]
    fn acquaintance_polynomial_exact_value() {
        // λ = r3·t6·(r1·t1·t2 + r2·t4·t5) with the Fig 2 probabilities.
        // vars: 0=r1 0.8, 1=r2 0.4, 2=r3 0.2, 3=t1 1.0, 4=t2 1.0,
        //       5=t4 0.4, 6=t5 0.6, 7=t6 1.0
        let vars = table(&[0.8, 0.4, 0.2, 1.0, 1.0, 0.4, 0.6, 1.0]);
        let dnf = Dnf::new(vec![m(&[2, 7, 0, 3, 4]), m(&[2, 7, 1, 5, 6])]);
        let expected = 0.2 * (1.0 - (1.0 - 0.8) * (1.0 - 0.4 * 0.4 * 0.6));
        assert!((probability(&dnf, &vars) - expected).abs() < 1e-12);
        assert!((expected - 0.16384).abs() < 1e-12);
    }

    #[test]
    fn brute_force_cross_check() {
        // Compare Shannon result against 2^n enumeration on a tangled DNF.
        let probs = [0.3, 0.6, 0.5, 0.8, 0.2];
        let vars = table(&probs);
        let dnf = Dnf::new(vec![
            m(&[0, 1]),
            m(&[1, 2]),
            m(&[2, 3]),
            m(&[3, 4]),
            m(&[0, 4]),
        ]);
        let mut expected = 0.0;
        for world in 0u32..(1 << probs.len()) {
            let mut weight = 1.0;
            let mut assignment = crate::assignment::Assignment::new(probs.len());
            for (i, &p) in probs.iter().enumerate() {
                if world & (1 << i) != 0 {
                    weight *= p;
                    assignment.set(VarId(i as u32), true);
                } else {
                    weight *= 1.0 - p;
                }
            }
            if dnf.eval(&assignment) {
                expected += weight;
            }
        }
        assert!((probability(&dnf, &vars) - expected).abs() < 1e-12);
    }

    #[test]
    fn components_split_independent_groups() {
        let vars = table(&[0.5; 6]);
        let dnf = Dnf::new(vec![m(&[0, 1]), m(&[1, 2]), m(&[3, 4]), m(&[5])]);
        let (mut kernel, rows) = Kernel::new(&dnf, &vars, DEFAULT_BUDGET);
        let Split::Components(comps) = kernel.split(&rows) else {
            panic!("three independent groups");
        };
        // One word per monomial; ordered by each group's smallest variable.
        let sizes: Vec<usize> = comps.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![2, 1, 1]);
        assert_eq!(comps[0], vec![0b11, 0b110]);
        // The connected first group expands on its most frequent variable.
        assert!(matches!(kernel.split(&comps[0]), Split::Expand(1)));
    }

    #[test]
    fn budget_exceeded_is_reported() {
        // A grid-like DNF with many shared variables and budget 1.
        let vars = table(&[0.5; 8]);
        let dnf = Dnf::new(vec![m(&[0, 1]), m(&[1, 2]), m(&[2, 3]), m(&[3, 0])]);
        match try_probability(&dnf, &vars, 1) {
            Err(ExactError::BudgetExceeded { budget: 1 }) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_variables_simplify() {
        // p=1 and p=0 literals behave as constants.
        let vars = table(&[1.0, 0.0, 0.5]);
        let dnf = Dnf::new(vec![m(&[0, 2]), m(&[1])]);
        assert!((probability(&dnf, &vars) - 0.5).abs() < 1e-12);
    }
}
