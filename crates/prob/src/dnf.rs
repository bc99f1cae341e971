//! Monotone Boolean DNF formulas — the algebraic provenance representation.
//!
//! A [`Dnf`] is a sum (`+`, alternative derivations) of [`Monomial`]s, each
//! a product (`·`, conjunctive use) of positive literals. Because PLP
//! provenance never negates, every formula here is monotone, which several
//! algorithms exploit (influence is non-negative, restriction never grows a
//! formula, Monte-Carlo needs no sign handling).

use crate::assignment::Assignment;
use crate::var::{VarId, VarTable};
use std::collections::HashSet;
use std::fmt;

/// A conjunction of positive literals, kept sorted and duplicate-free.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Monomial {
    lits: Vec<VarId>,
}

impl Monomial {
    /// Builds a monomial from literals (sorted and deduplicated here).
    pub fn new(mut lits: Vec<VarId>) -> Self {
        lits.sort_unstable();
        lits.dedup();
        Self { lits }
    }

    /// The empty monomial — the constant `true`.
    pub fn one() -> Self {
        Self { lits: Vec::new() }
    }

    /// The literals, sorted ascending.
    pub fn literals(&self) -> &[VarId] {
        &self.lits
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether this is the constant `true`.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Whether `var` occurs in the monomial.
    pub fn contains(&self, var: VarId) -> bool {
        self.lits.binary_search(&var).is_ok()
    }

    /// Whether every literal of `self` also occurs in `other`
    /// (`self` *subsumes* `other`: `other ⇒ self`).
    pub fn subsumes(&self, other: &Monomial) -> bool {
        if self.lits.len() > other.lits.len() {
            return false;
        }
        // Merge walk over two sorted lists.
        let mut it = other.lits.iter();
        'outer: for lit in &self.lits {
            for o in it.by_ref() {
                match o.cmp(lit) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Whether `self` and `other` share no literal (are independent as
    /// events).
    pub fn disjoint(&self, other: &Monomial) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.lits.len() && j < other.lits.len() {
            match self.lits[i].cmp(&other.lits[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// The probability that all literals hold: the product of their
    /// probabilities (independence).
    pub fn probability(&self, vars: &VarTable) -> f64 {
        self.lits.iter().map(|&v| vars.prob(v)).product()
    }

    /// True under `assignment`?
    pub fn eval(&self, assignment: &Assignment) -> bool {
        self.lits.iter().all(|&v| assignment.get(v))
    }

    /// Removes `var` from the monomial (conditioning on `var = true`).
    fn without(&self, var: VarId) -> Monomial {
        Monomial {
            lits: self.lits.iter().copied().filter(|&v| v != var).collect(),
        }
    }
}

/// A monotone DNF formula: a set of monomials.
///
/// The representation maintains two cheap invariants: monomials are
/// deduplicated and none is strictly contained in another (absorption,
/// `a + a·b = a`). Absorption is what makes the paper's cycle-elimination
/// argument (Eq. 11) hold syntactically.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Dnf {
    monomials: Vec<Monomial>,
}

/// [`Dnf`]'s canonical monomial order: by length, then lexicographically by
/// literals.
fn canonical_order(a: &Monomial, b: &Monomial) -> std::cmp::Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// Shape counters of one DNF: how big the provenance polynomial is, the
/// number every probability backend's cost scales with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DnfShape {
    /// Monomials (derivations surviving absorption).
    pub monomials: usize,
    /// Literal occurrences across all monomials.
    pub literals: usize,
    /// Widest monomial (literals in the longest derivation).
    pub max_width: usize,
    /// Distinct variables mentioned.
    pub distinct_vars: usize,
}

impl Dnf {
    /// The constant `false` (no derivations).
    pub fn zero() -> Self {
        Self {
            monomials: Vec::new(),
        }
    }

    /// The constant `true` (an unconditional derivation).
    pub fn one() -> Self {
        Self {
            monomials: vec![Monomial::one()],
        }
    }

    /// Builds a formula from monomials, normalising (dedup + absorption).
    pub fn new(monomials: Vec<Monomial>) -> Self {
        let mut dnf = Self { monomials };
        dnf.normalize();
        dnf
    }

    /// A single-literal formula.
    pub fn literal(var: VarId) -> Self {
        Self {
            monomials: vec![Monomial::new(vec![var])],
        }
    }

    /// The monomials, each sorted, in canonical order: shorter first, equal
    /// lengths by their literals, lexicographically. Every constructor
    /// guarantees this order, and the bitset kernel of [`crate::exact`]
    /// relies on it.
    pub fn monomials(&self) -> &[Monomial] {
        &self.monomials
    }

    /// Number of monomials.
    pub fn len(&self) -> usize {
        self.monomials.len()
    }

    /// Whether this is the constant `false`.
    pub fn is_false(&self) -> bool {
        self.monomials.is_empty()
    }

    /// Whether this is the constant `true`.
    pub fn is_true(&self) -> bool {
        self.monomials.iter().any(Monomial::is_empty)
    }

    /// Whether the formula is empty (alias of [`Self::is_false`]).
    pub fn is_empty(&self) -> bool {
        self.is_false()
    }

    /// The distinct variables, sorted ascending.
    pub fn vars(&self) -> Vec<VarId> {
        let mut vars: Vec<VarId> = self
            .monomials
            .iter()
            .flat_map(|m| m.literals().iter().copied())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Disjunction: `self + other`, normalised.
    pub fn or(&self, other: &Dnf) -> Dnf {
        let mut monomials = self.monomials.clone();
        monomials.extend(other.monomials.iter().cloned());
        Dnf::new(monomials)
    }

    /// Conjunction: distributes `self · other`, normalised.
    pub fn and(&self, other: &Dnf) -> Dnf {
        let mut monomials = Vec::with_capacity(self.monomials.len() * other.monomials.len());
        for a in &self.monomials {
            for b in &other.monomials {
                let mut lits = a.literals().to_vec();
                lits.extend_from_slice(b.literals());
                monomials.push(Monomial::new(lits));
            }
        }
        Dnf::new(monomials)
    }

    /// True under `assignment`?
    pub fn eval(&self, assignment: &Assignment) -> bool {
        self.monomials.iter().any(|m| m.eval(assignment))
    }

    /// The restriction `self | var = value`, normalised.
    ///
    /// For `value = true` the variable is erased from every monomial; for
    /// `value = false` every monomial containing it is dropped.
    pub fn restrict(&self, var: VarId, value: bool) -> Dnf {
        let monomials = self
            .monomials
            .iter()
            .filter_map(|m| {
                if m.contains(var) {
                    value.then(|| m.without(var))
                } else {
                    Some(m.clone())
                }
            })
            .collect();
        Dnf::new(monomials)
    }

    /// Keeps only the monomials at `indices` (used by sufficient-provenance
    /// search). Indices refer to the current [`Self::monomials`] order.
    pub fn select(&self, indices: &[usize]) -> Dnf {
        Dnf::new(indices.iter().map(|&i| self.monomials[i].clone()).collect())
    }

    /// Whether the monomials are strictly in canonical order (see
    /// [`Self::monomials`]).
    pub(crate) fn is_canonically_ordered(&self) -> bool {
        self.monomials
            .windows(2)
            .all(|w| canonical_order(&w[0], &w[1]).is_lt())
    }

    /// Normalises in place: sorts monomials into canonical order, removes
    /// duplicates and any monomial subsumed by a shorter one.
    fn normalize(&mut self) {
        // Canonical order puts potential subsumers before subsumees.
        self.monomials.sort_unstable_by(canonical_order);
        self.monomials.dedup();
        // `true` absorbs everything.
        if self.monomials.first().is_some_and(Monomial::is_empty) {
            self.monomials.truncate(1);
            return;
        }
        // Kept monomials are compacted to the front. A kept monomial's
        // signature sets bit `v % 64` for each literal `v`; it can absorb `m`
        // only if its signature's bits are all in `m`'s, so most merge walks
        // are skipped.
        let signature = |m: &Monomial| m.lits.iter().fold(0u64, |sig, v| sig | 1 << (v.0 % 64));
        let mut sigs: Vec<u64> = Vec::with_capacity(self.monomials.len());
        for i in 0..self.monomials.len() {
            let m = &self.monomials[i];
            let sig = signature(m);
            let absorbed = self.monomials[..sigs.len()]
                .iter()
                .zip(&sigs)
                .any(|(k, k_sig)| k_sig & !sig == 0 && k.subsumes(m));
            if !absorbed {
                self.monomials.swap(sigs.len(), i);
                sigs.push(sig);
            }
        }
        self.monomials.truncate(sigs.len());
    }

    /// Total number of literal occurrences (the paper's "k-literal" size).
    pub fn literal_occurrences(&self) -> usize {
        self.monomials.iter().map(Monomial::len).sum()
    }

    /// The formula's shape counters — the EXPLAIN plane's goal-level view
    /// of provenance size (exact probability is exponential in these).
    pub fn shape(&self) -> DnfShape {
        DnfShape {
            monomials: self.len(),
            literals: self.literal_occurrences(),
            max_width: self.monomials.iter().map(Monomial::len).max().unwrap_or(0),
            distinct_vars: self.vars().len(),
        }
    }

    /// Renders the formula as e.g. `x0·x2 + x1`.
    pub fn display<'a>(&'a self, vars: &'a VarTable) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Dnf, &'a VarTable);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.is_false() {
                    return write!(f, "0");
                }
                for (i, m) in self.0.monomials.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    if m.is_empty() {
                        write!(f, "1")?;
                    } else {
                        for (j, lit) in m.literals().iter().enumerate() {
                            if j > 0 {
                                write!(f, "·")?;
                            }
                            write!(f, "{}", self.1.name(*lit))?;
                        }
                    }
                }
                Ok(())
            }
        }
        D(self, vars)
    }

    /// Checks structural invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = HashSet::new();
        for m in &self.monomials {
            if !m.lits.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("monomial not strictly sorted: {:?}", m.lits));
            }
            if !seen.insert(m.clone()) {
                return Err(format!("duplicate monomial {:?}", m.lits));
            }
        }
        if !self.is_canonically_ordered() {
            return Err("monomials not in canonical order".to_string());
        }
        for (i, a) in self.monomials.iter().enumerate() {
            for (j, b) in self.monomials.iter().enumerate() {
                if i != j && a.subsumes(b) {
                    return Err(format!("monomial {:?} absorbs {:?}", a.lits, b.lits));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn m(lits: &[u32]) -> Monomial {
        Monomial::new(lits.iter().map(|&i| v(i)).collect())
    }

    #[test]
    fn monomial_normalises_order_and_duplicates() {
        let a = m(&[3, 1, 2, 1]);
        assert_eq!(a.literals(), &[v(1), v(2), v(3)]);
    }

    #[test]
    fn subsumption() {
        assert!(m(&[1]).subsumes(&m(&[1, 2])));
        assert!(m(&[1, 2]).subsumes(&m(&[1, 2])));
        assert!(!m(&[1, 3]).subsumes(&m(&[1, 2])));
        assert!(!m(&[1, 2]).subsumes(&m(&[1])));
        assert!(m(&[]).subsumes(&m(&[5])));
    }

    #[test]
    fn disjointness() {
        assert!(m(&[1, 2]).disjoint(&m(&[3, 4])));
        assert!(!m(&[1, 2]).disjoint(&m(&[2, 3])));
        assert!(m(&[]).disjoint(&m(&[1])));
    }

    #[test]
    fn absorption_law() {
        // a + a·b = a  — the law behind cycle elimination (Eq. 11).
        let dnf = Dnf::new(vec![m(&[1]), m(&[1, 2])]);
        assert_eq!(dnf.monomials(), &[m(&[1])]);
    }

    #[test]
    fn dedup_on_construction() {
        let dnf = Dnf::new(vec![m(&[2, 1]), m(&[1, 2])]);
        assert_eq!(dnf.len(), 1);
    }

    #[test]
    fn true_absorbs_everything() {
        let dnf = Dnf::new(vec![m(&[1]), m(&[])]);
        assert!(dnf.is_true());
        assert_eq!(dnf.len(), 1);
    }

    #[test]
    fn or_and_distribute() {
        let a = Dnf::new(vec![m(&[1])]);
        let b = Dnf::new(vec![m(&[2]), m(&[3])]);
        let or = a.or(&b);
        assert_eq!(or.len(), 3);
        let and = a.and(&b);
        assert_eq!(and.monomials(), &[m(&[1, 2]), m(&[1, 3])]);
    }

    #[test]
    fn and_with_zero_and_one() {
        let a = Dnf::new(vec![m(&[1])]);
        assert!(a.and(&Dnf::zero()).is_false());
        assert_eq!(a.and(&Dnf::one()), a);
        assert_eq!(a.or(&Dnf::zero()), a);
        assert!(a.or(&Dnf::one()).is_true());
    }

    #[test]
    fn restriction() {
        // λ = x1·x2 + x3.
        let dnf = Dnf::new(vec![m(&[1, 2]), m(&[3])]);
        let t = dnf.restrict(v(1), true);
        assert_eq!(t.monomials(), &[m(&[2]), m(&[3])]);
        let f = dnf.restrict(v(1), false);
        assert_eq!(f.monomials(), &[m(&[3])]);
        // Restricting an absent variable is the identity.
        assert_eq!(dnf.restrict(v(9), true), dnf);
        assert_eq!(dnf.restrict(v(9), false), dnf);
    }

    #[test]
    fn restriction_triggers_absorption() {
        // λ = x1·x2 + x2·x3; conditioning x1=true gives x2 + x2·x3 = x2.
        let dnf = Dnf::new(vec![m(&[1, 2]), m(&[2, 3])]);
        let t = dnf.restrict(v(1), true);
        assert_eq!(t.monomials(), &[m(&[2])]);
    }

    #[test]
    fn eval_against_assignment() {
        let dnf = Dnf::new(vec![m(&[0, 1]), m(&[2])]);
        let mut a = Assignment::new(3);
        assert!(!dnf.eval(&a));
        a.set(v(2), true);
        assert!(dnf.eval(&a));
        a.set(v(2), false);
        a.set(v(0), true);
        a.set(v(1), true);
        assert!(dnf.eval(&a));
    }

    #[test]
    fn monomial_probability_is_a_product() {
        let mut vars = VarTable::new();
        let a = vars.add("a", 0.5);
        let b = vars.add("b", 0.4);
        let mono = Monomial::new(vec![a, b]);
        assert!((mono.probability(&vars) - 0.2).abs() < 1e-12);
        assert_eq!(Monomial::one().probability(&vars), 1.0);
    }

    #[test]
    fn vars_are_sorted_and_distinct() {
        let dnf = Dnf::new(vec![m(&[5, 1]), m(&[3, 1])]);
        assert_eq!(dnf.vars(), vec![v(1), v(3), v(5)]);
    }

    #[test]
    fn invariants_hold_after_operations() {
        let a = Dnf::new(vec![m(&[1, 2]), m(&[2]), m(&[3, 4]), m(&[1, 2, 3])]);
        a.check_invariants().unwrap();
        a.or(&Dnf::new(vec![m(&[2, 3])]))
            .check_invariants()
            .unwrap();
        a.and(&Dnf::new(vec![m(&[2]), m(&[9])]))
            .check_invariants()
            .unwrap();
        a.restrict(v(2), true).check_invariants().unwrap();
        a.restrict(v(2), false).check_invariants().unwrap();
    }

    #[test]
    fn display_renders_names() {
        let mut vars = VarTable::new();
        let r1 = vars.add("r1", 0.8);
        let t1 = vars.add("t1", 1.0);
        let dnf = Dnf::new(vec![Monomial::new(vec![r1, t1]), Monomial::new(vec![r1])]);
        // r1 absorbs r1·t1.
        assert_eq!(format!("{}", dnf.display(&vars)), "r1");
        let dnf2 = Dnf::new(vec![Monomial::new(vec![r1, t1])]);
        assert_eq!(format!("{}", dnf2.display(&vars)), "r1·t1");
        assert_eq!(format!("{}", Dnf::zero().display(&vars)), "0");
        assert_eq!(format!("{}", Dnf::one().display(&vars)), "1");
    }
}
