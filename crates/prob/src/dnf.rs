//! Monotone Boolean DNF formulas — the algebraic provenance representation.
//!
//! A [`Dnf`] is a sum (`+`, alternative derivations) of [`Monomial`]s, each
//! a product (`·`, conjunctive use) of positive literals. Because PLP
//! provenance never negates, every formula here is monotone, which several
//! algorithms exploit (influence is non-negative, restriction never grows a
//! formula, Monte-Carlo needs no sign handling).
//!
//! A [`MonomialStack`] builds formulas on flat, reusable buffers — push,
//! multiply adjacent ranges, normalise a range — and hands out each
//! finished one as a [`Dnf`]. Both normalise through one routine: canonical
//! order, dedup and signature-filtered absorption.

use crate::assignment::Assignment;
use crate::var::{VarId, VarTable};
use std::cmp::Ordering;
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
        subsumes(&self.lits, &other.lits)
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
fn canonical_order(a: &[VarId], b: &[VarId]) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// Whether every literal of `a` also occurs in `b` (both sorted ascending).
fn subsumes(a: &[VarId], b: &[VarId]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    // Merge walk over two sorted lists.
    let mut it = b.iter();
    'outer: for lit in a {
        for o in it.by_ref() {
            match o.cmp(lit) {
                Ordering::Less => continue,
                Ordering::Equal => continue 'outer,
                Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// The one normalisation routine behind [`Dnf`] and [`MonomialStack`]:
/// sorts `items` (monomials whose literals `lits` reads out of `ctx`) into
/// canonical order, removes duplicates and any monomial subsumed by a
/// shorter one. The survivors stay in canonical order, compacted to the
/// front; `sigs` is scratch space.
fn normalize_by<C: ?Sized, T>(
    ctx: &C,
    items: &mut Vec<T>,
    sigs: &mut Vec<u64>,
    lits: impl for<'s> Fn(&'s C, &'s T) -> &'s [VarId],
) {
    // Canonical order puts potential subsumers before subsumees.
    items.sort_unstable_by(|a, b| canonical_order(lits(ctx, a), lits(ctx, b)));
    items.dedup_by(|a, b| lits(ctx, a) == lits(ctx, b));
    // `true` absorbs everything.
    if items.first().is_some_and(|m| lits(ctx, m).is_empty()) {
        items.truncate(1);
        return;
    }
    // Kept monomials are compacted to the front. A kept monomial's
    // signature sets bit `v % 64` for each literal `v`; it can absorb `m`
    // only if its signature's bits are all in `m`'s, so most merge walks
    // are skipped.
    let signature = |m: &[VarId]| m.iter().fold(0u64, |sig, v| sig | 1 << (v.0 % 64));
    sigs.clear();
    for i in 0..items.len() {
        let m = lits(ctx, &items[i]);
        let sig = signature(m);
        let absorbed = items[..sigs.len()]
            .iter()
            .zip(sigs.iter())
            .any(|(k, k_sig)| k_sig & !sig == 0 && subsumes(lits(ctx, k), m));
        if !absorbed {
            items.swap(sigs.len(), i);
            sigs.push(sig);
        }
    }
    items.truncate(sigs.len());
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
            .all(|w| canonical_order(&w[0].lits, &w[1].lits).is_lt())
    }

    /// Normalises in place: sorts monomials into canonical order, removes
    /// duplicates and any monomial subsumed by a shorter one.
    fn normalize(&mut self) {
        let mut sigs = Vec::with_capacity(self.monomials.len());
        normalize_by(&(), &mut self.monomials, &mut sigs, |_, m| &m.lits);
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

/// A stack of monomials stored back to back, for building formulas without
/// a heap object per monomial or per intermediate formula.
///
/// All literals live in one `Vec<VarId>` and each monomial's end offset in
/// another, so a caller pushes monomials, multiplies adjacent ranges in
/// place and normalises a range on the same few reusable buffers, and
/// turns a finished range into a [`Dnf`] once. A range is given by the
/// index of its first monomial and always runs to the top of the stack.
#[derive(Clone, Debug, Default)]
pub struct MonomialStack {
    lits: Vec<VarId>,
    /// End offset into `lits` of each monomial.
    ends: Vec<u32>,
    /// Scratch for [`Self::product`] and [`Self::normalize`]: literal
    /// spans, absorption signatures and rewritten literals.
    spans: Vec<(u32, u32)>,
    sigs: Vec<u64>,
    scratch: Vec<VarId>,
}

/// A range of a [`MonomialStack`] in [`Dnf`]'s canonical form: sorted,
/// duplicate-free and absorbed. Only normalising, or copying an already
/// canonical formula, hands one out; it stays valid while the stack keeps
/// those monomials (until it is truncated below the range's end).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Normalized {
    start: u32,
    end: u32,
}

impl Normalized {
    /// Whether the range is the constant `false`.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// A literal or monomial offset as stored in a [`MonomialStack`].
fn offset(i: usize) -> u32 {
    u32::try_from(i).expect("monomial stack offsets fit in u32")
}

/// Offset where monomial `i` starts, given every monomial's end offset
/// (`i == ends.len()` gives the end of the last one).
fn begin(ends: &[u32], i: usize) -> usize {
    i.checked_sub(1).map_or(0, |p| ends[p] as usize)
}

/// Monomial `i` of the stack whose buffers are `lits` and `ends`.
fn monomial_in<'a>(lits: &'a [VarId], ends: &[u32], i: usize) -> &'a [VarId] {
    &lits[begin(ends, i)..ends[i] as usize]
}

/// The sorted union of two sorted, duplicate-free literal lists, appended
/// to `out`.
fn merge_into(a: &[VarId], b: &[VarId], out: &mut Vec<VarId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

impl MonomialStack {
    /// An empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of monomials on the stack.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the stack holds no monomial.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The literals of monomial `i`, sorted ascending.
    pub fn monomial(&self, i: usize) -> &[VarId] {
        monomial_in(&self.lits, &self.ends, i)
    }

    /// Checks that the end offsets ascend and cover `lits` exactly.
    fn debug_check_offsets(&self) {
        debug_assert!(self.ends.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(begin(&self.ends, self.len()), self.lits.len());
    }

    /// Replaces the monomials from index `start` up by the literals in
    /// `scratch`, cut into monomials as long as the `spans` in order.
    fn replace_from(&mut self, start: usize) {
        self.truncate(start);
        let mut end = self.lits.len();
        self.lits.extend_from_slice(&self.scratch);
        for &(from, to) in &self.spans {
            end += (to - from) as usize;
            self.ends.push(offset(end));
        }
        self.debug_check_offsets();
    }

    /// Pushes one monomial (its literals are sorted and deduplicated
    /// here).
    pub fn push(&mut self, lits: &[VarId]) {
        let start = self.lits.len();
        self.lits.extend_from_slice(lits);
        if lits.len() > 1 {
            self.lits[start..].sort_unstable();
            let mut kept = start + 1;
            for i in start + 1..self.lits.len() {
                if self.lits[i] != self.lits[kept - 1] {
                    self.lits[kept] = self.lits[i];
                    kept += 1;
                }
            }
            self.lits.truncate(kept);
        }
        self.ends.push(offset(self.lits.len()));
    }

    /// Pushes the monomials of `dnf`, which are already canonical.
    pub fn push_dnf(&mut self, dnf: &Dnf) -> Normalized {
        let start = offset(self.len());
        for m in dnf.monomials() {
            self.lits.extend_from_slice(m.literals());
            self.ends.push(offset(self.lits.len()));
        }
        Normalized {
            start,
            end: offset(self.len()),
        }
    }

    /// Pushes a copy of the canonical range `range` of `other`.
    pub fn copy_from(&mut self, other: &MonomialStack, range: Normalized) -> Normalized {
        let (first, last) = (range.start as usize, range.end as usize);
        let src = begin(&other.ends, first)..begin(&other.ends, last);
        let start = offset(self.len());
        let base = self.lits.len();
        self.lits.extend_from_slice(&other.lits[src.clone()]);
        self.ends.extend(
            other.ends[first..last]
                .iter()
                .map(|&e| offset(base + (e as usize - src.start))),
        );
        self.debug_check_offsets();
        Normalized {
            start,
            end: offset(self.len()),
        }
    }

    /// Drops every monomial from index `len` up.
    pub fn truncate(&mut self, len: usize) {
        let base = begin(&self.ends, len);
        self.ends.truncate(len);
        self.lits.truncate(base);
    }

    /// Replaces the adjacent ranges `a..b` and `b..len()` by their product:
    /// every monomial of the first merged with every monomial of the
    /// second, in that order. The result is not normalised.
    pub fn product(&mut self, a: usize, b: usize) {
        let n = self.len();
        debug_assert!(a <= b && b <= n, "ranges {a}..{b}..{n}");
        let Self {
            lits,
            ends,
            spans,
            scratch,
            ..
        } = self;
        scratch.clear();
        spans.clear();
        for i in a..b {
            for j in b..n {
                let from = scratch.len();
                merge_into(
                    monomial_in(lits, ends, i),
                    monomial_in(lits, ends, j),
                    scratch,
                );
                spans.push((offset(from), offset(scratch.len())));
            }
        }
        self.replace_from(a);
    }

    /// Brings the range `start..len()` into canonical form in place (the
    /// routine [`Dnf::new`] uses) and returns it.
    pub fn normalize(&mut self, start: usize) -> Normalized {
        let n = self.len();
        // One monomial is canonical already: pushes and products keep
        // literals sorted and distinct.
        if n - start > 1 {
            self.spans.clear();
            for i in start..n {
                self.spans
                    .push((offset(begin(&self.ends, i)), self.ends[i]));
            }
            normalize_by(
                self.lits.as_slice(),
                &mut self.spans,
                &mut self.sigs,
                |lits, &(from, to)| &lits[from as usize..to as usize],
            );
            self.scratch.clear();
            for &(from, to) in &self.spans {
                self.scratch
                    .extend_from_slice(&self.lits[from as usize..to as usize]);
            }
            self.replace_from(start);
        }
        Normalized {
            start: offset(start),
            end: offset(self.len()),
        }
    }

    /// The formula of a canonical range, built without a second
    /// normalisation pass.
    pub fn dnf(&self, range: Normalized) -> Dnf {
        let dnf = Dnf {
            monomials: (range.start as usize..range.end as usize)
                .map(|i| Monomial {
                    lits: self.monomial(i).to_vec(),
                })
                .collect(),
        };
        debug_assert!(
            dnf.is_canonically_ordered(),
            "a Normalized range outlived its monomials"
        );
        dnf
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

    fn stack_of(monomials: &[&[u32]]) -> MonomialStack {
        let mut stack = MonomialStack::new();
        for lits in monomials {
            stack.push(&lits.iter().map(|&i| v(i)).collect::<Vec<_>>());
        }
        stack
    }

    #[test]
    fn stack_push_sorts_and_dedups_each_monomial() {
        let stack = stack_of(&[&[3, 1, 3, 2], &[5], &[]]);
        assert_eq!(stack.len(), 3);
        assert_eq!(stack.monomial(0), &[v(1), v(2), v(3)]);
        assert_eq!(stack.monomial(1), &[v(5)]);
        assert!(stack.monomial(2).is_empty());
    }

    #[test]
    fn stack_true_monomial_absorbs_everything() {
        let mut stack = stack_of(&[&[9], &[1, 2], &[], &[3]]);
        let range = stack.normalize(1);
        let dnf = stack.dnf(range);
        assert!(dnf.is_true());
        assert_eq!(dnf.len(), 1);
        // The monomial below the range is untouched.
        assert_eq!(stack.monomial(0), &[v(9)]);
    }

    #[test]
    fn stack_false_factor_empties_a_product() {
        // `r · b` where the body atom `b` has no derivation.
        let mut stack = stack_of(&[&[7], &[1]]);
        stack.product(1, 2);
        assert_eq!(stack.len(), 1);
        assert_eq!(stack.monomial(0), &[v(7)]);
        let range = stack.normalize(1);
        assert!(range.is_empty());
        assert!(stack.dnf(range).is_false());
    }

    #[test]
    fn stack_product_merges_in_order() {
        // (1 + 2·3) · (3 + 4) = 1·3 + 1·4 + 2·3 + 2·3·4, then 2·3 absorbs 2·3·4.
        let mut stack = stack_of(&[&[1], &[2, 3], &[3], &[4]]);
        stack.product(0, 2);
        assert_eq!(stack.len(), 4);
        assert_eq!(stack.monomial(3), &[v(2), v(3), v(4)]);
        let range = stack.normalize(0);
        assert_eq!(
            stack.dnf(range).monomials(),
            &[m(&[1, 3]), m(&[1, 4]), m(&[2, 3])]
        );
    }

    #[test]
    fn stack_dnfs_pass_the_invariants() {
        let mut stack = stack_of(&[&[4], &[2, 1], &[1, 2], &[1, 2, 3], &[5, 6]]);
        let a = stack.normalize(1);
        let dnf = stack.dnf(a);
        dnf.check_invariants().unwrap();
        assert_eq!(dnf, Dnf::new(vec![m(&[1, 2]), m(&[1, 2, 3]), m(&[5, 6])]));
        // Copies between stacks and from a Dnf keep the canonical form.
        let mut other = stack_of(&[&[8]]);
        let copy = other.copy_from(&stack, a);
        assert_eq!(other.dnf(copy), dnf);
        let pushed = other.push_dnf(&dnf);
        assert_eq!(other.dnf(pushed), dnf);
        other.truncate(1);
        assert_eq!(other.len(), 1);
        // A product of canonical ranges, normalised, is `Dnf::and`.
        let b = stack.len();
        stack.push_dnf(&Dnf::new(vec![m(&[3]), m(&[9])]));
        stack.product(1, b);
        let and = stack.normalize(1);
        let dnf_and = stack.dnf(and);
        dnf_and.check_invariants().unwrap();
        assert_eq!(dnf_and, dnf.and(&Dnf::new(vec![m(&[3]), m(&[9])])));
    }
}
