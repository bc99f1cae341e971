//! Exact probability compiled once: the exact kernel's expansion recorded as
//! a decision-DNNF circuit, evaluated forward for `P[λ]` and backward for
//! every literal's influence at once.
//!
//! [`Circuit::compile`] runs the kernel of [`crate::exact`] in an algebra
//! that records what the kernel decides instead of multiplying it out. Each
//! formula the kernel finishes becomes one node:
//!
//! * the constant `false`;
//! * a *monomial* leaf, `Π p(v)` over its literals (none: `true`);
//! * a *decision* on `x`, `p(x)·hi + (1 − p(x))·lo`, where neither child
//!   mentions `x`;
//! * an *independent OR*, `1 − Π(1 − P_i)` over variable-disjoint
//!   components, in the kernel's component order.
//!
//! A memo hit returns the node already built, so a shared sub-formula is a
//! shared node, and every node comes after its children. Each decision and
//! OR node is one expansion step, so the kernel's step budget bounds them,
//! and [`Circuit::try_compile`] accepts exactly the budgets
//! [`exact::try_probability`] accepts. The circuit is the trace of a
//! component-caching search, a decision-DNNF (Huang & Darwiche, "The
//! Language of Search", JAIR 2007).
//!
//! **Forward.** The kernel never reads a probability, so under any table
//! it makes the calls recorded here. [`Circuit::evaluate`] replays them
//! node by node in the kernel's own probability algebra, so each node's
//! value has the bits the kernel computes for its formula, and the root's
//! is [`exact::probability`] under that table, bit for bit.
//!
//! **Backward.** `P[λ]` is linear in each `p(x)` (Eq. 16), so Def 4.1's
//! `Inf_x(λ) = P[λ|x=1] − P[λ|x=0]` is `∂P/∂p(x)`. One reverse pass carries
//! `∂P/∂node` from the root down and collects every `∂P/∂p(x)` on the way
//! (Darwiche, "A Differential Approach to Inference in Bayesian Networks",
//! JACM 2003). A decision adds `∂·(hi − lo)` to its variable. An OR or a
//! monomial passes each factor the product of the others, taken from prefix
//! and suffix products rather than by division, so a probability of 0 or 1
//! stays exact.

use crate::dnf::Dnf;
use crate::exact::{self, for_each_var, Algebra, ExactError, Probabilities};
use crate::var::{VarId, VarTable};

/// One node; its children are nodes built before it.
#[derive(Clone, Copy, Debug)]
enum Node {
    /// The constant `false`.
    Zero,
    /// A monomial leaf: the row at this offset of [`Circuit::rows`].
    Monomial(u32),
    /// `p(var)·hi + (1 − p(var))·lo`.
    Decision { var: u32, hi: u32, lo: u32 },
    /// `1 − Π(1 − P_i)` over the nodes `parts[start..end]`.
    Or { start: u32, end: u32 },
}

/// A formula's exact expansion, compiled once (see the module docs).
#[derive(Clone, Debug)]
pub struct Circuit {
    /// The formula's variables, ascending: local variable `v` is `vars[v]`.
    vars: Vec<VarId>,
    /// Words per monomial row, `⌈V/64⌉`.
    words: usize,
    nodes: Vec<Node>,
    /// Monomial rows laid end to end.
    rows: Vec<u64>,
    /// OR components laid end to end.
    parts: Vec<u32>,
    root: u32,
}

impl Circuit {
    /// Compiles `dnf` with [`exact::DEFAULT_BUDGET`].
    ///
    /// # Panics
    /// Past the default budget, with [`exact::probability`]'s message; use
    /// [`Circuit::try_compile`] to handle that case.
    pub fn compile(dnf: &Dnf) -> Circuit {
        Self::try_compile(dnf, exact::DEFAULT_BUDGET).expect("exact probability budget exceeded")
    }

    /// Compiles `dnf`, abandoning past `budget` expansion steps.
    pub fn try_compile(dnf: &Dnf, budget: usize) -> Result<Circuit, ExactError> {
        let mut span = p3_obs::span::span("prob.circuit");
        span.add_field("monomials", dnf.len() as u64);
        let vars = dnf.vars();
        let mut recorder = Recorder {
            words: vars.len().div_ceil(64),
            nodes: Vec::new(),
            rows: Vec::new(),
            parts: Vec::new(),
        };
        let root = if vars.is_empty() {
            // The constants, which the kernel leaves to its callers.
            if dnf.is_false() {
                recorder.zero()
            } else {
                recorder.monomial(&[])
            }
        } else {
            let root;
            (root, recorder) = exact::expand(dnf, &vars, budget, recorder)?;
            root
        };
        let Recorder {
            words,
            nodes,
            rows,
            parts,
        } = recorder;
        span.add_field("nodes", nodes.len() as u64);
        Ok(Circuit {
            vars,
            words,
            nodes,
            rows,
            parts,
            root,
        })
    }

    /// The formula's variables, ascending.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// The forward pass: every node's probability under `table`.
    pub fn evaluate(&self, table: &VarTable) -> Evaluation<'_> {
        let mut probs = Probabilities(self.vars.iter().map(|&v| table.prob(v)).collect());
        let mut values: Vec<f64> = Vec::with_capacity(self.nodes.len());
        for &node in &self.nodes {
            let value = match node {
                Node::Zero => probs.zero(),
                Node::Monomial(row) => probs.monomial(&self.rows[row as usize..][..self.words]),
                Node::Decision { var, hi, lo } => {
                    probs.decision(var as usize, values[hi as usize], values[lo as usize])
                }
                Node::Or { start, end } => {
                    let parts = &self.parts[start as usize..end as usize];
                    let mut or = probs.or_begin(parts.len());
                    for &part in parts {
                        probs.or_push(&mut or, values[part as usize]);
                    }
                    probs.or_end(or)
                }
            };
            values.push(value);
        }
        Evaluation {
            circuit: self,
            probs: probs.0,
            values,
        }
    }

    /// `P[λ]` under `table`: [`exact::probability`], bit for bit.
    pub fn probability(&self, table: &VarTable) -> f64 {
        self.evaluate(table).probability()
    }

    /// `(x, Inf_x(λ))` under `table` for every variable of the formula,
    /// ascending: one forward and one backward pass.
    pub fn influences(&self, table: &VarTable) -> Vec<(VarId, f64)> {
        self.evaluate(table).influences()
    }
}

/// A circuit's node values under one table (a forward pass), from which
/// the backward pass starts.
pub struct Evaluation<'c> {
    circuit: &'c Circuit,
    /// The probability of each of the circuit's variables.
    probs: Vec<f64>,
    /// Each node's probability, in node order.
    values: Vec<f64>,
}

impl Evaluation<'_> {
    /// `P[λ]`: [`exact::probability`] under this pass's table, bit for bit.
    pub fn probability(&self) -> f64 {
        self.values[self.circuit.root as usize]
    }

    /// Whether `table` gives each of the circuit's variables the
    /// probability this pass ran under, bit for bit.
    pub fn ran_under(&self, table: &VarTable) -> bool {
        self.circuit
            .vars
            .iter()
            .zip(&self.probs)
            .all(|(&v, &p)| table.prob(v).to_bits() == p.to_bits())
    }

    /// The backward pass: `∂P/∂p(x)` for each variable of
    /// [`Circuit::vars`], in that order.
    pub fn derivatives(&self) -> Vec<f64> {
        let c = self.circuit;
        let mut adjoint = vec![0.0; c.nodes.len()];
        adjoint[c.root as usize] = 1.0;
        let mut derivatives = vec![0.0; c.vars.len()];
        // A monomial's variables; the factors of one product, and for each
        // the product of the rest.
        let (mut slots, mut factors, mut others) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &node) in c.nodes.iter().enumerate().rev() {
            let a = adjoint[i];
            if a == 0.0 {
                continue;
            }
            match node {
                Node::Zero => {}
                Node::Monomial(row) => {
                    slots.clear();
                    for_each_var(&c.rows[row as usize..][..c.words], |v| slots.push(v));
                    factors.clear();
                    factors.extend(slots.iter().map(|&v| self.probs[v]));
                    products_of_others(&factors, &mut others);
                    for (&v, &rest) in slots.iter().zip(&others) {
                        derivatives[v] += a * rest;
                    }
                }
                Node::Decision { var, hi, lo } => {
                    let (var, hi, lo) = (var as usize, hi as usize, lo as usize);
                    let p = self.probs[var];
                    derivatives[var] += a * (self.values[hi] - self.values[lo]);
                    adjoint[hi] += a * p;
                    adjoint[lo] += a * (1.0 - p);
                }
                Node::Or { start, end } => {
                    let parts = &c.parts[start as usize..end as usize];
                    factors.clear();
                    factors.extend(parts.iter().map(|&n| 1.0 - self.values[n as usize]));
                    products_of_others(&factors, &mut others);
                    for (&n, &rest) in parts.iter().zip(&others) {
                        adjoint[n as usize] += a * rest;
                    }
                }
            }
        }
        derivatives
    }

    /// `(x, Inf_x(λ))` for every variable of the formula, ascending.
    pub fn influences(&self) -> Vec<(VarId, f64)> {
        self.circuit
            .vars
            .iter()
            .copied()
            .zip(self.derivatives())
            .collect()
    }
}

/// `others[j] = Π_{k≠j} factors[k]`, as the product of a prefix and a
/// suffix: no division, so a zero factor leaves the others exact.
fn products_of_others(factors: &[f64], others: &mut Vec<f64>) {
    others.clear();
    let mut prefix = 1.0;
    for &f in factors {
        others.push(prefix);
        prefix *= f;
    }
    let mut suffix = 1.0;
    for (o, &f) in others.iter_mut().zip(factors).rev() {
        *o *= suffix;
        suffix *= f;
    }
}

/// The recording algebra: a formula's value is its node.
struct Recorder {
    words: usize,
    nodes: Vec<Node>,
    rows: Vec<u64>,
    parts: Vec<u32>,
}

impl Recorder {
    fn push(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        index(self.nodes.len() - 1)
    }
}

/// A node, row or part offset as stored in a [`Node`].
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("circuit offsets fit in u32")
}

impl Algebra for Recorder {
    type Value = u32;
    /// The components so far.
    type Or = Vec<u32>;

    fn zero(&mut self) -> u32 {
        self.push(Node::Zero)
    }

    fn monomial(&mut self, row: &[u64]) -> u32 {
        let at = index(self.rows.len());
        self.rows.extend_from_slice(row);
        self.push(Node::Monomial(at))
    }

    fn decision(&mut self, x: usize, hi: u32, lo: u32) -> u32 {
        self.push(Node::Decision {
            var: index(x),
            hi,
            lo,
        })
    }

    fn or_begin(&mut self, parts: usize) -> Vec<u32> {
        Vec::with_capacity(parts)
    }

    fn or_push(&mut self, or: &mut Vec<u32>, part: u32) {
        or.push(part);
    }

    fn or_end(&mut self, or: Vec<u32>) -> u32 {
        let start = index(self.parts.len());
        self.parts.extend(or);
        let end = index(self.parts.len());
        self.push(Node::Or { start, end })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnf::Monomial;

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

    /// Def 4.1 by two expansions.
    fn by_restriction(dnf: &Dnf, vars: &VarTable, x: VarId) -> f64 {
        exact::probability(&dnf.restrict(x, true), vars)
            - exact::probability(&dnf.restrict(x, false), vars)
    }

    /// A tangled five-cycle, a shared-prefix pair and an independent
    /// monomial: decisions, an OR and memo hits.
    fn tangled() -> Dnf {
        Dnf::new(vec![
            m(&[0, 1]),
            m(&[1, 2]),
            m(&[2, 3]),
            m(&[3, 4]),
            m(&[0, 4]),
            m(&[5, 6, 7]),
            m(&[5, 8]),
            m(&[9]),
        ])
    }

    #[test]
    fn constants_and_one_monomial() {
        let vars = table(&[0.3, 0.6]);
        for dnf in [Dnf::zero(), Dnf::one(), Dnf::new(vec![m(&[0, 1])])] {
            let circuit = Circuit::compile(&dnf);
            assert_eq!(circuit.nodes.len(), 1);
            assert_eq!(
                circuit.probability(&vars).to_bits(),
                exact::probability(&dnf, &vars).to_bits()
            );
        }
        let single = Circuit::compile(&Dnf::new(vec![m(&[0, 1])]));
        assert_eq!(
            single.influences(&vars),
            vec![(VarId(0), 0.6), (VarId(1), 0.3)]
        );
        assert!(Circuit::compile(&Dnf::one()).influences(&vars).is_empty());
    }

    #[test]
    fn forward_pass_is_the_kernel_under_any_table() {
        let dnf = tangled();
        let circuit = Circuit::compile(&dnf);
        for probs in [
            [0.3, 0.6, 0.5, 0.8, 0.2, 0.9, 0.4, 0.7, 0.1, 0.5],
            [1.0, 0.0, 0.5, 1.0, 0.2, 0.0, 1.0, 0.7, 0.1, 0.0],
        ] {
            let vars = table(&probs);
            assert_eq!(
                circuit.probability(&vars).to_bits(),
                exact::probability(&dnf, &vars).to_bits()
            );
        }
    }

    #[test]
    fn backward_pass_gives_every_influence() {
        let dnf = tangled();
        let circuit = Circuit::compile(&dnf);
        // Probabilities of 0 and 1 keep the others' products exact.
        for probs in [
            [0.3, 0.6, 0.5, 0.8, 0.2, 0.9, 0.4, 0.7, 0.1, 0.5],
            [1.0, 0.0, 0.5, 1.0, 0.2, 0.0, 1.0, 0.7, 0.1, 0.0],
        ] {
            let vars = table(&probs);
            let influences = circuit.influences(&vars);
            assert_eq!(influences.len(), 10);
            for (x, inf) in influences {
                let expected = by_restriction(&dnf, &vars, x);
                assert!((inf - expected).abs() < 1e-15, "{x}: {inf} vs {expected}");
            }
        }
    }

    #[test]
    fn memo_hits_are_shared_nodes_and_steps_bound_the_circuit() {
        // a·b + a·c + d·b + d·c: both a = 1 and a = 0, d = 1 reach b + c.
        let dnf = Dnf::new(vec![m(&[0, 1]), m(&[0, 2]), m(&[3, 1]), m(&[3, 2])]);
        let circuit = Circuit::compile(&dnf);
        let mut parents = vec![0; circuit.nodes.len()];
        for node in &circuit.nodes {
            match *node {
                Node::Decision { hi, lo, .. } => {
                    parents[hi as usize] += 1;
                    parents[lo as usize] += 1;
                }
                Node::Or { start, end } => {
                    for &n in &circuit.parts[start as usize..end as usize] {
                        parents[n as usize] += 1;
                    }
                }
                Node::Zero | Node::Monomial(_) => {}
            }
        }
        assert!(
            parents.contains(&2),
            "b + c is one node: {:?}",
            circuit.nodes
        );
        // Each decision or OR is one expansion step.
        let steps = (0..)
            .find(|&b| exact::try_probability(&dnf, &table(&[0.5; 4]), b).is_ok())
            .unwrap();
        let internal = circuit
            .nodes
            .iter()
            .filter(|n| matches!(n, Node::Decision { .. } | Node::Or { .. }))
            .count();
        assert_eq!(internal, steps);
        assert!(Circuit::try_compile(&dnf, steps).is_ok());
        assert_eq!(
            Circuit::try_compile(&dnf, steps - 1).unwrap_err(),
            ExactError::BudgetExceeded { budget: steps - 1 }
        );
    }
}
