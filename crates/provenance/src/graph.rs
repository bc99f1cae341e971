//! The provenance graph (§3.1).
//!
//! Vertices are of two kinds: **tuple vertices** (base or derived tuples,
//! identified by the engine's [`TupleId`]s) and **rule-execution vertices**
//! (one per distinct grounding of a rule body, identified by [`ExecId`]s).
//! Edges point from input tuples into a rule execution, and from a rule
//! execution to the tuple it derives. Probabilities are not duplicated
//! here: a vertex carries its clause id, and probabilities live on the
//! program / variable table.
//!
//! A tuple can have any number of derivations: several rule executions,
//! and/or one or more base-tuple assertions (two fact clauses may assert
//! the same tuple).
//!
//! ## Storage
//!
//! Provenance maintenance runs once per rule firing, so the layout is
//! optimised for append speed (Fig 9's maintenance overhead): executions
//! live in parallel arrays, body tuples in a shared arena, and per-tuple
//! derivation lists in a dense vector indexed by tuple id.

use p3_datalog::ast::ClauseId;
use p3_datalog::engine::TupleId;
use p3_datalog::hash::FxHashSet;
use std::collections::HashSet;

/// Identifies a rule-execution vertex.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ExecId(pub u32);

impl ExecId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A rule-execution vertex, materialised on demand by [`ProvGraph::exec`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RuleExec<'g> {
    /// The rule that fired.
    pub rule: ClauseId,
    /// The derived tuple.
    pub head: TupleId,
    /// The grounded body tuples, in rule-body order.
    pub body: &'g [TupleId],
}

/// One way a tuple came to exist.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Derivation {
    /// Asserted by a base-tuple clause.
    Base(ClauseId),
    /// Derived by a rule execution.
    Rule(ExecId),
}

/// The complete provenance graph of one evaluation.
#[derive(Debug, Clone)]
pub struct ProvGraph {
    exec_rules: Vec<ClauseId>,
    exec_heads: Vec<TupleId>,
    /// Prefix offsets into `body_arena`; length is `execs + 1`.
    exec_body_bounds: Vec<u32>,
    body_arena: Vec<TupleId>,
    /// Derivations per tuple, indexed by tuple id (dense: the engine hands
    /// out consecutive ids).
    derivations: Vec<Vec<Derivation>>,
    /// Tuples with at least one derivation (tracked because `derivations`
    /// may contain empty padding slots).
    num_tuples: usize,
    /// Duplicate guard for the *checked* insertion API only; the capture
    /// hot path bypasses it.
    dedup: FxHashSet<(ClauseId, TupleId, Vec<TupleId>)>,
}

impl Default for ProvGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl ProvGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self {
            exec_rules: Vec::new(),
            exec_heads: Vec::new(),
            exec_body_bounds: vec![0],
            body_arena: Vec::new(),
            derivations: Vec::new(),
            num_tuples: 0,
            dedup: FxHashSet::default(),
        }
    }

    #[inline]
    fn slot(&mut self, tuple: TupleId) -> &mut Vec<Derivation> {
        let idx = tuple.index();
        if idx >= self.derivations.len() {
            self.derivations.resize_with(idx + 1, Vec::new);
        }
        let slot = &mut self.derivations[idx];
        if slot.is_empty() {
            self.num_tuples += 1;
        }
        slot
    }

    /// Records a base-tuple assertion. Idempotent per `(clause, tuple)`.
    pub fn add_base(&mut self, clause: ClauseId, tuple: TupleId) {
        if self.dedup.insert((clause, tuple, Vec::new())) {
            self.add_base_unchecked(clause, tuple);
        }
    }

    /// Records a base-tuple assertion without duplicate detection (the
    /// engine reports each fact clause exactly once).
    pub fn add_base_unchecked(&mut self, clause: ClauseId, tuple: TupleId) {
        self.slot(tuple).push(Derivation::Base(clause));
    }

    /// Records a rule execution. Idempotent per `(rule, head, body)`.
    pub fn add_exec(&mut self, rule: ClauseId, head: TupleId, body: &[TupleId]) {
        if self.dedup.insert((rule, head, body.to_vec())) {
            self.add_exec_unchecked(rule, head, body);
        }
    }

    /// Records a rule execution **without** duplicate detection.
    ///
    /// The semi-naive engine enumerates every grounding exactly once, so
    /// capture through the [`p3_datalog::engine::DerivationSink`] seam can
    /// skip the dedup hashing and key allocation — this is the hot path of
    /// provenance maintenance (Fig 9's overhead). Callers constructing
    /// graphs by hand should use [`Self::add_exec`] instead.
    pub fn add_exec_unchecked(&mut self, rule: ClauseId, head: TupleId, body: &[TupleId]) {
        let id = ExecId(u32::try_from(self.exec_rules.len()).expect("exec id overflow"));
        self.exec_rules.push(rule);
        self.exec_heads.push(head);
        self.body_arena.extend_from_slice(body);
        self.exec_body_bounds
            .push(u32::try_from(self.body_arena.len()).expect("body arena overflow"));
        self.slot(head).push(Derivation::Rule(id));
    }

    /// The derivations of `tuple` (empty slice when the tuple is unknown —
    /// e.g. a query for a non-derivable atom).
    pub fn derivations(&self, tuple: TupleId) -> &[Derivation] {
        self.derivations
            .get(tuple.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The rule execution `id`.
    pub fn exec(&self, id: ExecId) -> RuleExec<'_> {
        RuleExec {
            rule: self.exec_rules[id.index()],
            head: self.exec_heads[id.index()],
            body: self.exec_body(id),
        }
    }

    /// The grounded body tuples of execution `id`.
    #[inline]
    pub fn exec_body(&self, id: ExecId) -> &[TupleId] {
        let start = self.exec_body_bounds[id.index()] as usize;
        let end = self.exec_body_bounds[id.index() + 1] as usize;
        &self.body_arena[start..end]
    }

    /// The rule of execution `id`.
    #[inline]
    pub fn exec_rule(&self, id: ExecId) -> ClauseId {
        self.exec_rules[id.index()]
    }

    /// The derived tuple of execution `id`.
    #[inline]
    pub fn exec_head(&self, id: ExecId) -> TupleId {
        self.exec_heads[id.index()]
    }

    /// Iterates over all rule executions.
    pub fn execs(&self) -> impl Iterator<Item = (ExecId, RuleExec<'_>)> + '_ {
        (0..self.exec_rules.len() as u32).map(|i| (ExecId(i), self.exec(ExecId(i))))
    }

    /// Number of rule-execution vertices.
    pub fn num_execs(&self) -> usize {
        self.exec_rules.len()
    }

    /// Number of tuple vertices with at least one derivation.
    pub fn num_tuples(&self) -> usize {
        self.num_tuples
    }

    /// Whether `tuple` has a base-clause assertion among its derivations.
    pub fn is_base(&self, tuple: TupleId) -> bool {
        self.derivations(tuple)
            .iter()
            .any(|d| matches!(d, Derivation::Base(_)))
    }

    /// The set of tuple vertices in the provenance **subgraph rooted at**
    /// `root`: every tuple reachable by following derivations downward.
    pub fn reachable_tuples(&self, root: TupleId) -> HashSet<TupleId> {
        let mut seen = HashSet::new();
        let mut stack = vec![root];
        while let Some(t) = stack.pop() {
            if !seen.insert(t) {
                continue;
            }
            for d in self.derivations(t) {
                if let Derivation::Rule(e) = d {
                    stack.extend(self.exec_body(*e).iter().copied());
                }
            }
        }
        seen
    }

    /// Total number of edges (tuple→exec plus exec→tuple).
    pub fn num_edges(&self) -> usize {
        self.body_arena.len() + self.exec_rules.len()
    }

    /// Iterates over all tuple vertices that have at least one derivation.
    pub fn tuples(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.derivations
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_empty())
            .map(|(i, _)| TupleId(i as u32))
    }

    /// A canonical, order-independent description of the graph: one entry
    /// per derivation, `(tuple, clause, body)` with an empty body for base
    /// assertions. Rule bodies are never empty (validated), so the two
    /// derivation kinds cannot collide. Used to compare capture strategies.
    pub fn signature(&self) -> std::collections::BTreeSet<(TupleId, ClauseId, Vec<TupleId>)> {
        let mut out = std::collections::BTreeSet::new();
        for tuple in self.tuples() {
            for d in self.derivations(tuple) {
                match d {
                    Derivation::Base(c) => {
                        out.insert((tuple, *c, Vec::new()));
                    }
                    Derivation::Rule(e) => {
                        out.insert((tuple, self.exec_rule(*e), self.exec_body(*e).to_vec()));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TupleId {
        TupleId(i)
    }

    fn c(i: u32) -> ClauseId {
        ClauseId(i)
    }

    #[test]
    fn add_base_is_idempotent() {
        let mut g = ProvGraph::new();
        g.add_base(c(0), t(0));
        g.add_base(c(0), t(0));
        assert_eq!(g.derivations(t(0)).len(), 1);
    }

    #[test]
    fn two_fact_clauses_for_one_tuple() {
        let mut g = ProvGraph::new();
        g.add_base(c(0), t(0));
        g.add_base(c(1), t(0));
        assert_eq!(g.derivations(t(0)).len(), 2);
        assert!(g.is_base(t(0)));
        assert_eq!(g.num_tuples(), 1);
    }

    #[test]
    fn add_exec_dedups_identical_groundings() {
        let mut g = ProvGraph::new();
        g.add_exec(c(2), t(5), &[t(0), t(1)]);
        g.add_exec(c(2), t(5), &[t(0), t(1)]);
        g.add_exec(c(2), t(5), &[t(1), t(0)]); // different body order = different grounding
        assert_eq!(g.num_execs(), 2);
        assert_eq!(g.derivations(t(5)).len(), 2);
    }

    #[test]
    fn exec_accessors_agree() {
        let mut g = ProvGraph::new();
        g.add_exec(c(2), t(5), &[t(0), t(1)]);
        g.add_exec(c(3), t(1), &[t(2)]);
        let e0 = ExecId(0);
        let e1 = ExecId(1);
        assert_eq!(g.exec_rule(e0), c(2));
        assert_eq!(g.exec_head(e0), t(5));
        assert_eq!(g.exec_body(e0), &[t(0), t(1)]);
        assert_eq!(g.exec_body(e1), &[t(2)]);
        let snap = g.exec(e1);
        assert_eq!((snap.rule, snap.head, snap.body), (c(3), t(1), &[t(2)][..]));
        assert_eq!(g.execs().count(), 2);
    }

    #[test]
    fn reachable_tuples_follows_derivations() {
        let mut g = ProvGraph::new();
        // t5 <- exec(c2, [t0, t1]); t1 <- exec(c3, [t2]); t0, t2 base.
        g.add_base(c(0), t(0));
        g.add_base(c(1), t(2));
        g.add_exec(c(3), t(1), &[t(2)]);
        g.add_exec(c(2), t(5), &[t(0), t(1)]);
        let reach = g.reachable_tuples(t(5));
        assert_eq!(reach.len(), 4);
        assert!(reach.contains(&t(2)));
        // Rooted at t1, t0/t5 are not reachable.
        let reach1 = g.reachable_tuples(t(1));
        assert_eq!(reach1.len(), 2);
    }

    #[test]
    fn reachable_handles_cycles() {
        let mut g = ProvGraph::new();
        g.add_exec(c(0), t(0), &[t(1)]);
        g.add_exec(c(0), t(1), &[t(0)]);
        let reach = g.reachable_tuples(t(0));
        assert_eq!(reach.len(), 2);
    }

    #[test]
    fn unknown_tuple_has_no_derivations() {
        let g = ProvGraph::new();
        assert!(g.derivations(t(9)).is_empty());
        assert!(!g.is_base(t(9)));
        assert_eq!(g.num_tuples(), 0);
    }

    #[test]
    fn edge_count() {
        let mut g = ProvGraph::new();
        g.add_exec(c(2), t(5), &[t(0), t(1)]);
        g.add_exec(c(3), t(1), &[t(2)]);
        assert_eq!(g.num_edges(), 5); // (2 in + 1 out) + (1 in + 1 out)
    }

    #[test]
    fn tuples_skips_padding_slots() {
        let mut g = ProvGraph::new();
        g.add_base(c(0), t(7)); // slots 0..6 are padding
        let all: Vec<TupleId> = g.tuples().collect();
        assert_eq!(all, vec![t(7)]);
        assert_eq!(g.num_tuples(), 1);
    }

    #[test]
    fn signature_distinguishes_base_and_rule_derivations() {
        let mut g = ProvGraph::new();
        g.add_base(c(0), t(0));
        g.add_exec(c(1), t(1), &[t(0)]);
        let sig = g.signature();
        assert_eq!(sig.len(), 2);
        assert!(sig.contains(&(t(0), c(0), vec![])));
        assert!(sig.contains(&(t(1), c(1), vec![t(0)])));
    }
}
