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
//! Provenance maintenance runs once per rule firing, so recording is a
//! handful of appends (Fig 9's maintenance overhead): a
//! [`ProvGraphBuilder`] keeps executions in parallel arrays, body tuples in
//! a shared arena, and every `(tuple, derivation)` pair in one arrival
//! list. [`ProvGraphBuilder::finish`] groups that list by tuple with one
//! stable counting sort into the read-only [`ProvGraph`]: compressed sparse
//! rows (CSR), one offsets array indexed by tuple id over one derivation
//! array, so each tuple's derivations sit together in arrival order and no
//! tuple owns an allocation.

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

/// Records a provenance graph while an evaluation runs; [`Self::finish`]
/// freezes it into a [`ProvGraph`].
///
/// The unchecked appends are the capture hot path: the semi-naive engine
/// reports every fact clause and every grounding exactly once. The checked
/// ones ([`Self::add_base`], [`Self::add_exec`]) are idempotent, for
/// graphs whose source may repeat a derivation; their duplicate guard sees
/// only checked appends and is dropped by `finish`.
#[derive(Debug)]
pub struct ProvGraphBuilder {
    exec_rules: Vec<ClauseId>,
    exec_heads: Vec<TupleId>,
    /// Prefix offsets into `body_arena`; length is `execs + 1`.
    exec_body_bounds: Vec<u32>,
    body_arena: Vec<TupleId>,
    /// Every derivation with its tuple, in arrival order.
    arrivals: Vec<(TupleId, Derivation)>,
    /// Duplicate guard of the checked appends.
    seen: FxHashSet<(ClauseId, TupleId, Vec<TupleId>)>,
}

impl Default for ProvGraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProvGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            exec_rules: Vec::new(),
            exec_heads: Vec::new(),
            exec_body_bounds: vec![0],
            body_arena: Vec::new(),
            arrivals: Vec::new(),
            seen: FxHashSet::default(),
        }
    }

    /// Records a base-tuple assertion. Idempotent per `(clause, tuple)`.
    pub fn add_base(&mut self, clause: ClauseId, tuple: TupleId) {
        if self.seen.insert((clause, tuple, Vec::new())) {
            self.add_base_unchecked(clause, tuple);
        }
    }

    /// Records a base-tuple assertion without duplicate detection (the
    /// engine reports each fact clause exactly once).
    #[inline]
    pub fn add_base_unchecked(&mut self, clause: ClauseId, tuple: TupleId) {
        self.arrivals.push((tuple, Derivation::Base(clause)));
    }

    /// Records a rule execution. Idempotent per `(rule, head, body)`.
    pub fn add_exec(&mut self, rule: ClauseId, head: TupleId, body: &[TupleId]) {
        if self.seen.insert((rule, head, body.to_vec())) {
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
    #[inline]
    pub fn add_exec_unchecked(&mut self, rule: ClauseId, head: TupleId, body: &[TupleId]) {
        let id = ExecId(u32::try_from(self.exec_rules.len()).expect("exec id overflow"));
        self.exec_rules.push(rule);
        self.exec_heads.push(head);
        self.body_arena.extend_from_slice(body);
        self.exec_body_bounds
            .push(u32::try_from(self.body_arena.len()).expect("body arena overflow"));
        self.arrivals.push((head, Derivation::Rule(id)));
    }

    /// Groups the recorded derivations by tuple (a stable counting sort,
    /// so each tuple keeps its arrival order) and returns the finished
    /// graph.
    pub fn finish(self) -> ProvGraph {
        let total = u32::try_from(self.arrivals.len()).expect("derivation count overflow");
        let slots = self
            .arrivals
            .iter()
            .map(|&(t, _)| t.index() + 1)
            .max()
            .unwrap_or(0);
        // Count into `offsets[t + 1]`, then prefix-sum: `offsets[t]` is the
        // first slot of tuple `t` and `offsets[t + 1]` one past its last.
        let mut offsets = vec![0u32; slots + 1];
        for &(t, _) in &self.arrivals {
            offsets[t.index() + 1] += 1;
        }
        let num_tuples = offsets.iter().filter(|&&n| n > 0).count();
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Place each derivation at its tuple's cursor. Afterwards
        // `offsets[t]` is where tuple `t + 1` starts, so shifting the array
        // up one slot restores the starts.
        let mut derivations = vec![Derivation::Base(ClauseId(0)); self.arrivals.len()];
        for &(t, d) in &self.arrivals {
            let cursor = &mut offsets[t.index()];
            derivations[*cursor as usize] = d;
            *cursor += 1;
        }
        offsets.copy_within(..slots, 1);
        offsets[0] = 0;
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(offsets.last().copied(), Some(total));
        ProvGraph {
            exec_rules: self.exec_rules,
            exec_heads: self.exec_heads,
            exec_body_bounds: self.exec_body_bounds,
            body_arena: self.body_arena,
            offsets,
            derivations,
            num_tuples,
        }
    }
}

/// The complete provenance graph of one evaluation, read-only once built
/// by a [`ProvGraphBuilder`].
#[derive(Debug, Clone)]
pub struct ProvGraph {
    exec_rules: Vec<ClauseId>,
    exec_heads: Vec<TupleId>,
    /// Prefix offsets into `body_arena`; length is `execs + 1`.
    exec_body_bounds: Vec<u32>,
    body_arena: Vec<TupleId>,
    /// The derivations of tuple `t` are
    /// `derivations[offsets[t]..offsets[t + 1]]`. One slot per tuple id up
    /// to the largest with a derivation, plus one; ids below it without a
    /// derivation (magic tuples of a demand run, say) get empty rows.
    offsets: Vec<u32>,
    derivations: Vec<Derivation>,
    /// Tuples with at least one derivation.
    num_tuples: usize,
}

impl ProvGraph {
    /// The derivations of `tuple` (empty slice when the tuple is unknown —
    /// e.g. a query for a non-derivable atom).
    #[inline]
    pub fn derivations(&self, tuple: TupleId) -> &[Derivation] {
        let t = tuple.index();
        if t + 1 < self.offsets.len() {
            &self.derivations[self.offsets[t] as usize..self.offsets[t + 1] as usize]
        } else {
            &[]
        }
    }

    /// One past the largest tuple id with a derivation (0 for an empty
    /// graph): the length of a per-tuple table over this graph.
    pub(crate) fn id_bound(&self) -> usize {
        self.offsets.len().saturating_sub(1)
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

    /// Iterates over all tuple vertices that have at least one derivation,
    /// in id order.
    pub fn tuples(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.offsets
            .windows(2)
            .zip(0u32..)
            .filter(|(row, _)| row[0] < row[1])
            .map(|(_, t)| TupleId(t))
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
        let mut b = ProvGraphBuilder::new();
        b.add_base(c(0), t(0));
        b.add_base(c(0), t(0));
        assert_eq!(b.finish().derivations(t(0)).len(), 1);
    }

    #[test]
    fn two_fact_clauses_for_one_tuple() {
        let mut b = ProvGraphBuilder::new();
        b.add_base(c(0), t(0));
        b.add_base(c(1), t(0));
        let g = b.finish();
        assert_eq!(g.derivations(t(0)).len(), 2);
        assert!(g.is_base(t(0)));
        assert_eq!(g.num_tuples(), 1);
    }

    #[test]
    fn add_exec_dedups_identical_groundings() {
        let mut b = ProvGraphBuilder::new();
        b.add_exec(c(2), t(5), &[t(0), t(1)]);
        b.add_exec(c(2), t(5), &[t(0), t(1)]);
        b.add_exec(c(2), t(5), &[t(1), t(0)]); // different body order = different grounding
        let g = b.finish();
        assert_eq!(g.num_execs(), 2);
        assert_eq!(g.derivations(t(5)).len(), 2);
    }

    #[test]
    fn the_guard_sees_only_checked_appends() {
        // The unchecked path records whatever it is given; a checked
        // append after it is judged against checked appends alone.
        let mut b = ProvGraphBuilder::new();
        b.add_exec_unchecked(c(2), t(5), &[t(0)]);
        b.add_exec_unchecked(c(2), t(5), &[t(0)]);
        b.add_exec(c(2), t(5), &[t(0)]);
        b.add_exec(c(2), t(5), &[t(0)]);
        b.add_base_unchecked(c(0), t(0));
        b.add_base(c(0), t(0));
        let g = b.finish();
        assert_eq!(g.num_execs(), 3);
        assert_eq!(g.derivations(t(5)).len(), 3);
        assert_eq!(g.derivations(t(0)), &[Derivation::Base(c(0)); 2]);
    }

    #[test]
    fn finish_keeps_arrival_order_within_a_tuple() {
        // Derivations of t1 and t3 arrive interleaved with each other's.
        let mut b = ProvGraphBuilder::new();
        b.add_base(c(0), t(3));
        b.add_exec(c(4), t(1), &[t(3)]);
        b.add_base(c(1), t(1));
        b.add_exec(c(5), t(3), &[t(1)]);
        b.add_exec(c(6), t(1), &[t(3), t(3)]);
        b.add_base(c(2), t(3));
        let g = b.finish();
        assert_eq!(
            g.derivations(t(1)),
            &[
                Derivation::Rule(ExecId(0)),
                Derivation::Base(c(1)),
                Derivation::Rule(ExecId(2))
            ]
        );
        assert_eq!(
            g.derivations(t(3)),
            &[
                Derivation::Base(c(0)),
                Derivation::Rule(ExecId(1)),
                Derivation::Base(c(2))
            ]
        );
        assert_eq!(g.exec_head(ExecId(2)), t(1));
        assert_eq!(g.exec_body(ExecId(2)), &[t(3), t(3)]);
    }

    #[test]
    fn exec_accessors_agree() {
        let mut b = ProvGraphBuilder::new();
        b.add_exec(c(2), t(5), &[t(0), t(1)]);
        b.add_exec(c(3), t(1), &[t(2)]);
        let g = b.finish();
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
        let mut b = ProvGraphBuilder::new();
        // t5 <- exec(c2, [t0, t1]); t1 <- exec(c3, [t2]); t0, t2 base.
        b.add_base(c(0), t(0));
        b.add_base(c(1), t(2));
        b.add_exec(c(3), t(1), &[t(2)]);
        b.add_exec(c(2), t(5), &[t(0), t(1)]);
        let g = b.finish();
        let reach = g.reachable_tuples(t(5));
        assert_eq!(reach.len(), 4);
        assert!(reach.contains(&t(2)));
        // Rooted at t1, t0/t5 are not reachable.
        let reach1 = g.reachable_tuples(t(1));
        assert_eq!(reach1.len(), 2);
    }

    #[test]
    fn reachable_handles_cycles() {
        let mut b = ProvGraphBuilder::new();
        b.add_exec(c(0), t(0), &[t(1)]);
        b.add_exec(c(0), t(1), &[t(0)]);
        let reach = b.finish().reachable_tuples(t(0));
        assert_eq!(reach.len(), 2);
    }

    #[test]
    fn an_empty_graph_has_no_tuples() {
        let g = ProvGraphBuilder::new().finish();
        assert!(g.derivations(t(0)).is_empty());
        assert!(g.derivations(t(9)).is_empty());
        assert!(!g.is_base(t(9)));
        assert_eq!(g.num_tuples(), 0);
        assert_eq!(g.num_execs(), 0);
        assert_eq!(g.id_bound(), 0);
        assert_eq!(g.tuples().count(), 0);
        assert!(g.signature().is_empty());
    }

    #[test]
    fn edge_count() {
        let mut b = ProvGraphBuilder::new();
        b.add_exec(c(2), t(5), &[t(0), t(1)]);
        b.add_exec(c(3), t(1), &[t(2)]);
        assert_eq!(b.finish().num_edges(), 5); // (2 in + 1 out) + (1 in + 1 out)
    }

    #[test]
    fn padding_slots_below_the_largest_id_are_empty() {
        let mut b = ProvGraphBuilder::new();
        b.add_base(c(0), t(7)); // slots 0..6 are padding
        b.add_exec(c(1), t(2), &[t(7)]);
        let g = b.finish();
        let all: Vec<TupleId> = g.tuples().collect();
        assert_eq!(all, vec![t(2), t(7)]);
        assert_eq!(g.num_tuples(), 2);
        assert_eq!(g.id_bound(), 8);
        for padding in [0, 1, 3, 4, 5, 6] {
            assert!(g.derivations(t(padding)).is_empty(), "slot {padding}");
        }
        assert!(g.derivations(t(8)).is_empty());
    }

    #[test]
    fn signature_distinguishes_base_and_rule_derivations() {
        let mut b = ProvGraphBuilder::new();
        b.add_base(c(0), t(0));
        b.add_exec(c(1), t(1), &[t(0)]);
        let sig = b.finish().signature();
        assert_eq!(sig.len(), 2);
        assert!(sig.contains(&(t(0), c(0), vec![])));
        assert!(sig.contains(&(t(1), c(1), vec![t(0)])));
    }
}
