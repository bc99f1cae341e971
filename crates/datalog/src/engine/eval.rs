//! The join loop: evaluates one rule against one delta position.

use super::compile::{CAtom, CTerm, CompiledRule};
use super::database::{Database, Relation, TupleId};
use super::DerivationSink;
use crate::ast::Const;

/// Join-work counters from one `eval_rule` call. `firings` drives the
/// fixpoint accounting; `candidates` (tuples pulled from index probes, the
/// join fan-out) and `new_tuples` (head inserts that were not already
/// known) feed per-rule cost attribution.
#[derive(Clone, Copy, Default)]
pub(super) struct EvalDelta {
    pub firings: usize,
    pub candidates: u64,
    pub new_tuples: u64,
}

impl EvalDelta {
    /// Total join work: non-zero iff the rule did anything this call.
    pub fn work(&self) -> u64 {
        self.firings as u64 + self.candidates
    }

    pub fn merge(&mut self, other: EvalDelta) {
        self.firings += other.firings;
        self.candidates += other.candidates;
        self.new_tuples += other.new_tuples;
    }
}

/// Evaluates `rule` with delta position `d` against watermarks
/// `[w_prev, w_cur)`, inserting derived heads into `db` and reporting each
/// firing to `sink`. Returns the join-work counters of the call.
///
/// Atom `d` reads only the delta, so when its relation has no tuple in
/// `[w_prev, w_cur)` the pass cannot fire and is skipped before any atom
/// is scanned: it reports no work at all. Every other pass keeps its order
/// and its firings, so tuple ids and derivations are those of a run that
/// scans every pass.
pub(super) fn eval_rule(
    db: &mut Database,
    rule: &CompiledRule,
    d: usize,
    w_prev: TupleId,
    w_cur: TupleId,
    sink: &mut dyn DerivationSink,
) -> EvalDelta {
    let delta_atom = db
        .relation(rule.body[d].pred)
        .map_or(&[][..], Relation::tuples);
    if !any_in_range(delta_atom, w_prev, w_cur) {
        return EvalDelta::default();
    }
    let mut cx = JoinCx {
        db,
        rule,
        d,
        w_prev,
        w_cur,
        env: vec![None; rule.num_vars],
        trail: Vec::with_capacity(rule.num_vars),
        body_ids: Vec::with_capacity(rule.body.len()),
        sink,
        delta: EvalDelta::default(),
        scratch_key: Vec::new(),
        scratch_args: Vec::new(),
        head_args: Vec::new(),
        cand_bufs: vec![Vec::new(); rule.body.len()],
    };
    cx.join(0);
    cx.delta
}

struct JoinCx<'a> {
    db: &'a mut Database,
    rule: &'a CompiledRule,
    d: usize,
    w_prev: TupleId,
    w_cur: TupleId,
    env: Vec<Option<Const>>,
    /// Variable slots bound since the start of the join, in binding order.
    /// A prefix length snapshot identifies the bindings of one `bind` call.
    trail: Vec<u16>,
    body_ids: Vec<TupleId>,
    sink: &'a mut dyn DerivationSink,
    delta: EvalDelta,
    scratch_key: Vec<Const>,
    scratch_args: Vec<Const>,
    /// The ground head of the current firing.
    head_args: Vec<Const>,
    /// Per body position, a reusable buffer for the candidate tuples of
    /// that position. Candidates must be copied out of the database before
    /// recursing (derived heads are inserted below us), but the allocation
    /// is amortised across the whole join.
    cand_bufs: Vec<Vec<TupleId>>,
}

impl JoinCx<'_> {
    /// The id watermarks `[lo, hi)` a candidate tuple for body position
    /// `pos` must fall in. See the module docs of [`super`].
    fn id_range(&self, pos: usize) -> (TupleId, TupleId) {
        use std::cmp::Ordering::*;
        match pos.cmp(&self.d) {
            Less => (TupleId(0), self.w_prev),
            Equal => (self.w_prev, self.w_cur),
            Greater => (TupleId(0), self.w_cur),
        }
    }

    fn join(&mut self, pos: usize) {
        if pos == self.rule.body.len() {
            self.fire();
            return;
        }

        let atom = &self.rule.body[pos];
        let (lo, hi) = self.id_range(pos);

        // The bound columns were planned at compile time and their indexes
        // registered before evaluation; build the probe key from the
        // current bindings. (Planned columns hold constants or variables
        // bound by earlier atoms, so every lookup below succeeds.)
        let cols = &self.rule.probe_cols[pos];
        self.scratch_key.clear();
        for &col in cols.iter() {
            let value = match atom.args[col] {
                CTerm::Const(c) => c,
                CTerm::Var(v) => self.env[v as usize].expect("planned probe column is bound"),
            };
            self.scratch_key.push(value);
        }

        // Copy the matching id range out before recursing: derived heads
        // are inserted into `db` below us.
        let mut candidates = std::mem::take(&mut self.cand_bufs[pos]);
        candidates.clear();
        candidates.extend_from_slice(in_range(
            self.db.probe(atom.pred, cols, &self.scratch_key),
            lo,
            hi,
        ));
        self.delta.candidates += candidates.len() as u64;

        for &id in &candidates {
            if let Some(mark) = self.bind(atom, id) {
                if self.constraints_hold(pos) && self.negations_hold(pos) {
                    self.body_ids.push(id);
                    self.join(pos + 1);
                    self.body_ids.pop();
                }
                self.rollback(mark);
            }
        }
        self.cand_bufs[pos] = candidates;
    }

    /// Binds `atom`'s unbound variables against tuple `id`. Returns the
    /// trail mark to roll back to on success, or `None` when a repeated
    /// variable or constant mismatches (already rolled back).
    fn bind(&mut self, atom: &CAtom, id: TupleId) -> Option<usize> {
        let mark = self.trail.len();
        self.scratch_args.clear();
        self.scratch_args.extend_from_slice(&self.db.tuple(id).args);
        for (i, term) in atom.args.iter().enumerate() {
            let value = self.scratch_args[i];
            match term {
                CTerm::Const(c) => {
                    if *c != value {
                        self.rollback(mark);
                        return None;
                    }
                }
                CTerm::Var(v) => match self.env[*v as usize] {
                    Some(existing) => {
                        if existing != value {
                            self.rollback(mark);
                            return None;
                        }
                    }
                    None => {
                        self.env[*v as usize] = Some(value);
                        self.trail.push(*v);
                    }
                },
            }
        }
        Some(mark)
    }

    /// Clears every binding made after trail position `mark`.
    fn rollback(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let v = self.trail.pop().expect("trail underflow");
            self.env[v as usize] = None;
        }
    }

    /// Checks the negated atoms scheduled at body position `pos`: each must
    /// be *absent* from the database. Sound because stratified evaluation
    /// guarantees the negated predicates' relations are complete.
    fn negations_hold(&mut self, pos: usize) -> bool {
        if self.rule.negated.is_empty() {
            return true;
        }
        for i in 0..self.rule.negated.len() {
            if self.rule.negated[i].ready_after != pos {
                continue;
            }
            self.scratch_key.clear();
            for term in &self.rule.negated[i].atom.args {
                let v = match term {
                    CTerm::Const(c) => *c,
                    CTerm::Var(v) => {
                        self.env[*v as usize].expect("negation scheduled before binding")
                    }
                };
                self.scratch_key.push(v);
            }
            if self
                .db
                .lookup(self.rule.negated[i].atom.pred, &self.scratch_key)
                .is_some()
            {
                return false;
            }
        }
        true
    }

    /// Checks the constraints scheduled at body position `pos`.
    fn constraints_hold(&self, pos: usize) -> bool {
        for c in &self.rule.constraints {
            if c.ready_after != pos {
                continue;
            }
            let lhs = self.value(c.lhs);
            let rhs = self.value(c.rhs);
            if !c.op.eval(lhs, rhs) {
                return false;
            }
        }
        true
    }

    fn value(&self, term: CTerm) -> Const {
        match term {
            CTerm::Const(c) => c,
            CTerm::Var(v) => self.env[v as usize].expect("constraint scheduled before binding"),
        }
    }

    /// All body atoms matched: ground the head, insert, and report.
    fn fire(&mut self) {
        let mut args = std::mem::take(&mut self.head_args);
        args.clear();
        args.extend(self.rule.head.args.iter().map(|t| self.value(*t)));
        let (head_id, inserted) = self.db.insert(self.rule.head.pred, &args);
        self.head_args = args;
        self.sink.derived(self.rule.clause, head_id, &self.body_ids);
        self.delta.firings += 1;
        if inserted {
            self.delta.new_tuples += 1;
        }
    }
}

/// The subslice of `ids` (sorted ascending) with `lo <= id < hi`.
fn in_range(ids: &[TupleId], lo: TupleId, hi: TupleId) -> &[TupleId] {
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "tuple id lists are sorted"
    );
    let start = ids.partition_point(|&id| id < lo);
    let end = ids.partition_point(|&id| id < hi);
    &ids[start..end]
}

/// Whether `ids` (sorted ascending) holds an id with `lo <= id < hi`: one
/// binary search.
fn any_in_range(ids: &[TupleId], lo: TupleId, hi: TupleId) -> bool {
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "tuple id lists are sorted"
    );
    let start = ids.partition_point(|&id| id < lo);
    ids.get(start).is_some_and(|&id| id < hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_selects_the_window() {
        let ids: Vec<TupleId> = [1u32, 3, 5, 7, 9].iter().map(|&i| TupleId(i)).collect();
        assert_eq!(in_range(&ids, TupleId(3), TupleId(8)), &ids[1..4]);
        assert_eq!(in_range(&ids, TupleId(0), TupleId(100)), &ids[..]);
        assert_eq!(in_range(&ids, TupleId(10), TupleId(20)), &[] as &[TupleId]);
        assert_eq!(in_range(&ids, TupleId(4), TupleId(4)), &[] as &[TupleId]);
    }

    #[test]
    fn any_in_range_agrees_with_in_range() {
        let ids: Vec<TupleId> = [1u32, 3, 5, 7, 9].iter().map(|&i| TupleId(i)).collect();
        for lo in 0..11 {
            for hi in lo..12 {
                let (lo, hi) = (TupleId(lo), TupleId(hi));
                assert_eq!(
                    any_in_range(&ids, lo, hi),
                    !in_range(&ids, lo, hi).is_empty()
                );
            }
        }
        assert!(!any_in_range(&[], TupleId(0), TupleId(1)));
    }
}
