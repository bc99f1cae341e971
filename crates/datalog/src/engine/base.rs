//! The frozen fact base a program's demand evaluations share.

use super::database::{Database, TupleId};
use crate::ast::{ClauseId, Const, Term};
use crate::program::Program;
use crate::symbol::Symbol;
use crate::transform;
use std::fmt;

/// A program's facts, interned once and frozen.
///
/// A program's facts never change between queries, yet a demand evaluation
/// needs all of them: the transformed program restricts derivations, never
/// base tuples. The base holds them once — their tuples in clause order,
/// with the ids `0..F` a run that inserted them first would give them, each
/// fact clause beside its tuple, and a hash index for every column set a
/// guarded variant of any ground query can probe. An evaluation then runs
/// over a [`Database`] extending the base ([`Database::over`]), whose own
/// tuples start at id `F`.
///
/// [`Program::fact_base`] builds the base on first use and shares it with
/// every clone, what-if copy and program derived from it by
/// [`crate::transform::magic_transform`]; nothing writes it afterwards.
pub struct FactBase {
    db: Database,
    /// Every fact clause in clause order, with its tuple.
    facts: Vec<(ClauseId, TupleId)>,
}

impl FactBase {
    /// Interns `program`'s fact clauses in clause order and registers the
    /// indexes its demand variants probe.
    pub(crate) fn build(program: &Program) -> Self {
        let mut span = p3_obs::span::span("datalog.fact_base");
        let mut db = Database::new();
        let mut facts = Vec::new();
        let mut args = Vec::new();
        for (id, clause) in program.iter().filter(|(_, c)| c.is_fact()) {
            args.clear();
            args.extend(clause.head.args.iter().map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(_) => unreachable!("facts are ground"),
            }));
            let (tuple, _) = db.insert(clause.head.pred, &args);
            facts.push((id, tuple));
        }
        for (pred, cols) in transform::base_index_specs(program) {
            if db.relation(pred).is_some() {
                db.register_index(pred, &cols);
            }
        }
        span.add_field("facts", facts.len());
        span.add_field("tuples", db.len());
        Self { db, facts }
    }

    /// Number of distinct base tuples: the first id an evaluation over the
    /// base gives its own tuples.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Whether the program has no facts.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Every fact clause of the program in clause order, with its tuple.
    /// Two clauses asserting one tuple both appear.
    pub fn facts(&self) -> &[(ClauseId, TupleId)] {
        &self.facts
    }

    /// The base tuple `pred(args)`, if the program asserts it.
    pub fn lookup(&self, pred: Symbol, args: &[Const]) -> Option<TupleId> {
        self.db.lookup(pred, args)
    }

    /// The base tuples as a database of their own.
    pub(super) fn database(&self) -> &Database {
        &self.db
    }
}

impl fmt::Debug for FactBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FactBase")
            .field("facts", &self.facts.len())
            .field("tuples", &self.db.len())
            .finish()
    }
}
