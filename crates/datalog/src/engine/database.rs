//! Tuple storage.
//!
//! All ground tuples produced during evaluation are interned into a
//! [`Database`]: each distinct `(predicate, arguments)` pair receives one
//! [`TupleId`]. Relations are append-only lists of tuple ids, which makes
//! semi-naive deltas representable as index ranges, and gives provenance a
//! stable, compact vertex identifier for every tuple.
//!
//! Each relation owns its intern map, keyed by the arguments alone, so
//! [`Database::insert`] and [`Database::lookup`] probe with a borrowed
//! `&[Const]` and copy the arguments only for a tuple they have not seen.
//!
//! Hash indexes on column subsets are *planned*: the engine registers every
//! (predicate, bound-column-set) pair its compiled rules will probe before
//! evaluation starts, and [`Database::insert`] maintains the registered
//! indexes incrementally. Probing is then a read-only lookup — no lazy
//! rebuild inside the join loop. Every map hashes with
//! [`crate::hash::FxHasher`].

use crate::ast::Const;
use crate::hash::FxHashMap;
use crate::symbol::{Symbol, SymbolTable};
use std::fmt;

/// Identifies a ground tuple within its [`Database`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TupleId(pub u32);

impl TupleId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One stored ground tuple.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoredTuple {
    /// Predicate name.
    pub pred: Symbol,
    /// Ground arguments.
    pub args: Box<[Const]>,
}

/// One hash index: tuples grouped by their values at a fixed column subset.
type Index = FxHashMap<Box<[Const]>, Vec<TupleId>>;

/// A relation: the tuples of one predicate, in insertion order, its intern
/// map, and the registered hash indexes on column subsets.
#[derive(Default, Debug, Clone)]
pub struct Relation {
    tuples: Vec<TupleId>,
    /// Each tuple's id, keyed by its arguments.
    ids: FxHashMap<Box<[Const]>, TupleId>,
    indices: FxHashMap<Box<[usize]>, Index>,
}

impl Relation {
    /// All tuples, insertion-ordered.
    pub fn tuples(&self) -> &[TupleId] {
        &self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// The tuple store produced by evaluation.
#[derive(Default, Clone)]
pub struct Database {
    tuples: Vec<StoredTuple>,
    relations: FxHashMap<Symbol, Relation>,
    /// Scratch buffer for the index keys an insert builds: a key is copied
    /// into the index only when it opens a new group.
    key: Vec<Const>,
    /// Symbol table snapshot installed by the engine; enables name-based
    /// lookups like [`Self::relation_by_name`].
    pub(crate) symbols_hint: Option<SymbolTable>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a hash index on `cols` of `pred`, backfilling any tuples
    /// already stored. Subsequent [`Self::insert`]s maintain it
    /// incrementally; [`Self::probe`] requires it. Registering twice is a
    /// no-op, as is registering the empty column set (a full scan).
    pub fn register_index(&mut self, pred: Symbol, cols: &[usize]) {
        if cols.is_empty() {
            return;
        }
        if self
            .relations
            .get(&pred)
            .is_some_and(|r| r.indices.contains_key(cols))
        {
            return;
        }
        let mut map = Index::default();
        if let Some(rel) = self.relations.get(&pred) {
            for &id in &rel.tuples {
                let args = &self.tuples[id.index()].args;
                let key: Box<[Const]> = cols.iter().map(|&c| args[c]).collect();
                map.entry(key).or_default().push(id);
            }
        }
        self.relations
            .entry(pred)
            .or_default()
            .indices
            .insert(cols.to_vec().into_boxed_slice(), map);
    }

    /// Interns a tuple, returning its id and whether it was newly inserted.
    /// A known tuple costs one probe of its relation's intern map; only a
    /// new one copies `args`.
    pub fn insert(&mut self, pred: Symbol, args: &[Const]) -> (TupleId, bool) {
        let rel = self.relations.entry(pred).or_default();
        if let Some(&id) = rel.ids.get(args) {
            return (id, false);
        }
        let id = TupleId(u32::try_from(self.tuples.len()).expect("tuple id overflow"));
        rel.tuples.push(id);
        for (cols, map) in rel.indices.iter_mut() {
            self.key.clear();
            self.key.extend(cols.iter().map(|&c| args[c]));
            match map.get_mut(self.key.as_slice()) {
                Some(group) => group.push(id),
                None => {
                    map.insert(self.key.as_slice().into(), vec![id]);
                }
            }
        }
        let args: Box<[Const]> = args.into();
        rel.ids.insert(args.clone(), id);
        self.tuples.push(StoredTuple { pred, args });
        (id, true)
    }

    /// Looks up a tuple id without inserting: one probe of the relation's
    /// intern map with the borrowed arguments. The join loop calls it for
    /// every negated atom it checks.
    pub fn lookup(&self, pred: Symbol, args: &[Const]) -> Option<TupleId> {
        self.relations.get(&pred)?.ids.get(args).copied()
    }

    /// The stored tuple for `id`.
    pub fn tuple(&self, id: TupleId) -> &StoredTuple {
        &self.tuples[id.index()]
    }

    /// The relation for `pred`, if any tuple of it exists (or an index on it
    /// was registered).
    pub fn relation(&self, pred: Symbol) -> Option<&Relation> {
        self.relations.get(&pred)
    }

    /// Looks up a relation by predicate name string.
    pub fn relation_by_name(&self, name: &str) -> Option<&Relation> {
        // Scan: the number of predicates is tiny.
        self.relations.iter().find_map(|(sym, rel)| {
            if self
                .symbols_hint
                .as_ref()
                .map(|t| t.resolve(*sym) == name)
                .unwrap_or(false)
            {
                Some(rel)
            } else {
                None
            }
        })
    }

    /// Total number of stored tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether no tuple is stored.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All predicates with at least one tuple.
    pub fn predicates(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.relations
            .iter()
            .filter(|(_, rel)| !rel.tuples.is_empty())
            .map(|(&sym, _)| sym)
    }

    /// Tuples of `pred` whose columns `cols` equal `key`, via a registered
    /// index.
    ///
    /// # Panics
    ///
    /// If `cols` is non-empty and no index on it was registered for a
    /// non-empty `pred` — the engine plans every probe it performs; ad-hoc
    /// callers should use [`Self::matching`].
    pub fn probe(&self, pred: Symbol, cols: &[usize], key: &[Const]) -> &[TupleId] {
        debug_assert_eq!(cols.len(), key.len());
        let Some(rel) = self.relations.get(&pred) else {
            return &[];
        };
        if cols.is_empty() {
            return &rel.tuples;
        }
        let index = rel
            .indices
            .get(cols)
            .unwrap_or_else(|| panic!("probe on unregistered index {cols:?}"));
        index.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Tuples of `pred` whose columns `cols` equal `key`, using a registered
    /// index when one exists and a relation scan otherwise.
    pub fn matching(&self, pred: Symbol, cols: &[usize], key: &[Const]) -> Vec<TupleId> {
        debug_assert_eq!(cols.len(), key.len());
        let Some(rel) = self.relations.get(&pred) else {
            return Vec::new();
        };
        if let Some(index) = rel.indices.get(cols) {
            return index.get(key).cloned().unwrap_or_default();
        }
        rel.tuples
            .iter()
            .copied()
            .filter(|&id| {
                let args = &self.tuples[id.index()].args;
                cols.iter().zip(key).all(|(&c, k)| args[c] == *k)
            })
            .collect()
    }

    /// Renders a tuple as `pred(arg,...)`.
    pub fn display_tuple<'a>(
        &'a self,
        id: TupleId,
        syms: &'a SymbolTable,
    ) -> impl fmt::Display + 'a {
        struct D<'a>(&'a StoredTuple, &'a SymbolTable);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}(", self.1.resolve(self.0.pred))?;
                for (i, arg) in self.0.args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", arg.display(self.1))?;
                }
                write!(f, ")")
            }
        }
        D(self.tuple(id), syms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms() -> SymbolTable {
        SymbolTable::new()
    }

    #[test]
    fn insert_interns_tuples() {
        let mut t = syms();
        let p = t.intern("p");
        let a = Const::Sym(t.intern("a"));
        let mut db = Database::new();
        let (id1, new1) = db.insert(p, &[a]);
        let (id2, new2) = db.insert(p, &[a]);
        assert_eq!(id1, id2);
        assert!(new1);
        assert!(!new2);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn lookup_finds_inserted_tuples() {
        let mut t = syms();
        let p = t.intern("p");
        let a = Const::Int(7);
        let mut db = Database::new();
        let (id, _) = db.insert(p, &[a]);
        assert_eq!(db.lookup(p, &[a]), Some(id));
        assert_eq!(db.lookup(p, &[Const::Int(8)]), None);
    }

    #[test]
    fn registered_probe_tracks_appends() {
        let mut t = syms();
        let e = t.intern("edge");
        let n = |i| Const::Int(i);
        let mut db = Database::new();
        let (t12, _) = db.insert(e, &[n(1), n(2)]);
        let (t13, _) = db.insert(e, &[n(1), n(3)]);
        db.insert(e, &[n(2), n(3)]);

        // Registration backfills the existing tuples…
        db.register_index(e, &[0]);
        assert_eq!(db.probe(e, &[0], &[n(1)]), &[t12, t13]);

        // …and inserts maintain the index from then on.
        let (t14, _) = db.insert(e, &[n(1), n(4)]);
        assert_eq!(db.probe(e, &[0], &[n(1)]), &[t12, t13, t14]);
    }

    #[test]
    fn register_before_any_tuple_exists() {
        let mut t = syms();
        let e = t.intern("edge");
        let n = |i| Const::Int(i);
        let mut db = Database::new();
        db.register_index(e, &[1]);
        assert!(db.probe(e, &[1], &[n(2)]).is_empty());
        let (t12, _) = db.insert(e, &[n(1), n(2)]);
        assert_eq!(db.probe(e, &[1], &[n(2)]), &[t12]);
    }

    #[test]
    fn probe_on_multiple_columns() {
        let mut t = syms();
        let e = t.intern("edge");
        let n = |i| Const::Int(i);
        let mut db = Database::new();
        db.register_index(e, &[0, 1]);
        let (t12, _) = db.insert(e, &[n(1), n(2)]);
        db.insert(e, &[n(1), n(3)]);
        assert_eq!(db.probe(e, &[0, 1], &[n(1), n(2)]), &[t12]);
    }

    #[test]
    fn probe_unknown_predicate_is_empty() {
        let mut t = syms();
        let p = t.intern("p");
        let db = Database::new();
        assert!(db.probe(p, &[0], &[Const::Int(1)]).is_empty());
    }

    #[test]
    fn matching_scans_without_an_index() {
        let mut t = syms();
        let e = t.intern("edge");
        let n = |i| Const::Int(i);
        let mut db = Database::new();
        let (t12, _) = db.insert(e, &[n(1), n(2)]);
        let (t13, _) = db.insert(e, &[n(1), n(3)]);
        db.insert(e, &[n(2), n(3)]);
        assert_eq!(db.matching(e, &[0], &[n(1)]), vec![t12, t13]);
        // Registered path returns the same answer.
        db.register_index(e, &[0]);
        assert_eq!(db.matching(e, &[0], &[n(1)]), vec![t12, t13]);
    }

    #[test]
    fn empty_registered_relations_are_not_reported_as_predicates() {
        let mut t = syms();
        let e = t.intern("edge");
        let mut db = Database::new();
        db.register_index(e, &[0]);
        assert_eq!(db.predicates().count(), 0);
    }
}
