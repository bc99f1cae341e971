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
//!
//! A database can extend a frozen [`FactBase`]: the base's tuples keep
//! their ids `0..F`, and the database's own tuples are numbered from `F`
//! on. Lookups, inserts and probes read the base first and never write it;
//! a relation with tuples on both sides lists the base's ids ahead of its
//! own, so every id list stays ascending.

use super::base::FactBase;
use crate::ast::Const;
use crate::hash::FxHashMap;
use crate::symbol::{Symbol, SymbolTable};
use std::fmt;
use std::sync::Arc;

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
///
/// In a database over a [`FactBase`], a relation the base also holds lists
/// the base's tuple ids first; its intern map and indexes cover only the
/// database's own tuples, the base answering for the rest.
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

    /// An own relation extending `base`'s relation of the same predicate:
    /// the base's ids, no own tuple yet, and an empty index for each of the
    /// base's, so inserts keep the same column sets current.
    fn extending(base: Option<&Relation>) -> Self {
        let Some(base) = base else {
            return Self::default();
        };
        Self {
            tuples: base.tuples.clone(),
            ids: FxHashMap::default(),
            indices: base
                .indices
                .keys()
                .map(|cols| (cols.clone(), Index::default()))
                .collect(),
        }
    }

    /// The index group of `key` on `cols`, or `None` when no index on
    /// `cols` is registered.
    fn group(&self, cols: &[usize], key: &[Const]) -> Option<&[TupleId]> {
        let index = self.indices.get(cols)?;
        Some(index.get(key).map_or(&[][..], Vec::as_slice))
    }
}

/// The tuple store produced by evaluation.
#[derive(Default, Clone)]
pub struct Database {
    /// The frozen fact base this database extends, if any.
    base: Option<Arc<FactBase>>,
    /// The id of the first own tuple: the base's length, 0 without one.
    first_id: u32,
    /// Own tuples, ids `first_id..`.
    tuples: Vec<StoredTuple>,
    /// Own relations.
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

    /// Creates a database extending `base`: its tuples keep their ids, and
    /// the first tuple inserted here gets id `base.len()`.
    pub fn over(base: Arc<FactBase>) -> Self {
        let first_id = u32::try_from(base.len()).expect("tuple id overflow");
        Self {
            base: Some(base),
            first_id,
            ..Self::default()
        }
    }

    fn base_db(&self) -> Option<&Database> {
        self.base.as_deref().map(FactBase::database)
    }

    /// Registers a hash index on `cols` of `pred`, backfilling any tuples
    /// already stored. Subsequent [`Self::insert`]s maintain it
    /// incrementally; [`Self::probe`] requires it. Registering twice is a
    /// no-op, as is registering the empty column set (a full scan).
    ///
    /// Over a fact base, a predicate the base holds is indexed by the base,
    /// which plans every column set a demand variant probes; registering
    /// it here changes nothing.
    pub fn register_index(&mut self, pred: Symbol, cols: &[usize]) {
        if cols.is_empty() {
            return;
        }
        if let Some(base) = self.base_db().and_then(|b| b.relations.get(&pred)) {
            debug_assert!(
                base.indices.contains_key(cols),
                "index {cols:?} is not planned in the fact base"
            );
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
                let args = &self.tuple(id).args;
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
    /// A known tuple costs one probe of its relation's intern map (and one
    /// of the base's, over a fact base); only a new one copies `args`.
    pub fn insert(&mut self, pred: Symbol, args: &[Const]) -> (TupleId, bool) {
        // The field, not `base_db`: `relations` is borrowed mutably below.
        let base = self
            .base
            .as_deref()
            .and_then(|b| b.database().relations.get(&pred));
        if let Some(&id) = base.and_then(|rel| rel.ids.get(args)) {
            return (id, false);
        }
        let rel = self
            .relations
            .entry(pred)
            .or_insert_with(|| Relation::extending(base));
        if let Some(&id) = rel.ids.get(args) {
            return (id, false);
        }
        let next = self.first_id as usize + self.tuples.len();
        let id = TupleId(u32::try_from(next).expect("tuple id overflow"));
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
    /// intern map with the borrowed arguments (and of the base's, over a
    /// fact base). The join loop calls it for every negated atom it checks.
    pub fn lookup(&self, pred: Symbol, args: &[Const]) -> Option<TupleId> {
        let own = self.relations.get(&pred).and_then(|r| r.ids.get(args));
        own.copied().or_else(|| self.base_db()?.lookup(pred, args))
    }

    /// The stored tuple for `id`.
    #[inline]
    pub fn tuple(&self, id: TupleId) -> &StoredTuple {
        match id.0.checked_sub(self.first_id) {
            Some(own) => &self.tuples[own as usize],
            None => {
                let base = self
                    .base_db()
                    .expect("ids below the first own id are base ids");
                &base.tuples[id.index()]
            }
        }
    }

    /// The relation for `pred`, if any tuple of it exists (or an index on it
    /// was registered).
    pub fn relation(&self, pred: Symbol) -> Option<&Relation> {
        self.relations
            .get(&pred)
            .or_else(|| self.base_db()?.relations.get(&pred))
    }

    /// Looks up a relation by predicate name string.
    pub fn relation_by_name(&self, name: &str) -> Option<&Relation> {
        // Scan: the number of predicates is tiny.
        let syms = self.symbols_hint.as_ref()?;
        self.relations
            .iter()
            .chain(self.base_db().into_iter().flat_map(|b| &b.relations))
            .find_map(|(sym, rel)| (syms.resolve(*sym) == name).then_some(rel))
    }

    /// Total number of stored tuples, the base's included.
    pub fn len(&self) -> usize {
        self.first_id as usize + self.tuples.len()
    }

    /// Whether no tuple is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All predicates with at least one tuple.
    pub fn predicates(&self) -> impl Iterator<Item = Symbol> + '_ {
        let base = self
            .base_db()
            .into_iter()
            .flat_map(Database::own_predicates)
            .filter(|sym| !self.relations.contains_key(sym));
        self.own_predicates().chain(base)
    }

    /// The predicates with at least one own tuple (or, for a relation the
    /// base also holds, a base one).
    fn own_predicates(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.relations
            .iter()
            .filter(|(_, rel)| !rel.tuples.is_empty())
            .map(|(&sym, _)| sym)
    }

    /// Tuples of `pred` whose columns `cols` equal `key`, via registered
    /// indexes: the base's group first, then the own one. A non-empty
    /// `cols` needs an index on every side that holds `pred`; `None` when
    /// one is missing. An empty `cols` lists the whole relation.
    fn indexed(&self, pred: Symbol, cols: &[usize], key: &[Const]) -> Option<[&[TupleId]; 2]> {
        if cols.is_empty() {
            return Some([self.relation(pred).map_or(&[][..], Relation::tuples), &[]]);
        }
        let base = match self.base_db() {
            Some(base) => base.own_group(pred, cols, key)?,
            None => &[],
        };
        Some([base, self.own_group(pred, cols, key)?])
    }

    /// The own tuples of `pred` in the group of `key` on `cols`: empty
    /// when no own relation exists, `None` when it lacks the index.
    fn own_group(&self, pred: Symbol, cols: &[usize], key: &[Const]) -> Option<&[TupleId]> {
        match self.relations.get(&pred) {
            Some(rel) => rel.group(cols, key),
            None => Some(&[]),
        }
    }

    /// Tuples of `pred` whose columns `cols` equal `key`, via registered
    /// indexes, as two ascending id lists: the base's, then the database's
    /// own (each list may be empty, and every base id precedes every own
    /// one).
    ///
    /// # Panics
    ///
    /// If `cols` is non-empty and no index on it was registered for a
    /// non-empty `pred` — the engine plans every probe it performs; ad-hoc
    /// callers should use [`Self::matching`].
    pub fn probe(&self, pred: Symbol, cols: &[usize], key: &[Const]) -> [&[TupleId]; 2] {
        debug_assert_eq!(cols.len(), key.len());
        self.indexed(pred, cols, key)
            .unwrap_or_else(|| panic!("probe on unregistered index {cols:?}"))
    }

    /// Tuples of `pred` whose columns `cols` equal `key`, using registered
    /// indexes when they exist and a relation scan otherwise.
    pub fn matching(&self, pred: Symbol, cols: &[usize], key: &[Const]) -> Vec<TupleId> {
        debug_assert_eq!(cols.len(), key.len());
        if !cols.is_empty() {
            if let Some(parts) = self.indexed(pred, cols, key) {
                return parts.concat();
            }
        }
        let Some(rel) = self.relation(pred) else {
            return Vec::new();
        };
        rel.tuples
            .iter()
            .copied()
            .filter(|&id| {
                let args = &self.tuple(id).args;
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
    use crate::program::Program;

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
        assert_eq!(db.probe(e, &[0], &[n(1)]).concat(), [t12, t13]);

        // …and inserts maintain the index from then on.
        let (t14, _) = db.insert(e, &[n(1), n(4)]);
        assert_eq!(db.probe(e, &[0], &[n(1)]).concat(), [t12, t13, t14]);
    }

    #[test]
    fn register_before_any_tuple_exists() {
        let mut t = syms();
        let e = t.intern("edge");
        let n = |i| Const::Int(i);
        let mut db = Database::new();
        db.register_index(e, &[1]);
        assert!(db.probe(e, &[1], &[n(2)]).concat().is_empty());
        let (t12, _) = db.insert(e, &[n(1), n(2)]);
        assert_eq!(db.probe(e, &[1], &[n(2)]).concat(), [t12]);
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
        assert_eq!(db.probe(e, &[0, 1], &[n(1), n(2)]).concat(), [t12]);
    }

    #[test]
    fn probe_unknown_predicate_is_empty() {
        let mut t = syms();
        let p = t.intern("p");
        let db = Database::new();
        assert!(db.probe(p, &[0], &[Const::Int(1)]).concat().is_empty());
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

    /// `k` is derived and has a fact; a demand variant of `k^bb` probes the
    /// base's `k` on column 0 and `e` on both columns.
    const MIXED: &str = "r1 1.0: k(X,Z) :- k(X,Y), e(Y,Z).
                         t1 1.0: k(1,2). t2 1.0: e(2,3). t3 1.0: e(2,4).";

    #[test]
    fn a_database_over_a_base_numbers_its_own_tuples_after_it() {
        let p = Program::parse(MIXED).unwrap();
        let (k, e) = (p.symbols().get("k").unwrap(), p.symbols().get("e").unwrap());
        let n = |i| Const::Int(i);
        let base = Arc::clone(p.fact_base());
        let mut db = Database::over(Arc::clone(&base));
        assert_eq!(db.len(), 3);
        // A base tuple is found, never inserted again.
        assert_eq!(db.insert(e, &[n(2), n(3)]), (TupleId(1), false));
        let (k13, new) = db.insert(k, &[n(1), n(3)]);
        assert_eq!((k13, new), (TupleId(3), true));
        assert_eq!(db.insert(k, &[n(1), n(3)]), (k13, false));
        assert_eq!(db.len(), 4);
        // `k` lists its base tuple ahead of its own; `e` is the base's.
        assert_eq!(db.relation(k).unwrap().tuples(), [TupleId(0), k13]);
        assert_eq!(db.relation(e).unwrap().tuples(), [TupleId(1), TupleId(2)]);
        assert_eq!(db.lookup(k, &[n(1), n(2)]), Some(TupleId(0)));
        assert_eq!(db.lookup(k, &[n(1), n(3)]), Some(k13));
        assert_eq!(db.tuple(k13).args[..], [n(1), n(3)]);
        assert_eq!(db.tuple(TupleId(2)).args[..], [n(2), n(4)]);
        let mut preds: Vec<Symbol> = db.predicates().collect();
        preds.sort();
        assert_eq!(preds, {
            let mut v = vec![k, e];
            v.sort();
            v
        });
        // The base is untouched.
        assert_eq!(base.len(), 3);
        assert_eq!(base.lookup(k, &[n(1), n(3)]), None);
    }

    #[test]
    fn probes_over_a_base_answer_the_base_ids_first() {
        let p = Program::parse(MIXED).unwrap();
        let (k, e) = (p.symbols().get("k").unwrap(), p.symbols().get("e").unwrap());
        let n = |i| Const::Int(i);
        let mut db = Database::over(Arc::clone(p.fact_base()));
        db.register_index(k, &[0]);
        db.register_index(e, &[0, 1]);
        let (k13, _) = db.insert(k, &[n(1), n(3)]);
        let (k24, _) = db.insert(k, &[n(2), n(4)]);
        let [base, own] = db.probe(k, &[0], &[n(1)]);
        assert_eq!((base, own), (&[TupleId(0)][..], &[k13][..]));
        assert_eq!(db.probe(k, &[0], &[n(2)]).concat(), [k24]);
        assert_eq!(db.probe(e, &[0, 1], &[n(2), n(4)]).concat(), [TupleId(2)]);
        assert_eq!(db.probe(k, &[], &[]).concat(), [TupleId(0), k13, k24]);
        assert_eq!(db.matching(k, &[0], &[n(1)]), [TupleId(0), k13]);
        assert_eq!(db.matching(k, &[1], &[n(2)]), [TupleId(0)]);
    }
}
