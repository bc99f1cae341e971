//! A hash-consed store of DNF formulas.
//!
//! [`DnfStore`] interns every distinct [`Dnf`] once and hands out stable
//! [`DnfId`]s. Structurally equal formulas — however they were built — map
//! to the same id and the same `Arc<Dnf>` allocation, so:
//!
//! * equality between stored formulas is an integer compare;
//! * downstream caches (probability memo tables, extraction results) can key
//!   on `DnfId` instead of hashing whole formulas.
//!
//! The store is append-only: interning never invalidates an id, which is
//! what makes it safe to share one store across concurrent query sessions
//! (see `p3-core`'s `QuerySession`). One `RwLock` guards one table: the
//! id → formula list, the formula → id index and the intern journal. A hit
//! is one read-locked lookup; a miss allocates, journals and indexes its id
//! in one write-locked step, so ids stay dense and the journal sees new
//! formulas in id order.

use crate::dnf::Dnf;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A stable handle to an interned formula. Ids are only meaningful for the
/// store that produced them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DnfId(u32);

impl DnfId {
    /// The constant `false` formula — always id 0 in every store.
    pub const FALSE: DnfId = DnfId(0);
    /// The constant `true` formula — always id 1 in every store.
    pub const TRUE: DnfId = DnfId(1);

    /// The raw index (useful for dense side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a raw index. The caller must guarantee the
    /// index identifies a formula in the store the id will be used with —
    /// this exists for replaying persisted ids (`p3-store`), where that
    /// guarantee comes from replaying the intern log in allocation order.
    pub fn from_index(index: usize) -> DnfId {
        DnfId(u32::try_from(index).expect("DnfId overflow"))
    }
}

/// A sink observing every *new* formula interned into a [`DnfStore`], in
/// `DnfId` allocation order (the call happens while the store's write lock
/// is held, so observed order == id order — the property a durable log
/// needs to replay ids faithfully). Implementations must be cheap and
/// must never call back into the store.
pub trait InternJournal: Send + Sync {
    /// Called once per newly allocated id, never for intern cache hits.
    fn on_intern(&self, id: DnfId, dnf: &Dnf);
}

/// Counters describing store effectiveness; all monotonically increasing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct formulas interned.
    pub formulas: usize,
    /// `intern` calls that found an existing formula.
    pub intern_hits: u64,
    /// `intern` calls that added a new formula.
    pub intern_misses: u64,
}

// Process-wide intern counters, summed over every store (each store keeps
// its own pair for `stats`).
fn intern_hits_metric() -> &'static p3_obs::metrics::Counter {
    p3_obs::counter!(
        "p3_prob_store_intern_hits_total",
        "DnfStore intern calls answered by the hash-cons index"
    )
}

fn intern_misses_metric() -> &'static p3_obs::metrics::Counter {
    p3_obs::counter!(
        "p3_prob_store_intern_misses_total",
        "DnfStore intern calls that added a new formula"
    )
}

const POISONED: &str = "a thread panicked while holding the DnfStore lock";

/// Everything the store's one lock guards.
struct Table {
    /// Id → formula, in allocation order.
    formulas: Vec<Arc<Dnf>>,
    /// Formula → id.
    index: HashMap<Arc<Dnf>, DnfId>,
    /// Optional observer of new interns (the persistence journal).
    journal: Option<Arc<dyn InternJournal>>,
}

/// A thread-safe, append-only interner of [`Dnf`] formulas. See the module
/// docs for the design rationale.
///
/// The hit and miss counters are atomics, so the hit path needs only the
/// read lock.
pub struct DnfStore {
    table: RwLock<Table>,
    intern_hits: AtomicU64,
    intern_misses: AtomicU64,
}

impl Default for DnfStore {
    fn default() -> Self {
        Self::new()
    }
}

impl DnfStore {
    /// An empty store with the constants pre-interned at [`DnfId::FALSE`]
    /// and [`DnfId::TRUE`].
    pub fn new() -> Self {
        // The two constants are structural, not client traffic: no counter
        // sees them. Both counter families are registered up front so a
        // scrape lists them before any workload interns.
        intern_hits_metric();
        intern_misses_metric();
        let (zero, one) = (Arc::new(Dnf::zero()), Arc::new(Dnf::one()));
        let index = HashMap::from([
            (Arc::clone(&zero), DnfId::FALSE),
            (Arc::clone(&one), DnfId::TRUE),
        ]);
        Self {
            table: RwLock::new(Table {
                formulas: vec![zero, one],
                index,
                journal: None,
            }),
            intern_hits: AtomicU64::new(0),
            intern_misses: AtomicU64::new(0),
        }
    }

    /// Interns `dnf`, returning its stable id. Structurally equal formulas
    /// always receive the same id (and share one allocation).
    pub fn intern(&self, dnf: Dnf) -> DnfId {
        if let Some(&id) = self.table.read().expect(POISONED).index.get(&dnf) {
            return self.hit(id);
        }
        let mut guard = self.table.write().expect(POISONED);
        let table = &mut *guard;
        match table.index.entry(Arc::new(dnf)) {
            // Lost a race: another thread interned it between the two locks.
            Entry::Occupied(entry) => self.hit(*entry.get()),
            Entry::Vacant(entry) => {
                let id = DnfId(u32::try_from(table.formulas.len()).expect("DnfStore overflow"));
                table.formulas.push(Arc::clone(entry.key()));
                // Journal under the write lock: the log then receives interns
                // in exactly allocation order, which is what lets a replay
                // reproduce identical ids.
                if let Some(journal) = &table.journal {
                    journal.on_intern(id, entry.key());
                }
                entry.insert(id);
                self.intern_misses.fetch_add(1, Ordering::Relaxed);
                intern_misses_metric().inc();
                id
            }
        }
    }

    fn hit(&self, id: DnfId) -> DnfId {
        self.intern_hits.fetch_add(1, Ordering::Relaxed);
        intern_hits_metric().inc();
        id
    }

    /// The formula behind `id`. The `Arc` is shared with the store, so two
    /// equal formulas are pointer-equal: `Arc::ptr_eq(&s.get(a), &s.get(a))`.
    ///
    /// # Panics
    /// If `id` did not come from this store.
    pub fn get(&self, id: DnfId) -> Arc<Dnf> {
        Arc::clone(&self.table.read().expect(POISONED).formulas[id.index()])
    }

    /// Installs `journal` as the intern observer. Formulas already present
    /// are NOT replayed to it — persistence restores state *before*
    /// installing the journal, so nothing is double-logged.
    pub fn set_journal(&self, journal: Arc<dyn InternJournal>) {
        self.table.write().expect(POISONED).journal = Some(journal);
    }

    /// Removes the intern observer, if any.
    pub fn clear_journal(&self) {
        self.table.write().expect(POISONED).journal = None;
    }

    /// A point-in-time copy of every interned formula, in id order
    /// (`result[i]` is the formula behind `DnfId` `i`). Compaction walks
    /// this to rebuild a snapshot.
    pub fn export_formulas(&self) -> Vec<Arc<Dnf>> {
        self.table.read().expect(POISONED).formulas.clone()
    }

    /// Number of distinct formulas interned (including the two constants).
    pub fn len(&self) -> usize {
        self.table.read().expect(POISONED).formulas.len()
    }

    /// Whether only the constants are present.
    pub fn is_empty(&self) -> bool {
        self.len() <= 2
    }

    /// A snapshot of the effectiveness counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            formulas: self.len(),
            intern_hits: self.intern_hits.load(Ordering::Relaxed),
            intern_misses: self.intern_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnf::Monomial;
    use crate::var::VarId;

    fn m(lits: &[u32]) -> Monomial {
        Monomial::new(lits.iter().map(|&i| VarId(i)).collect())
    }

    /// A journal that records every call it gets.
    struct Tape(std::sync::Mutex<Vec<(DnfId, Dnf)>>);

    impl InternJournal for Tape {
        fn on_intern(&self, id: DnfId, dnf: &Dnf) {
            self.0.lock().unwrap().push((id, dnf.clone()));
        }
    }

    #[test]
    fn constants_have_fixed_ids() {
        let store = DnfStore::new();
        assert_eq!(store.intern(Dnf::zero()), DnfId::FALSE);
        assert_eq!(store.intern(Dnf::one()), DnfId::TRUE);
        assert!(store.get(DnfId::FALSE).is_false());
        assert!(store.get(DnfId::TRUE).is_true());
    }

    #[test]
    fn structurally_equal_formulas_share_an_id_and_allocation() {
        let store = DnfStore::new();
        let a = store.intern(Dnf::new(vec![m(&[1, 2]), m(&[3])]));
        // Built differently (different monomial order, pre-normal input).
        let b = store.intern(Dnf::new(vec![m(&[3]), m(&[2, 1]), m(&[1, 2, 3])]));
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&store.get(a), &store.get(b)));
        let stats = store.stats();
        assert_eq!(stats.intern_hits, 1);
    }

    #[test]
    fn concurrent_interning_converges() {
        let store = DnfStore::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..50u32 {
                        let id = store.intern(Dnf::new(vec![m(&[i % 10, 10 + i % 7])]));
                        let back = store.get(id);
                        assert_eq!(store.intern((*back).clone()), id);
                        let other = store.intern(Dnf::new(vec![m(&[20 + t])]));
                        store.intern(store.get(id).or(&store.get(other)));
                    }
                });
            }
        });
        // At most: 2 constants + 50 distinct monomial pairs + disjunctions.
        let n = store.len();
        assert!(n >= 3, "formulas were interned: {n}");
        // Re-interning everything changes nothing.
        let before = store.len();
        for i in 0..50u32 {
            store.intern(Dnf::new(vec![m(&[i % 10, 10 + i % 7])]));
        }
        assert_eq!(store.len(), before);
    }

    #[test]
    fn journal_sees_new_interns_in_id_order_and_no_hits() {
        let store = DnfStore::new();
        let pre = store.intern(Dnf::new(vec![m(&[9])])); // before the journal
        let tape = Arc::new(Tape(std::sync::Mutex::new(Vec::new())));
        store.set_journal(Arc::clone(&tape) as Arc<dyn InternJournal>);
        let a = store.intern(Dnf::new(vec![m(&[1, 2])]));
        let b = store.intern(Dnf::new(vec![m(&[3])]));
        assert_eq!(store.intern(Dnf::new(vec![m(&[1, 2])])), a); // hit: not journaled
        assert_eq!(store.intern(Dnf::new(vec![m(&[9])])), pre); // hit: not journaled
        let seen = tape.0.lock().unwrap().clone();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, a);
        assert_eq!(seen[1].0, b);
        assert_eq!(seen[0].1, *store.get(a));
        // Ids arrive in allocation order.
        assert!(seen[0].0 < seen[1].0);
        store.clear_journal();
        store.intern(Dnf::new(vec![m(&[4])]));
        assert_eq!(tape.0.lock().unwrap().len(), 2);
        // Export is in id order and covers everything incl. constants.
        let all = store.export_formulas();
        assert_eq!(all.len(), store.len());
        assert!(all[0].is_false() && all[1].is_true());
        assert_eq!(*all[a.index()], *store.get(a));
        assert_eq!(DnfId::from_index(a.index()), a);
    }

    #[test]
    fn ids_stay_dense_and_distinct() {
        // Interning K distinct formulas from many threads at once allocates
        // exactly K consecutive ids, and the journal sees each new id once,
        // in ascending order: what a warm-boot replay relies on while
        // several workers intern.
        let store = DnfStore::new();
        let tape = Arc::new(Tape(std::sync::Mutex::new(Vec::new())));
        store.set_journal(Arc::clone(&tape) as Arc<dyn InternJournal>);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..64u32 {
                        store.intern(Dnf::new(vec![m(&[t * 64 + i])]));
                    }
                });
            }
        });
        assert_eq!(store.len(), 2 + 4 * 64);
        let seen = tape.0.lock().unwrap().clone();
        let ids: Vec<usize> = seen.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, (2..2 + 4 * 64).collect::<Vec<_>>());
        for (id, dnf) in &seen {
            assert_eq!(*store.get(*id), *dnf);
        }
        let mut distinct = std::collections::HashSet::new();
        for i in 0..64u32 {
            for t in 0..4u32 {
                let id = store.intern(Dnf::new(vec![m(&[t * 64 + i])]));
                assert!(distinct.insert(id), "duplicate id {id:?}");
                assert_eq!(*store.get(id), Dnf::new(vec![m(&[t * 64 + i])]));
            }
        }
    }
}
