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
//! (see `p3-core`'s `QuerySession`). To keep concurrent workers from
//! serialising on one big lock, the intern index is split into [`SHARDS`]
//! hash-keyed shards, each behind its own `RwLock`; only the id → formula
//! table (`formulas`) is global, because ids must be allocated from a
//! single sequence. Lock order is always shard-then-formulas, and no two
//! shard locks are ever held together, so the scheme is deadlock-free.

use crate::dnf::Dnf;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of lock shards for the intern index. A power of two so the hash
/// → shard map is a mask.
pub const SHARDS: usize = 16;

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
/// `DnfId` allocation order (the call happens while the id sequence lock
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

/// A snapshot of one shard's counters and occupancy, for per-shard
/// gauges (balance across shards is what these exist to reveal).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Formulas interned via this shard's index.
    pub entries: usize,
    /// Intern lookups answered by this shard's index.
    pub intern_hits: u64,
    /// Intern lookups that inserted into this shard's index.
    pub intern_misses: u64,
}

/// Per-shard hit/miss counters (atomics so hit paths stay read-locked).
#[derive(Default)]
struct ShardCounters {
    intern_hits: AtomicU64,
    intern_misses: AtomicU64,
}

fn shard_of<T: Hash>(key: &T) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & (SHARDS - 1)
}

// Cached process-wide metric handles for the hot paths (the per-shard
// atomics above are store-local; these aggregate across stores).
fn intern_hits_metric() -> &'static p3_obs::metrics::Counter {
    p3_obs::counter!(
        "p3_prob_store_intern_hits_total",
        "DnfStore intern calls answered by the hash-cons index"
    )
}

/// A thread-safe, append-only interner of [`Dnf`] formulas. See the module
/// docs for the design rationale.
///
/// Counters are atomics so cache-hit paths never touch a write lock, and
/// all maps are hash-sharded so concurrent workers interning unrelated
/// formulas proceed without contention.
pub struct DnfStore {
    /// Global id → formula table; the only store-wide lock.
    formulas: RwLock<Vec<Arc<Dnf>>>,
    /// Hash-sharded formula → id index.
    index: [RwLock<HashMap<Arc<Dnf>, u32>>; SHARDS],
    /// Hit/miss counters, sharded like the index they describe.
    counters: [ShardCounters; SHARDS],
    /// Optional observer of new interns (the persistence journal). Lock
    /// order: formulas, then journal; set/clear take only the journal lock.
    journal: RwLock<Option<Arc<dyn InternJournal>>>,
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
        let store = Self {
            formulas: RwLock::new(Vec::new()),
            index: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            counters: std::array::from_fn(|_| ShardCounters::default()),
            journal: RwLock::new(None),
        };
        let zero = store.intern(Dnf::zero());
        let one = store.intern(Dnf::one());
        debug_assert_eq!(zero, DnfId::FALSE);
        debug_assert_eq!(one, DnfId::TRUE);
        // The two constants are structural, not client traffic.
        for shard in &store.counters {
            shard.intern_misses.store(0, Ordering::Relaxed);
        }
        // Register the hit-side family up front so a scrape lists it even
        // before any workload produces a cache hit.
        intern_hits_metric();
        store
    }

    /// Interns `dnf`, returning its stable id. Structurally equal formulas
    /// always receive the same id (and share one allocation).
    pub fn intern(&self, dnf: Dnf) -> DnfId {
        let shard_idx = shard_of(&dnf);
        let shard = &self.index[shard_idx];
        let counters = &self.counters[shard_idx];
        // Fast path: a read lock on one shard suffices for known formulas.
        {
            let index = shard.read().unwrap();
            if let Some(&id) = index.get(&dnf) {
                counters.intern_hits.fetch_add(1, Ordering::Relaxed);
                intern_hits_metric().inc();
                return DnfId(id);
            }
        }
        let mut index = shard.write().unwrap();
        if let Some(&id) = index.get(&dnf) {
            // Lost a race: someone interned it between the two locks.
            counters.intern_hits.fetch_add(1, Ordering::Relaxed);
            intern_hits_metric().inc();
            return DnfId(id);
        }
        let arc = Arc::new(dnf);
        // Id allocation is the only cross-shard step; the formulas lock is
        // taken strictly after the shard lock, never the other way round.
        let id = {
            let mut formulas = self.formulas.write().unwrap();
            let id = u32::try_from(formulas.len()).expect("DnfStore overflow");
            formulas.push(Arc::clone(&arc));
            // Journal inside the id-sequence lock: the log then receives
            // interns in exactly allocation order, which is what lets a
            // replay reproduce identical ids.
            if let Some(journal) = self.journal.read().unwrap().as_ref() {
                journal.on_intern(DnfId(id), &arc);
            }
            id
        };
        index.insert(arc, id);
        counters.intern_misses.fetch_add(1, Ordering::Relaxed);
        p3_obs::counter!(
            "p3_prob_store_intern_misses_total",
            "DnfStore intern calls that added a new formula"
        )
        .inc();
        DnfId(id)
    }

    /// The formula behind `id`. The `Arc` is shared with the store, so two
    /// equal formulas are pointer-equal: `Arc::ptr_eq(&s.get(a), &s.get(a))`.
    ///
    /// # Panics
    /// If `id` did not come from this store.
    pub fn get(&self, id: DnfId) -> Arc<Dnf> {
        Arc::clone(&self.formulas.read().unwrap()[id.index()])
    }

    /// Installs `journal` as the intern observer. Formulas already present
    /// are NOT replayed to it — persistence restores state *before*
    /// installing the journal, so nothing is double-logged.
    pub fn set_journal(&self, journal: Arc<dyn InternJournal>) {
        *self.journal.write().unwrap() = Some(journal);
    }

    /// Removes the intern observer, if any.
    pub fn clear_journal(&self) {
        *self.journal.write().unwrap() = None;
    }

    /// A point-in-time copy of every interned formula, in id order
    /// (`result[i]` is the formula behind `DnfId` `i`). Compaction walks
    /// this to rebuild a snapshot.
    pub fn export_formulas(&self) -> Vec<Arc<Dnf>> {
        self.formulas.read().unwrap().clone()
    }

    /// Number of distinct formulas interned (including the two constants).
    pub fn len(&self) -> usize {
        self.formulas.read().unwrap().len()
    }

    /// Whether only the constants are present.
    pub fn is_empty(&self) -> bool {
        self.len() <= 2
    }

    /// A snapshot of the effectiveness counters (summed across shards).
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            formulas: self.len(),
            ..StoreStats::default()
        };
        for shard in &self.counters {
            stats.intern_hits += shard.intern_hits.load(Ordering::Relaxed);
            stats.intern_misses += shard.intern_misses.load(Ordering::Relaxed);
        }
        stats
    }

    /// Per-shard counters and index occupancy, in shard order. Feeds the
    /// service's per-shard gauges; a skewed `entries` distribution means
    /// the shard hash is funnelling contention onto a few locks.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        (0..SHARDS)
            .map(|i| ShardStats {
                entries: self.index[i].read().unwrap().len(),
                intern_hits: self.counters[i].intern_hits.load(Ordering::Relaxed),
                intern_misses: self.counters[i].intern_misses.load(Ordering::Relaxed),
            })
            .collect()
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
    fn shard_stats_sum_to_store_stats() {
        let store = DnfStore::new();
        let mut prev = DnfId::FALSE;
        for i in 0..40u32 {
            let id = store.intern(Dnf::new(vec![m(&[i, i + 1])]));
            store.intern(store.get(prev).or(&store.get(id)));
            store.intern(Dnf::new(vec![m(&[i, i + 1])])); // guaranteed hit
            prev = id;
        }
        let total = store.stats();
        let shards = store.shard_stats();
        assert_eq!(shards.len(), SHARDS);
        assert_eq!(
            shards.iter().map(|s| s.intern_hits).sum::<u64>(),
            total.intern_hits
        );
        assert_eq!(
            shards.iter().map(|s| s.intern_misses).sum::<u64>(),
            total.intern_misses
        );
        assert_eq!(
            shards.iter().map(|s| s.entries).sum::<usize>(),
            total.formulas,
            "every interned formula lives in exactly one shard index"
        );
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
        struct Tape(std::sync::Mutex<Vec<(DnfId, Dnf)>>);
        impl InternJournal for Tape {
            fn on_intern(&self, id: DnfId, dnf: &Dnf) {
                self.0.lock().unwrap().push((id, dnf.clone()));
            }
        }
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
    fn ids_stay_dense_and_distinct_across_shards() {
        // Interning K distinct formulas from many threads allocates exactly
        // K consecutive ids even though the index is sharded.
        let store = DnfStore::new();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..64u32 {
                        store.intern(Dnf::new(vec![m(&[t * 64 + i])]));
                    }
                });
            }
        });
        assert_eq!(store.len(), 2 + 4 * 64);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u32 {
            for t in 0..4u32 {
                let id = store.intern(Dnf::new(vec![m(&[t * 64 + i])]));
                assert!(seen.insert(id), "duplicate id {id:?}");
                assert_eq!(*store.get(id), Dnf::new(vec![m(&[t * 64 + i])]));
            }
        }
    }
}
