//! Shared query sessions: cross-query memoization over an immutable core.
//!
//! A [`QuerySession`] wraps a [`P3`] handle with memo tables for everything
//! the four query classes recompute when called naively:
//!
//! * **extraction** — `(tuple, options) → DnfId`, on top of the graph-level
//!   caches in [`p3_provenance::extract::Analysis`];
//! * **probability** — `(DnfId, ProbMethod) → f64` (sound for Monte-Carlo
//!   backends because estimates are deterministic per seed);
//! * **influence rankings** — `(DnfId, options) → Vec<InfluenceEntry>`;
//! * **sufficient provenance** — `(DnfId, ε, algorithm, method) → result`.
//!
//! Because the core a session caches over is immutable ([`P3`] never
//! mutates after evaluation; what-if updates build a *new* `P3`), no cache
//! here ever needs invalidation — though long-lived sessions can bound
//! table growth with [`SessionOptions::max_entries`] (second-chance
//! eviction, counted in [`SessionStats::evictions`]). Sessions are `Send + Sync` and cheap to
//! clone — clones share the caches — so one session can serve concurrent
//! queries from many threads; [`QuerySession::batch_probabilities`] does
//! exactly that with scoped worker threads.

use crate::clock_cache::ClockMap;
use crate::error::P3Error;
use crate::eval_mode::EvalMode;
use crate::persist::{self, WarmRestore};
use crate::prob_method::ProbMethod;
use crate::query::derivation::{sufficient_provenance_with, DerivationAlgo, SufficientProvenance};
use crate::query::explain::QueryExplain;
use crate::query::influence::{
    finalize_entries, influences, InfluenceEntry, InfluenceMethod, InfluenceOptions,
};
use crate::query::modification::{modification_from, ModificationOptions, ModificationPlan};
use crate::report::{CacheDelta, QueryAnswer, QueryClass, QueryReport, Recorder};
use crate::system::{DemandCore, FullCore, P3};
use p3_datalog::ast::Const;
use p3_datalog::engine::TupleId;
use p3_datalog::explain::ExplainPlan;
use p3_datalog::symbol::Symbol;
use p3_datalog::worlds;
use p3_prob::store::DnfId;
use p3_prob::{parallel, Dnf, VarId};
use p3_provenance::extract::{ExtractOptions, Extractor};
use p3_store::{Record, StorageBackend};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Hashable image of [`InfluenceOptions`] (`f64` keyed by bit pattern).
#[derive(Clone, PartialEq, Eq, Hash)]
struct InfluenceKey {
    method: InfluenceMethod,
    top_k: Option<usize>,
    preprocess_epsilon: Option<u64>,
    restrict_to: Option<Vec<VarId>>,
}

impl InfluenceKey {
    fn of(opts: &InfluenceOptions) -> Self {
        Self {
            method: opts.method,
            top_k: opts.top_k,
            preprocess_epsilon: opts.preprocess_epsilon.map(f64::to_bits),
            restrict_to: opts.restrict_to.clone(),
        }
    }
}

/// Hashable key for sufficient-provenance results.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct SufficientKey {
    eps_bits: u64,
    algo: DerivationAlgo,
    method: ProbMethod,
}

/// Options for [`QuerySession::load_program_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadOptions {
    /// Ignored: it changes neither what loads nor what a rejection says.
    /// Validation reports every error-severity finding either way.
    pub lint: bool,
    /// Session cache tuning, as for [`P3::session_with`].
    pub session: SessionOptions,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            lint: true,
            session: SessionOptions::default(),
        }
    }
}

/// Tuning knobs for a [`QuerySession`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionOptions {
    /// Cap on the number of entries **per memo table** (`None` = unbounded,
    /// the default). Long-lived sessions — e.g. the `p3-service` query
    /// server — set this so the caches stay bounded under arbitrary
    /// workloads; entries beyond the cap are reclaimed with second-chance
    /// (clock) eviction and counted in [`SessionStats::evictions`].
    pub max_entries: Option<usize>,
    /// How queries are evaluated: [`EvalMode::Naive`] forces (and then
    /// shares) one whole-program evaluation; [`EvalMode::Demand`]
    /// magic-transforms the program per queried atom and evaluates only the
    /// demanded fragment; [`EvalMode::Auto`] (the default) picks demand for
    /// recursive programs. Both modes produce identical polynomials and
    /// probabilities — see [`p3_provenance::demand`].
    pub eval_mode: EvalMode,
}

/// How a cached polynomial was obtained. Full-evaluation entries are keyed
/// by tuple id in the one shared database; demand entries are keyed by the
/// ground query atom (each demand evaluation has its own database, so its
/// tuple ids don't survive across queries).
#[derive(Clone, PartialEq, Eq, Hash)]
enum DnfKey {
    Full(TupleId),
    Demand(Symbol, Box<[Const]>),
}

/// The evaluation a query's polynomial is extracted from.
enum Evaluation<'a> {
    /// The naive whole-program evaluation.
    Full(&'a FullCore),
    /// The query's own demand evaluation.
    Demand(Arc<DemandCore>),
}

impl Evaluation<'_> {
    fn plan(&self) -> &ExplainPlan {
        match self {
            Evaluation::Full(full) => &full.plan,
            Evaluation::Demand(core) => &core.plan,
        }
    }
}

struct SessionCaches {
    /// `(resolved query, extract options) → interned polynomial`.
    dnf_ids: RwLock<ClockMap<(DnfKey, ExtractOptions), DnfId>>,
    /// `(formula, method) → P[λ]`.
    probs: RwLock<ClockMap<(DnfId, ProbMethod), f64>>,
    /// `(formula, options) → ranked influence entries`.
    influence: RwLock<ClockMap<(DnfId, InfluenceKey), Vec<InfluenceEntry>>>,
    /// `(formula, ε/algo/method) → sufficient provenance`.
    sufficient: RwLock<ClockMap<(DnfId, SufficientKey), SufficientProvenance>>,
    /// The persistence-facing mirror of `dnf_ids`, keyed by the query
    /// *string* plus depth code so entries survive a restart (tuple ids and
    /// interned symbols don't). The `bool` marks entries restored from the
    /// store, as opposed to journaled at runtime. Empty (and skipped in a
    /// handful of instructions) unless a store is attached or restored.
    warm: RwLock<HashMap<(String, u64), (DnfId, bool)>>,
    /// Memo entries restored from a store at boot.
    warm_restored: AtomicU64,
    /// The journal sink for runtime memo traffic, when persistence is on.
    persist: RwLock<Option<Arc<dyn StorageBackend>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SessionCaches {
    fn new(opts: SessionOptions) -> Self {
        let cap = opts.max_entries;
        Self {
            dnf_ids: RwLock::new(ClockMap::with_cap(cap)),
            probs: RwLock::new(ClockMap::with_cap(cap)),
            influence: RwLock::new(ClockMap::with_cap(cap)),
            sufficient: RwLock::new(ClockMap::with_cap(cap)),
            warm: RwLock::new(HashMap::new()),
            warm_restored: AtomicU64::new(0),
            persist: RwLock::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// Adapter streaming every new `DnfStore` intern into the storage backend.
/// Installed by [`QuerySession::attach_store`] *after* restore, so replayed
/// formulas are not re-journaled.
struct StoreJournal(Arc<dyn StorageBackend>);

impl p3_prob::InternJournal for StoreJournal {
    fn on_intern(&self, _id: DnfId, dnf: &Dnf) {
        // Called in id-allocation order (under the store's write lock), and
        // `append` only queues in memory — no I/O on the intern path.
        self.0.append(persist::dnf_record(dnf));
    }
}

/// Hit/miss counters across all of a session's memo tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Lookups answered from a session cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries evicted to respect [`SessionOptions::max_entries`]
    /// (always 0 for unbounded sessions).
    pub evictions: u64,
    /// Entries currently resident across all memo tables.
    pub resident: u64,
    /// Memo entries restored from a persistent store at warm boot (0 when
    /// the session booted cold). Distinguishes store-restore provenance
    /// from runtime memoization: `hits` counts both, but only a session
    /// with `warm_restored > 0` can answer its *first* occurrence of a
    /// query from cache.
    pub warm_restored: u64,
}

/// A memoizing query handle over an immutable [`P3`]. See the module docs.
#[derive(Clone)]
pub struct QuerySession {
    p3: P3,
    caches: Arc<SessionCaches>,
    /// The resolved evaluation mode (never [`EvalMode::Auto`]).
    mode: EvalMode,
}

impl QuerySession {
    pub(crate) fn new(p3: P3) -> Self {
        Self::with_options(p3, SessionOptions::default())
    }

    pub(crate) fn with_options(p3: P3, opts: SessionOptions) -> Self {
        let decision = opts.eval_mode.decide(p3.program());
        p3_obs::metrics::labeled_counter(
            "p3_eval_mode_decisions_total",
            "Session eval-mode resolutions, by resolved mode",
            &p3_obs::metrics::render_labels(&[("mode", decision.mode.as_str())]),
        )
        .inc();
        p3_obs::debug!(
            "session eval mode resolved",
            mode = decision.mode.as_str(),
            reason = decision.reason.as_str()
        );
        Self {
            p3,
            caches: Arc::new(SessionCaches::new(opts)),
            mode: decision.mode,
        }
    }

    /// The evaluation mode this session resolved to — [`EvalMode::Naive`]
    /// or [`EvalMode::Demand`], never [`EvalMode::Auto`].
    pub fn eval_mode(&self) -> EvalMode {
        self.mode
    }

    /// Loads `src` into a fresh session. A program that breaks a validity
    /// rule is rejected before evaluation starts, with *every* defect
    /// reported, each carrying a `P3xxx` code and source span.
    pub fn load_program(src: &str) -> Result<Self, P3Error> {
        Self::load_program_with(src, LoadOptions::default())
    }

    /// Like [`QuerySession::load_program`], with explicit [`LoadOptions`]
    /// (session cache tuning).
    pub fn load_program_with(src: &str, opts: LoadOptions) -> Result<Self, P3Error> {
        Ok(P3::from_source(src)?.session_with(opts.session))
    }

    /// The underlying system.
    pub fn p3(&self) -> &P3 {
        &self.p3
    }

    /// Cache effectiveness counters.
    pub fn stats(&self) -> SessionStats {
        let tables = [
            {
                let t = self.caches.dnf_ids.read().unwrap();
                (t.evictions(), t.len())
            },
            {
                let t = self.caches.probs.read().unwrap();
                (t.evictions(), t.len())
            },
            {
                let t = self.caches.influence.read().unwrap();
                (t.evictions(), t.len())
            },
            {
                let t = self.caches.sufficient.read().unwrap();
                (t.evictions(), t.len())
            },
        ];
        let warm = self.caches.warm.read().unwrap().len() as u64;
        SessionStats {
            hits: self.caches.hits.load(Ordering::Relaxed),
            misses: self.caches.misses.load(Ordering::Relaxed),
            evictions: tables.iter().map(|&(e, _)| e).sum(),
            resident: tables.iter().map(|&(_, n)| n as u64).sum::<u64>() + warm,
            warm_restored: self.caches.warm_restored.load(Ordering::Relaxed),
        }
    }

    /// Replays records recovered from a persistent store into this session:
    /// intern records rebuild the shared
    /// [`DnfStore`](p3_prob::store::DnfStore) (in allocation order, so
    /// every persisted `DnfId` stays valid), memo records land in the
    /// warm query layer and the probability cache. Re-interning is
    /// idempotent, so records duplicated between a snapshot and the log
    /// tail are harmless.
    ///
    /// Call **before** [`QuerySession::attach_store`] (nothing replayed
    /// here is journaled) and before serving traffic. Memos whose id falls
    /// outside the replayed store, or whose method tag is unknown, are
    /// counted in [`WarmRestore::skipped`] and dropped — a defense in depth
    /// on top of the store's checksums and program fingerprint.
    pub fn restore_records(&self, records: &[Record]) -> WarmRestore {
        let mut out = WarmRestore::default();
        for record in records {
            match record {
                Record::Intern { monomials } => {
                    self.p3.store.intern(persist::dnf_from_record(monomials));
                    out.formulas += 1;
                }
                Record::DnfMemo { query, depth, id } => {
                    if (*id as usize) < self.p3.store.len() {
                        self.caches.warm.write().unwrap().insert(
                            (query.clone(), *depth),
                            (DnfId::from_index(*id as usize), true),
                        );
                        out.dnf_memos += 1;
                    } else {
                        out.skipped += 1;
                    }
                }
                Record::ProbMemo { id, method, prob } => {
                    match ((*id as usize) < self.p3.store.len())
                        .then(|| persist::method_from_code(*method))
                        .flatten()
                    {
                        Some(method) => {
                            self.caches
                                .probs
                                .write()
                                .unwrap()
                                .insert((DnfId::from_index(*id as usize), method), *prob);
                            out.prob_memos += 1;
                        }
                        None => out.skipped += 1,
                    }
                }
            }
        }
        self.caches
            .warm_restored
            .fetch_add(out.memos() as u64, Ordering::Relaxed);
        out
    }

    /// Attaches `backend` as this session's journal: from now on every new
    /// store intern, every first `query → DnfId` resolution and every
    /// probability memo miss is appended to it. The caller owns durability
    /// (`backend.flush()`) and compaction
    /// ([`QuerySession::export_records`] → `backend.snapshot(..)`).
    pub fn attach_store(&self, backend: Arc<dyn StorageBackend>) {
        self.p3
            .store
            .set_journal(Arc::new(StoreJournal(Arc::clone(&backend))));
        *self.caches.persist.write().unwrap() = Some(backend);
    }

    /// Detaches the journal installed by [`QuerySession::attach_store`].
    /// Restored warm entries keep serving; new work is simply no longer
    /// persisted (used when `load-program` swaps the served program out
    /// from under a store keyed to the old one).
    pub fn detach_store(&self) {
        self.p3.store.clear_journal();
        *self.caches.persist.write().unwrap() = None;
    }

    /// The full persistable state — every interned formula in id order,
    /// then every warm query memo and memoized probability — as the record
    /// sequence a snapshot stores. Replaying the result into a fresh
    /// session over the same program reproduces identical ids and
    /// probabilities.
    pub fn export_records(&self) -> Vec<Record> {
        let formulas = self.p3.store.export_formulas();
        let mut out = Vec::with_capacity(formulas.len());
        for dnf in &formulas {
            out.push(persist::dnf_record(dnf));
        }
        for ((query, depth), (id, _)) in self.caches.warm.read().unwrap().iter() {
            out.push(Record::DnfMemo {
                query: query.clone(),
                depth: *depth,
                id: id.index() as u32,
            });
        }
        for ((id, method), p) in self.caches.probs.read().unwrap().entries() {
            out.push(Record::ProbMemo {
                id: id.index() as u32,
                method: persist::method_code(*method),
                prob: *p,
            });
        }
        out
    }

    fn hit(&self) {
        self.caches.hits.fetch_add(1, Ordering::Relaxed);
        p3_obs::counter!(
            "p3_core_session_hits_total",
            "Session memo-table lookups answered from cache"
        )
        .inc();
    }

    fn miss(&self) {
        self.caches.misses.fetch_add(1, Ordering::Relaxed);
        p3_obs::counter!(
            "p3_core_session_misses_total",
            "Session memo-table lookups that had to compute"
        )
        .inc();
    }

    /// The interned provenance polynomial of a query (unbounded depth).
    pub fn provenance_id(&self, query: &str) -> Result<DnfId, P3Error> {
        self.provenance_id_with(query, ExtractOptions::unbounded())
    }

    /// The interned provenance polynomial with explicit extraction options.
    /// Routed by the session's [`EvalMode`]; both modes intern the *same*
    /// canonical polynomial, so downstream `DnfId`-keyed caches are shared
    /// across modes.
    pub fn provenance_id_with(&self, query: &str, opts: ExtractOptions) -> Result<DnfId, P3Error> {
        Ok(self.resolve(query, opts, &mut ())?.0)
    }

    /// The one query resolver behind every path — plain queries, [`run`]
    /// and [`explain`]: the warm layer, then the evaluation the session's
    /// eval mode reads (`None` when the warm layer answered). `rec` times
    /// the stages and notes the evaluations they force.
    ///
    /// [`run`]: Self::run
    /// [`explain`]: Self::explain
    fn resolve<R: Recorder>(
        &self,
        query: &str,
        opts: ExtractOptions,
        rec: &mut R,
    ) -> Result<(DnfId, Option<Evaluation<'_>>), P3Error> {
        let depth = persist::depth_code(opts);
        // The warm layer answers before any parsing or tuple resolution:
        // entries restored from a store (or journaled earlier this run)
        // are keyed by the query string itself.
        let warm = {
            let warm = self.caches.warm.read().unwrap();
            if warm.is_empty() {
                None
            } else {
                warm.get(&(query.to_string(), depth)).copied()
            }
        };
        if let Some((id, restored)) = warm {
            rec.stage(self, "extract", || {
                self.hit();
                if restored {
                    p3_store::warm_boot_hits_metric().inc();
                }
            });
            return Ok((id, None));
        }
        let (pred, args, evaluation) = self.evaluation(query, rec)?;
        let id = rec.stage(self, "extract", || match &evaluation {
            Evaluation::Demand(core) => self.demand_dnf(query, pred, &args, core, opts),
            Evaluation::Full(_) => {
                let tuple = self
                    .p3
                    .tuple_of(pred, &args)
                    .ok_or_else(|| P3Error::NotDerivable(query.to_string()))?;
                Ok(self.tuple_dnf(tuple, opts))
            }
        })?;
        // With persistence on, mirror the memo into the warm layer and the
        // journal so the *next* process boots with it.
        if let Some(backend) = self.caches.persist.read().unwrap().as_ref() {
            let fresh = self
                .caches
                .warm
                .write()
                .unwrap()
                .insert((query.to_string(), depth), (id, false))
                .is_none();
            if fresh {
                backend.append(Record::DnfMemo {
                    query: query.to_string(),
                    depth,
                    id: id.index() as u32,
                });
            }
        }
        Ok((id, Some(evaluation)))
    }

    /// Parses `query` and forces (or reuses) the evaluation the session's
    /// eval mode answers it from: the full model, forced inside `parse`,
    /// or the query's demand core as a `transform` stage. `rec` notes the
    /// evaluation when this call ran it.
    fn evaluation<R: Recorder>(
        &self,
        query: &str,
        rec: &mut R,
    ) -> Result<(Symbol, Vec<Const>, Evaluation<'_>), P3Error> {
        let (pred, args, evaluation, forced) = match self.mode {
            EvalMode::Demand => {
                let (pred, args) = rec.stage(self, "parse", || {
                    worlds::parse_ground_query(self.p3.program(), query)
                })?;
                let (core, forced) =
                    rec.stage(self, "transform", || self.p3.demand_core(pred, &args))?;
                (pred, args, Evaluation::Demand(core), forced)
            }
            _ => rec.stage(self, "parse", || {
                let (pred, args) = worlds::parse_ground_query(self.p3.program(), query)?;
                let (full, forced) = self.p3.force_full();
                Ok::<_, P3Error>((pred, args, Evaluation::Full(full), forced))
            })?,
        };
        rec.forced(forced, evaluation.plan());
        Ok((pred, args, evaluation))
    }

    /// The interned polynomial of a tuple resolved against the **full**
    /// database (forces the full naive evaluation regardless of the
    /// session's mode — demand-mode callers resolve queries by atom, see
    /// [`QuerySession::provenance_id_with`]).
    pub fn tuple_dnf(&self, tuple: TupleId, opts: ExtractOptions) -> DnfId {
        let key = (DnfKey::Full(tuple), opts);
        if let Some(&id) = self.caches.dnf_ids.read().unwrap().get(&key) {
            self.hit();
            return id;
        }
        self.miss();
        let mut span = p3_obs::span::span("session.extract");
        span.add_field("tuple", tuple.0);
        let dnf = self.p3.extractor().polynomial(tuple, opts);
        let id = self.p3.store.intern(dnf);
        self.caches.dnf_ids.write().unwrap().insert(key, id);
        id
    }

    /// The interned polynomial of a ground query atom under demand
    /// evaluation, extracted from the projected provenance graph of the
    /// query's demand `core`.
    fn demand_dnf(
        &self,
        query: &str,
        pred: Symbol,
        args: &[Const],
        core: &DemandCore,
        opts: ExtractOptions,
    ) -> Result<DnfId, P3Error> {
        let key = (DnfKey::Demand(pred, args.to_vec().into_boxed_slice()), opts);
        if let Some(&id) = self.caches.dnf_ids.read().unwrap().get(&key) {
            self.hit();
            return Ok(id);
        }
        self.miss();
        let mut span = p3_obs::span::span("session.extract");
        span.add_field("mode", "demand");
        let tuple = core
            .tuple
            .ok_or_else(|| P3Error::NotDerivable(query.to_string()))?;
        span.add_field("tuple", tuple.0);
        let dnf = Extractor::with_analysis(&core.graph, &core.analysis).polynomial(tuple, opts);
        let id = self.p3.store.intern(dnf);
        self.caches.dnf_ids.write().unwrap().insert(key, id);
        Ok(id)
    }

    /// The formula behind an id (shared allocation with the store).
    pub fn dnf(&self, id: DnfId) -> Arc<Dnf> {
        self.p3.store.get(id)
    }

    /// The provenance polynomial of a query, via the session cache.
    pub fn provenance(&self, query: &str) -> Result<Dnf, P3Error> {
        Ok((*self.dnf(self.provenance_id(query)?)).clone())
    }

    /// The success probability of a query (unbounded extraction), memoized.
    pub fn probability(&self, query: &str, method: ProbMethod) -> Result<f64, P3Error> {
        let id = self.provenance_id(query)?;
        Ok(self.probability_of(id, method))
    }

    /// The probability of an interned formula under this session's variable
    /// table, memoized by `(id, method)`.
    pub fn probability_of(&self, id: DnfId, method: ProbMethod) -> f64 {
        if let Some(&p) = self.caches.probs.read().unwrap().get(&(id, method)) {
            self.hit();
            return p;
        }
        self.miss();
        let mut span = p3_obs::span::span("session.probability");
        span.add_field("dnf", id.index());
        let p = method.probability(&self.dnf(id), &self.p3.vars);
        self.caches.probs.write().unwrap().insert((id, method), p);
        if let Some(backend) = self.caches.persist.read().unwrap().as_ref() {
            backend.append(Record::ProbMemo {
                id: id.index() as u32,
                method: persist::method_code(method),
                prob: p,
            });
        }
        p
    }

    /// Runs an Influence Query, memoized by `(formula, options)`.
    ///
    /// On a cache miss the exact backend compiles the formula once into a
    /// [`p3_prob::Circuit`] and takes every literal's influence from one
    /// backward pass; nothing is interned into the store. On a cache hit
    /// nothing is re-extracted or re-estimated.
    pub fn influence(
        &self,
        query: &str,
        opts: &InfluenceOptions,
    ) -> Result<Vec<InfluenceEntry>, P3Error> {
        let id = self.provenance_id(query)?;
        Ok(self.influence_of(id, opts))
    }

    /// Influence Query over an interned formula.
    pub fn influence_of(&self, id: DnfId, opts: &InfluenceOptions) -> Vec<InfluenceEntry> {
        let key = InfluenceKey::of(opts);
        if let Some(hit) = self
            .caches
            .influence
            .read()
            .unwrap()
            .get(&(id, key.clone()))
        {
            self.hit();
            return hit.clone();
        }
        self.miss();
        let mut span = p3_obs::span::span("session.influence");
        span.add_field("dnf", id.index());

        // Optional §6.2 preprocessing, through the sufficient-provenance
        // cache; the backend matches the influence backend (see
        // `influence_query` for the rationale).
        let target = match opts.preprocess_epsilon {
            Some(eps) => Arc::new(
                self.sufficient_provenance_of(
                    id,
                    eps,
                    DerivationAlgo::NaiveGreedy,
                    opts.method.prob_method(),
                )
                .polynomial,
            ),
            None => self.dnf(id),
        };
        let entries = finalize_entries(influences(&target, &self.p3.vars, opts.method), opts);
        self.caches
            .influence
            .write()
            .unwrap()
            .insert((id, key), entries.clone());
        entries
    }

    /// Runs a Derivation Query, memoized by `(formula, ε, algorithm,
    /// method)`; probability evaluations inside the search go through the
    /// session probability cache.
    pub fn sufficient_provenance(
        &self,
        query: &str,
        eps: f64,
        algo: DerivationAlgo,
        method: ProbMethod,
    ) -> Result<SufficientProvenance, P3Error> {
        let id = self.provenance_id(query)?;
        Ok(self.sufficient_provenance_of(id, eps, algo, method))
    }

    /// Derivation Query over an interned formula.
    pub fn sufficient_provenance_of(
        &self,
        id: DnfId,
        eps: f64,
        algo: DerivationAlgo,
        method: ProbMethod,
    ) -> SufficientProvenance {
        let key = SufficientKey {
            eps_bits: eps.to_bits(),
            algo,
            method,
        };
        if let Some(hit) = self.caches.sufficient.read().unwrap().get(&(id, key)) {
            self.hit();
            return hit.clone();
        }
        self.miss();
        let mut span = p3_obs::span::span("session.derivation");
        span.add_field("dnf", id.index());
        let dnf = self.dnf(id);
        let result = sufficient_provenance_with(&dnf, &self.p3.vars, eps, algo, &|d| {
            self.probability_of(self.p3.store.intern(d.clone()), method)
        });
        self.caches
            .sufficient
            .write()
            .unwrap()
            .insert((id, key), result.clone());
        result
    }

    /// Runs a Modification Query. The plan search mutates a private working
    /// table. The exact backend runs on one circuit compiled for the call
    /// and touches no cache; under Monte-Carlo, only the estimate under the
    /// session's own (base) variable table is served from — and recorded
    /// in — the cache, and estimates under modified tables compute directly.
    pub fn modification(
        &self,
        query: &str,
        target: f64,
        opts: &ModificationOptions,
    ) -> Result<ModificationPlan, P3Error> {
        let id = self.provenance_id(query)?;
        Ok(self.modification_of(id, target, opts))
    }

    /// Modification Query over an interned formula.
    pub fn modification_of(
        &self,
        id: DnfId,
        target: f64,
        opts: &ModificationOptions,
    ) -> ModificationPlan {
        let base = || self.probability_of(id, opts.eval.prob_method());
        modification_from(&self.dnf(id), &self.p3.vars, target, opts, &base)
    }

    /// A reading of every counter a [`CacheDelta`] reports (absolute
    /// values; stages subtract two readings).
    pub(crate) fn cache_counters(&self) -> CacheDelta {
        let store = self.p3.store.stats();
        let (extract_memo_hits, extract_memo_misses) = p3_provenance::extract::memo_counters();
        CacheDelta {
            session_hits: self.caches.hits.load(Ordering::Relaxed),
            session_misses: self.caches.misses.load(Ordering::Relaxed),
            store_intern_hits: store.intern_hits,
            store_intern_misses: store.intern_misses,
            extract_memo_hits,
            extract_memo_misses,
        }
    }

    /// Answers one query class and reports how: the query is resolved
    /// once — through the same warm-layer-aware resolver as
    /// [`Self::provenance_id_with`], so it journals exactly as a plain
    /// query does — and the class is answered from that `DnfId` by the
    /// per-class session method. The [`QueryReport`] times each stage
    /// (`parse`, `transform` in demand mode, `extract`, then the class's
    /// own), takes one [`CacheDelta`] per stage and keeps the plans of the
    /// evaluations the query forced. It comes back whether or not the
    /// query failed: a query that is not derivable still reports the
    /// evaluation it forced to find that out.
    ///
    /// The run is a *real* run: results land in (and are served from) the
    /// session caches exactly as they would unreported, so running the
    /// same query twice shows the warm path on the second run.
    /// Explanation text and DOT render from the full model, which an
    /// explanation on a demand session therefore forces.
    pub fn run(
        &self,
        query: &str,
        class: &QueryClass,
        opts: ExtractOptions,
    ) -> (Result<QueryAnswer, P3Error>, QueryReport) {
        QueryReport::measure(query, class.name(), |report| {
            let (id, _) = self.resolve(query, opts, report)?;
            report.resolved(id, &self.dnf(id));
            Ok(match class {
                QueryClass::Probability(method) => {
                    QueryAnswer::Probability(
                        report.stage(self, "probability", || self.probability_of(id, *method)),
                    )
                }
                QueryClass::Explanation(method) => {
                    let probability =
                        report.stage(self, "probability", || self.probability_of(id, *method));
                    let (explanation, forced) = report.stage(self, "render", || {
                        let (_, forced) = self.p3.force_full();
                        let tuple = self.p3.tuple(query)?;
                        let polynomial = (*self.dnf(id)).clone();
                        let explanation =
                            self.p3
                                .explanation(query, tuple, polynomial, probability, opts);
                        Ok::<_, P3Error>((explanation, forced))
                    })?;
                    report.forced(forced, &self.p3.full().plan);
                    QueryAnswer::Explanation(explanation)
                }
                QueryClass::Derivation { eps, algo, method } => {
                    QueryAnswer::Derivation(report.stage(self, "derivation", || {
                        self.sufficient_provenance_of(id, *eps, *algo, *method)
                    }))
                }
                QueryClass::Influence(influence_opts) => {
                    QueryAnswer::Influence(
                        report.stage(self, "influence", || self.influence_of(id, influence_opts)),
                    )
                }
                QueryClass::Modification {
                    target,
                    opts: mod_opts,
                } => QueryAnswer::Modification(report.stage(self, "modification", || {
                    self.modification_of(id, *target, mod_opts)
                })),
            })
        })
    }

    /// Explains a query's evaluation cost: resolves the query through the
    /// same resolver as an unexplained run (same caches, same evaluation
    /// cores, same journaling) and returns the per-rule
    /// [`ExplainPlan`] of the evaluation
    /// that answers it, the answer's DNF shape, the call's cache deltas,
    /// and any measured P3603/P3604 recommendations the numbers justify.
    /// Like [`Self::run`], it returns its [`QueryReport`] beside the
    /// outcome, failed or not.
    ///
    /// Observation-only: explaining a query changes no answer — the DnfId
    /// it extracts and any probabilities computed afterwards are
    /// bit-identical with and without the explain call.
    pub fn explain(&self, query: &str) -> (Result<QueryExplain, P3Error>, QueryReport) {
        QueryReport::measure(query, "explain", |report| {
            let (id, evaluation) = self.resolve(query, ExtractOptions::unbounded(), report)?;
            report.resolved(id, &self.dnf(id));
            // The warm layer answers without reading an evaluation; look
            // it up (forcing it when no query has in this process).
            let evaluation = match evaluation {
                Some(evaluation) => evaluation,
                None => self.evaluation(query, report)?.2,
            };
            let (plan, shape) = report.stage(self, "explain", || {
                (evaluation.plan().clone(), self.dnf(id).shape())
            });
            Ok(QueryExplain::new(query, plan, shape, report.cache()))
        })
    }

    /// Statically analyzes this session's program: predicted per-rule
    /// costs, cardinality bounds, DNF widths and `P37xx` prediction
    /// diagnostics — all computed **without evaluating anything** (see
    /// [`p3_analyze`]). Pass a query atom to additionally predict
    /// per-query-class work for its predicate.
    ///
    /// The returned plan's rule ranking mirrors the EXPLAIN plane's
    /// measured [`ExplainPlan`] shape,
    /// so `p3 analyze --calibrate` can correlate the two row-for-row.
    /// Observation-only: analysis never touches the evaluation cores or
    /// caches, so DnfIds and probabilities are bit-identical with or
    /// without it.
    pub fn analyze(&self, query: Option<&str>) -> p3_analyze::AnalyzePlan {
        match query {
            Some(q) => p3_analyze::analyze_query(self.p3.program(), q),
            None => p3_analyze::analyze(self.p3.program()),
        }
    }

    /// Answers many probability queries concurrently over this session
    /// (`threads = 0` means [`parallel::default_threads`]). Results are in
    /// query order; all workers share this session's caches, so duplicate
    /// queries in the batch are computed once.
    pub fn batch_probabilities(
        &self,
        queries: &[&str],
        method: ProbMethod,
        threads: usize,
    ) -> Vec<Result<f64, P3Error>> {
        let threads = parallel::resolve_threads(threads).min(queries.len().max(1));
        let mut striped: Vec<Vec<(usize, Result<f64, P3Error>)>> =
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let session = self.clone();
                        scope.spawn(move |_| {
                            queries
                                .iter()
                                .enumerate()
                                .skip(t)
                                .step_by(threads)
                                .map(|(i, q)| (i, session.probability(q, method)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("batch worker panicked"))
                    .collect()
            })
            .expect("batch scope panicked");
        let mut out: Vec<Option<Result<f64, P3Error>>> = (0..queries.len()).map(|_| None).collect();
        for stripe in striped.drain(..) {
            for (i, r) in stripe {
                out[i] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every query answered"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::influence::influence_query;
    use crate::query::modification::modification_query;
    use p3_datalog::ProgramError;
    use p3_prob::McConfig;

    const ACQ: &str = r#"
        r1 0.8: know(P1,P2) :- live(P1,C), live(P2,C), P1 != P2.
        r2 0.4: know(P1,P2) :- like(P1,L), like(P2,L), P1 != P2.
        r3 0.2: know(P1,P3) :- know(P1,P2), know(P2,P3), P1 != P3.
        t1 1.0: live("Steve","DC").
        t2 1.0: live("Elena","DC").
        t3 1.0: live("Mary","NYC").
        t4 0.4: like("Steve","Veggies").
        t5 0.6: like("Elena","Veggies").
        t6 1.0: know("Ben","Steve").
    "#;

    const Q: &str = r#"know("Ben","Elena")"#;

    #[test]
    fn session_probability_matches_fresh_and_caches() {
        let p3 = P3::from_source(ACQ).unwrap();
        let session = p3.session();
        let fresh = p3.probability(Q, ProbMethod::Exact).unwrap();
        let first = session.probability(Q, ProbMethod::Exact).unwrap();
        assert_eq!(first, fresh);
        let misses_after_first = session.stats().misses;
        let second = session.probability(Q, ProbMethod::Exact).unwrap();
        assert_eq!(second, first);
        assert_eq!(
            session.stats().misses,
            misses_after_first,
            "pure cache hits"
        );
        assert!(session.stats().hits >= 2, "extraction + probability hits");
    }

    #[test]
    fn session_influence_matches_direct_query() {
        let p3 = P3::from_source(ACQ).unwrap();
        let session = p3.session();
        let dnf = p3.provenance(Q).unwrap();
        for method in [
            InfluenceMethod::Exact,
            InfluenceMethod::Mc(McConfig {
                samples: 50_000,
                seed: 3,
            }),
        ] {
            let opts = InfluenceOptions {
                method,
                ..Default::default()
            };
            let direct = influence_query(&dnf, p3.vars(), &opts);
            let via_session = session.influence(Q, &opts).unwrap();
            assert_eq!(direct.len(), via_session.len());
            for (d, s) in direct.iter().zip(&via_session) {
                assert_eq!(d.var, s.var, "{method:?}");
                assert!((d.influence - s.influence).abs() < 1e-12, "{method:?}");
            }
        }
    }

    #[test]
    fn repeated_influence_is_a_cache_hit() {
        let p3 = P3::from_source(ACQ).unwrap();
        let session = p3.session();
        let opts = InfluenceOptions {
            method: InfluenceMethod::Exact,
            ..Default::default()
        };
        let first = session.influence(Q, &opts).unwrap();
        let misses = session.stats().misses;
        let second = session.influence(Q, &opts).unwrap();
        assert_eq!(first, second);
        assert_eq!(session.stats().misses, misses, "no recomputation");
        // A different top_k is a new ranking key, recomputed on a circuit
        // of its own, which interns nothing into the store.
        let store = p3.store().stats();
        let top1 = session
            .influence(
                Q,
                &InfluenceOptions {
                    top_k: Some(1),
                    method: InfluenceMethod::Exact,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0], first[0]);
        assert_eq!(p3.store().stats(), store, "the store is untouched");
    }

    #[test]
    fn session_sufficient_provenance_matches_direct() {
        let p3 = P3::from_source(ACQ).unwrap();
        let session = p3.session();
        let dnf = p3.provenance(Q).unwrap();
        for algo in [DerivationAlgo::NaiveGreedy, DerivationAlgo::ReSuciu] {
            let direct = crate::query::derivation::sufficient_provenance(
                &dnf,
                p3.vars(),
                0.01,
                algo,
                ProbMethod::Exact,
            );
            let s = session
                .sufficient_provenance(Q, 0.01, algo, ProbMethod::Exact)
                .unwrap();
            assert_eq!(s.polynomial, direct.polynomial, "{algo:?}");
            assert_eq!(s.probability, direct.probability, "{algo:?}");
            // Second call: cache hit.
            let misses = session.stats().misses;
            let again = session
                .sufficient_provenance(Q, 0.01, algo, ProbMethod::Exact)
                .unwrap();
            assert_eq!(again.polynomial, s.polynomial);
            assert_eq!(session.stats().misses, misses, "{algo:?}");
        }
    }

    #[test]
    fn session_modification_matches_direct() {
        let p3 = P3::from_source(ACQ).unwrap();
        let session = p3.session();
        let dnf = p3.provenance(Q).unwrap();
        let opts = ModificationOptions {
            tolerance: 1e-9,
            ..Default::default()
        };
        let direct = modification_query(&dnf, p3.vars(), 0.5, &opts);
        let s = session.modification(Q, 0.5, &opts).unwrap();
        assert_eq!(s.steps.len(), direct.steps.len());
        for (a, b) in s.steps.iter().zip(&direct.steps) {
            assert_eq!(a.var, b.var);
            assert!((a.to - b.to).abs() < 1e-12);
        }
        assert!((s.achieved_probability - direct.achieved_probability).abs() < 1e-12);
    }

    #[test]
    fn batch_matches_sequential() {
        let p3 = P3::from_source(ACQ).unwrap();
        let queries = [
            Q,
            r#"know("Ben","Steve")"#,
            r#"know("Steve","Elena")"#,
            "bogus(",
            r#"know("Mary","Elena")"#,
            Q, // duplicate: shares the first query's cache entries
        ];
        let batch = p3.batch_probabilities(&queries, ProbMethod::Exact, 4);
        assert_eq!(batch.len(), queries.len());
        for (q, r) in queries.iter().zip(&batch) {
            match p3.probability(q, ProbMethod::Exact) {
                Ok(expected) => {
                    assert_eq!(*r.as_ref().unwrap(), expected, "{q}");
                }
                Err(_) => assert!(r.is_err(), "{q}"),
            }
        }
    }

    #[test]
    fn capped_session_evicts_but_stays_correct() {
        let p3 = P3::from_source(ACQ).unwrap();
        let session = p3.session_with(SessionOptions {
            max_entries: Some(2),
            ..Default::default()
        });
        let queries = [
            Q,
            r#"know("Ben","Steve")"#,
            r#"know("Steve","Elena")"#,
            r#"know("Elena","Steve")"#,
        ];
        // Two passes over four distinct queries against a 2-entry cap:
        // eviction must kick in, and every answer must still match the
        // uncached facade.
        for _ in 0..2 {
            for q in queries {
                let expected = p3.probability(q, ProbMethod::Exact).unwrap();
                assert_eq!(session.probability(q, ProbMethod::Exact).unwrap(), expected);
            }
        }
        let stats = session.stats();
        assert!(stats.evictions > 0, "cap of 2 over 4 queries: {stats:?}");
        // Each table respects the cap.
        assert!(stats.resident <= 2 * 4, "{stats:?}");
        // An unbounded session over the same traffic never evicts.
        let unbounded = p3.session();
        for q in queries {
            unbounded.probability(q, ProbMethod::Exact).unwrap();
        }
        assert_eq!(unbounded.stats().evictions, 0);
    }

    #[test]
    fn explain_attributes_cost_in_both_modes_without_changing_answers() {
        let p3 = P3::from_source(ACQ).unwrap();
        // ACQ is recursive, so the default session explains in demand mode.
        let session = p3.session();
        assert_eq!(session.eval_mode(), EvalMode::Demand);
        let (ex, ex_report) = session.explain(Q);
        let ex = ex.unwrap();
        assert_eq!(ex.mode(), "demand");
        assert_eq!(ex.query, Q);
        assert!(ex.plan.total_cost() > 0);
        assert!(
            ex.plan.magic.is_some(),
            "demand plans report magic overhead"
        );
        // The recursive closure rule r3 does the join work in ACQ.
        assert_eq!(ex.plan.rules[0].label, "r3", "{:?}", ex.plan.rules);
        assert!(ex.plan.rules[0].recursive);
        // know(Ben,Elena) has two derivations (via r1/live and r2/like).
        assert_eq!(ex.shape.monomials, 2);
        // Explaining is observation-only: the session still answers
        // exactly as an unexplained run.
        let p = session.probability(Q, ProbMethod::Exact).unwrap();
        assert!((p - 0.16384).abs() < 1e-12);
        // Naive-mode explain carries the whole-program plan, no magic.
        let naive = p3.session_with(SessionOptions {
            eval_mode: EvalMode::Naive,
            ..Default::default()
        });
        let nex = naive.explain(Q).0.unwrap();
        assert_eq!(nex.mode(), "naive");
        assert!(nex.plan.magic.is_none());
        assert_eq!(nex.shape, ex.shape, "shape is mode-independent");
        // Renderings cover the three surfaces.
        let text = nex.render_text();
        assert!(text.contains("explain: know"), "{text}");
        assert!(text.contains("r3"), "{text}");
        let folded = nex.to_folded();
        assert!(
            folded.lines().any(|l| l.starts_with("p3;naive;r3 ")),
            "{folded}"
        );
        let json = ex.to_value().to_json();
        assert!(json.contains("\"mode\":\"demand\""), "{json}");
        assert!(json.contains("\"rule\":\"r3\""), "{json}");
        assert!(json.contains("\"magic\":{"), "{json}");
        // Second explain of the same query hits the session caches.
        let (warm, warm_report) = session.explain(Q);
        let warm = warm.unwrap();
        assert!(warm.cache.session_hits > 0, "{warm:?}");
        assert_eq!(warm.cache, warm_report.cache());
        assert!(warm_report.evaluations.is_empty(), "nothing forced warm");
        assert_eq!(ex_report.evaluations.len(), 1, "the cold explain forced it");
        assert_eq!(warm.plan.total_cost(), ex.plan.total_cost());
    }

    #[test]
    fn run_reports_stages_and_matches_the_plain_answer() {
        let p3 = P3::from_source(ACQ).unwrap();
        // ACQ is recursive, so the default (auto) session runs in demand
        // mode and the report carries a `transform` stage.
        let session = p3.session();
        assert_eq!(session.eval_mode(), EvalMode::Demand);
        let class = QueryClass::Probability(ProbMethod::Exact);
        let (answer, report) = session.run(Q, &class, ExtractOptions::unbounded());
        let answer = answer.unwrap();
        assert_eq!(report.class, "probability");
        assert_eq!(report.query, Q);
        assert!((answer.probability().unwrap() - 0.16384).abs() < 1e-12);
        let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["parse", "transform", "extract", "probability"]);
        assert_eq!((report.dnf_monomials, report.dnf_literals), (2, 10));
        // The cold run forced the query's demand evaluation.
        assert_eq!(report.evaluations.len(), 1);
        assert_eq!(report.evaluations[0].mode, "demand");
        assert!(report.evaluations[0].derived_tuples() > 0);
        // A naive session reports without the transform stage.
        let naive = p3.session_with(SessionOptions {
            eval_mode: EvalMode::Naive,
            ..Default::default()
        });
        let (naive_answer, naive_report) = naive.run(Q, &class, ExtractOptions::unbounded());
        let naive_answer = naive_answer.unwrap();
        let naive_names: Vec<&str> = naive_report.stages.iter().map(|s| s.name).collect();
        assert_eq!(naive_names, ["parse", "extract", "probability"]);
        assert_eq!(naive_answer.probability(), answer.probability());
        assert_eq!(naive_report.dnf, report.dnf);
        // The cold run misses in extract and probability; a second run of
        // the same query is served from the session caches.
        assert!(report.cache().session_misses >= 2, "{report:?}");
        let (warm_answer, warm) = session.run(Q, &class, ExtractOptions::unbounded());
        assert!(warm_answer.is_ok());
        assert_eq!(warm.cache().session_misses, 0, "{warm:?}");
        assert!(warm.cache().session_hits >= 2, "{warm:?}");
        assert!(warm.evaluations.is_empty());
    }

    #[test]
    fn run_covers_every_query_class() {
        let p3 = P3::from_source(ACQ).unwrap();
        let session = p3.session();
        let classes: Vec<(QueryClass, &str, &str)> = vec![
            (
                QueryClass::Explanation(ProbMethod::Exact),
                "explanation",
                "render",
            ),
            (
                QueryClass::Derivation {
                    eps: 0.01,
                    algo: DerivationAlgo::NaiveGreedy,
                    method: ProbMethod::Exact,
                },
                "derivation",
                "derivation",
            ),
            (
                QueryClass::Influence(InfluenceOptions {
                    method: InfluenceMethod::Exact,
                    ..Default::default()
                }),
                "influence",
                "influence",
            ),
            (
                QueryClass::Modification {
                    target: 0.5,
                    opts: ModificationOptions {
                        tolerance: 1e-9,
                        ..Default::default()
                    },
                },
                "modification",
                "modification",
            ),
        ];
        for (class, name, last_stage) in classes {
            let (answer, report) = session.run(Q, &class, ExtractOptions::unbounded());
            let answer = answer.unwrap();
            assert_eq!(report.class, name);
            assert_eq!(report.stages.last().unwrap().name, last_stage, "{name}");
            assert!(report.stages.len() >= 3, "{name}: {report:?}");
            // Influence has no single probability; every other class does.
            assert_eq!(answer.probability().is_none(), name == "influence");
        }
        // Rendering an explanation forced the full model, once.
        assert!(p3.fully_evaluated());
        // Bad queries surface the parse error, not a panic.
        let (answer, report) = session.run(
            "bogus(",
            &QueryClass::Probability(ProbMethod::Exact),
            ExtractOptions::unbounded(),
        );
        assert!(answer.is_err());
        let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["parse"]);
    }

    #[test]
    fn a_failed_query_still_reports_the_evaluation_it_forced() {
        // know(Mary,Steve) parses but is not derivable: each mode forces
        // its evaluation to find that out, and the report keeps it.
        let query = r#"know("Mary","Steve")"#;
        let class = QueryClass::Probability(ProbMethod::Exact);
        for (mode, stages) in [
            (EvalMode::Demand, &["parse", "transform", "extract"][..]),
            (EvalMode::Naive, &["parse", "extract"][..]),
        ] {
            let p3 = P3::from_source(ACQ).unwrap();
            let session = p3.session_with(SessionOptions {
                eval_mode: mode,
                ..Default::default()
            });
            let (answer, report) = session.run(query, &class, ExtractOptions::unbounded());
            assert!(
                matches!(answer, Err(P3Error::NotDerivable(_))),
                "{answer:?}"
            );
            let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
            assert_eq!(names, stages, "{mode:?}");
            assert_eq!(report.evaluations.len(), 1, "{mode:?}");
            assert!(report.evaluations[0].total_cost() > 0, "{mode:?}");
            assert_eq!(report.dnf_monomials, 0);
            // Explaining it fails the same way, after the evaluation that
            // is now cached: nothing more is forced.
            let (explained, report) = session.explain(query);
            assert!(explained.is_err());
            assert!(report.evaluations.is_empty(), "{mode:?}");
            assert_eq!(report.stages.last().unwrap().name, "extract");
        }
    }

    #[test]
    fn modification_of_honours_the_resolved_hop_limit() {
        let p3 = P3::from_source(ACQ).unwrap();
        let session = p3.session();
        let opts = ModificationOptions::default();
        // One hop cannot reach know(Ben,Elena): its polynomial is empty.
        let cut = session
            .provenance_id_with(Q, ExtractOptions::with_max_depth(1))
            .unwrap();
        let plan = session.modification_of(cut, 0.5, &opts);
        assert_eq!(plan.initial_probability, 0.0);
        let (answer, _) = session.run(
            Q,
            &QueryClass::Modification {
                target: 0.5,
                opts: opts.clone(),
            },
            ExtractOptions::with_max_depth(1),
        );
        match answer.unwrap() {
            QueryAnswer::Modification(p) => assert_eq!(p.initial_probability, 0.0),
            other => panic!("{other:?}"),
        }
        // The query-string form keeps resolving unbounded.
        let unbounded = session.modification(Q, 0.5, &opts).unwrap();
        assert!((unbounded.initial_probability - 0.16384).abs() < 1e-12);
    }

    #[test]
    fn load_program_gate_rejects_unsafe_programs_with_spanned_diagnostics() {
        let src = "t1 0.5: edge(a,b).\nr1 0.9: path(X,Y) :- edge(X,Z), Y != Z.\n";
        let err = match QuerySession::load_program(src) {
            Err(e) => e,
            Ok(_) => panic!("unsafe program must be rejected"),
        };
        match err {
            P3Error::Program(ProgramError::Invalid(diags)) => {
                assert!(!diags.is_empty());
                assert_eq!(diags[0].code, "P3101");
                let span = diags[0].span.expect("spanned");
                assert_eq!(&src[span.start..span.end], "path(X,Y)");
                assert!(diags[0].line > 0, "located");
            }
            other => panic!("expected a validation rejection, got {other}"),
        }
    }

    #[test]
    fn load_program_gate_rejects_unstratified_negation() {
        let src = "t1 0.5: p(a).\nr1 0.9: win(X) :- p(X), \\+ win(X).\n";
        let err = match QuerySession::load_program(src) {
            Err(e) => e,
            Ok(_) => panic!("unstratified program must be rejected"),
        };
        match err {
            P3Error::Program(ProgramError::Invalid(diags)) => {
                assert!(diags.iter().any(|d| d.code == "P3201"), "{diags:?}");
            }
            other => panic!("expected a validation rejection, got {other}"),
        }
    }

    #[test]
    fn load_program_reports_every_error_whatever_lint_says() {
        for lint in [true, false] {
            let opts = LoadOptions {
                lint,
                session: SessionOptions::default(),
            };
            match QuerySession::load_program_with("f(X).\ng(a) :- X != a.\n", opts) {
                Err(P3Error::Program(ProgramError::Invalid(diags))) => {
                    let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
                    assert_eq!(codes, ["P3102", "P3103", "P3101"], "lint: {lint}");
                }
                Err(other) => panic!("expected a validation rejection, got {other}"),
                Ok(_) => panic!("an invalid program loaded"),
            }
        }
    }

    #[test]
    fn load_program_accepts_clean_sources_and_answers_queries() {
        let session = QuerySession::load_program(ACQ).unwrap();
        let p = session.probability(Q, ProbMethod::Exact).unwrap();
        assert!((p - 0.16384).abs() < 1e-12);
    }

    #[test]
    fn demand_session_answers_without_forcing_full_evaluation() {
        let p3 = P3::from_source(ACQ).unwrap();
        let session = p3.session_with(SessionOptions {
            eval_mode: EvalMode::Demand,
            ..Default::default()
        });
        let p = session.probability(Q, ProbMethod::Exact).unwrap();
        assert!((p - 0.16384).abs() < 1e-12);
        assert!(
            !p3.fully_evaluated(),
            "demand queries must not materialise the full model"
        );
        assert_eq!(p3.demand_evaluations(), 1);
        // Underivable and malformed queries keep their error types.
        assert!(matches!(
            session.probability(r#"know("Mary","Elena")"#, ProbMethod::Exact),
            Err(P3Error::NotDerivable(_))
        ));
        assert!(matches!(
            session.probability("know(", ProbMethod::Exact),
            Err(P3Error::BadQuery(_))
        ));
    }

    #[test]
    fn demand_and_naive_sessions_intern_the_same_polynomial() {
        let p3 = P3::from_source(ACQ).unwrap();
        let demand = p3.session_with(SessionOptions {
            eval_mode: EvalMode::Demand,
            ..Default::default()
        });
        let naive = p3.session_with(SessionOptions {
            eval_mode: EvalMode::Naive,
            ..Default::default()
        });
        // Same canonical polynomial → same id in the shared store, so
        // DnfId-keyed caches (probability, influence, …) are shared
        // across modes.
        let d = demand.provenance_id(Q).unwrap();
        let n = naive.provenance_id(Q).unwrap();
        assert_eq!(d, n);
        // Hop limits behave identically too.
        for depth in 0..4 {
            let opts = ExtractOptions::with_max_depth(depth);
            assert_eq!(
                demand.provenance_id_with(Q, opts).unwrap(),
                naive.provenance_id_with(Q, opts).unwrap(),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn sessions_share_nothing_across_what_if_copies() {
        // A what-if copy shares the store/analysis but must not share
        // probability caches — its session is keyed to its own table.
        let p3 = P3::from_source(ACQ).unwrap();
        let r3 = p3.program().clause_by_label("r3").unwrap();
        let var = p3_provenance::vars::var_of(r3);
        let modified = p3.with_probabilities(&[(var, 1.0)]).unwrap();
        let s1 = p3.session();
        let s2 = modified.session();
        let p_orig = s1.probability(Q, ProbMethod::Exact).unwrap();
        let p_mod = s2.probability(Q, ProbMethod::Exact).unwrap();
        assert!((p_orig - 0.16384).abs() < 1e-12);
        assert!((p_mod - 0.8192).abs() < 1e-12);
    }
}
