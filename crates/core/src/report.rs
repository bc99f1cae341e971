//! One record per query: [`QueryReport`].
//!
//! [`QuerySession::run`] answers a [`QueryClass`] from one resolved
//! polynomial and returns, beside the [`QueryAnswer`], the report every
//! per-query view reads: the service's `profile` op and audit record,
//! `p3 explain`'s cache line and the ledger's served-mix attribution. A
//! report holds each stage's wall time and [`CacheDelta`], the answer's
//! DNF width, and the plans of the evaluations the query forced.
//!
//! Session deltas count only the session's own memo tables; store and
//! extraction-memo deltas read shared (store-wide / process-global)
//! counters, so under concurrent load they can include other queries'
//! traffic — attribution is exact when the session is driven serially.

use crate::prob_method::ProbMethod;
use crate::query::derivation::{DerivationAlgo, SufficientProvenance};
use crate::query::explanation::Explanation;
use crate::query::influence::{InfluenceEntry, InfluenceOptions};
use crate::query::modification::{ModificationOptions, ModificationPlan};
use crate::session::QuerySession;
use p3_datalog::explain::ExplainPlan;
use p3_prob::store::DnfId;
use p3_prob::Dnf;
use std::time::Instant;

/// Which query class a [`QuerySession::run`] answers.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryClass {
    /// `P[query]` under a probability backend.
    Probability(ProbMethod),
    /// Explanation Query: probability plus derivation-tree rendering.
    Explanation(ProbMethod),
    /// Derivation Query: ε-sufficient provenance.
    Derivation {
        /// Error bound ε.
        eps: f64,
        /// Search algorithm.
        algo: DerivationAlgo,
        /// Probability backend.
        method: ProbMethod,
    },
    /// Influence Query: ranked influential clauses.
    Influence(InfluenceOptions),
    /// Modification Query: reach `target` at minimal cost.
    Modification {
        /// Target probability.
        target: f64,
        /// Search options.
        opts: ModificationOptions,
    },
}

impl QueryClass {
    /// The query-class name (matches the service op classes).
    pub fn name(&self) -> &'static str {
        match self {
            QueryClass::Probability(_) => "probability",
            QueryClass::Explanation(_) => "explanation",
            QueryClass::Derivation { .. } => "derivation",
            QueryClass::Influence(_) => "influence",
            QueryClass::Modification { .. } => "modification",
        }
    }
}

/// One query class's answer, exactly as the per-class session method
/// returns it for the same polynomial.
#[derive(Debug)]
pub enum QueryAnswer {
    /// [`QuerySession::probability_of`].
    Probability(f64),
    /// Probability plus renderings from the full model (as
    /// [`P3::explain_with`](crate::P3::explain_with) produces them).
    Explanation(Explanation),
    /// [`QuerySession::sufficient_provenance_of`].
    Derivation(SufficientProvenance),
    /// [`QuerySession::influence_of`].
    Influence(Vec<InfluenceEntry>),
    /// [`QuerySession::modification_of`].
    Modification(ModificationPlan),
}

impl QueryAnswer {
    /// The answer's headline probability (`None` for influence rankings).
    pub fn probability(&self) -> Option<f64> {
        match self {
            QueryAnswer::Probability(p) => Some(*p),
            QueryAnswer::Explanation(e) => Some(e.probability),
            QueryAnswer::Derivation(s) => Some(s.probability),
            QueryAnswer::Influence(_) => None,
            QueryAnswer::Modification(plan) => Some(plan.achieved_probability),
        }
    }
}

/// Cache hit/miss counter deltas: the session memo tables, the shared
/// hash-consed `DnfStore`, and the clean-tuple extraction memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheDelta {
    /// Session memo-table hits.
    pub session_hits: u64,
    /// Session memo-table misses.
    pub session_misses: u64,
    /// Hash-cons intern hits in the shared store.
    pub store_intern_hits: u64,
    /// Hash-cons intern misses in the shared store.
    pub store_intern_misses: u64,
    /// Clean-tuple extraction-memo hits (process-global counter).
    pub extract_memo_hits: u64,
    /// Clean-tuple extraction-memo misses (process-global counter).
    pub extract_memo_misses: u64,
}

impl CacheDelta {
    /// Applies `op` field by field.
    fn zip(self, other: CacheDelta, op: impl Fn(u64, u64) -> u64) -> CacheDelta {
        CacheDelta {
            session_hits: op(self.session_hits, other.session_hits),
            session_misses: op(self.session_misses, other.session_misses),
            store_intern_hits: op(self.store_intern_hits, other.store_intern_hits),
            store_intern_misses: op(self.store_intern_misses, other.store_intern_misses),
            extract_memo_hits: op(self.extract_memo_hits, other.extract_memo_hits),
            extract_memo_misses: op(self.extract_memo_misses, other.extract_memo_misses),
        }
    }
}

/// One pipeline stage of a query: wall time plus the cache deltas taken
/// around it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stage {
    /// `parse`, `transform` (demand mode), `extract`, then the class's
    /// own stages (`render` follows `probability` for explanations).
    pub name: &'static str,
    /// Wall-clock time spent in the stage, microseconds.
    pub wall_us: u64,
    /// Counter deltas over the stage.
    pub cache: CacheDelta,
}

/// Everything one query measured, from [`QuerySession::run`] (or
/// [`QuerySession::explain`]).
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// The ground atom asked.
    pub query: String,
    /// The class answered ([`QueryClass::name`], or `explain`).
    pub class: &'static str,
    /// End-to-end wall time, microseconds.
    pub total_us: u64,
    /// The stages, in execution order. Resolution is `parse`, `transform`
    /// (demand mode only) and `extract` — or `extract` alone when the
    /// session's warm layer answers, after which `explain` looks its
    /// evaluation up as a `parse` (and `transform`) of its own.
    pub stages: Vec<Stage>,
    /// The interned polynomial the class was answered from (index 0, with
    /// zero width, when the query failed before resolving).
    pub dnf: DnfId,
    /// Monomials in that polynomial.
    pub dnf_monomials: u64,
    /// Literal occurrences across those monomials (the DNF "width").
    pub dnf_literals: u64,
    /// Plans of the evaluations this query forced — empty when cores
    /// forced earlier answered it. Their `total_cost`, `derived_tuples`
    /// and [`top_rules`](p3_datalog::explain::top_rules) are the query's
    /// evaluation cost.
    pub evaluations: Vec<ExplainPlan>,
}

impl QueryReport {
    /// Runs `f` against a fresh report for `query` and returns its outcome
    /// beside the report, stamped with the end-to-end time whether or not
    /// `f` failed: a failed query still reports the stages it ran and the
    /// evaluations it forced.
    pub(crate) fn measure<T>(
        query: &str,
        class: &'static str,
        f: impl FnOnce(&mut QueryReport) -> T,
    ) -> (T, QueryReport) {
        let started = Instant::now();
        let mut report = Self {
            query: query.to_string(),
            class,
            total_us: 0,
            stages: Vec::new(),
            dnf: DnfId::from_index(0),
            dnf_monomials: 0,
            dnf_literals: 0,
            evaluations: Vec::new(),
        };
        let out = f(&mut report);
        report.total_us = micros(started);
        (out, report)
    }

    /// Notes the polynomial the query resolved to.
    pub(crate) fn resolved(&mut self, dnf: DnfId, formula: &Dnf) {
        self.dnf = dnf;
        self.dnf_monomials = formula.len() as u64;
        self.dnf_literals = formula.literal_occurrences() as u64;
    }

    /// The cache deltas summed over every stage.
    pub fn cache(&self) -> CacheDelta {
        self.stages.iter().fold(CacheDelta::default(), |sum, s| {
            sum.zip(s.cache, u64::saturating_add)
        })
    }
}

/// Microseconds since `start`, saturating.
fn micros(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// What query resolution records as it goes: nothing on the per-class
/// session methods (no clock reads, no counter snapshots), a
/// [`QueryReport`] under `run` and `explain`.
pub(crate) trait Recorder {
    /// Runs `f` as the stage `name`.
    fn stage<R>(&mut self, session: &QuerySession, name: &'static str, f: impl FnOnce() -> R) -> R;

    /// Notes an evaluation `plan` describes, when `forced` says this query
    /// ran it.
    fn forced(&mut self, forced: bool, plan: &ExplainPlan);
}

impl Recorder for () {
    fn stage<R>(&mut self, _: &QuerySession, _: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn forced(&mut self, _: bool, _: &ExplainPlan) {}
}

impl Recorder for QueryReport {
    fn stage<R>(&mut self, session: &QuerySession, name: &'static str, f: impl FnOnce() -> R) -> R {
        let before = session.cache_counters();
        let start = Instant::now();
        let out = f();
        let wall_us = micros(start);
        let cache = session.cache_counters().zip(before, u64::saturating_sub);
        self.stages.push(Stage {
            name,
            wall_us,
            cache,
        });
        out
    }

    fn forced(&mut self, forced: bool, plan: &ExplainPlan) {
        if forced {
            self.evaluations.push(plan.clone());
        }
    }
}
