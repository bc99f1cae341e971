//! The P3 system facade: evaluate lazily with provenance, query many times.
//!
//! [`P3`] is split into cheap-to-clone `Arc` handles over an immutable
//! program plus two lazily-forced evaluation cores:
//!
//! * the **full core** — one naive bottom-up evaluation of the whole
//!   program (database, provenance graph, extraction [`Analysis`]), forced
//!   on first use by any whole-model consumer ([`P3::database`],
//!   [`P3::graph`], [`P3::explain`], …) and then shared forever;
//! * the **demand cores** — one magic-transformed, query-directed
//!   evaluation per queried atom (see [`p3_provenance::demand`]), cached by
//!   `(predicate, arguments)` and used by sessions running in
//!   [`EvalMode::Demand`](crate::EvalMode::Demand). Each runs over the
//!   program's shared fact base ([`Program::fact_base`]), which the first
//!   of them builds; loading builds nothing.
//!
//! Both cores are probability-independent, so they survive what-if updates
//! ([`P3::with_probabilities`]) intact, as do the shared structural caches
//! (the hash-consed [`DnfStore`]). Everything behind the `Arc`s is
//! immutable or internally synchronised, so `P3` is `Send + Sync`: clone it
//! into threads, or use [`P3::session`] / [`P3::batch_probabilities`] for
//! memoized concurrent querying.

use crate::error::P3Error;
use crate::prob_method::ProbMethod;
use crate::query::explanation::Explanation;
use crate::session::{QuerySession, SessionOptions};
use p3_datalog::ast::Const;
use p3_datalog::engine::{Database, TupleId};
use p3_datalog::explain::ExplainPlan;
use p3_datalog::program::Program;
use p3_datalog::symbol::Symbol;
use p3_datalog::transform::TransformError;
use p3_datalog::worlds;
use p3_prob::store::DnfStore;
use p3_prob::{Dnf, VarTable};
use p3_provenance::extract::{Analysis, ExtractOptions, Extractor};
use p3_provenance::graph::ProvGraph;
use p3_provenance::{capture, clause_vars, dot, explain, DemandStats};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// The naive whole-program evaluation: database, provenance graph and
/// extraction analysis, forced at most once per [`P3`] lineage.
pub(crate) struct FullCore {
    pub(crate) db: Database,
    pub(crate) graph: ProvGraph,
    pub(crate) analysis: Analysis,
    /// Per-rule cost attribution for the one naive evaluation.
    pub(crate) plan: ExplainPlan,
}

/// One query-directed evaluation: the demanded fragment of the model with
/// provenance already projected back onto the source program.
pub(crate) struct DemandCore {
    pub(crate) graph: ProvGraph,
    pub(crate) analysis: Analysis,
    /// The queried tuple, when derivable.
    pub(crate) tuple: Option<TupleId>,
    /// Transform + engine counters for this evaluation.
    pub(crate) stats: DemandStats,
    /// Per-rule cost attribution, projected onto source clauses.
    pub(crate) plan: ExplainPlan,
}

/// Demand evaluations are cached per ground query atom.
type DemandKey = (Symbol, Box<[Const]>);

/// A loaded PLP program with lazily-forced provenance, ready for querying.
///
/// Cloning is cheap (a handful of `Arc` bumps) and clones share the
/// evaluation cores and structural caches; see the module docs.
#[derive(Clone)]
pub struct P3 {
    pub(crate) program: Arc<Program>,
    pub(crate) vars: Arc<VarTable>,
    /// Hash-consed formula store; probability-independent.
    pub(crate) store: Arc<DnfStore>,
    /// Lazily-forced naive evaluation; probability-independent, shared
    /// across what-if copies.
    full: Arc<OnceLock<FullCore>>,
    /// Per-query demand evaluations; probability-independent, shared
    /// across what-if copies.
    demand: Arc<RwLock<HashMap<DemandKey, Arc<DemandCore>>>>,
}

impl P3 {
    /// Parses and validates `src`; evaluation is deferred to first use.
    pub fn from_source(src: &str) -> Result<Self, P3Error> {
        Self::from_program(Program::parse(src)?)
    }

    /// Wraps an already-validated program; evaluation is deferred to first
    /// use (whole-model accessors force one naive evaluation, demand-mode
    /// sessions evaluate per query).
    ///
    /// Programs using stratified negation are rejected: the engine can
    /// evaluate them, but the P3 provenance model (monotone DNF polynomials
    /// over clause variables) is only defined for negation-free programs —
    /// supporting negation is the paper's stated future work.
    pub fn from_program(program: Program) -> Result<Self, P3Error> {
        if program.has_negation() {
            return Err(P3Error::UnsupportedNegation);
        }
        let vars = clause_vars(&program);
        Ok(Self {
            program: Arc::new(program),
            vars: Arc::new(vars),
            store: Arc::new(DnfStore::new()),
            full: Arc::new(OnceLock::new()),
            demand: Arc::new(RwLock::new(HashMap::new())),
        })
    }

    /// Forces (or retrieves) the naive whole-program evaluation.
    pub(crate) fn full(&self) -> &FullCore {
        self.force_full().0
    }

    /// Like [`Self::full`], also saying whether this call is the one that
    /// ran the evaluation.
    pub(crate) fn force_full(&self) -> (&FullCore, bool) {
        let mut forced = false;
        let core = self.full.get_or_init(|| {
            forced = true;
            let (db, graph, plan) = capture::evaluate_with_provenance_plan(&self.program);
            let analysis = Analysis::new(&graph);
            FullCore {
                db,
                graph,
                analysis,
                plan,
            }
        });
        (core, forced)
    }

    /// Forces (or retrieves) the demand evaluation for one ground query,
    /// also saying whether this call is the one that ran it. The first
    /// demand evaluation of the program builds its fact base; threads that
    /// race to it wait for one build, and every later query, on this
    /// system or a what-if copy, reads the same base.
    pub(crate) fn demand_core(
        &self,
        pred: Symbol,
        args: &[Const],
    ) -> Result<(Arc<DemandCore>, bool), P3Error> {
        let key: DemandKey = (pred, args.to_vec().into_boxed_slice());
        if let Some(core) = self.demand.read().unwrap().get(&key) {
            return Ok((Arc::clone(core), false));
        }
        let eval = p3_provenance::evaluate_query_with_provenance(&self.program, pred, args)
            .map_err(|e| match e {
                TransformError::Negation => P3Error::UnsupportedNegation,
                other => P3Error::BadQuery(other.to_string()),
            })?;
        let analysis = Analysis::new(&eval.graph);
        let tuple = eval.db.lookup(pred, args);
        let core = Arc::new(DemandCore {
            graph: eval.graph,
            analysis,
            tuple,
            stats: eval.stats,
            plan: eval.plan,
        });
        // Two threads may race to evaluate the same query; the first insert
        // wins, both observe one core, and only the winner reports forcing.
        let mut demand = self.demand.write().unwrap();
        let forced = !demand.contains_key(&key);
        Ok((Arc::clone(demand.entry(key).or_insert(core)), forced))
    }

    /// How many distinct queries have been demand-evaluated on this system.
    pub fn demand_evaluations(&self) -> usize {
        self.demand.read().unwrap().len()
    }

    /// Transform + engine counters for an already demand-evaluated query
    /// (`None` when the query has not been demand-evaluated yet).
    pub fn demand_stats(&self, pred: Symbol, args: &[Const]) -> Option<DemandStats> {
        let key: DemandKey = (pred, args.to_vec().into_boxed_slice());
        self.demand.read().unwrap().get(&key).map(|c| c.stats)
    }

    /// Whether the naive whole-program evaluation has been forced yet.
    pub fn fully_evaluated(&self) -> bool {
        self.full.get().is_some()
    }

    /// Snapshots the [`ExplainPlan`] of every evaluation forced so far:
    /// the naive full core (if forced) followed by the demand cores in
    /// the order of their atoms (predicate, then arguments), so the list
    /// is the same in every process. Evaluation is never forced here — an
    /// unqueried system returns an empty vector.
    pub fn explain_plans(&self) -> Vec<ExplainPlan> {
        let demand = self.demand.read().unwrap();
        let mut cores: Vec<_> = demand.iter().collect();
        cores.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let full = self.full.get().map(|full| &full.plan);
        full.into_iter()
            .chain(cores.into_iter().map(|(_, core)| &core.plan))
            .cloned()
            .collect()
    }

    /// Opens a query session: a cheap handle with memo tables for
    /// extraction results, probabilities and whole query answers, all keyed
    /// through the shared [`DnfStore`]. Sessions can be cloned into threads
    /// (clones share their caches) and never need invalidation — the core
    /// they cache over is immutable.
    pub fn session(&self) -> QuerySession {
        QuerySession::new(self.clone())
    }

    /// Like [`P3::session`], but with explicit [`SessionOptions`] — e.g. a
    /// `max_entries` cap so a long-lived session's memo tables stay
    /// bounded, or an explicit [`EvalMode`](crate::EvalMode) (the default,
    /// `auto`, picks demand evaluation for recursive programs).
    pub fn session_with(&self, opts: SessionOptions) -> QuerySession {
        QuerySession::with_options(self.clone(), opts)
    }

    /// Answers many probability queries concurrently using scoped worker
    /// threads over one shared session. Results are in query order; each
    /// query fails or succeeds independently.
    ///
    /// `threads = 0` means "auto" — the `P3_THREADS` environment variable
    /// if set (itself honouring the same `0 = auto` convention; non-numeric
    /// values are rejected), else the available cores capped at 16. See
    /// [`p3_prob::parallel::default_threads`].
    pub fn batch_probabilities(
        &self,
        queries: &[&str],
        method: ProbMethod,
        threads: usize,
    ) -> Vec<Result<f64, P3Error>> {
        self.session().batch_probabilities(queries, method, threads)
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The evaluated database (all derivable tuples). Forces the full
    /// naive evaluation.
    pub fn database(&self) -> &Database {
        &self.full().db
    }

    /// The captured provenance graph. Forces the full naive evaluation.
    pub fn graph(&self) -> &ProvGraph {
        &self.full().graph
    }

    /// The clause-variable table (one Boolean variable per clause).
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// Resolves a ground-atom query string (e.g. `know("Ben","Elena")`) to
    /// the tuple id it denotes in the full database.
    pub fn tuple(&self, query: &str) -> Result<TupleId, P3Error> {
        let (pred, args) = worlds::parse_ground_query(&self.program, query)?;
        self.tuple_of(pred, &args)
            .ok_or_else(|| P3Error::NotDerivable(query.to_string()))
    }

    /// Resolves a predicate + constant arguments to a full-database tuple
    /// id.
    pub fn tuple_of(&self, pred: Symbol, args: &[Const]) -> Option<TupleId> {
        self.full().db.lookup(pred, args)
    }

    /// Extracts the provenance polynomial of a queried tuple (unbounded
    /// depth; use [`Self::provenance_with`] for hop limits).
    pub fn provenance(&self, query: &str) -> Result<Dnf, P3Error> {
        self.provenance_with(query, ExtractOptions::unbounded())
    }

    /// Extracts the provenance polynomial with explicit extraction options.
    pub fn provenance_with(&self, query: &str, opts: ExtractOptions) -> Result<Dnf, P3Error> {
        let tuple = self.tuple(query)?;
        Ok(self.extractor().polynomial(tuple, opts))
    }

    /// Builds an extractor sharing this system's [`Analysis`], so repeated
    /// polynomial extraction — across extractors, sessions and threads —
    /// hits the same memo caches. Forces the full naive evaluation.
    pub fn extractor(&self) -> Extractor<'_> {
        let full = self.full();
        Extractor::with_analysis(&full.graph, &full.analysis)
    }

    /// The shared hash-consed formula store.
    pub fn store(&self) -> &DnfStore {
        &self.store
    }

    /// The shared extraction analysis (cycle structure + memo caches).
    /// Forces the full naive evaluation.
    pub fn analysis(&self) -> &Analysis {
        &self.full().analysis
    }

    /// The success probability of a queried tuple, using `method`.
    pub fn probability(&self, query: &str, method: ProbMethod) -> Result<f64, P3Error> {
        let dnf = self.provenance(query)?;
        Ok(method.probability(&dnf, &self.vars))
    }

    /// Runs an **Explanation Query** (§4.1): the complete derivations of
    /// the queried tuple plus its success probability.
    ///
    /// Uses exact probability (the polynomials users explain are small); use
    /// [`Self::explain_with`] to choose another method or a hop limit.
    pub fn explain(&self, query: &str) -> Result<Explanation, P3Error> {
        self.explain_with(query, ProbMethod::Exact, ExtractOptions::unbounded())
    }

    /// Explanation query with explicit probability method and extraction
    /// options.
    pub fn explain_with(
        &self,
        query: &str,
        method: ProbMethod,
        opts: ExtractOptions,
    ) -> Result<Explanation, P3Error> {
        let tuple = self.tuple(query)?;
        let polynomial = self.extractor().polynomial(tuple, opts);
        let probability = method.probability(&polynomial, &self.vars);
        Ok(self.explanation(query, tuple, polynomial, probability, opts))
    }

    /// Bundles an explanation of a full-model `tuple`, rendering its
    /// derivation tree and provenance subgraph from the full model (so the
    /// renderings are the same whichever eval mode extracted `polynomial`).
    pub(crate) fn explanation(
        &self,
        query: &str,
        tuple: TupleId,
        polynomial: Dnf,
        probability: f64,
        opts: ExtractOptions,
    ) -> Explanation {
        let full = self.full();
        let text = explain::explain(&full.graph, &full.db, &self.program, tuple, opts.max_depth);
        let dot = dot::to_dot(&full.graph, &full.db, &self.program, tuple);
        Explanation {
            query: query.to_string(),
            tuple,
            num_derivations: polynomial.len(),
            polynomial,
            probability,
            text,
            dot,
        }
    }

    /// Renders the polynomial with clause labels (debugging aid).
    pub fn render_polynomial(&self, dnf: &Dnf) -> String {
        format!("{}", dnf.display(&self.vars))
    }

    /// What-if analysis: returns a copy of this system with some clause
    /// probabilities replaced, **without re-evaluating the program**.
    ///
    /// Sound because derivability (and hence the provenance graph) does not
    /// depend on probabilities — only the variable table changes. This is
    /// how a Modification Query's plan is applied cheaply; compare with
    /// re-parsing and re-running the modified program, which produces the
    /// same probabilities at fixpoint cost.
    pub fn with_probabilities(&self, changes: &[(p3_prob::VarId, f64)]) -> Result<Self, P3Error> {
        let mut program = (*self.program).clone();
        let mut vars = (*self.vars).clone();
        for &(var, prob) in changes {
            program = program.with_probability(p3_provenance::vars::clause_of(var), prob)?;
            vars.set_prob(var, prob);
        }
        // The evaluation cores and formula store are all
        // probability-independent, so the copy shares them.
        Ok(Self {
            program: Arc::new(program),
            vars: Arc::new(vars),
            store: Arc::clone(&self.store),
            full: Arc::clone(&self.full),
            demand: Arc::clone(&self.demand),
        })
    }

    /// Applies a [`crate::ModificationPlan`]'s steps as a what-if update.
    pub fn apply_plan(&self, plan: &crate::ModificationPlan) -> Result<Self, P3Error> {
        let changes: Vec<(p3_prob::VarId, f64)> =
            plan.steps.iter().map(|s| (s.var, s.to)).collect();
        self.with_probabilities(&changes)
    }

    /// The success probability of **every** tuple of a relation, sorted by
    /// descending probability — the "set of answers with confidence
    /// scores" view the VQA case study ranks over (§5.1).
    ///
    /// Returns `(tuple, rendered atom, probability)` triples. Extraction is
    /// shared across tuples via one [`Extractor`]. Forces the full naive
    /// evaluation (the query names a whole relation, not one atom).
    pub fn relation_probabilities(
        &self,
        pred_name: &str,
        method: ProbMethod,
        opts: ExtractOptions,
    ) -> Vec<(TupleId, String, f64)> {
        let Some(pred) = self.program.symbols().get(pred_name) else {
            return Vec::new();
        };
        let full = self.full();
        let Some(rel) = full.db.relation(pred) else {
            return Vec::new();
        };
        let extractor = self.extractor();
        let syms = self.program.symbols();
        let mut out: Vec<(TupleId, String, f64)> = rel
            .tuples()
            .iter()
            .map(|&t| {
                let dnf = extractor.polynomial(t, opts);
                let p = method.probability(&dnf, &self.vars);
                (t, format!("{}", full.db.display_tuple(t, syms)), p)
            })
            .collect();
        out.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn probability_of_the_running_example() {
        let p3 = P3::from_source(ACQ).unwrap();
        let p = p3
            .probability(r#"know("Ben","Elena")"#, ProbMethod::Exact)
            .unwrap();
        assert!((p - 0.16384).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn evaluation_is_lazy_and_forced_once() {
        let p3 = P3::from_source(ACQ).unwrap();
        assert!(!p3.fully_evaluated(), "loading must not evaluate");
        let copy = p3.clone();
        let _ = p3.database();
        assert!(p3.fully_evaluated());
        assert!(copy.fully_evaluated(), "clones share the forced core");
        // Demand evaluations are independent of the full core.
        assert_eq!(p3.demand_evaluations(), 0);
        let (pred, args) =
            worlds::parse_ground_query(p3.program(), r#"know("Ben","Elena")"#).unwrap();
        let (core, forced) = p3.demand_core(pred, &args).unwrap();
        assert!(core.tuple.is_some());
        assert!(forced);
        assert_eq!(p3.demand_evaluations(), 1);
        // Repeating the query hits the cache.
        let (again, forced) = p3.demand_core(pred, &args).unwrap();
        assert!(Arc::ptr_eq(&core, &again));
        assert!(!forced, "a cached core is not forced again");
        assert_eq!(copy.demand_evaluations(), 1, "cache is shared");
    }

    #[test]
    fn explain_plans_accumulate_per_forced_evaluation() {
        let p3 = P3::from_source(ACQ).unwrap();
        assert!(p3.explain_plans().is_empty(), "nothing forced yet");
        let _ = p3.database();
        let plans = p3.explain_plans();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].mode, "naive");
        assert!(plans[0].total_cost() > 0);
        let (pred, args) =
            worlds::parse_ground_query(p3.program(), r#"know("Ben","Elena")"#).unwrap();
        p3.demand_core(pred, &args).unwrap();
        let plans = p3.explain_plans();
        assert_eq!(plans.len(), 2);
        assert!(plans[1].total_cost() > 0);
        // The recursive closure rule r3 does the joins; it must appear in
        // the aggregated top rules.
        let top = p3_datalog::explain::top_rules(&plans, 3);
        assert!(top.iter().any(|(l, _)| l == "r3"), "{top:?}");
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));

        // Demand plans come in atom order, whatever order forced them and
        // whatever hash keys each system's core map drew.
        let atoms = [
            r#"know("Ben","Elena")"#,
            r#"know("Steve","Elena")"#,
            r#"know("Elena","Steve")"#,
            r#"know("Ben","Steve")"#,
            r#"know("Mary","Elena")"#,
        ];
        let listed = |order: &[usize]| {
            let p3 = P3::from_source(ACQ).unwrap();
            for &i in order {
                let (pred, args) = worlds::parse_ground_query(p3.program(), atoms[i]).unwrap();
                p3.demand_core(pred, &args).unwrap();
            }
            let plans = p3.explain_plans();
            assert_eq!(plans.len(), atoms.len());
            plans
                .iter()
                .map(|p| p.to_value().to_json())
                .collect::<Vec<_>>()
        };
        let first = listed(&[0, 1, 2, 3, 4]);
        let mut distinct = first.clone();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() > 1,
            "the plans must differ for order to show"
        );
        for order in [[4, 3, 2, 1, 0], [2, 0, 4, 1, 3], [1, 3, 0, 4, 2]] {
            assert_eq!(listed(&order), first, "forced in order {order:?}");
        }
    }

    #[test]
    fn unknown_tuple_is_reported() {
        let p3 = P3::from_source(ACQ).unwrap();
        let err = p3
            .probability(r#"know("Mary","Elena")"#, ProbMethod::Exact)
            .unwrap_err();
        assert!(matches!(err, P3Error::NotDerivable(_)), "{err}");
    }

    #[test]
    fn malformed_query_is_reported() {
        let p3 = P3::from_source(ACQ).unwrap();
        let err = p3.probability("know(", ProbMethod::Exact).unwrap_err();
        assert!(matches!(err, P3Error::BadQuery(_)), "{err}");
    }

    #[test]
    fn polynomial_renders_with_labels() {
        let p3 = P3::from_source(ACQ).unwrap();
        let dnf = p3.provenance(r#"know("Ben","Elena")"#).unwrap();
        let rendered = p3.render_polynomial(&dnf);
        assert!(rendered.contains("r3"), "{rendered}");
        assert!(rendered.contains(" + "), "two derivations: {rendered}");
    }

    #[test]
    fn relation_probabilities_rank_all_tuples() {
        let p3 = P3::from_source(ACQ).unwrap();
        let ranked =
            p3.relation_probabilities("know", ProbMethod::Exact, ExtractOptions::unbounded());
        assert!(ranked.len() >= 3, "{ranked:?}");
        // Sorted descending; know(Ben,Steve) is a certain base tuple.
        assert!(ranked.windows(2).all(|w| w[0].2 >= w[1].2));
        assert_eq!(ranked[0].1, "know(\"Ben\",\"Steve\")");
        assert!((ranked[0].2 - 1.0).abs() < 1e-12);
        // Unknown relations yield empty.
        assert!(p3
            .relation_probabilities("nothing", ProbMethod::Exact, ExtractOptions::unbounded())
            .is_empty());
    }

    #[test]
    fn what_if_update_matches_full_reevaluation() {
        let p3 = P3::from_source(ACQ).unwrap();
        let r3 = p3.program().clause_by_label("r3").unwrap();
        let var = p3_provenance::vars::var_of(r3);
        let cheap = p3.with_probabilities(&[(var, 0.6104)]).unwrap();
        let p_cheap = cheap
            .probability(r#"know("Ben","Elena")"#, ProbMethod::Exact)
            .unwrap();
        // Full re-evaluation of the modified program.
        let full = P3::from_program(p3.program().with_probability(r3, 0.6104).unwrap()).unwrap();
        let p_full = full
            .probability(r#"know("Ben","Elena")"#, ProbMethod::Exact)
            .unwrap();
        assert!((p_cheap - p_full).abs() < 1e-12);
        // The original system is untouched.
        let p_orig = p3
            .probability(r#"know("Ben","Elena")"#, ProbMethod::Exact)
            .unwrap();
        assert!((p_orig - 0.16384).abs() < 1e-12);
    }

    #[test]
    fn apply_plan_reaches_the_planned_probability() {
        let p3 = P3::from_source(ACQ).unwrap();
        let dnf = p3.provenance(r#"know("Ben","Elena")"#).unwrap();
        let plan = crate::query::modification::modification_query(
            &dnf,
            p3.vars(),
            0.5,
            &crate::query::modification::ModificationOptions {
                tolerance: 1e-9,
                ..Default::default()
            },
        );
        let fixed = p3.apply_plan(&plan).unwrap();
        let p = fixed
            .probability(r#"know("Ben","Elena")"#, ProbMethod::Exact)
            .unwrap();
        assert!((p - 0.5).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn hop_limited_provenance_drops_derivations() {
        let p3 = P3::from_source(ACQ).unwrap();
        // know(Ben,Elena) needs depth 2 (r3 over r1/r2).
        let full = p3
            .provenance_with(r#"know("Ben","Elena")"#, ExtractOptions::with_max_depth(2))
            .unwrap();
        assert_eq!(full.len(), 2);
        let cut = p3
            .provenance_with(r#"know("Ben","Elena")"#, ExtractOptions::with_max_depth(1))
            .unwrap();
        assert!(cut.is_false());
    }
}
