//! Bottom-up semi-naive evaluation.
//!
//! The engine computes the least fixpoint of a program's rules over its base
//! tuples — *derivability on the full program*, independent of clause
//! probabilities, exactly as P3 requires: probability enters only later,
//! through the provenance polynomial.
//!
//! Every rule firing (a grounding of a rule body) is reported exactly once
//! through the [`DerivationSink`] seam, including firings that re-derive an
//! already-known tuple — those are *alternative derivations* and are what
//! provenance capture exists to record.
//!
//! ## Semi-naive discipline
//!
//! Tuple ids grow monotonically, so "the database as of iteration start" is
//! a watermark on ids. For a rule body `B1,…,Bn` and a delta position `d`,
//! atoms before `d` read tuples older than the previous watermark, atom `d`
//! reads the delta between the two watermarks, and atoms after `d` read
//! everything up to the current watermark. Each grounding therefore fires at
//! exactly one `(iteration, d)`: the iteration where its newest body tuple
//! appeared, with `d` the position of that tuple. A pass whose atom `d` has
//! no tuple in the delta can fire nothing, so it is skipped before it scans
//! the atoms ahead of `d`; the passes that run keep their order.
//!
//! ## Facts
//!
//! A source program's run inserts its fact clauses first, in clause order.
//! A program derived by [`crate::transform::magic_transform`] carries no
//! fact of the source: it evaluates over the source's shared [`FactBase`]
//! ([`Program::over_base`]). Its run reports the base's facts, extends the
//! base with a fresh database and inserts only its own facts there (the
//! magic seed), so the base tuples keep the ids `0..F` the inserts would
//! have given them, the seed gets `F`, and the first iteration's delta
//! still holds every base tuple. No base tuple is inserted, hashed or
//! indexed per run.

mod base;
mod compile;
mod database;
mod eval;

pub use base::FactBase;
pub use compile::{CAtom, CConstraint, CTerm, CompiledRule};
pub use database::{Database, Relation, StoredTuple, TupleId};

use crate::ast::{ClauseId, Term};
use crate::program::Program;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Process-global switch for per-rule cost collection (the EXPLAIN plane's
/// raw data). On by default — the per-call accumulation is a handful of
/// integer adds per rule evaluation — but the overhead bench flips it off
/// to measure exactly what enabling explain costs.
static RULE_STAT_COLLECTION: AtomicBool = AtomicBool::new(true);

/// Enables or disables per-rule cost collection for subsequent runs.
pub fn set_rule_stat_collection(on: bool) {
    RULE_STAT_COLLECTION.store(on, Ordering::Relaxed);
}

/// Whether per-rule cost collection is currently enabled.
pub fn rule_stat_collection() -> bool {
    RULE_STAT_COLLECTION.load(Ordering::Relaxed)
}

/// Serialises this crate's unit tests that flip the process-global
/// collection switch or read what it gates ([`Engine::deltas`],
/// [`Engine::rule_stats`]): the harness runs tests on several threads.
/// A poisoned lock is taken anyway, so one failing test does not fail the
/// rest.
#[cfg(test)]
pub(crate) fn rule_stat_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Observes derivations during evaluation. Implemented by provenance
/// capture; [`NoopSink`] discards everything (the paper's "without
/// provenance" baseline).
pub trait DerivationSink {
    /// A base tuple `tuple` asserted by fact clause `clause`.
    ///
    /// A run over a shared [`FactBase`] reports the base's facts first,
    /// with ids below [`FactBase::len`] and the clause ids of the program
    /// the base was built from; the evaluated program's own facts follow
    /// with its own clause ids.
    fn base_fact(&mut self, clause: ClauseId, tuple: TupleId);

    /// Rule `rule` fired with ground body `body`, deriving `head`.
    ///
    /// `body` lists the tuple ids of the grounded body atoms in rule order.
    fn derived(&mut self, rule: ClauseId, head: TupleId, body: &[TupleId]);
}

/// A sink that records nothing.
pub struct NoopSink;

impl DerivationSink for NoopSink {
    #[inline]
    fn base_fact(&mut self, _clause: ClauseId, _tuple: TupleId) {}
    #[inline]
    fn derived(&mut self, _rule: ClauseId, _head: TupleId, _body: &[TupleId]) {}
}

/// Counters reported by a run.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct EngineStats {
    /// Fixpoint iterations executed.
    pub iterations: usize,
    /// Total rule firings observed (including re-derivations).
    pub firings: usize,
    /// Distinct tuples at fixpoint (base + derived).
    pub tuples: usize,
}

/// Counters for one stratum of a run.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct StratumStats {
    /// Fixpoint iterations this stratum executed.
    pub iterations: usize,
    /// Rule firings observed in this stratum.
    pub firings: usize,
    /// Tuples this stratum's rules derived.
    pub derived_tuples: usize,
}

/// Evaluation cost attributed to one compiled rule across a run — the raw
/// material of the EXPLAIN plane. Indexed like `Engine`'s compiled-rule
/// list; `clause` ties the row back to the program clause (a transformed
/// clause under demand evaluation, projected onto its source clause by
/// `explain::ExplainPlan::project_demand`).
#[derive(Clone, Debug)]
pub struct RuleStats {
    /// The program clause this rule was compiled from.
    pub clause: ClauseId,
    /// Rule firings, including re-derivations.
    pub firings: u64,
    /// Head inserts that created a previously unknown tuple.
    pub new_tuples: u64,
    /// Join fan-out: candidate tuples pulled from index probes across all
    /// body positions of the delta passes that run. A pass whose delta
    /// atom has no tuple in the delta is skipped and pulls none.
    pub candidates: u64,
    /// Fixpoint iterations in which this rule did any join work.
    pub iterations: u64,
    /// Body positions probed through a planned column index.
    pub indexed_probes: u32,
    /// Body positions scanned without an index (no bound columns).
    pub scanned_probes: u32,
}

impl RuleStats {
    /// The scalar cost used for ranking: join fan-out plus firing and
    /// insert work. Candidates dominate because each one is a tuple copy +
    /// bind attempt; firings and new tuples add head grounding and insert
    /// cost on top.
    pub fn cost(&self) -> u64 {
        self.candidates + self.firings + self.new_tuples
    }
}

/// The evaluation engine for one program.
pub struct Engine<'p> {
    program: &'p Program,
    rules: Vec<CompiledRule>,
    stats: EngineStats,
    per_stratum: Vec<StratumStats>,
    rule_stats: Vec<RuleStats>,
    /// New tuples per semi-naive iteration, across strata in run order.
    deltas: Vec<u32>,
    /// Evaluation-mode label for metrics (`naive` unless the caller runs a
    /// demand-transformed program and says so).
    mode_label: &'static str,
}

impl<'p> Engine<'p> {
    /// Compiles `program`'s rules and prepares an engine.
    pub fn new(program: &'p Program) -> Self {
        let rules = program
            .iter()
            .filter(|(_, c)| c.is_rule())
            .map(|(id, _)| CompiledRule::compile(program, id))
            .collect();
        Self {
            program,
            rules,
            stats: EngineStats::default(),
            per_stratum: Vec::new(),
            rule_stats: Vec::new(),
            deltas: Vec::new(),
            mode_label: "naive",
        }
    }

    /// Labels this run's metrics with an evaluation mode (`naive`/`demand`).
    pub fn set_mode_label(&mut self, label: &'static str) {
        self.mode_label = label;
    }

    /// Runs to fixpoint, reporting derivations to `sink`.
    pub fn run(&mut self, sink: &mut dyn DerivationSink) -> Database {
        // Over a shared base, its facts are reported in clause order ahead
        // of the program's own; the base itself is only read.
        let mut db = match self.program.over_base() {
            Some(base) => {
                for &(clause, tuple) in base.facts() {
                    sink.base_fact(clause, tuple);
                }
                Database::over(Arc::clone(base))
            }
            None => Database::new(),
        };
        db.symbols_hint = Some(self.program.symbols().clone());

        // Register the indexes planned at compile time, once, before any
        // own tuple exists; inserts keep them current for the whole run.
        // The base's relations come indexed.
        for rule in &self.rules {
            for (pred, cols) in rule.index_specs() {
                db.register_index(pred, cols);
            }
        }

        // Seed the program's own base tuples. Facts are ground by
        // validation.
        let mut args = Vec::new();
        for (id, clause) in self.program.iter() {
            if !clause.is_fact() {
                continue;
            }
            args.clear();
            args.extend(clause.head.args.iter().map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(_) => unreachable!("facts are ground"),
            }));
            let (tid, _) = db.insert(clause.head.pred, &args);
            sink.base_fact(id, tid);
        }

        // Stratified evaluation: rules run stratum by stratum (a single
        // stratum for negation-free programs), so a rule's negated
        // predicates are complete before the rule ever fires.
        let num_strata = self.program.num_strata();
        let mut by_stratum: Vec<Vec<usize>> = vec![Vec::new(); num_strata];
        for (idx, rule) in self.rules.iter().enumerate() {
            let head_pred = self.program.clause(rule.clause).head.pred;
            by_stratum[self.program.stratum(head_pred)].push(idx);
        }

        let mut span = p3_obs::span::span("datalog.run");
        let delta_hist = p3_obs::histogram!(
            "p3_datalog_delta_tuples",
            "New tuples per semi-naive iteration (the delta each pass joins against)"
        );
        let base_tuples = db.len();
        let mut iterations = 0usize;
        let mut firings = 0usize;
        let collect = rule_stat_collection();
        self.per_stratum = Vec::with_capacity(by_stratum.len());
        self.deltas = Vec::new();
        self.rule_stats = self
            .rules
            .iter()
            .map(|rule| {
                let indexed = rule.index_specs().count() as u32;
                RuleStats {
                    clause: rule.clause,
                    firings: 0,
                    new_tuples: 0,
                    candidates: 0,
                    iterations: 0,
                    indexed_probes: indexed,
                    scanned_probes: rule.body.len() as u32 - indexed,
                }
            })
            .collect();
        for stratum_rules in &by_stratum {
            let stratum_start = db.len();
            let mut stratum_stats = StratumStats::default();
            // Every tuple derived so far is "new" to this stratum's rules.
            let mut w_prev = 0u32;
            let mut w_cur = db.len() as u32;
            // Fixpoint loop. Firings on the final (no-new-tuples) pass are
            // still reported: a delta may produce only re-derivations, which
            // matter to provenance even though they add no tuples.
            while w_prev < w_cur {
                iterations += 1;
                stratum_stats.iterations += 1;
                delta_hist.observe(u64::from(w_cur - w_prev));
                if collect {
                    self.deltas.push(w_cur - w_prev);
                }
                for &rule_idx in stratum_rules {
                    let mut rule_delta = eval::EvalDelta::default();
                    for d in 0..self.rules[rule_idx].body.len() {
                        rule_delta.merge(eval::eval_rule(
                            &mut db,
                            &self.rules[rule_idx],
                            d,
                            TupleId(w_prev),
                            TupleId(w_cur),
                            sink,
                        ));
                    }
                    stratum_stats.firings += rule_delta.firings;
                    if collect {
                        let rs = &mut self.rule_stats[rule_idx];
                        rs.firings += rule_delta.firings as u64;
                        rs.candidates += rule_delta.candidates;
                        rs.new_tuples += rule_delta.new_tuples;
                        if rule_delta.work() > 0 {
                            rs.iterations += 1;
                        }
                    }
                }
                w_prev = w_cur;
                w_cur = db.len() as u32;
            }
            firings += stratum_stats.firings;
            stratum_stats.derived_tuples = db.len() - stratum_start;
            self.per_stratum.push(stratum_stats);
        }

        p3_obs::counter!(
            "p3_datalog_iterations_total",
            "Semi-naive fixpoint iterations executed"
        )
        .add(iterations as u64);
        p3_obs::counter!(
            "p3_datalog_firings_total",
            "Rule firings observed, including re-derivations"
        )
        .add(firings as u64);
        p3_obs::counter!(
            "p3_engine_strata_iterations_total",
            "Fixpoint iterations executed, summed across strata"
        )
        .add(iterations as u64);
        let mode = p3_obs::metrics::render_labels(&[("mode", self.mode_label)]);
        p3_obs::metrics::labeled_counter(
            "p3_engine_derived_tuples_total",
            "Tuples derived by rule evaluation, by evaluation mode",
            &mode,
        )
        .add((db.len() - base_tuples) as u64);
        // Per-stratum counters: stratum indexes are small and bounded by
        // the program's negation structure, so the label set stays tiny.
        for (i, s) in self.per_stratum.iter().enumerate() {
            let labels = p3_obs::metrics::render_labels(&[
                ("stratum", &i.to_string()),
                ("mode", self.mode_label),
            ]);
            p3_obs::metrics::labeled_counter(
                "p3_engine_stratum_firings_total",
                "Rule firings per stratum, by evaluation mode",
                &labels,
            )
            .add(s.firings as u64);
            p3_obs::metrics::labeled_counter(
                "p3_engine_stratum_tuples_total",
                "Tuples derived per stratum, by evaluation mode",
                &labels,
            )
            .add(s.derived_tuples as u64);
        }
        span.add_field("iterations", iterations);
        span.add_field("firings", firings);
        span.add_field("tuples", db.len());

        self.stats = EngineStats {
            iterations,
            firings,
            tuples: db.len(),
        };
        db
    }

    /// Runs to fixpoint without observing derivations.
    pub fn run_plain(&mut self) -> Database {
        self.run(&mut NoopSink)
    }

    /// Counters from the most recent run.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Per-stratum counters from the most recent run, in stratum order.
    /// Negation-free programs have a single stratum.
    pub fn stratum_stats(&self) -> &[StratumStats] {
        &self.per_stratum
    }

    /// Per-rule cost counters from the most recent run, in compiled-rule
    /// order. Empty when rule-stat collection was disabled for the run.
    pub fn rule_stats(&self) -> &[RuleStats] {
        &self.rule_stats
    }

    /// New tuples per semi-naive iteration of the most recent run, across
    /// strata in run order. Empty when collection was disabled.
    pub fn deltas(&self) -> &[u32] {
        &self.deltas
    }

    /// The evaluation-mode label of this engine (`naive`/`demand`).
    pub fn mode_label(&self) -> &'static str {
        self.mode_label
    }

    /// The program being evaluated.
    pub fn program(&self) -> &'p Program {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Const;
    use crate::program::Program;

    fn run(src: &str) -> (Program, Database, EngineStats) {
        let p = Program::parse(src).unwrap();
        let mut e = Engine::new(&p);
        let db = e.run_plain();
        let stats = e.stats();
        (p, db, stats)
    }

    fn count(p: &Program, db: &Database, pred: &str) -> usize {
        p.symbols()
            .get(pred)
            .and_then(|s| db.relation(s))
            .map(|r| r.len())
            .unwrap_or(0)
    }

    #[test]
    fn facts_only() {
        let (p, db, stats) = run("t1 0.5: p(a). t2 0.5: p(b).");
        assert_eq!(count(&p, &db, "p"), 2);
        assert_eq!(stats.firings, 0);
    }

    #[test]
    fn simple_join() {
        let (p, db, _) = run("r1 1.0: grandparent(X,Z) :- parent(X,Y), parent(Y,Z).
             parent(alice,bob). parent(bob,carol). parent(bob,dave).");
        assert_eq!(count(&p, &db, "grandparent"), 2);
    }

    #[test]
    fn transitive_closure() {
        let (p, db, _) = run("r1 1.0: path(X,Y) :- edge(X,Y).
             r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
             edge(1,2). edge(2,3). edge(3,4). edge(4,1).");
        // Cycle of 4 nodes: all 16 ordered pairs are reachable.
        assert_eq!(count(&p, &db, "path"), 16);
    }

    #[test]
    fn constraints_prune_groundings() {
        let (p, db, _) = run("r1 1.0: pair(X,Y) :- p(X), p(Y), X != Y.
             p(a). p(b). p(c).");
        assert_eq!(count(&p, &db, "pair"), 6, "3*3 minus the 3 diagonal pairs");
    }

    #[test]
    fn integer_comparison_constraints() {
        let (p, db, _) = run("r1 1.0: big(X) :- num(X), X >= 10.
             num(3). num(10). num(42).");
        assert_eq!(count(&p, &db, "big"), 2);
    }

    #[test]
    fn acquaintance_example_derives_ben_knows_elena() {
        let src = r#"
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
        let (p, db, _) = run(src);
        let know = p.symbols().get("know").unwrap();
        let ben = Const::Sym(p.symbols().get("Ben").unwrap());
        let elena = Const::Sym(p.symbols().get("Elena").unwrap());
        assert!(db.lookup(know, &[ben, elena]).is_some());
    }

    #[test]
    fn each_grounding_fires_exactly_once() {
        struct Recorder(Vec<(ClauseId, TupleId, Vec<TupleId>)>);
        impl DerivationSink for Recorder {
            fn base_fact(&mut self, _c: ClauseId, _t: TupleId) {}
            fn derived(&mut self, rule: ClauseId, head: TupleId, body: &[TupleId]) {
                self.0.push((rule, head, body.to_vec()));
            }
        }
        let p = Program::parse(
            "r1 1.0: path(X,Y) :- edge(X,Y).
             r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
             edge(1,2). edge(2,3). edge(3,1). edge(1,3).",
        )
        .unwrap();
        let mut rec = Recorder(Vec::new());
        Engine::new(&p).run(&mut rec);
        let mut seen = std::collections::HashSet::new();
        for firing in &rec.0 {
            assert!(seen.insert(firing.clone()), "duplicate firing {firing:?}");
        }
        // r1 fires once per edge.
        let r1 = p.clause_by_label("r1").unwrap();
        assert_eq!(rec.0.iter().filter(|(r, _, _)| *r == r1).count(), 4);
    }

    #[test]
    fn rederivations_are_reported() {
        struct Count(usize);
        impl DerivationSink for Count {
            fn base_fact(&mut self, _c: ClauseId, _t: TupleId) {}
            fn derived(&mut self, _r: ClauseId, _h: TupleId, _b: &[TupleId]) {
                self.0 += 1;
            }
        }
        // q(a) has two derivations; both must be observed even though the
        // tuple is inserted once.
        let p =
            Program::parse("r1 0.5: q(X) :- p1(X). r2 0.5: q(X) :- p2(X). p1(a). p2(a).").unwrap();
        let mut c = Count(0);
        let db = Engine::new(&p).run(&mut c);
        assert_eq!(c.0, 2);
        let q = p.symbols().get("q").unwrap();
        assert_eq!(db.relation(q).unwrap().len(), 1);
    }

    #[test]
    fn zero_arity_predicates() {
        let (p, db, _) = run("r1 0.3: ok() :- go(). go().");
        assert_eq!(count(&p, &db, "ok"), 1);
    }

    #[test]
    fn repeated_variables_within_an_atom_filter() {
        let (p, db, _) = run("r1 1.0: loop(X) :- edge(X,X).
             edge(1,1). edge(1,2). edge(3,3).");
        assert_eq!(count(&p, &db, "loop"), 2);
    }

    #[test]
    fn passes_with_an_empty_delta_scan_nothing() {
        // `reach` grows by one tuple per iteration while `edge` is EDB, so
        // every pass with the delta on `edge` (d = 1) after the first
        // iteration finds no `edge` tuple in its window. Those passes are
        // skipped rather than scanning every older `reach` tuple: r2 pulls
        // 2 candidates (the new reach tuple and its edge) in each of
        // iterations 2–4 and 1 in iteration 5 (reach(d) has no out-edge),
        // where scanning the empty-delta passes too would add 0 + 1 + 2 + 3.
        let src = "r1 1.0: reach(X) :- src(X).
                   r2 1.0: reach(Y) :- reach(X), edge(X,Y).
                   src(a). edge(a,b). edge(b,c). edge(c,d).";
        let p = Program::parse(src).unwrap();
        let _guard = rule_stat_lock();
        let mut e = Engine::new(&p);
        e.run_plain();
        assert_eq!(
            e.stats(),
            EngineStats {
                iterations: 5,
                firings: 4,
                tuples: 8
            }
        );
        assert_eq!(e.deltas(), &[4, 1, 1, 1, 1]);
        let rows: Vec<(u64, u64, u64, u64)> = e
            .rule_stats()
            .iter()
            .map(|r| (r.firings, r.new_tuples, r.candidates, r.iterations))
            .collect();
        assert_eq!(rows, vec![(1, 1, 1, 1), (3, 3, 7, 4)]);
    }

    #[test]
    fn stats_are_populated() {
        let src = "r1 1.0: path(X,Y) :- edge(X,Y).
                   r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
                   edge(1,2). edge(2,3).";
        let p = Program::parse(src).unwrap();
        let mut e = Engine::new(&p);
        let db = e.run_plain();
        let s = e.stats();
        assert!(s.iterations >= 2);
        assert_eq!(s.tuples, db.len());
        assert_eq!(s.firings, 3, "2 r1 firings + 1 r2 firing: {s:?}");
    }
}
