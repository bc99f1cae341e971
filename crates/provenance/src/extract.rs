//! Provenance-polynomial extraction (§3.3).
//!
//! Starting from the queried tuple, the extractor walks the provenance
//! graph downward, turning alternative derivations into `+` and conjunctive
//! rule bodies into `·`, until only base tuples and rule literals remain.
//!
//! **Cycle elimination.** A recursive program yields cycles: a derived
//! tuple that is an input to one of its own derivations. Equations 6–13 of
//! the paper show that derivations passing through the queried tuple (or,
//! recursively, through any tuple already on the current derivation path)
//! contribute nothing to the success probability — the absorption law
//! `(1 + P) · Q = Q + P·Q` collapses them. The extractor therefore skips
//! any rule execution whose body revisits a tuple on the current
//! root-to-node path, producing the acyclic polynomial `P'_E + P'_L`
//! directly. The `worlds`-oracle integration tests verify this is
//! probability-preserving.
//!
//! **Hop limits.** §6.1 bounds provenance retrieval depth ("hop limit 4").
//! [`ExtractOptions::max_depth`] caps the number of nested rule executions;
//! derivations that would exceed it are dropped.
//!
//! **Building.** The walk builds every polynomial on one
//! [`p3_prob::MonomialStack`]: a base derivation pushes its literal, a rule
//! execution multiplies `rule · body₁ · … · bodyₙ` in place, and a tuple's
//! alternatives are normalised once, when the tuple is finished. Only the
//! root's range, and the memo entries a call publishes, become [`Dnf`]s.
//!
//! **Memoisation.** Sub-polynomials of *clean* tuples — tuples whose entire
//! downward closure is acyclic — cannot interact with the path-based skip,
//! so they are cached per `(tuple, remaining-depth)`: within one call as
//! ranges of a second stack, across calls as [`Dnf`]s. Cyclic regions fall
//! back to plain path-sensitive DFS. The shared caches live in an [`Analysis`]
//! value that can be owned by one [`Extractor`] or shared (behind `Arc`)
//! across many, so a query session extracting the same subgoal from
//! different roots — or re-extracting the same root — pays for it once.

use crate::graph::{Derivation, ProvGraph};
use crate::vars::var_of;
use p3_datalog::engine::TupleId;
use p3_datalog::graph::{strongly_connected, Csr};
use p3_datalog::hash::{FxHashMap, FxHashSet};
use p3_prob::{Dnf, MonomialStack, Normalized};
use std::collections::HashMap;
use std::sync::RwLock;

/// Options controlling extraction.
///
/// `Eq`/`Hash` let results be memoized per `(tuple, options)` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ExtractOptions {
    /// Maximum number of nested rule executions; `None` means unbounded
    /// (safe: cycle elimination guarantees termination regardless).
    pub max_depth: Option<usize>,
}

impl ExtractOptions {
    /// Unbounded extraction.
    pub fn unbounded() -> Self {
        Self { max_depth: None }
    }

    /// Extraction capped at `depth` nested rule executions.
    pub fn with_max_depth(depth: usize) -> Self {
        Self {
            max_depth: Some(depth),
        }
    }
}

/// Extracts the provenance polynomial of `root` from `graph`.
///
/// Convenience wrapper around [`Extractor`]; when extracting polynomials
/// for many tuples of the same graph, build one [`Extractor`] and reuse it.
pub fn extract_polynomial(graph: &ProvGraph, root: TupleId, opts: ExtractOptions) -> Dnf {
    Extractor::new(graph).polynomial(root, opts)
}

/// The shareable per-graph extraction state: the cycle analysis plus the
/// memo caches it enables.
///
/// An `Analysis` belongs to exactly one [`ProvGraph`] (the one it was built
/// from); using it with any other graph produces garbage. It is internally
/// synchronised, so one instance may serve concurrent extractions — the
/// `p3-core` shared query core keeps one `Arc<Analysis>` next to its
/// `Arc<ProvGraph>` and every session's extractor reuses both.
pub struct Analysis {
    /// Per tuple id, whether its downward closure contains no cycle.
    clean: Vec<bool>,
    /// Sub-polynomials of clean tuples, keyed by `(tuple, remaining-depth)`
    /// (remaining depth is `usize::MAX` when unbounded).
    memo: RwLock<HashMap<(TupleId, usize), Dnf>>,
    /// Finished extractions, keyed by `(root, options)`.
    results: RwLock<HashMap<(TupleId, ExtractOptions), Dnf>>,
}

impl Analysis {
    /// Analyses `graph` (Tarjan SCC over the tuple-dependency projection)
    /// and prepares empty caches.
    pub fn new(graph: &ProvGraph) -> Self {
        Self {
            clean: compute_clean(graph),
            memo: RwLock::new(HashMap::new()),
            results: RwLock::new(HashMap::new()),
        }
    }

    /// Whether every derivation below `tuple` is acyclic.
    pub fn is_clean(&self, tuple: TupleId) -> bool {
        self.clean.get(tuple.index()).copied().unwrap_or(false)
    }

    /// Number of finished extractions currently cached.
    pub fn cached_results(&self) -> usize {
        self.results.read().unwrap().len()
    }
}

/// A reusable extractor over one provenance graph.
///
/// Construction analyses the graph's cycle structure so that acyclic
/// regions can be memoised; see [`Analysis`]. [`Extractor::new`] owns its
/// analysis, [`Extractor::with_analysis`] borrows a shared one so repeated
/// extractions across extractors hit the same caches.
pub struct Extractor<'g> {
    graph: &'g ProvGraph,
    analysis: AnalysisRef<'g>,
}

enum AnalysisRef<'g> {
    Owned(Box<Analysis>),
    Shared(&'g Analysis),
}

impl<'g> Extractor<'g> {
    /// Analyses `graph` and prepares an extractor with its own caches.
    pub fn new(graph: &'g ProvGraph) -> Self {
        Self {
            graph,
            analysis: AnalysisRef::Owned(Box::new(Analysis::new(graph))),
        }
    }

    /// An extractor reusing a shared [`Analysis`] (which must have been
    /// built from this same `graph`).
    pub fn with_analysis(graph: &'g ProvGraph, analysis: &'g Analysis) -> Self {
        Self {
            graph,
            analysis: AnalysisRef::Shared(analysis),
        }
    }

    /// The analysis in use (owned or shared).
    pub fn analysis(&self) -> &Analysis {
        match &self.analysis {
            AnalysisRef::Owned(a) => a,
            AnalysisRef::Shared(a) => a,
        }
    }

    /// Whether every derivation below `tuple` is acyclic.
    pub fn is_clean(&self, tuple: TupleId) -> bool {
        self.analysis().is_clean(tuple)
    }

    /// The provenance polynomial of `root`.
    ///
    /// Finished results are memoized per `(root, opts)` in the analysis, so
    /// repeated calls — from this extractor or any other sharing the same
    /// analysis — skip the walk after the first and return a clone of the
    /// cached formula.
    pub fn polynomial(&self, root: TupleId, opts: ExtractOptions) -> Dnf {
        let analysis = self.analysis();
        if let Some(hit) = analysis.results.read().unwrap().get(&(root, opts)) {
            p3_obs::counter!(
                "p3_provenance_result_hits_total",
                "Finished extractions served from the shared result cache"
            )
            .inc();
            return hit.clone();
        }
        let mut span = p3_obs::span::span("provenance.extract");
        span.add_field("root", root.0);
        let mut cx = Cx {
            graph: self.graph,
            analysis,
            stack: MonomialStack::new(),
            store: MonomialStack::new(),
            memo: FxHashMap::default(),
            path: FxHashSet::default(),
            max_depth: opts.max_depth,
            memo_hits: 0,
            memo_misses: 0,
            cycle_skips: 0,
            hop_truncations: 0,
        };
        let range = cx.expand(root, 0);
        let dnf = cx.stack.dnf(range);
        cx.flush_counters(&mut span);
        span.add_field("monomials", dnf.len());
        // Publish this call's clean-tuple sub-polynomials for later calls.
        if !cx.memo.is_empty() {
            let mut shared = analysis.memo.write().unwrap();
            for (key, range) in cx.memo {
                shared.entry(key).or_insert_with(|| cx.store.dnf(range));
            }
        }
        analysis
            .results
            .write()
            .unwrap()
            .insert((root, opts), dnf.clone());
        dnf
    }
}

/// Current process-global extraction-memo tallies as `(hits, misses)` —
/// the same counters `Cx::flush_counters` publishes, read back so
/// stage profilers can report per-stage deltas without re-deriving the
/// counter names. Global (not per-call): deltas taken around a stage
/// are approximate under concurrent extraction.
pub fn memo_counters() -> (u64, u64) {
    let hits = p3_obs::counter!(
        "p3_provenance_memo_hits_total",
        "Clean-tuple sub-polynomials served from the extraction memo"
    )
    .get();
    let misses = p3_obs::counter!(
        "p3_provenance_memo_misses_total",
        "Clean-tuple sub-polynomials computed and inserted into the memo"
    )
    .get();
    (hits, misses)
}

struct Cx<'a, 'g> {
    graph: &'g ProvGraph,
    analysis: &'a Analysis,
    /// Where every polynomial of the walk is built: a tuple's result is
    /// the normalised range it leaves on top.
    stack: MonomialStack,
    /// This call's memo for clean tuples, as ranges of `store`; seeded
    /// lazily from the shared one and merged back on completion (keeping
    /// lock traffic off the hot recursion as much as possible).
    memo: FxHashMap<(TupleId, usize), Normalized>,
    store: MonomialStack,
    path: FxHashSet<TupleId>,
    max_depth: Option<usize>,
    /// Per-call tallies, flushed to the global metrics once per
    /// extraction so the recursion itself touches no shared state.
    memo_hits: u64,
    memo_misses: u64,
    cycle_skips: u64,
    hop_truncations: u64,
}

impl Cx<'_, '_> {
    /// Publishes this call's tallies to the metrics registry and the
    /// extraction span.
    fn flush_counters(&self, span: &mut p3_obs::span::Span) {
        p3_obs::counter!(
            "p3_provenance_memo_hits_total",
            "Clean-tuple sub-polynomials served from the extraction memo"
        )
        .add(self.memo_hits);
        p3_obs::counter!(
            "p3_provenance_memo_misses_total",
            "Clean-tuple sub-polynomials computed and inserted into the memo"
        )
        .add(self.memo_misses);
        p3_obs::counter!(
            "p3_provenance_cycle_skips_total",
            "Derivations skipped by path-based cycle elimination"
        )
        .add(self.cycle_skips);
        p3_obs::counter!(
            "p3_provenance_hop_truncations_total",
            "Derivations dropped because the hop limit was exhausted"
        )
        .add(self.hop_truncations);
        span.add_field("memo_hits", self.memo_hits);
        span.add_field("cycle_skips", self.cycle_skips);
        span.add_field("hop_truncations", self.hop_truncations);
    }

    /// Remaining rule-nesting budget at `depth`.
    fn remaining(&self, depth: usize) -> usize {
        match self.max_depth {
            Some(max) => max.saturating_sub(depth),
            None => usize::MAX,
        }
    }

    /// Pushes the polynomial of `tuple` onto the stack and returns its
    /// range. A tuple's alternatives are normalised once, when all of them
    /// are on the stack; a rule execution's product is formed in place.
    fn expand(&mut self, tuple: TupleId, depth: usize) -> Normalized {
        let remaining = self.remaining(depth);
        let clean = self.analysis.is_clean(tuple);
        if clean {
            if let Some(&hit) = self.memo.get(&(tuple, remaining)) {
                self.memo_hits += 1;
                return self.stack.copy_from(&self.store, hit);
            }
            if let Some(hit) = self.analysis.memo.read().unwrap().get(&(tuple, remaining)) {
                self.memo_hits += 1;
                let stored = self.store.push_dnf(hit);
                self.memo.insert((tuple, remaining), stored);
                return self.stack.copy_from(&self.store, stored);
            }
        }

        let start = self.stack.len();
        self.path.insert(tuple);
        'derivs: for d in self.graph.derivations(tuple) {
            match d {
                Derivation::Base(clause) => self.stack.push(&[var_of(*clause)]),
                Derivation::Rule(exec_id) => {
                    if remaining == 0 {
                        self.hop_truncations += 1;
                        continue; // hop limit reached
                    }
                    let exec = self.graph.exec(*exec_id);
                    // Cycle elimination: a body tuple already on the current
                    // path makes this derivation contribute nothing.
                    if exec.body.iter().any(|b| self.path.contains(b)) {
                        self.cycle_skips += 1;
                        continue 'derivs;
                    }
                    let product = self.stack.len();
                    self.stack.push(&[var_of(exec.rule)]);
                    for &b in exec.body.iter() {
                        let sub = self.stack.len();
                        if self.expand(b, depth + 1).is_empty() {
                            self.stack.truncate(product);
                            continue 'derivs;
                        }
                        self.stack.product(product, sub);
                    }
                }
            }
        }
        self.path.remove(&tuple);

        let range = self.stack.normalize(start);
        if clean {
            self.memo_misses += 1;
            let stored = self.store.copy_from(&self.stack, range);
            self.memo.insert((tuple, remaining), stored);
        }
        range
    }
}

/// Marks, per tuple id, the tuples whose downward closure is acyclic, from
/// the SCCs of the tuple-dependency projection (`tuple → body tuples of its
/// rule executions`) over raw tuple ids, held as one CSR graph.
fn compute_clean(graph: &ProvGraph) -> Vec<bool> {
    let in_graph = |t: TupleId| !graph.derivations(t).is_empty();
    let n = graph.id_bound();
    let mut succ = Csr::new();
    let mut row: Vec<u32> = Vec::new();
    for t in (0..n).map(|i| TupleId(u32::try_from(i).expect("tuple id fits u32"))) {
        row.clear();
        for d in graph.derivations(t) {
            if let Derivation::Rule(e) = d {
                // A body tuple with no derivations of its own (impossible
                // after a run, but robust against partial graphs) is
                // skipped.
                let body = graph.exec_body(*e).iter().filter(|&&b| in_graph(b));
                row.extend(body.map(|b| b.0));
            }
        }
        row.sort_unstable();
        row.dedup();
        succ.push_node(&row);
    }

    // Components come out dependencies first, so every child's cleanliness
    // is known when its parents are processed. Cyclic components, and slots
    // outside the graph, are never clean.
    let mut clean = vec![false; n];
    strongly_connected(&succ, |scc| {
        let v = scc[0];
        let children = succ.successors(v as usize);
        if scc.len() == 1 && in_graph(TupleId(v)) && children.binary_search(&v).is_err() {
            clean[v as usize] = children.iter().all(|&c| clean[c as usize]);
        }
    });
    clean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::evaluate_with_provenance;
    use p3_datalog::ast::Const;
    use p3_datalog::program::Program;
    use p3_datalog::worlds;
    use p3_prob::exact;

    /// Runs `program` with provenance, extracts the polynomial for `query`
    /// (e.g. `know("Ben","Elena")`) and returns (polynomial, vars).
    fn pipeline(src: &str, query: &str) -> (Dnf, p3_prob::VarTable, Program) {
        let program = Program::parse(src).unwrap();
        let (db, graph) = evaluate_with_provenance(&program);
        let (pred, args) = worlds::parse_ground_query(&program, query).unwrap();
        let tuple = db.lookup(pred, &args).expect("query tuple not derived");
        let dnf = extract_polynomial(&graph, tuple, ExtractOptions::unbounded());
        let vars = crate::vars::clause_vars(&program);
        (dnf, vars, program)
    }

    #[test]
    fn base_tuple_polynomial_is_its_own_literal() {
        let (dnf, vars, p) = pipeline("t1 0.4: p(a).", "p(a)");
        let t1 = var_of(p.clause_by_label("t1").unwrap());
        assert_eq!(dnf, Dnf::literal(t1));
        assert!((exact::probability(&dnf, &vars) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn acquaintance_polynomial_matches_the_paper() {
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
        let (dnf, vars, _) = pipeline(src, r#"know("Ben","Elena")"#);
        // λ = r3·t6·(r1·t1·t2 + r2·t4·t5): two monomials of 5 literals.
        assert_eq!(dnf.len(), 2);
        assert!(dnf.monomials().iter().all(|m| m.len() == 5));
        let p = exact::probability(&dnf, &vars);
        assert!((p - 0.16384).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn polynomial_probability_equals_possible_worlds_on_cycles() {
        // The §3.3 theorem, end to end: cyclic provenance, acyclic
        // extraction, exact DNF probability == world enumeration.
        let src = "r1 1.0: reach(X) :- src(X).
                   r2 0.9: reach(Y) :- reach(X), edge(X,Y).
                   t0 1.0: src(a).
                   e1 0.5: edge(a,b).
                   e2 0.6: edge(b,a).
                   e3 0.7: edge(b,c).
                   e4 0.4: edge(c,a).";
        let program = Program::parse(src).unwrap();
        let (db, graph) = evaluate_with_provenance(&program);
        let vars = crate::vars::clause_vars(&program);
        for q in ["reach(a)", "reach(b)", "reach(c)"] {
            let oracle = worlds::success_probability_str(&program, q).unwrap();
            let (pred, args) = worlds::parse_ground_query(&program, q).unwrap();
            let tuple = db.lookup(pred, &args).unwrap();
            let dnf = extract_polynomial(&graph, tuple, ExtractOptions::unbounded());
            let p = exact::probability(&dnf, &vars);
            assert!((p - oracle).abs() < 1e-9, "{q}: dnf={p} oracle={oracle}");
        }
    }

    #[test]
    fn self_loop_contributes_nothing() {
        // know(a,a)-style self-supporting derivations are eliminated.
        let src = "r1 0.5: p(X) :- p(X), q(X).
                   r2 1.0: p(X) :- s(X).
                   t1 0.8: q(a).
                   t2 0.5: s(a).";
        let program = Program::parse(src).unwrap();
        let (db, graph) = evaluate_with_provenance(&program);
        let vars = crate::vars::clause_vars(&program);
        let (pred, args) = worlds::parse_ground_query(&program, "p(a)").unwrap();
        let tuple = db.lookup(pred, &args).unwrap();
        let dnf = extract_polynomial(&graph, tuple, ExtractOptions::unbounded());
        // Only r2·t2 survives.
        assert_eq!(dnf.len(), 1);
        let p = exact::probability(&dnf, &vars);
        let oracle = worlds::success_probability_str(&program, "p(a)").unwrap();
        assert!((p - oracle).abs() < 1e-12);
    }

    #[test]
    fn hop_limit_truncates_long_derivations() {
        // Chain a→b→c→d: reach(d) needs 3 nested rule executions beyond r1.
        let src = "r1 1.0: reach(X) :- src(X).
                   r2 1.0: reach(Y) :- reach(X), edge(X,Y).
                   t0 1.0: src(a).
                   e1 0.5: edge(a,b). e2 0.5: edge(b,c). e3 0.5: edge(c,d).";
        let program = Program::parse(src).unwrap();
        let (db, graph) = evaluate_with_provenance(&program);
        let reach = program.symbols().get("reach").unwrap();
        let d = Const::Sym(program.symbols().get("d").unwrap());
        let tuple = db.lookup(reach, &[d]).unwrap();
        // Unbounded: one derivation (r2·r2·r2·r1 chain + edges).
        let full = extract_polynomial(&graph, tuple, ExtractOptions::unbounded());
        assert_eq!(full.len(), 1);
        // Depth 4 suffices (r2,r2,r2,r1); depth 3 does not.
        assert_eq!(
            extract_polynomial(&graph, tuple, ExtractOptions::with_max_depth(4)).len(),
            1
        );
        assert!(extract_polynomial(&graph, tuple, ExtractOptions::with_max_depth(3)).is_false());
    }

    #[test]
    fn clean_marking_distinguishes_cyclic_regions() {
        let src = "r1 1.0: reach(X) :- src(X).
                   r2 1.0: reach(Y) :- reach(X), edge(X,Y).
                   t0 1.0: src(a).
                   e1 0.5: edge(a,b).
                   e2 0.5: edge(b,a).";
        let program = Program::parse(src).unwrap();
        let (db, graph) = evaluate_with_provenance(&program);
        let ex = Extractor::new(&graph);
        let reach = program.symbols().get("reach").unwrap();
        let edge = program.symbols().get("edge").unwrap();
        let a = Const::Sym(program.symbols().get("a").unwrap());
        let b = Const::Sym(program.symbols().get("b").unwrap());
        let ra = db.lookup(reach, &[a]).unwrap();
        let e_ab = db.lookup(edge, &[a, b]).unwrap();
        assert!(!ex.is_clean(ra), "reach(a) participates in a cycle");
        assert!(ex.is_clean(e_ab), "base tuples are clean");
    }

    #[test]
    fn shared_subterms_are_memoized_consistently() {
        // A diamond: top depends twice on mid; extraction must agree with
        // the oracle (memoisation must not double-count or miss sharing).
        let src = "r1 0.9: top(X) :- mid(X), l(X).
                   r2 0.8: top(X) :- mid(X), r(X).
                   r3 1.0: mid(X) :- base(X).
                   t1 0.5: base(a). t2 0.7: l(a). t3 0.6: r(a).";
        let program = Program::parse(src).unwrap();
        let (db, graph) = evaluate_with_provenance(&program);
        let vars = crate::vars::clause_vars(&program);
        let (pred, args) = worlds::parse_ground_query(&program, "top(a)").unwrap();
        let tuple = db.lookup(pred, &args).unwrap();
        let dnf = extract_polynomial(&graph, tuple, ExtractOptions::unbounded());
        let p = exact::probability(&dnf, &vars);
        let oracle = worlds::success_probability_str(&program, "top(a)").unwrap();
        assert!((p - oracle).abs() < 1e-12, "dnf={p} oracle={oracle}");
    }

    #[test]
    fn repeated_extraction_is_cached() {
        let src = "r1 1.0: reach(X) :- src(X).
                   r2 0.9: reach(Y) :- reach(X), edge(X,Y).
                   t0 1.0: src(a).
                   e1 0.5: edge(a,b).
                   e2 0.6: edge(b,a).";
        let program = Program::parse(src).unwrap();
        let (db, graph) = evaluate_with_provenance(&program);
        let (pred, args) = worlds::parse_ground_query(&program, "reach(b)").unwrap();
        let tuple = db.lookup(pred, &args).unwrap();
        let ex = Extractor::new(&graph);
        let first = ex.polynomial(tuple, ExtractOptions::unbounded());
        assert_eq!(ex.analysis().cached_results(), 1);
        let second = ex.polynomial(tuple, ExtractOptions::unbounded());
        assert_eq!(first, second);
        assert_eq!(ex.analysis().cached_results(), 1, "hit, not a second entry");
        // Different options are distinct cache entries.
        let capped = ex.polynomial(tuple, ExtractOptions::with_max_depth(1));
        assert_ne!(first, capped);
        assert_eq!(ex.analysis().cached_results(), 2);
    }

    #[test]
    fn shared_analysis_serves_multiple_extractors() {
        let src = "r1 0.9: top(X) :- mid(X), l(X).
                   r2 0.8: top(X) :- mid(X), r(X).
                   r3 1.0: mid(X) :- base(X).
                   t1 0.5: base(a). t2 0.7: l(a). t3 0.6: r(a).";
        let program = Program::parse(src).unwrap();
        let (db, graph) = evaluate_with_provenance(&program);
        let analysis = Analysis::new(&graph);
        let (pred, args) = worlds::parse_ground_query(&program, "top(a)").unwrap();
        let tuple = db.lookup(pred, &args).unwrap();
        let a = Extractor::with_analysis(&graph, &analysis);
        let b = Extractor::with_analysis(&graph, &analysis);
        let pa = a.polynomial(tuple, ExtractOptions::unbounded());
        let pb = b.polynomial(tuple, ExtractOptions::unbounded());
        assert_eq!(pa, pb);
        assert_eq!(
            analysis.cached_results(),
            1,
            "the second extractor hit the cache"
        );
        // And matches an extractor with a private analysis.
        assert_eq!(
            pa,
            Extractor::new(&graph).polynomial(tuple, ExtractOptions::unbounded())
        );
    }

    #[test]
    fn non_derivable_tuple_yields_false() {
        let program = Program::parse("t1 0.5: p(a).").unwrap();
        let (_db, graph) = evaluate_with_provenance(&program);
        // A fabricated tuple id that has no derivations.
        let dnf = extract_polynomial(
            &graph,
            p3_datalog::engine::TupleId(999),
            ExtractOptions::unbounded(),
        );
        assert!(dnf.is_false());
    }
}
