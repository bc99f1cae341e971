//! The query EXPLAIN plane: where did this query's evaluation cost go?
//!
//! [`QueryExplain`] pairs the engine's per-rule cost attribution (an
//! [`ExplainPlan`] from the evaluation that answered the query) with the
//! provenance-side shape of the answer (DNF monomials × literals, cache
//! deltas) and the measured [`cost_recommendations`] the numbers justify.
//! It renders three ways: a rustc-style text plan for humans
//! ([`QueryExplain::render_text`]), folded `frame;frame count` lines for
//! flamegraph tooling ([`QueryExplain::to_folded`]), and a JSON value for
//! the service plane ([`QueryExplain::to_value`]).
//!
//! Explaining is **observation-only**: it runs the query through exactly
//! the session paths an unexplained query takes (the one resolver, so the
//! same caches, DNF interning and journaling, and the same probabilities
//! downstream) and reads counters the engine maintains anyway.

use crate::report::CacheDelta;
use p3_datalog::diag::Diagnostic;
use p3_datalog::explain::ExplainPlan;
use p3_lint::cost::cost_recommendations;
use p3_obs::json::Value;
use p3_prob::DnfShape;

/// One query's cost story: engine plan + answer shape + recommendations.
///
/// Built by `QuerySession::explain`. The cache deltas are measured
/// around this explain call; on a warm session they show the memo hits
/// that made the query cheap (the plan then describes the original —
/// cached — evaluation, not new work).
#[derive(Clone, Debug)]
pub struct QueryExplain {
    /// The explained ground atom.
    pub query: String,
    /// Per-rule cost attribution of the evaluation that answers this
    /// query: the naive whole-program run, or the query's demand run
    /// (projected onto source clauses). `plan.mode` says which.
    pub plan: ExplainPlan,
    /// Shape of the answer's provenance polynomial.
    pub shape: DnfShape,
    /// Cache deltas of the explain call, summed over its report's stages.
    pub cache: CacheDelta,
    /// Measured lint recommendations (P3603/P3604) the plan justifies.
    pub recommendations: Vec<Diagnostic>,
}

impl QueryExplain {
    /// Bundles a query's plan with its answer's shape and the explain
    /// call's cache deltas, deriving the recommendations the plan
    /// justifies.
    pub fn new(query: &str, plan: ExplainPlan, shape: DnfShape, cache: CacheDelta) -> Self {
        Self {
            query: query.to_string(),
            recommendations: cost_recommendations(&plan),
            plan,
            shape,
            cache,
        }
    }

    /// The evaluation mode label (`naive` or `demand`).
    pub fn mode(&self) -> &'static str {
        self.plan.mode
    }

    /// Renders the plan rustc-style: a header, a rule table ranked by
    /// measured cost, the fixpoint/shape summaries, then any
    /// recommendations as rendered diagnostics.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let plan = &self.plan;
        out.push_str(&format!("explain: {} [{} mode]\n", self.query, plan.mode));
        out.push_str(&format!(
            "  evaluation: {} iterations over {} strata, {} tuples, {} rule firings, total cost {}\n",
            plan.stats.iterations,
            plan.strata.len(),
            plan.stats.tuples,
            plan.stats.firings,
            plan.total_cost(),
        ));
        if !plan.deltas.is_empty() {
            let deltas: Vec<String> = plan.deltas.iter().map(|d| d.to_string()).collect();
            out.push_str(&format!("  delta sizes: [{}]\n", deltas.join(", ")));
        }
        if plan.rules.is_empty() {
            out.push_str("  rules: (per-rule collection disabled)\n");
        } else {
            out.push_str(
                "  rank  cost     firings  tuples   candidates  iters  probes      rule\n",
            );
            let total = plan.total_cost().max(1);
            for (i, r) in plan.rules.iter().enumerate() {
                let probes = format!("{}i/{}s", r.indexed_probes, r.scanned_probes);
                let share = 100.0 * r.cost() as f64 / total as f64;
                out.push_str(&format!(
                    "  {:>4}  {:<7} {:<8} {:<8} {:<11} {:<6} {:<11} {} :- … ({:.1}%{}{})\n",
                    i + 1,
                    r.cost(),
                    r.firings,
                    r.new_tuples,
                    r.candidates,
                    r.iterations,
                    probes,
                    r.label,
                    share,
                    if r.recursive { ", recursive" } else { "" },
                    if r.variants > 1 {
                        format!(", {} adorned variants", r.variants)
                    } else {
                        String::new()
                    },
                ));
            }
        }
        if let Some(m) = &plan.magic {
            out.push_str(&format!(
                "  magic overhead: {} transform rules, {} firings, {} tuples, cost {}\n",
                m.rules,
                m.firings,
                m.new_tuples,
                m.cost(),
            ));
        }
        out.push_str(&format!(
            "  provenance: {} monomials x {} literals (max width {}, {} distinct vars)\n",
            self.shape.monomials,
            self.shape.literals,
            self.shape.max_width,
            self.shape.distinct_vars,
        ));
        let c = &self.cache;
        out.push_str(&format!(
            "  caches: session {}/{}  intern {}/{}  extract-memo {}/{} (hits/misses)\n",
            c.session_hits,
            c.session_misses,
            c.store_intern_hits,
            c.store_intern_misses,
            c.extract_memo_hits,
            c.extract_memo_misses,
        ));
        for d in &self.recommendations {
            out.push('\n');
            out.push_str(&d.render(None, None));
        }
        out
    }

    /// Folded-stack lines (`frame;frame;frame cost`) for flamegraph
    /// tooling: one line per rule, rooted at the query's mode, weighted
    /// by measured cost. Magic-transform overhead gets its own frame.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for r in &self.plan.rules {
            if r.cost() > 0 {
                out.push_str(&format!(
                    "p3;{};{} {}\n",
                    self.plan.mode,
                    r.label.replace([';', ' '], "_"),
                    r.cost()
                ));
            }
        }
        if let Some(m) = &self.plan.magic {
            if m.cost() > 0 {
                out.push_str(&format!("p3;{};(magic) {}\n", self.plan.mode, m.cost()));
            }
        }
        out
    }

    /// The full explain result as one JSON object (the wire form of the
    /// `explain` service op and `p3 explain --json`): the `query`, the
    /// plan's fields ([`ExplainPlan::to_value`]), then the answer's `dnf`
    /// shape, the `caches` deltas and the `recommendations`.
    pub fn to_value(&self) -> Value {
        let mut value = self.plan.to_value();
        if let Value::Object(fields) = &mut value {
            let (shape, c) = (&self.shape, &self.cache);
            fields.insert(0, ("query".into(), self.query.as_str().into()));
            let dnf = Value::object(vec![
                ("monomials", shape.monomials.into()),
                ("literals", shape.literals.into()),
                ("max_width", shape.max_width.into()),
                ("distinct_vars", shape.distinct_vars.into()),
            ]);
            let caches = Value::object(vec![
                ("session_hits", c.session_hits.into()),
                ("session_misses", c.session_misses.into()),
                ("intern_hits", c.store_intern_hits.into()),
                ("intern_misses", c.store_intern_misses.into()),
                ("extract_memo_hits", c.extract_memo_hits.into()),
                ("extract_memo_misses", c.extract_memo_misses.into()),
            ]);
            let recommendations = self.recommendations.iter().map(Diagnostic::to_value);
            fields.extend([
                ("dnf".into(), dnf),
                ("caches".into(), caches),
                ("recommendations".into(), recommendations.collect()),
            ]);
        }
        value
    }
}
