//! The EXPLAIN plane's engine-side data model: per-rule evaluation cost
//! attributed to *source program* structure.
//!
//! [`Engine::run`](crate::engine::Engine::run) accumulates raw
//! [`RuleStats`] per compiled rule. This module turns those rows into an
//! [`ExplainPlan`]: labelled, ranked per-clause costs plus run-level shape
//! (per-iteration delta sizes, per-stratum counters). Under demand
//! evaluation the engine runs a magic-transformed program, so
//! [`ExplainPlan::project_demand`] folds each adorned variant's cost back
//! onto the source clause it came from via
//! [`DemandProgram::original_clause`]; magic rules and the seed fact — pure
//! transformation overhead with no source clause — aggregate into one
//! [`MagicCost`] bucket so their work stays visible instead of vanishing.

use crate::ast::ClauseId;
use crate::engine::{Engine, EngineStats, RuleStats, StratumStats};
use crate::program::Program;
use crate::transform::DemandProgram;
use p3_obs::json::Value;
use std::collections::HashMap;

/// How many rules (ranked by cost) each plan contributes to the
/// `p3_engine_rule_*` metric families — the label-cardinality cap.
pub const METRIC_TOP_RULES: usize = 10;

/// Evaluation cost attributed to one source clause, ready for display.
#[derive(Clone, Debug)]
pub struct RuleCost {
    /// The source clause, when the row maps to one.
    pub clause: Option<ClauseId>,
    /// The source clause's label (e.g. `r2`).
    pub label: String,
    /// The head predicate's name.
    pub head: String,
    /// Whether the rule is recursive: its positive body reads a predicate
    /// in its head's SCC ([`crate::graph::DepGraph::rule_is_recursive`]).
    pub recursive: bool,
    /// Rule firings, including re-derivations.
    pub firings: u64,
    /// Head inserts that created a previously unknown tuple.
    pub new_tuples: u64,
    /// Join fan-out: candidate tuples scanned across all body probes.
    pub candidates: u64,
    /// Fixpoint iterations in which the rule did any join work (maximum
    /// across adorned variants under demand).
    pub iterations: u64,
    /// Body positions probed through a planned column index, summed across
    /// adorned variants.
    pub indexed_probes: u32,
    /// Body positions scanned without an index, summed across variants.
    pub scanned_probes: u32,
    /// Adorned rule variants folded into this row (1 under naive).
    pub variants: u32,
}

impl RuleCost {
    /// The ranking cost: join fan-out plus firing and insert work.
    pub fn cost(&self) -> u64 {
        self.candidates + self.firings + self.new_tuples
    }
}

/// Aggregate cost of the demand transformation's internal clauses (magic
/// rules and the seed fact) — overhead the source program never pays under
/// naive evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct MagicCost {
    /// Magic rules (and seed facts) that contributed.
    pub rules: usize,
    /// Their rule firings.
    pub firings: u64,
    /// Magic tuples they derived.
    pub new_tuples: u64,
    /// Candidate tuples their joins scanned.
    pub candidates: u64,
}

impl MagicCost {
    /// The same ranking cost as [`RuleCost::cost`].
    pub fn cost(&self) -> u64 {
        self.candidates + self.firings + self.new_tuples
    }
}

/// One evaluation's cost, attributed to program structure.
#[derive(Clone, Debug)]
pub struct ExplainPlan {
    /// Evaluation mode that produced the plan (`naive`/`demand`).
    pub mode: &'static str,
    /// Run-level counters (iterations, firings, fixpoint size).
    pub stats: EngineStats,
    /// New tuples per semi-naive iteration, across strata in run order.
    pub deltas: Vec<u32>,
    /// Per-stratum counters, in stratum order.
    pub strata: Vec<StratumStats>,
    /// Per-source-clause costs, sorted by descending cost (label ascending
    /// as the tiebreak).
    pub rules: Vec<RuleCost>,
    /// Demand-transformation overhead; `None` under naive evaluation.
    pub magic: Option<MagicCost>,
}

impl ExplainPlan {
    /// Total ranking cost across rules and the magic bucket.
    pub fn total_cost(&self) -> u64 {
        self.rules.iter().map(RuleCost::cost).sum::<u64>() + self.magic.map_or(0, |m| m.cost())
    }

    /// Tuples the run derived beyond its base facts (magic tuples of a
    /// demand run included), summed over strata.
    pub fn derived_tuples(&self) -> u64 {
        self.strata.iter().map(|s| s.derived_tuples as u64).sum()
    }

    /// The plan as a JSON object: `mode`, the run's `total_cost`,
    /// `iterations`, `tuples` and `firings`, the `deltas` and per-stratum
    /// counters, the ranked `rules`, and after a demand run the `magic`
    /// bucket. These are the fields of the `explain` op's payload after
    /// its `query`, and each entry of `GET /explain`.
    pub fn to_value(&self) -> Value {
        let strata = self.strata.iter().map(|st| {
            Value::object(vec![
                ("iterations", st.iterations.into()),
                ("firings", st.firings.into()),
                ("tuples", st.derived_tuples.into()),
            ])
        });
        let rules = self.rules.iter().map(|r| {
            Value::object(vec![
                ("rule", r.label.as_str().into()),
                ("head", r.head.as_str().into()),
                ("recursive", r.recursive.into()),
                ("cost", r.cost().into()),
                ("firings", r.firings.into()),
                ("new_tuples", r.new_tuples.into()),
                ("candidates", r.candidates.into()),
                ("iterations", r.iterations.into()),
                ("indexed_probes", r.indexed_probes.into()),
                ("scanned_probes", r.scanned_probes.into()),
                ("variants", r.variants.into()),
            ])
        });
        let mut fields = vec![
            ("mode", Value::from(self.mode)),
            ("total_cost", self.total_cost().into()),
            ("iterations", self.stats.iterations.into()),
            ("tuples", self.stats.tuples.into()),
            ("firings", self.stats.firings.into()),
            ("deltas", self.deltas.iter().copied().collect()),
            ("strata", strata.collect()),
            ("rules", rules.collect()),
        ];
        if let Some(m) = &self.magic {
            let magic = Value::object(vec![
                ("rules", m.rules.into()),
                ("firings", m.firings.into()),
                ("new_tuples", m.new_tuples.into()),
                ("cost", m.cost().into()),
            ]);
            fields.push(("magic", magic));
        }
        Value::object(fields)
    }

    /// Builds a plan from a naive run: compiled rules map one-to-one onto
    /// source clauses.
    pub fn from_engine(engine: &Engine<'_>) -> ExplainPlan {
        let program = engine.program();
        let mut rules: Vec<RuleCost> = engine
            .rule_stats()
            .iter()
            .map(|rs| rule_cost(program, rs.clause, rs))
            .collect();
        sort_rules(&mut rules);
        ExplainPlan {
            mode: engine.mode_label(),
            stats: engine.stats(),
            deltas: engine.deltas().to_vec(),
            strata: engine.stratum_stats().to_vec(),
            rules,
            magic: None,
        }
    }

    /// Builds a plan from a demand run: each adorned variant's cost folds
    /// onto the source clause it was derived from, and transformation-
    /// internal clauses aggregate into the magic bucket.
    pub fn project_demand(
        engine: &Engine<'_>,
        dp: &DemandProgram,
        source: &Program,
    ) -> ExplainPlan {
        let mut by_source: HashMap<ClauseId, RuleCost> = HashMap::new();
        let mut order: Vec<ClauseId> = Vec::new();
        let mut magic = MagicCost::default();
        for rs in engine.rule_stats() {
            match dp.original_clause(rs.clause) {
                Some(src) => {
                    let entry = by_source.entry(src).or_insert_with(|| {
                        order.push(src);
                        let mut zero = rule_cost(source, src, rs);
                        zero.firings = 0;
                        zero.new_tuples = 0;
                        zero.candidates = 0;
                        zero.iterations = 0;
                        zero.indexed_probes = 0;
                        zero.scanned_probes = 0;
                        zero.variants = 0;
                        zero
                    });
                    entry.firings += rs.firings;
                    entry.new_tuples += rs.new_tuples;
                    entry.candidates += rs.candidates;
                    entry.iterations = entry.iterations.max(rs.iterations);
                    entry.indexed_probes += rs.indexed_probes;
                    entry.scanned_probes += rs.scanned_probes;
                    entry.variants += 1;
                }
                None => {
                    magic.rules += 1;
                    magic.firings += rs.firings;
                    magic.new_tuples += rs.new_tuples;
                    magic.candidates += rs.candidates;
                }
            }
        }
        let mut rules: Vec<RuleCost> = order
            .into_iter()
            .map(|src| by_source.remove(&src).expect("ordered key present"))
            .collect();
        sort_rules(&mut rules);
        ExplainPlan {
            mode: engine.mode_label(),
            stats: engine.stats(),
            deltas: engine.deltas().to_vec(),
            strata: engine.stratum_stats().to_vec(),
            rules,
            magic: Some(magic),
        }
    }
}

/// The `n` costliest source rules across `plans`, as `(label, cost)` pairs
/// with each label's cost summed over the plans, sorted by descending cost
/// (ties broken by label). Zero-cost rules are left out.
pub fn top_rules<'a>(
    plans: impl IntoIterator<Item = &'a ExplainPlan>,
    n: usize,
) -> Vec<(String, u64)> {
    let mut by_label: HashMap<&str, u64> = HashMap::new();
    for rule in plans.into_iter().flat_map(|plan| &plan.rules) {
        *by_label.entry(&rule.label).or_insert(0) += rule.cost();
    }
    let mut out: Vec<(String, u64)> = by_label
        .into_iter()
        .filter(|&(_, cost)| cost > 0)
        .map(|(label, cost)| (label.to_string(), cost))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out.truncate(n);
    out
}

/// Caps a rule label for use as a Prometheus label value: long or hostile
/// clause labels must not explode the exposition. Truncation happens on a
/// char boundary; escaping is [`render_labels`]'s job downstream.
///
/// [`render_labels`]: p3_obs::metrics::render_labels
pub fn metric_rule_label(label: &str) -> &str {
    p3_obs::metrics::cap_label_value(label, 48)
}

/// Publishes the `p3_engine_rule_*` counter families for the `top_n`
/// costliest rules of one plan. Capping to top-N bounds label cardinality:
/// a program with thousands of rules contributes at most `top_n` label
/// sets per mode, and label values are capped by [`metric_rule_label`].
pub fn publish_rule_metrics(plan: &ExplainPlan, top_n: usize) {
    for rule in plan.rules.iter().take(top_n) {
        let labels = p3_obs::metrics::render_labels(&[
            ("rule", metric_rule_label(&rule.label)),
            ("mode", plan.mode),
        ]);
        p3_obs::metrics::labeled_counter(
            "p3_engine_rule_firings_total",
            "Rule firings attributed to source clauses (top rules by cost)",
            &labels,
        )
        .add(rule.firings);
        p3_obs::metrics::labeled_counter(
            "p3_engine_rule_tuples_total",
            "New tuples attributed to source clauses (top rules by cost)",
            &labels,
        )
        .add(rule.new_tuples);
        p3_obs::metrics::labeled_counter(
            "p3_engine_rule_candidates_total",
            "Join candidates scanned, attributed to source clauses (top rules by cost)",
            &labels,
        )
        .add(rule.candidates);
    }
}

fn rule_cost(program: &Program, clause: ClauseId, rs: &RuleStats) -> RuleCost {
    let c = program.clause(clause);
    RuleCost {
        clause: Some(clause),
        label: c.label.clone(),
        head: program.symbols().resolve(c.head.pred).to_string(),
        recursive: program.graph().rule_is_recursive(c),
        firings: rs.firings,
        new_tuples: rs.new_tuples,
        candidates: rs.candidates,
        iterations: rs.iterations,
        indexed_probes: rs.indexed_probes,
        scanned_probes: rs.scanned_probes,
        variants: 1,
    }
}

fn sort_rules(rules: &mut [RuleCost]) {
    rules.sort_by(|a, b| b.cost().cmp(&a.cost()).then_with(|| a.label.cmp(&b.label)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{rule_stat_lock, Engine};
    use crate::transform::magic_transform;

    const TC: &str = "r1 1.0: path(X,Y) :- edge(X,Y).
         r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).
         edge(1,2). edge(2,3). edge(3,4). edge(4,5).";

    #[test]
    fn naive_plan_ranks_the_recursive_rule_first() {
        let _guard = rule_stat_lock();
        let p = Program::parse(TC).unwrap();
        let mut e = Engine::new(&p);
        e.run_plain();
        let plan = ExplainPlan::from_engine(&e);
        assert_eq!(plan.mode, "naive");
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].label, "r2", "{:?}", plan.rules);
        assert!(plan.rules[0].recursive);
        assert!(!plan.rules[1].recursive);
        assert!(plan.rules[0].cost() > plan.rules[1].cost());
        assert_eq!(
            plan.rules.iter().map(|r| r.firings).sum::<u64>(),
            plan.stats.firings as u64
        );
        assert!(!plan.deltas.is_empty());
        assert_eq!(
            plan.deltas.iter().map(|&d| u64::from(d)).sum::<u64>(),
            plan.stats.tuples as u64,
            "delta sizes account for every tuple"
        );
        assert!(plan.magic.is_none());
    }

    #[test]
    fn demand_plan_projects_onto_source_clauses() {
        let _guard = rule_stat_lock();
        let p = Program::parse(TC).unwrap();
        let path = p.symbols().get("path").unwrap();
        let one = crate::ast::Const::Int(1);
        let five = crate::ast::Const::Int(5);
        let dp = magic_transform(&p, path, &[one, five]).unwrap();
        let mut e = Engine::new(&dp.program);
        e.set_mode_label("demand");
        e.run_plain();
        let plan = ExplainPlan::project_demand(&e, &dp, &p);
        assert_eq!(plan.mode, "demand");
        // Every row is a source clause; magic work is in the bucket.
        for rule in &plan.rules {
            assert!(["r1", "r2"].contains(&rule.label.as_str()), "{rule:?}");
        }
        let magic = plan.magic.expect("demand plans carry a magic bucket");
        assert!(magic.rules > 0);
        assert!(
            magic.new_tuples > 0,
            "magic seed/propagation derives tuples"
        );
        // The recursive source rule still dominates.
        assert_eq!(plan.rules[0].label, "r2", "{:?}", plan.rules);
        assert!(plan.rules[0].variants >= 1);
    }

    #[test]
    fn disabled_collection_yields_empty_rows() {
        let _guard = rule_stat_lock();
        let p = Program::parse(TC).unwrap();
        crate::engine::set_rule_stat_collection(false);
        let mut e = Engine::new(&p);
        e.run_plain();
        crate::engine::set_rule_stat_collection(true);
        let plan = ExplainPlan::from_engine(&e);
        assert!(plan.deltas.is_empty());
        assert!(plan.rules.iter().all(|r| r.cost() == 0));
        // Run-level stats still populate: only attribution is gated.
        assert!(plan.stats.firings > 0);
    }

    #[test]
    fn metric_rule_label_caps_length_on_char_boundaries() {
        assert_eq!(metric_rule_label("r2"), "r2");
        let long = "x".repeat(200);
        assert_eq!(metric_rule_label(&long).len(), 48);
        let multi = format!("{}é", "x".repeat(47));
        let capped = metric_rule_label(&multi);
        assert!(capped.len() <= 48);
        assert!(multi.starts_with(capped));
    }
}
