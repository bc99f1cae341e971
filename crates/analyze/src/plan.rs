//! The [`AnalyzePlan`]: ranked predicted rule costs, per-predicate
//! summaries and the optional per-query prediction.
//!
//! The shape deliberately mirrors the EXPLAIN plane's `RuleCost`
//! (`cost() = candidates + firings + new_tuples`, rules sorted by
//! descending cost then label) so the two tables line up row-for-row in
//! `p3 analyze --calibrate` and the rank correlation is meaningful.

use p3_datalog::ast::ClauseId;
use p3_datalog::diag::Diagnostic;
use p3_obs::json::Value;
use std::fmt::Write as _;

/// Statically predicted cost of one rule; mirrors `RuleCost`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredictedRuleCost {
    /// The rule's clause id, when known.
    pub clause: Option<ClauseId>,
    /// The rule's label (`r2`, ...).
    pub label: String,
    /// Head predicate name.
    pub head: String,
    /// Whether the rule participates in a recursive SCC.
    pub recursive: bool,
    /// Predicted rule firings across the whole fixpoint.
    pub firings: u64,
    /// Predicted distinct tuples the rule contributes.
    pub new_tuples: u64,
    /// Predicted join candidates scanned.
    pub candidates: u64,
    /// Predicted semi-naive iterations the rule runs under.
    pub iterations: u64,
}

impl PredictedRuleCost {
    /// Scalar cost, same formula as the EXPLAIN plane's `RuleCost::cost`.
    pub fn cost(&self) -> u64 {
        self.candidates
            .saturating_add(self.firings)
            .saturating_add(self.new_tuples)
    }
}

/// Per-predicate analysis summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredSummary {
    /// Predicate name.
    pub name: String,
    /// Arity.
    pub arity: usize,
    /// Whether the predicate is EDB (facts only).
    pub edb: bool,
    /// Predicted cardinality bound.
    pub cardinality: u64,
    /// Whether the bound was widened to the Cartesian bound.
    pub widened: bool,
    /// Predicted DNF width (monomials per derived tuple).
    pub dnf_width: u64,
    /// Number of rules deriving the predicate.
    pub fan_in: u64,
    /// Rendered argument domains, one per position.
    pub domains: Vec<String>,
}

/// Predicted cost of each provenance query class for one predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryPrediction {
    /// The query text this prediction is for.
    pub query: String,
    /// The queried predicate.
    pub pred: String,
    /// Predicted cardinality of the queried relation.
    pub cardinality: u64,
    /// Predicted DNF width of one derived tuple.
    pub dnf_width: u64,
    /// Proof fan-in (rules deriving the predicate).
    pub proof_fanin: u64,
    /// Per-query-class predicted work units `(class, cost)`.
    pub classes: Vec<(&'static str, u64)>,
}

/// The full static analysis result for one program.
#[derive(Clone, Debug)]
pub struct AnalyzePlan {
    /// Rules ranked by descending predicted cost, ties by label.
    pub rules: Vec<PredictedRuleCost>,
    /// Per-predicate summaries, sorted by name.
    pub preds: Vec<PredSummary>,
    /// `P37xx` prediction diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether query-directed (demand) evaluation is recommended.
    pub recommend_demand: bool,
    /// Human-readable reason for the recommendation.
    pub reason: String,
    /// Prediction for one specific query, when one was supplied.
    pub query: Option<QueryPrediction>,
    /// Wall time the analysis itself took, in microseconds.
    pub analysis_us: u64,
}

impl AnalyzePlan {
    /// Total predicted cost across all rules.
    pub fn total_cost(&self) -> u64 {
        self.rules
            .iter()
            .fold(0u64, |acc, r| acc.saturating_add(r.cost()))
    }

    /// The predicted most-expensive rule, if any rules exist.
    pub fn top_rule(&self) -> Option<&PredictedRuleCost> {
        self.rules.first()
    }

    /// Sorts rules by descending cost, ties broken by label — the same
    /// order `ExplainPlan` uses.
    pub fn sort_rules(&mut self) {
        self.rules
            .sort_by(|a, b| b.cost().cmp(&a.cost()).then_with(|| a.label.cmp(&b.label)));
    }

    /// Plain-text rendering in the EXPLAIN table layout.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "analyze: {} rules, {} predicates, predicted total cost {} [{} recommended]",
            self.rules.len(),
            self.preds.len(),
            self.total_cost(),
            if self.recommend_demand {
                "demand"
            } else {
                "naive"
            },
        );
        let _ = writeln!(out, "  reason: {}", self.reason);
        let _ = writeln!(
            out,
            "  rank  cost     firings  tuples   candidates  iters  rule"
        );
        for (i, r) in self.rules.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:>4}  {:<7}  {:<7}  {:<7}  {:<10}  {:<5}  {} [{}{}]",
                i + 1,
                r.cost(),
                r.firings,
                r.new_tuples,
                r.candidates,
                r.iterations,
                r.label,
                r.head,
                if r.recursive { ", recursive" } else { "" },
            );
        }
        let _ = writeln!(
            out,
            "  pred                  card     width    fan-in  domains"
        );
        for p in &self.preds {
            let _ = writeln!(
                out,
                "  {:<20}  {:<7}  {:<7}  {:<6}  {}{}",
                format!("{}/{}", p.name, p.arity),
                p.cardinality,
                p.dnf_width,
                p.fan_in,
                p.domains.join(", "),
                if p.widened { " (widened)" } else { "" },
            );
        }
        if let Some(q) = &self.query {
            let _ = writeln!(
                out,
                "  query {} -> pred {} card {} width {} fan-in {}",
                q.query, q.pred, q.cardinality, q.dnf_width, q.proof_fanin
            );
            for (class, cost) in &q.classes {
                let _ = writeln!(out, "    {class:<13} predicted work {cost}");
            }
        }
        for diag in &self.diagnostics {
            let _ = writeln!(
                out,
                "  {}: {} [{}]",
                diag.severity.as_str(),
                diag.message,
                diag.code
            );
        }
        out
    }

    /// The plan as a JSON object: the totals and recommendation, the
    /// ranked `rules`, the per-predicate `preds`, the `query` prediction
    /// when one was asked for, and the `diagnostics`.
    pub fn to_value(&self) -> Value {
        let rules = self.rules.iter().enumerate().map(|(i, r)| {
            Value::object(vec![
                ("rank", (i + 1).into()),
                ("label", r.label.as_str().into()),
                ("head", r.head.as_str().into()),
                ("recursive", r.recursive.into()),
                ("cost", r.cost().into()),
                ("firings", r.firings.into()),
                ("new_tuples", r.new_tuples.into()),
                ("candidates", r.candidates.into()),
                ("iterations", r.iterations.into()),
            ])
        });
        let preds = self.preds.iter().map(|p| {
            Value::object(vec![
                ("name", p.name.as_str().into()),
                ("arity", p.arity.into()),
                ("edb", p.edb.into()),
                ("cardinality", p.cardinality.into()),
                ("widened", p.widened.into()),
                ("dnf_width", p.dnf_width.into()),
                ("fan_in", p.fan_in.into()),
                ("domains", p.domains.iter().map(String::as_str).collect()),
            ])
        });
        let recommend = if self.recommend_demand {
            "demand"
        } else {
            "naive"
        };
        let mut fields = vec![
            ("total_cost", self.total_cost().into()),
            ("recommend", recommend.into()),
            ("reason", self.reason.as_str().into()),
            ("analysis_us", self.analysis_us.into()),
            ("rules", rules.collect()),
            ("preds", preds.collect()),
        ];
        if let Some(q) = &self.query {
            let classes = q.classes.iter().map(|&(class, cost)| (class, cost.into()));
            let query = Value::object(vec![
                ("query", q.query.as_str().into()),
                ("pred", q.pred.as_str().into()),
                ("cardinality", q.cardinality.into()),
                ("dnf_width", q.dnf_width.into()),
                ("proof_fanin", q.proof_fanin.into()),
                ("classes", Value::object(classes.collect())),
            ]);
            fields.push(("query", query));
        }
        let diagnostics = self.diagnostics.iter().map(Diagnostic::to_value);
        fields.push(("diagnostics", diagnostics.collect()));
        Value::object(fields)
    }
}

/// Spearman rank correlation between two cost assignments over the same
/// label set.
///
/// Only labels present on both sides participate; ranks are assigned by
/// descending cost with ties receiving their average rank. Degenerate
/// inputs (fewer than two shared labels, or all ties on either side)
/// return `1.0` when the shared top label agrees and `0.0` otherwise.
pub fn rank_correlation(predicted: &[(String, u64)], measured: &[(String, u64)]) -> f64 {
    let measured_of: std::collections::HashMap<&str, u64> = measured
        .iter()
        .map(|(label, cost)| (label.as_str(), *cost))
        .collect();
    let shared: Vec<(&str, u64, u64)> = predicted
        .iter()
        .filter_map(|(label, p)| {
            measured_of
                .get(label.as_str())
                .map(|&m| (label.as_str(), *p, m))
        })
        .collect();
    let n = shared.len();
    if n < 2 {
        return if n == 1 { 1.0 } else { 0.0 };
    }
    let ranks = |key: fn(&(&str, u64, u64)) -> u64, items: &[(&str, u64, u64)]| -> Vec<f64> {
        // Average ranks for ties, 1 = most expensive.
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|&a, &b| key(&items[b]).cmp(&key(&items[a])));
        let mut out = vec![0.0; items.len()];
        let mut i = 0;
        while i < order.len() {
            let mut j = i;
            while j + 1 < order.len() && key(&items[order[j + 1]]) == key(&items[order[i]]) {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &idx in &order[i..=j] {
                out[idx] = avg;
            }
            i = j + 1;
        }
        out
    };
    let pr = ranks(|t| t.1, &shared);
    let mr = ranks(|t| t.2, &shared);
    let all_tied = |r: &[f64]| r.windows(2).all(|w| (w[0] - w[1]).abs() < f64::EPSILON);
    if all_tied(&pr) || all_tied(&mr) {
        // No rank information on one side; fall back to top-label match.
        let top = |key: fn(&(&str, u64, u64)) -> u64| {
            shared
                .iter()
                .max_by(|a, b| key(a).cmp(&key(b)).then_with(|| b.0.cmp(a.0)))
                .map(|t| t.0)
        };
        return if top(|t| t.1) == top(|t| t.2) {
            1.0
        } else {
            0.0
        };
    }
    let d2: f64 = pr.iter().zip(&mr).map(|(a, b)| (a - b) * (a - b)).sum();
    let nf = n as f64;
    1.0 - 6.0 * d2 / (nf * (nf * nf - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|(l, c)| (l.to_string(), *c)).collect()
    }

    #[test]
    fn perfect_agreement_is_one() {
        let p = costs(&[("r1", 10), ("r2", 100), ("r3", 50)]);
        let m = costs(&[("r1", 7), ("r2", 900), ("r3", 80)]);
        assert!((rank_correlation(&p, &m) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_reversal_is_minus_one() {
        let p = costs(&[("a", 3), ("b", 2), ("c", 1)]);
        let m = costs(&[("a", 1), ("b", 2), ("c", 3)]);
        assert!((rank_correlation(&p, &m) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_labels_are_zero() {
        let p = costs(&[("a", 1)]);
        let m = costs(&[("b", 1)]);
        assert_eq!(rank_correlation(&p, &m), 0.0);
    }

    #[test]
    fn ties_fall_back_to_top_label() {
        let p = costs(&[("a", 5), ("b", 5)]);
        let m = costs(&[("a", 9), ("b", 1)]);
        // Predicted side has no rank info; top-by-tiebreak is "a" on both.
        assert_eq!(rank_correlation(&p, &m), 1.0);
    }

    #[test]
    fn plan_sorts_like_explain() {
        let rule = |label: &str, c: u64| PredictedRuleCost {
            clause: None,
            label: label.to_string(),
            head: "p".into(),
            recursive: false,
            firings: 0,
            new_tuples: 0,
            candidates: c,
            iterations: 1,
        };
        let mut plan = AnalyzePlan {
            rules: vec![rule("r1", 5), rule("r3", 9), rule("r2", 9)],
            preds: Vec::new(),
            diagnostics: Vec::new(),
            recommend_demand: false,
            reason: String::new(),
            query: None,
            analysis_us: 0,
        };
        plan.sort_rules();
        let labels: Vec<&str> = plan.rules.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["r2", "r3", "r1"]);
        assert_eq!(plan.top_rule().unwrap().label, "r2");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let plan = AnalyzePlan {
            rules: Vec::new(),
            preds: Vec::new(),
            diagnostics: Vec::new(),
            recommend_demand: true,
            reason: "quote \" and \\ newline \n".into(),
            query: None,
            analysis_us: 3,
        };
        let json = plan.to_value().to_json();
        assert!(json.contains("\"recommend\":\"demand\""));
        assert!(json.contains("\\\""));
        assert!(json.contains("\\n"));
        assert!(!json.contains('\n'));
    }
}
