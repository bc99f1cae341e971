//! Modification Query (§4.4): reach a target probability at minimal cost.
//!
//! By Eq. 16, `P[λ] = Inf_x(λ) · p(x) + P[λ|x=0]` — the success probability
//! is linear in each literal's probability with slope `Inf_x`. The greedy
//! heuristic therefore repeatedly picks the literal with the steepest slope
//! (the most influential one), solves the linear equation for the value
//! that would hit the target, clamps to `[0, 1]`, and iterates until the
//! target is reached (or no progress is possible). Cost is Eq. 17's
//! `Σ |Δp(x)|`.
//!
//! [`Strategy::Random`] is the paper's Table 7 baseline: a uniformly random
//! modifiable literal is updated each step instead of the most influential
//! one.
//!
//! [`EvalMethod::Exact`] compiles `λ` once per query into a [`Circuit`]:
//! each table the search tries costs one forward pass, which gives
//! `exact::probability`'s bits, and each step's candidates cost one
//! backward pass, which gives every slope at once.

use crate::prob_method::ProbMethod;
use p3_prob::circuit::Evaluation;
use p3_prob::{mc, parallel, Circuit, Dnf, McConfig, VarId, VarTable};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;

/// Variable-selection strategy for each modification step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Pick the most influential remaining literal (the P3 heuristic).
    #[default]
    Greedy,
    /// Pick a uniformly random remaining literal (the Table 7 baseline).
    /// The seed makes runs reproducible.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// How probabilities and influences are evaluated during the search.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum EvalMethod {
    /// Exact: the formula compiled once into a [`Circuit`] (see the module
    /// docs).
    #[default]
    Exact,
    /// Monte-Carlo estimates with this configuration.
    Mc(McConfig),
    /// Monte-Carlo estimates parallelised across the given thread count
    /// (the paper's Table 9 "Parallel" column).
    McParallel(McConfig, usize),
}

impl EvalMethod {
    /// The probability backend this method evaluates `P[λ]` with.
    pub(crate) fn prob_method(self) -> ProbMethod {
        match self {
            EvalMethod::Exact => ProbMethod::Exact,
            EvalMethod::Mc(cfg) => ProbMethod::MonteCarlo(cfg),
            EvalMethod::McParallel(cfg, threads) => ProbMethod::ParallelMc(cfg, threads),
        }
    }
}

/// Options for a Modification Query.
#[derive(Clone, Debug, PartialEq)]
pub struct ModificationOptions {
    /// Literals the query may modify; `None` means every literal in the
    /// polynomial. (§4.4 modifies base tuples; Table 6 modifies `trust`
    /// tuples only.)
    pub modifiable: Option<Vec<VarId>>,
    /// Stop once `|P − target| ≤ tolerance`.
    pub tolerance: f64,
    /// Selection strategy.
    pub strategy: Strategy,
    /// Probability/influence evaluation backend.
    pub eval: EvalMethod,
    /// Hard cap on steps (safety against degenerate formulas).
    pub max_steps: usize,
}

impl Default for ModificationOptions {
    fn default() -> Self {
        Self {
            modifiable: None,
            tolerance: 1e-6,
            strategy: Strategy::Greedy,
            eval: EvalMethod::Exact,
            max_steps: 64,
        }
    }
}

/// One applied change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModificationStep {
    /// The literal changed.
    pub var: VarId,
    /// Its probability before the change.
    pub from: f64,
    /// Its probability after the change.
    pub to: f64,
    /// `P[λ]` after this step.
    pub resulting_probability: f64,
}

/// The result of a Modification Query.
#[derive(Clone, Debug)]
pub struct ModificationPlan {
    /// The changes, in application order.
    pub steps: Vec<ModificationStep>,
    /// Eq. 17's cost: `Σ |Δp|`.
    pub total_cost: f64,
    /// `P[λ]` before any change.
    pub initial_probability: f64,
    /// `P[λ]` after all changes.
    pub achieved_probability: f64,
    /// Whether `|achieved − target| ≤ tolerance`.
    pub reached_target: bool,
    /// The variable table with the plan applied (useful for follow-ups).
    pub modified_vars: VarTable,
}

/// Probability and influence evaluation hooks for
/// [`modification_query_with`]. Both functions receive the variable table
/// under which to evaluate — the search mutates a private working copy, so
/// implementations caching by formula must only consult their cache when
/// the passed table is the base one (pointer comparison suffices, as
/// [`modification_query`] does for a session's cached estimate).
pub struct ModificationEval<'a> {
    /// Computes `P[λ]` under the given table.
    pub prob: &'a (dyn Fn(&Dnf, &VarTable) -> f64 + 'a),
    /// Computes `Inf_x(λ)` under the given table for each of a step's
    /// candidate literals, in their order.
    pub influence: &'a InfluenceHook<'a>,
}

/// The influence hook's signature: formula, table, candidate literals.
type InfluenceHook<'a> = dyn Fn(&Dnf, &VarTable, &[VarId]) -> Vec<f64> + 'a;

/// Runs a Modification Query: change literal probabilities so that `P[λ]`
/// reaches `target`, at small total cost.
///
/// [`EvalMethod::Exact`] runs on one [`Circuit`] compiled for this call.
/// The Monte-Carlo methods estimate `P[λ]` under each table and answer a
/// step's candidate literals from one sampling pass (one per worker chunk
/// for [`EvalMethod::McParallel`]), with the values the per-literal
/// estimators gave.
pub fn modification_query(
    dnf: &Dnf,
    vars: &VarTable,
    target: f64,
    opts: &ModificationOptions,
) -> ModificationPlan {
    let base = || opts.eval.prob_method().probability(dnf, vars);
    modification_from(dnf, vars, target, opts, &base)
}

/// [`modification_query`], with `base` estimating `P[λ]` under `vars`
/// itself for the Monte-Carlo methods (a session serves it from its
/// cache); [`EvalMethod::Exact`] never calls it.
pub(crate) fn modification_from(
    dnf: &Dnf,
    vars: &VarTable,
    target: f64,
    opts: &ModificationOptions,
    base: &dyn Fn() -> f64,
) -> ModificationPlan {
    // Monte-Carlo, on the calling thread or on `threads` workers.
    let (cfg, threads) = match opts.eval {
        EvalMethod::Exact => return exact_modification(dnf, vars, target, opts),
        EvalMethod::Mc(cfg) => (cfg, None),
        EvalMethod::McParallel(cfg, threads) => (cfg, Some(threads)),
    };
    let method = opts.eval.prob_method();
    let table: *const VarTable = vars;
    let prob = |d: &Dnf, t: &VarTable| -> f64 {
        if std::ptr::eq(t, table) {
            base()
        } else {
            method.probability(d, t)
        }
    };
    let influence = |d: &Dnf, t: &VarTable, candidates: &[VarId]| {
        let all = match threads {
            None => mc::influences(d, t, cfg),
            Some(threads) => parallel::influences(d, t, cfg, threads),
        };
        candidates
            .iter()
            .map(|x| {
                all.binary_search_by_key(x, |&(v, _)| v)
                    .map_or(0.0, |i| all[i].1)
            })
            .collect()
    };
    modification_query_with(
        dnf,
        vars,
        target,
        opts,
        ModificationEval {
            prob: &prob,
            influence: &influence,
        },
    )
}

/// The greedy on one circuit: a forward pass for each table the search
/// evaluates, and one backward pass per step for all its candidates.
fn exact_modification(
    dnf: &Dnf,
    vars: &VarTable,
    target: f64,
    opts: &ModificationOptions,
) -> ModificationPlan {
    let circuit = Circuit::compile(dnf);
    // The last forward pass. The search evaluates each table before it
    // asks for that table's slopes, so the backward pass starts from it.
    let last: RefCell<Option<Evaluation<'_>>> = RefCell::new(None);
    let prob = |_: &Dnf, t: &VarTable| -> f64 {
        let evaluation = circuit.evaluate(t);
        let p = evaluation.probability();
        last.replace(Some(evaluation));
        p
    };
    let influence = |_: &Dnf, t: &VarTable, candidates: &[VarId]| {
        let mut last = last.borrow_mut();
        if !last.as_ref().is_some_and(|e| e.ran_under(t)) {
            *last = Some(circuit.evaluate(t));
        }
        let slopes = last.as_ref().expect("evaluated above").derivatives();
        candidates
            .iter()
            .map(|x| circuit.vars().binary_search(x).map_or(0.0, |i| slopes[i]))
            .collect()
    };
    modification_query_with(
        dnf,
        vars,
        target,
        opts,
        ModificationEval {
            prob: &prob,
            influence: &influence,
        },
    )
}

/// Like [`modification_query`], but probability and influence evaluation go
/// through the caller's hooks ([`ModificationOptions::eval`] is ignored).
/// The initial probability is evaluated against `vars` itself, so a caching
/// hook keyed to the base table serves it from cache; all later
/// evaluations pass the mutated working copy.
pub fn modification_query_with(
    dnf: &Dnf,
    vars: &VarTable,
    target: f64,
    opts: &ModificationOptions,
    eval: ModificationEval<'_>,
) -> ModificationPlan {
    assert!(
        (0.0..=1.0).contains(&target),
        "target probability {target} out of range"
    );
    let mut working = vars.clone();
    let mut remaining: Vec<VarId> = match &opts.modifiable {
        Some(list) => {
            let in_dnf = dnf.vars();
            list.iter()
                .copied()
                .filter(|v| in_dnf.binary_search(v).is_ok())
                .collect()
        }
        None => dnf.vars(),
    };
    let mut rng = match opts.strategy {
        Strategy::Random { seed } => Some(SmallRng::seed_from_u64(seed)),
        Strategy::Greedy => None,
    };

    let prob = eval.prob;
    let influence = eval.influence;

    let initial_probability = prob(dnf, vars);
    let mut current = initial_probability;
    let mut steps: Vec<ModificationStep> = Vec::new();

    for _ in 0..opts.max_steps {
        if (current - target).abs() <= opts.tolerance || remaining.is_empty() {
            break;
        }
        let need_increase = target > current;

        // Choose the literal: steepest slope, or random for the baseline.
        // A literal whose probability is already at the useful bound cannot
        // make progress and is dropped from consideration.
        let candidates: Vec<usize> = (0..remaining.len())
            .filter(|&i| {
                let p = working.prob(remaining[i]);
                let at_bound = if need_increase { p >= 1.0 } else { p <= 0.0 };
                !at_bound
            })
            .collect();
        if candidates.is_empty() {
            break;
        }
        let literals: Vec<VarId> = candidates.iter().map(|&i| remaining[i]).collect();
        let usable: Vec<(usize, f64)> = candidates
            .into_iter()
            .zip(influence(dnf, &working, &literals))
            .filter(|&(_, inf)| inf > 1e-12)
            .collect();
        if usable.is_empty() {
            break;
        }
        let (idx, inf) = match &mut rng {
            Some(rng) => usable[rng.random_range(0..usable.len())],
            None => usable
                .iter()
                .copied()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("usable is non-empty"),
        };
        let x = remaining[idx];
        let from = working.prob(x);

        // Eq. 16: target = inf · p'(x) + (current − inf · p(x)).
        let ideal = from + (target - current) / inf;
        let to = ideal.clamp(0.0, 1.0);
        if (to - from).abs() <= f64::EPSILON {
            remaining.remove(idx);
            continue;
        }
        working.set_prob(x, to);
        current = prob(dnf, &working);
        steps.push(ModificationStep {
            var: x,
            from,
            to,
            resulting_probability: current,
        });
        remaining.remove(idx);
    }

    let total_cost = steps.iter().map(|s| (s.to - s.from).abs()).sum();
    ModificationPlan {
        steps,
        total_cost,
        initial_probability,
        achieved_probability: current,
        reached_target: (current - target).abs() <= opts.tolerance,
        modified_vars: working,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_prob::Monomial;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn m(lits: &[u32]) -> Monomial {
        Monomial::new(lits.iter().map(|&i| v(i)).collect())
    }

    fn table(probs: &[f64]) -> VarTable {
        let mut t = VarTable::new();
        for (i, &p) in probs.iter().enumerate() {
            t.add(format!("x{i}"), p);
        }
        t
    }

    /// Acquaintance polynomial; vars 0=r1..7=t6 as in the other modules.
    fn acquaintance() -> (Dnf, VarTable) {
        let vars = table(&[0.8, 0.4, 0.2, 1.0, 1.0, 0.4, 0.6, 1.0]);
        let dnf = Dnf::new(vec![m(&[2, 7, 0, 3, 4]), m(&[2, 7, 1, 5, 6])]);
        (dnf, vars)
    }

    #[test]
    fn paper_modification_example_raises_r3() {
        // §4.4: raise P[know(Ben,Elena)] to 0.5. The most influential
        // literal is r3; with our exact numbers the solution is
        // r3 → 0.5/0.8192 ≈ 0.6104 (the paper, using its own arithmetic,
        // reports 0.56 at cost 0.36 — same variable, same direction).
        let (dnf, vars) = acquaintance();
        let plan = modification_query(
            &dnf,
            &vars,
            0.5,
            &ModificationOptions {
                tolerance: 1e-9,
                ..Default::default()
            },
        );
        assert!(plan.reached_target, "{plan:?}");
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.steps[0].var, v(2), "r3 is changed");
        assert!((plan.steps[0].to - 0.5 / 0.8192).abs() < 1e-9);
        assert!((plan.total_cost - (0.5 / 0.8192 - 0.2)).abs() < 1e-9);
        assert!((plan.achieved_probability - 0.5).abs() < 1e-9);
    }

    #[test]
    fn multiple_steps_when_one_variable_is_not_enough() {
        // Target 0.9 cannot be reached by r3 alone (max 0.8192): the greedy
        // continues with further literals.
        let (dnf, vars) = acquaintance();
        let plan = modification_query(
            &dnf,
            &vars,
            0.9,
            &ModificationOptions {
                tolerance: 1e-9,
                ..Default::default()
            },
        );
        assert!(plan.steps.len() >= 2, "{plan:?}");
        assert_eq!(plan.steps[0].var, v(2));
        assert_eq!(plan.steps[0].to, 1.0, "clamped to the maximum");
        assert!(plan.reached_target);
        assert!((plan.achieved_probability - 0.9).abs() < 1e-9);
    }

    #[test]
    fn decreasing_works_too() {
        let (dnf, vars) = acquaintance();
        let plan = modification_query(
            &dnf,
            &vars,
            0.05,
            &ModificationOptions {
                tolerance: 1e-9,
                ..Default::default()
            },
        );
        assert!(plan.reached_target, "{plan:?}");
        assert!((plan.achieved_probability - 0.05).abs() < 1e-9);
        assert!(plan.steps.iter().all(|s| s.to < s.from));
    }

    #[test]
    fn greedy_beats_random_on_cost() {
        // The paper's Table 6 vs Table 7 comparison, in miniature: on the
        // acquaintance polynomial the greedy plan costs no more than the
        // random baseline (averaged over seeds to avoid a lucky draw).
        let (dnf, vars) = acquaintance();
        let greedy = modification_query(
            &dnf,
            &vars,
            0.6,
            &ModificationOptions {
                tolerance: 1e-6,
                ..Default::default()
            },
        );
        assert!(greedy.reached_target);
        let mut random_costs = Vec::new();
        for seed in 0..10 {
            let plan = modification_query(
                &dnf,
                &vars,
                0.6,
                &ModificationOptions {
                    strategy: Strategy::Random { seed },
                    tolerance: 1e-6,
                    ..Default::default()
                },
            );
            if plan.reached_target {
                random_costs.push(plan.total_cost);
            }
        }
        assert!(!random_costs.is_empty());
        let avg_random: f64 = random_costs.iter().sum::<f64>() / random_costs.len() as f64;
        assert!(
            greedy.total_cost <= avg_random + 1e-9,
            "greedy {} vs avg random {avg_random}",
            greedy.total_cost
        );
    }

    #[test]
    fn modifiable_restriction_is_respected() {
        let (dnf, vars) = acquaintance();
        // Only t4 and t5 (vars 5, 6) may change; the reachable range is
        // limited but all steps must stay within the set.
        let plan = modification_query(
            &dnf,
            &vars,
            0.5,
            &ModificationOptions {
                modifiable: Some(vec![v(5), v(6)]),
                tolerance: 1e-9,
                ..Default::default()
            },
        );
        assert!(plan.steps.iter().all(|s| s.var == v(5) || s.var == v(6)));
        assert!(!plan.reached_target, "t4/t5 alone cannot lift P to 0.5");
    }

    #[test]
    fn unreachable_target_reports_failure_gracefully() {
        let vars = table(&[0.5, 0.5]);
        let dnf = Dnf::new(vec![m(&[0, 1])]);
        let plan = modification_query(
            &dnf,
            &vars,
            1.0,
            &ModificationOptions {
                tolerance: 1e-9,
                ..Default::default()
            },
        );
        // Setting both literals to 1.0 reaches exactly 1.0 — so use a
        // polynomial where that is impossible by restricting the set.
        assert!(plan.reached_target);
        let plan = modification_query(
            &dnf,
            &vars,
            1.0,
            &ModificationOptions {
                modifiable: Some(vec![v(0)]),
                tolerance: 1e-9,
                ..Default::default()
            },
        );
        assert!(!plan.reached_target);
        assert!(
            (plan.achieved_probability - 0.5).abs() < 1e-9,
            "x0=1 gives P=p(x1)=0.5"
        );
    }

    #[test]
    fn already_at_target_changes_nothing() {
        let (dnf, vars) = acquaintance();
        let p0 = p3_prob::exact::probability(&dnf, &vars);
        let plan = modification_query(
            &dnf,
            &vars,
            p0,
            &ModificationOptions {
                tolerance: 1e-9,
                ..Default::default()
            },
        );
        assert!(plan.steps.is_empty());
        assert_eq!(plan.total_cost, 0.0);
        assert!(plan.reached_target);
    }

    #[test]
    fn cost_accounting_matches_steps() {
        let (dnf, vars) = acquaintance();
        let plan = modification_query(
            &dnf,
            &vars,
            0.7,
            &ModificationOptions {
                tolerance: 1e-9,
                ..Default::default()
            },
        );
        let recomputed: f64 = plan.steps.iter().map(|s| (s.to - s.from).abs()).sum();
        assert!((plan.total_cost - recomputed).abs() < 1e-12);
        // The modified table reflects the steps.
        for s in &plan.steps {
            assert_eq!(plan.modified_vars.prob(s.var), s.to);
        }
    }
}
