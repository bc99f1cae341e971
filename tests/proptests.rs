//! Property-based tests over the whole stack.

use p3::core::query::influence::exact_influence;
use p3::core::{sufficient_provenance, DerivationAlgo, ProbMethod};
use p3::prob::{exact, mc, Circuit, Dnf, McConfig, Monomial, MonomialStack, VarId, VarTable};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Variables in the table of a spread-mode formula.
const SPREAD_VARS: usize = 200;

/// Strategy: a variable table with arbitrary probabilities, monomials over
/// `nvars ≤ max_vars` of its variables, and those `nvars` variables (the
/// draw's domain, which the monomials need not all mention).
///
/// Dense mode draws the variables `0..nvars` of an `nvars`-variable table,
/// so every formula fits in one 64-bit word and no two variables share a
/// bit modulo 64. Spread mode maps those indices injectively (a random
/// permutation) into a table of [`SPREAD_VARS`] variables, so a formula's
/// ids are sparse and span several 64-id ranges, and two of its variables
/// may share a bit modulo 64 (the absorption signature's bit).
fn monomials_and_table(
    max_vars: usize,
    max_monomials: usize,
    spread: bool,
) -> impl Strategy<Value = (Vec<Monomial>, VarTable, Vec<VarId>)> {
    (2..=max_vars).prop_flat_map(move |nvars| {
        let table_len = if spread { SPREAD_VARS } else { nvars };
        let probs = proptest::collection::vec(0.0f64..=1.0, table_len);
        let monomials = proptest::collection::vec(
            proptest::collection::vec(0..nvars as u32, 1..=3),
            1..=max_monomials,
        );
        let keys = proptest::collection::vec(0..u32::MAX, table_len);
        (probs, monomials, keys).prop_map(move |(probs, monomials, keys)| {
            let mut table = VarTable::new();
            for (i, p) in probs.iter().enumerate() {
                table.add(format!("x{i}"), *p);
            }
            let mut var: Vec<VarId> = (0..table_len as u32).map(VarId).collect();
            if spread {
                var.sort_by_key(|&v| keys[v.0 as usize]);
            }
            let monomials = monomials
                .into_iter()
                .map(|lits| Monomial::new(lits.into_iter().map(|i| var[i as usize]).collect()))
                .collect();
            var.truncate(nvars);
            (monomials, table, var)
        })
    })
}

/// Strategy: a formula whose monomials mention every variable of a table of
/// 65 to `max_vars` variables, so its compiled rows span two to four 64-slot
/// words: consecutive runs of one to three variables (some runs cross a
/// word boundary), plus up to 20 random monomials. Probabilities stay
/// below 0.1 so that sampled worlds both satisfy and falsify the formula.
fn wide_dnf_and_table(max_vars: usize) -> impl Strategy<Value = (Dnf, VarTable)> {
    (65..=max_vars).prop_flat_map(|nvars| {
        let probs = proptest::collection::vec(0.0f64..0.1, nvars);
        let runs = proptest::collection::vec(1..=3usize, nvars);
        let extra =
            proptest::collection::vec(proptest::collection::vec(0..nvars as u32, 2..=3), 0..=20);
        (probs, runs, extra).prop_map(move |(probs, runs, extra)| {
            let mut table = VarTable::new();
            for (i, p) in probs.iter().enumerate() {
                table.add(format!("x{i}"), *p);
            }
            let mut monomials = Vec::new();
            let mut start = 0;
            for len in runs {
                if start == nvars {
                    break;
                }
                let end = (start + len).min(nvars);
                monomials.push(Monomial::new(
                    (start..end).map(|v| VarId(v as u32)).collect(),
                ));
                start = end;
            }
            monomials.extend(
                extra
                    .into_iter()
                    .map(|lits| Monomial::new(lits.into_iter().map(VarId).collect())),
            );
            (Dnf::new(monomials), table)
        })
    })
}

/// The paired influence estimator by Definition 4.1, literal by literal:
/// replay the seeded draws (one per variable of `dnf.vars()`, in order, per
/// world), then count, for each literal `x`, the worlds in which
/// `dnf.restrict(x, true)` holds and `dnf.restrict(x, false)` fails,
/// evaluated on the formulas' `Monomial` literals.
fn influence_by_definition(dnf: &Dnf, vars: &VarTable, cfg: McConfig) -> Vec<(VarId, f64)> {
    let ids = dnf.vars();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let worlds: Vec<Vec<bool>> = (0..cfg.samples)
        .map(|_| {
            let mut world = vec![false; vars.len()];
            for &v in &ids {
                world[v.0 as usize] = rng.random::<f64>() < vars.prob(v);
            }
            world
        })
        .collect();
    let holds = |f: &Dnf, world: &[bool]| {
        f.monomials()
            .iter()
            .any(|m| m.literals().iter().all(|l| world[l.0 as usize]))
    };
    let mut out: Vec<(VarId, f64)> = ids
        .iter()
        .map(|&x| {
            let (hi, lo) = (dnf.restrict(x, true), dnf.restrict(x, false));
            let hits = worlds
                .iter()
                .filter(|w| holds(&hi, w) && !holds(&lo, w))
                .count();
            (x, hits as f64 / cfg.samples.max(1) as f64)
        })
        .collect();
    mc::sort_by_influence(&mut out);
    out
}

/// `vars` with about a fifth of its probabilities set to 0, a fifth to 1
/// and the rest redrawn, seeded by `seed`.
fn perturbed(vars: &VarTable, seed: u64) -> VarTable {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = vars.clone();
    for v in vars.ids() {
        let p = match rng.random::<f64>() {
            r if r < 0.2 => 0.0,
            r if r < 0.4 => 1.0,
            _ => rng.random::<f64>(),
        };
        out.set_prob(v, p);
    }
    out
}

/// The smallest budget `exact::try_probability` accepts: acceptance is
/// monotone in the budget, so double until accepted, then bisect.
fn min_budget(dnf: &Dnf, vars: &VarTable) -> usize {
    let accepts = |b: usize| exact::try_probability(dnf, vars, b).is_ok();
    let (mut lo, mut hi) = (0, 1);
    if accepts(0) {
        return 0;
    }
    while !accepts(hi) {
        (lo, hi) = (hi, 2 * hi);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if accepts(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Strategy: a variable table and a DNF over it (see
/// [`monomials_and_table`] for the two modes).
fn dnf_and_table(
    max_vars: usize,
    max_monomials: usize,
    spread: bool,
) -> impl Strategy<Value = (Dnf, VarTable)> {
    monomials_and_table(max_vars, max_monomials, spread)
        .prop_map(|(monomials, table, _)| (Dnf::new(monomials), table))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_probability_is_in_unit_interval(
        dense in dnf_and_table(6, 6, false),
        spread in dnf_and_table(6, 6, true),
    ) {
        for (dnf, vars) in [dense, spread] {
            let p = exact::probability(&dnf, &vars);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p), "{p}");
        }
    }

    #[test]
    fn shannon_identity_holds(
        dense in dnf_and_table(6, 6, false),
        spread in dnf_and_table(6, 6, true),
    ) {
        // P[λ] = p(x)·P[λ|x=1] + (1−p(x))·P[λ|x=0] for every variable.
        for (dnf, vars) in [dense, spread] {
            let p = exact::probability(&dnf, &vars);
            for x in dnf.vars() {
                let px = vars.prob(x);
                let hi = exact::probability(&dnf.restrict(x, true), &vars);
                let lo = exact::probability(&dnf.restrict(x, false), &vars);
                prop_assert!((p - (px * hi + (1.0 - px) * lo)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn bdd_wmc_equals_shannon(
        dense in dnf_and_table(7, 7, false),
        spread in dnf_and_table(7, 7, true),
    ) {
        for (dnf, vars) in [dense, spread] {
            let shannon = exact::probability(&dnf, &vars);
            let mut bdd = p3::prob::bdd::Bdd::new();
            let node = bdd.from_dnf(&dnf);
            prop_assert!((bdd.wmc(node, &vars) - shannon).abs() < 1e-9);
        }
    }

    #[test]
    fn bdd_wmc_equals_shannon_beyond_one_word((dnf, vars) in dnf_and_table(6, 6, false)) {
        // Copies of the formula, each sharing its first variable with the
        // previous copy's last, over 130 variables or more: the Shannon
        // kernel's monomials span up to three 64-bit words.
        let stride = vars.len() as u32 - 1;
        let copies = 130u32.div_ceil(stride);
        let mut table = VarTable::new();
        for v in 0..copies * stride + 1 {
            table.add(format!("y{v}"), vars.prob(VarId(v % stride)));
        }
        let chain = Dnf::new(
            (0..copies)
                .flat_map(|c| {
                    dnf.monomials().iter().map(move |m| {
                        Monomial::new(m.literals().iter().map(|v| VarId(c * stride + v.0)).collect())
                    })
                })
                .collect(),
        );
        let shannon = exact::probability(&chain, &table);
        let mut bdd = p3::prob::bdd::Bdd::new();
        let node = bdd.from_dnf(&chain);
        prop_assert!((bdd.wmc(node, &table) - shannon).abs() < 1e-9);
    }

    #[test]
    fn monotonicity_under_or(
        dense in monomials_and_table(6, 5, false),
        spread in monomials_and_table(6, 5, true),
        extra in proptest::collection::vec(0..6usize, 1..=2),
    ) {
        // Adding a derivation can only increase the probability. Its
        // variables come from the draw's domain, so it may bring in ones the
        // formula does not mention.
        for (monomials, vars, domain) in [dense, spread] {
            let dnf = Dnf::new(monomials);
            let p = exact::probability(&dnf, &vars);
            let extra: Vec<VarId> = extra.iter().map(|&i| domain[i % domain.len()]).collect();
            let bigger = dnf.or(&Dnf::new(vec![Monomial::new(extra)]));
            let p2 = exact::probability(&bigger, &vars);
            prop_assert!(p2 >= p - 1e-12, "{p2} < {p}");
        }
    }

    #[test]
    fn restriction_brackets_the_probability(
        dense in dnf_and_table(6, 6, false),
        spread in dnf_and_table(6, 6, true),
    ) {
        // For monotone formulas: P[λ|x=0] ≤ P[λ] ≤ P[λ|x=1].
        for (dnf, vars) in [dense, spread] {
            let p = exact::probability(&dnf, &vars);
            for x in dnf.vars() {
                let hi = exact::probability(&dnf.restrict(x, true), &vars);
                let lo = exact::probability(&dnf.restrict(x, false), &vars);
                prop_assert!(lo <= p + 1e-12 && p <= hi + 1e-12);
            }
        }
    }

    #[test]
    fn normalisation_keeps_exactly_the_minimal_monomials(
        (monomials, _, _) in monomials_and_table(7, 7, true),
    ) {
        // Every output is an input, every input is subsumed by an output,
        // and no output absorbs another: the outputs are the minimal inputs.
        let dnf = Dnf::new(monomials.clone());
        for m in dnf.monomials() {
            prop_assert!(monomials.contains(m), "{m:?} is not an input");
        }
        for m in &monomials {
            prop_assert!(
                dnf.monomials().iter().any(|k| k.subsumes(m)),
                "{m:?} is not subsumed"
            );
        }
        prop_assert!(dnf.check_invariants().is_ok(), "{:?}", dnf.check_invariants());
    }

    #[test]
    fn absorption_preserves_probability((dnf, vars) in dnf_and_table(6, 6, false)) {
        // Re-normalising an already-normalised formula (or re-adding absorbed
        // monomials) never changes its probability: λ + λ·extra ≡ λ.
        let p = exact::probability(&dnf, &vars);
        let mut monomials = dnf.monomials().to_vec();
        if let Some(first) = dnf.monomials().first() {
            let mut lits = first.literals().to_vec();
            lits.push(dnf.vars()[0]);
            monomials.push(Monomial::new(lits));
        }
        let redundant = Dnf::new(monomials);
        prop_assert!((exact::probability(&redundant, &vars) - p).abs() < 1e-12);
    }

    #[test]
    fn sufficient_provenance_respects_eps(
        (dnf, vars) in dnf_and_table(6, 6, false),
        eps in 0.0f64..0.3,
    ) {
        for algo in [DerivationAlgo::NaiveGreedy, DerivationAlgo::ReSuciu] {
            let s = sufficient_provenance(&dnf, &vars, eps, algo, ProbMethod::Exact);
            prop_assert!(s.error <= eps + 1e-9, "{algo:?}: {} > {eps}", s.error);
            // λS is a sub-formula.
            for m in s.polynomial.monomials() {
                prop_assert!(dnf.monomials().contains(m));
            }
        }
    }

    #[test]
    fn influence_bounds_hold((dnf, vars) in dnf_and_table(6, 6, false)) {
        // 0 ≤ Inf_x ≤ 1 for monotone formulas, and Eq. 16 reconstructs P.
        let p = exact::probability(&dnf, &vars);
        for x in dnf.vars() {
            let inf = exact_influence(&dnf, &vars, x);
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&inf));
            let lo = exact::probability(&dnf.restrict(x, false), &vars);
            prop_assert!((p - (inf * vars.prob(x) + lo)).abs() < 1e-9, "Eq. 16");
        }
    }

    #[test]
    fn mc_estimate_brackets_exact((dnf, vars) in dnf_and_table(5, 4, false)) {
        let p = exact::probability(&dnf, &vars);
        let est = mc::estimate(&dnf, &vars, McConfig { samples: 60_000, seed: 1234 });
        // 60k samples: generous 4-sigma band plus slack for tiny p.
        let sigma = (p * (1.0 - p) / 60_000.0).sqrt();
        prop_assert!((est - p).abs() < 4.0 * sigma + 0.01, "est {est} vs exact {p}");
    }

    #[test]
    fn karp_luby_brackets_exact((dnf, vars) in dnf_and_table(5, 4, false)) {
        let p = exact::probability(&dnf, &vars);
        let est = mc::karp_luby(&dnf, &vars, McConfig { samples: 60_000, seed: 99 });
        prop_assert!((est - p).abs() < 0.02, "est {est} vs exact {p}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One sampling pass counts what the per-literal definition counts, on
    /// dense and spread draws and on formulas of two to four 64-slot words.
    #[test]
    fn one_pass_influence_equals_the_definition(
        dense in dnf_and_table(7, 7, false),
        spread in dnf_and_table(7, 7, true),
        wide in wide_dnf_and_table(250),
        seed in 0u64..1000,
    ) {
        let cfg = McConfig { samples: 64, seed };
        for (dnf, vars) in [dense, spread, wide] {
            prop_assert_eq!(
                mc::influence_all(&dnf, &vars, cfg),
                influence_by_definition(&dnf, &vars, cfg)
            );
        }
    }

    /// The monomial stack builds what `Dnf` builds, on ranges above an
    /// untouched prefix: normalising a pushed range is `Dnf::new`, the
    /// in-place product of two canonical ranges is `Dnf::and`, and
    /// normalising them concatenated is `Dnf::or`.
    #[test]
    fn monomial_stack_agrees_with_dnf(
        (dense, _, _) in monomials_and_table(7, 7, false),
        (spread, _, _) in monomials_and_table(7, 7, true),
        (wide, _) in wide_dnf_and_table(250),
    ) {
        let wide = wide.monomials().to_vec();
        for (a, b) in [(&dense, &spread), (&spread, &dense), (&wide, &dense), (&spread, &wide)] {
            let mut stack = MonomialStack::new();
            stack.push(&[VarId(999)]);
            for m in a {
                stack.push(m.literals());
            }
            let range = stack.normalize(1);
            let da = Dnf::new(a.clone());
            prop_assert_eq!(stack.dnf(range), da.clone());
            let split = stack.len();
            for m in b {
                stack.push(m.literals());
            }
            let db = Dnf::new(b.clone());
            stack.normalize(split);
            let mut product = stack.clone();
            let sum = stack.normalize(1);
            prop_assert_eq!(stack.dnf(sum), da.or(&db));
            product.product(1, split);
            let range = product.normalize(1);
            prop_assert_eq!(product.dnf(range), da.and(&db));
            prop_assert_eq!(product.monomial(0), &[VarId(999)]);
        }
    }

    /// The compiled circuit is the exact kernel: its forward pass has
    /// `exact::probability`'s bits under the base table and under a table
    /// with probabilities of 0 and 1, its backward pass gives Def 4.1's
    /// influences (of every variable of a dense or spread draw, and of 32
    /// spread across the words of a wide one), and it accepts exactly the
    /// budgets the kernel accepts.
    #[test]
    fn circuit_is_the_kernel_and_differentiates_it(
        dense in dnf_and_table(7, 7, false),
        spread in dnf_and_table(7, 7, true),
        wide in wide_dnf_and_table(250),
        seed in 0u64..1000,
    ) {
        for (dnf, vars) in [dense, spread, wide] {
            let circuit = Circuit::compile(&dnf);
            let stride = circuit.vars().len().div_ceil(32);
            for table in [vars.clone(), perturbed(&vars, seed)] {
                let p = exact::probability(&dnf, &table);
                prop_assert_eq!(circuit.probability(&table).to_bits(), p.to_bits());
                for (x, inf) in circuit.influences(&table).into_iter().step_by(stride) {
                    let expected = exact_influence(&dnf, &table, x);
                    prop_assert!((inf - expected).abs() <= 1e-12, "{}: {} vs {}", x, inf, expected);
                }
            }
            let budget = min_budget(&dnf, &vars);
            prop_assert!(Circuit::try_compile(&dnf, budget).is_ok());
            if budget > 0 {
                prop_assert!(Circuit::try_compile(&dnf, budget - 1).is_err());
            }
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(src in "\\PC{0,200}") {
        // Any input must produce Ok or a structured error — never a panic.
        let _ = p3::datalog::Program::parse(&src);
    }

    #[test]
    fn parser_never_panics_on_clause_shaped_input(
        head in "[a-z][a-z0-9_]{0,8}",
        args in "[A-Za-z0-9_,\"\\. ]{0,30}",
        p in 0.0f64..1.5,
    ) {
        let _ = p3::datalog::Program::parse(&format!("{p}::{head}({args})."));
        let _ = p3::datalog::Program::parse(&format!("x1 {p}: {head}({args}) :- {head}({args})."));
    }

    #[test]
    fn parser_round_trips_generated_programs(seed in 0u64..500) {
        let program = p3::workloads::random_programs::generate(
            p3::workloads::random_programs::RandomConfig { seed, ..Default::default() },
        );
        let reparsed = p3::datalog::Program::parse(&program.to_source()).unwrap();
        prop_assert_eq!(program.to_source(), reparsed.to_source());
    }

    #[test]
    fn modification_reaches_reachable_targets(
        (dnf, vars) in dnf_and_table(5, 4, false),
        t in 0.05f64..0.95,
    ) {
        use p3::core::{modification_query, ModificationOptions};
        let plan = modification_query(
            &dnf,
            &vars,
            t,
            &ModificationOptions { tolerance: 1e-6, ..Default::default() },
        );
        // Cost bookkeeping is always consistent.
        let recomputed: f64 = plan.steps.iter().map(|s| (s.to - s.from).abs()).sum();
        prop_assert!((plan.total_cost - recomputed).abs() < 1e-9);
        // The achieved probability is the exact one under the modified
        // table, bit for bit, and reaches the target when it claims to.
        let p = exact::probability(&dnf, &plan.modified_vars);
        prop_assert_eq!(plan.achieved_probability.to_bits(), p.to_bits());
        if plan.reached_target {
            prop_assert!((p - t).abs() < 1e-5, "claimed {t}, got {p}");
        }
    }
}
