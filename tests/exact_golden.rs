//! Golden snapshot of exact probability answers, bit for bit.
//!
//! For each formula the snapshot holds the bits of `exact::probability`,
//! the smallest budget `exact::try_probability` accepts (formulas of at
//! most 100 monomials), the bits of `exact_influence` for its first eight
//! variables, and the ε = 0.02 exact Derivation Query of both algorithms
//! (probability bits and monomial count). Any change to the Shannon
//! expansion's decisions or arithmetic order shows here as a changed bit.
//!
//! Corpus: every derived atom of Fig 2 and of `random_programs` seeds 0–59
//! (default and recursive configs), the Fig 8 case study, both §5.1 church
//! answers before and after the fix, two wide `mutualTrustPath` atoms of
//! the §6.2 trust sample (367 and 1,117 monomials), and a 64-monomial
//! chain over 129 variables, three words per monomial.
//!
//! Regenerate after an intentional change with
//! `P3_UPDATE_EXPECTED=1 cargo test --test exact_golden`.
//!
//! A second test pins the exact Modification Query, which runs on the
//! circuit, to the plans the two-expansion reference makes.

use p3::core::query::influence::exact_influence;
use p3::core::{
    modification_query, modification_query_with, sufficient_provenance, DerivationAlgo,
    ModificationEval, ModificationOptions, ModificationPlan, ProbMethod, P3,
};
use p3::datalog::Program;
use p3::prob::{exact, Circuit, Dnf, Monomial, VarId, VarTable};
use p3::workloads::random_programs::{all_derived_queries, generate, RandomConfig};
use p3::workloads::{acquaintance, trust, vqa};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;

fn bits(p: f64) -> String {
    format!("{:016x}", p.to_bits())
}

/// The smallest budget `try_probability` accepts: acceptance is monotone
/// in the budget, so double until accepted, then bisect.
fn min_budget(dnf: &Dnf, vars: &VarTable) -> usize {
    let accepts = |b: usize| exact::try_probability(dnf, vars, b).is_ok();
    if accepts(0) {
        return 0;
    }
    let mut hi = 1;
    while !accepts(hi) {
        hi *= 2;
    }
    let mut lo = hi / 2; // rejected (or 0, rejected above)
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

/// What the snapshot records, plus the circuit's value for each of its
/// `influence` lines, in line order.
#[derive(Default)]
struct Snapshot {
    text: String,
    circuit_influences: Vec<f64>,
}

fn record(snap: &mut Snapshot, name: &str, dnf: &Dnf, vars: &VarTable) {
    let out = &mut snap.text;
    let shape = dnf.shape();
    let _ = writeln!(
        out,
        "== {name}\nshape {} monomials {} vars",
        shape.monomials, shape.distinct_vars
    );
    let _ = writeln!(out, "exact {}", bits(exact::probability(dnf, vars)));
    if dnf.len() <= 100 {
        let _ = writeln!(out, "budget {}", min_budget(dnf, vars));
    }
    let circuit = Circuit::compile(dnf).influences(vars);
    for (x, derivative) in circuit.into_iter().take(8) {
        let inf = exact_influence(dnf, vars, x);
        let _ = writeln!(out, "influence {} {}", vars.name(x), bits(inf));
        snap.circuit_influences.push(derivative);
    }
    for (label, algo) in [
        ("greedy", DerivationAlgo::NaiveGreedy),
        ("resuciu", DerivationAlgo::ReSuciu),
    ] {
        let s = sufficient_provenance(dnf, vars, 0.02, algo, ProbMethod::Exact);
        let _ = writeln!(
            out,
            "{label} {} {}",
            bits(s.probability),
            s.polynomial.len()
        );
    }
}

fn record_atoms(snap: &mut Snapshot, name: &str, program: &Program, atoms: &[String]) {
    let p3 = P3::from_program(program.clone()).expect("negation-free program");
    for atom in atoms {
        let dnf = p3.provenance(atom).expect("derived atom");
        record(snap, &format!("{name} {atom}"), &dnf, p3.vars());
    }
}

fn record_all_derived(snap: &mut Snapshot, name: &str, program: &Program) {
    record_atoms(snap, name, program, &all_derived_queries(program));
}

/// `k` three-literal monomials over `2k + 1` variables, neighbours sharing
/// one variable (the `dnf_probability` bench's chain).
fn chain_dnf(k: usize, seed: u64) -> (Dnf, VarTable) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut vars = VarTable::new();
    for i in 0..(2 * k + 1) {
        vars.add(format!("x{i}"), rng.random::<f64>());
    }
    let monomials = (0..k as u32)
        .map(|i| Monomial::new(vec![VarId(2 * i), VarId(2 * i + 1), VarId(2 * i + 2)]))
        .collect();
    (Dnf::new(monomials), vars)
}

fn snapshot() -> Snapshot {
    let mut out = Snapshot::default();
    record_all_derived(&mut out, "fig2", &acquaintance::program());
    for seed in 0..60u64 {
        let default = generate(RandomConfig {
            seed,
            ..Default::default()
        });
        record_all_derived(&mut out, &format!("random default seed {seed}"), &default);
        let recursive = generate(RandomConfig {
            seed: seed.wrapping_mul(6007),
            recursion_bias: 0.9,
            rules: 5,
            facts: 7,
            ..Default::default()
        });
        record_all_derived(
            &mut out,
            &format!("random recursive seed {seed}"),
            &recursive,
        );
    }
    record_atoms(
        &mut out,
        "fig8",
        &trust::case_study_program(),
        &[trust::CASE_STUDY_QUERY.to_string()],
    );
    let church = [vqa::ANS_BARN.to_string(), vqa::ANS_CHURCH.to_string()];
    record_atoms(
        &mut out,
        "church buggy",
        &vqa::church_image_buggy().to_program(),
        &church,
    );
    record_atoms(
        &mut out,
        "church fixed",
        &vqa::church_image_fixed().to_program(),
        &church,
    );
    let sample = trust::generate(trust::NetworkConfig::default()).sample_bfs(250, 11);
    record_atoms(
        &mut out,
        "trust bfs 250",
        &sample.to_program(),
        &[
            "mutualTrustPath(32,5492)".to_string(),
            "mutualTrustPath(0,1524)".to_string(),
        ],
    );
    let (dnf, vars) = chain_dnf(64, 7);
    record(&mut out, "chain 64", &dnf, &vars);
    out
}

/// Each `influence` line of `expected` whose value is more than 1e-12 from
/// the circuit's, with its section.
fn circuit_drift(expected: &str, circuit: &[f64]) -> Vec<String> {
    let mut section = "";
    let mut lines = Vec::new();
    for line in expected.lines() {
        if line.starts_with("== ") {
            section = line;
        }
        if let Some(rest) = line.strip_prefix("influence ") {
            let value = rest.rsplit(' ').next().expect("bits");
            let golden = f64::from_bits(u64::from_str_radix(value, 16).expect("hex bits"));
            lines.push((section, line, golden));
        }
    }
    assert_eq!(
        lines.len(),
        circuit.len(),
        "one circuit value per influence line"
    );
    lines
        .into_iter()
        .zip(circuit)
        .filter(|((_, _, golden), c)| (*c - golden).abs() > 1e-12)
        .map(|((section, line, golden), c)| format!("{section}\n  {line}: {golden} vs circuit {c}"))
        .collect()
}

#[test]
fn exact_answers_match_the_golden_snapshot() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exact.txt");
    let Snapshot {
        text: actual,
        circuit_influences,
    } = snapshot();
    if std::env::var_os("P3_UPDATE_EXPECTED").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} (set P3_UPDATE_EXPECTED=1 to create): {e}",
            path.display()
        )
    });
    let drift = circuit_drift(&expected, &circuit_influences);
    assert!(
        drift.is_empty(),
        "circuit influences off the golden by more than 1e-12:\n{}",
        drift.join("\n")
    );
    if actual != expected {
        let mut section = "";
        let mut drift: Vec<String> = Vec::new();
        for (e, a) in expected.lines().zip(actual.lines()) {
            if e.starts_with("== ") {
                section = e;
            }
            if e != a && drift.len() < 10 {
                drift.push(format!("{section}\n- {e}\n+ {a}"));
            }
        }
        panic!(
            "exact answers drifted from {} ({} vs {} lines):\n{}",
            path.display(),
            expected.lines().count(),
            actual.lines().count(),
            drift.join("\n")
        );
    }
}

/// The exact plan, step variables and values, against the plan the greedy
/// makes with Def 4.1's two expansions per candidate and a fresh exact
/// probability per table.
fn assert_same_plan(
    name: &str,
    dnf: &Dnf,
    vars: &VarTable,
    target: f64,
    opts: &ModificationOptions,
) {
    let prob = |d: &Dnf, t: &VarTable| exact::probability(d, t);
    let influence = |d: &Dnf, t: &VarTable, candidates: &[VarId]| {
        candidates
            .iter()
            .map(|&x| exact_influence(d, t, x))
            .collect()
    };
    let reference = modification_query_with(
        dnf,
        vars,
        target,
        opts,
        ModificationEval {
            prob: &prob,
            influence: &influence,
        },
    );
    let plan = modification_query(dnf, vars, target, opts);
    let steps = |p: &ModificationPlan| -> Vec<String> {
        p.steps
            .iter()
            .map(|s| vars.name(s.var).to_string())
            .collect()
    };
    assert_eq!(steps(&plan), steps(&reference), "{name}: step variables");
    assert!(!plan.steps.is_empty(), "{name}: a plan with steps");
    for (s, r) in plan.steps.iter().zip(&reference.steps) {
        assert!((s.to - r.to).abs() < 1e-9, "{name}: {s:?} vs {r:?}");
    }
    assert_eq!(plan.reached_target, reference.reached_target, "{name}");
    assert_eq!(
        plan.achieved_probability.to_bits(),
        exact::probability(dnf, &plan.modified_vars).to_bits(),
        "{name}: the circuit's P is exact's"
    );
}

#[test]
fn exact_plans_keep_the_two_expansion_steps() {
    let tight = ModificationOptions {
        tolerance: 1e-9,
        ..Default::default()
    };
    // Fig 2: §4.4's one step to 0.5, several steps to 0.9, and a decrease.
    let p3 = P3::from_program(acquaintance::program()).expect("negation-free program");
    let dnf = p3.provenance(acquaintance::QUERY).expect("derived");
    for target in [0.5, 0.9, 0.05] {
        assert_same_plan(&format!("fig2 {target}"), &dnf, p3.vars(), target, &tight);
    }
    // Fig 8 case study, Tables 5-7: base tuples only, and every literal.
    let p3 = P3::from_program(trust::case_study_program()).expect("negation-free program");
    let dnf = p3.provenance(trust::CASE_STUDY_QUERY).expect("derived");
    let facts = p3
        .program()
        .iter()
        .filter(|(_, c)| c.is_fact())
        .map(|(id, _)| p3::provenance::vars::var_of(id))
        .collect();
    let base = ModificationOptions {
        modifiable: Some(facts),
        tolerance: 1e-6,
        ..Default::default()
    };
    assert_same_plan("fig8 table 6", &dnf, p3.vars(), 0.7, &base);
    assert_same_plan("fig8 all literals", &dnf, p3.vars(), 0.9, &tight);
    // §5.1: lift the church answer to the barn's probability, through the
    // similarity literal alone and through every literal.
    let instance = vqa::church_image_buggy();
    let p3 = P3::from_program(instance.to_program()).expect("negation-free program");
    let p_barn = p3.probability(vqa::ANS_BARN, ProbMethod::Exact).unwrap();
    let dnf = p3.provenance(vqa::ANS_CHURCH).expect("derived");
    let label = instance.sim_label("church", "cross").expect("sim fact");
    let var = p3::provenance::vars::var_of(p3.program().clause_by_label(&label).unwrap());
    let fix = ModificationOptions {
        modifiable: Some(vec![var]),
        tolerance: 0.01,
        ..Default::default()
    };
    assert_same_plan("church fix", &dnf, p3.vars(), p_barn, &fix);
    assert_same_plan("church all literals", &dnf, p3.vars(), p_barn, &tight);
}
