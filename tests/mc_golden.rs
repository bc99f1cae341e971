//! Golden snapshot of Monte-Carlo answers, bit for bit.
//!
//! Every estimator is deterministic under its seed, so a rewrite of the
//! sampling loops must reproduce these bits exactly. Per formula the
//! snapshot holds the bits of `mc::estimate`, `mc::karp_luby` and
//! `parallel::estimate` (2 threads), every `(var, influence)` pair of
//! `mc::influence_all` and of `parallel::influence_all` (2 threads), the
//! ε = 0.02 greedy Derivation Query under Monte-Carlo (probability bits and
//! monomial count), and `QuerySession::influence` under the Fig 14 recipe
//! (Monte-Carlo 2,000, top 5, ε 0.02 preprocessing). It also holds the
//! steps of modification plans under `EvalMethod::Mc` and
//! `EvalMethod::McParallel` (2 threads), through the free function and
//! through a session, for Fig 2's `know("Ben","Elena")` and the Fig 8 case
//! study.
//!
//! Corpus: every derived atom of Fig 2 and of `random_programs` seeds
//! 0–19, `ANS_BARN` of the buggy §5.1 church image, two wide
//! `mutualTrustPath` atoms of the §6.2 trust sample (367 and 1,117
//! monomials), and a 64-monomial chain over 129 variables, three words per
//! monomial.
//!
//! Regenerate after an intentional change with
//! `P3_UPDATE_EXPECTED=1 cargo test --test mc_golden`.

use p3::core::{
    modification_query, sufficient_provenance, DerivationAlgo, EvalMethod, InfluenceMethod,
    InfluenceOptions, ModificationOptions, ModificationPlan, ProbMethod, P3,
};
use p3::datalog::Program;
use p3::prob::{mc, parallel, Dnf, McConfig, Monomial, VarId, VarTable};
use p3::workloads::random_programs::{all_derived_queries, generate, RandomConfig};
use p3::workloads::{acquaintance, trust, vqa};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Samples of the probability estimators (the ledger's Fig 10 setting).
const ESTIMATE: McConfig = McConfig {
    samples: 1000,
    seed: 0x7033,
};

/// Samples of influence and of the Monte-Carlo Derivation Query (the
/// Fig 14 recipe).
const INFLUENCE: McConfig = McConfig {
    samples: 2000,
    seed: 0x7033,
};

/// Samples of the modification plans (Table 9's seed).
const MODIFY: McConfig = McConfig {
    samples: 2000,
    seed: 9,
};

const THREADS: usize = 2;

fn bits(p: f64) -> String {
    format!("{:016x}", p.to_bits())
}

fn fig14_recipe() -> InfluenceOptions {
    InfluenceOptions {
        method: InfluenceMethod::Mc(INFLUENCE),
        top_k: Some(5),
        preprocess_epsilon: Some(0.02),
        restrict_to: None,
    }
}

fn record_formula(out: &mut String, dnf: &Dnf, vars: &VarTable) {
    let shape = dnf.shape();
    let _ = writeln!(
        out,
        "shape {} monomials {} vars",
        shape.monomials, shape.distinct_vars
    );
    let _ = writeln!(out, "estimate {}", bits(mc::estimate(dnf, vars, ESTIMATE)));
    let _ = writeln!(
        out,
        "karp_luby {}",
        bits(mc::karp_luby(dnf, vars, ESTIMATE))
    );
    let _ = writeln!(
        out,
        "parallel_estimate {}",
        bits(parallel::estimate(dnf, vars, ESTIMATE, THREADS))
    );
    for (x, inf) in mc::influence_all(dnf, vars, INFLUENCE) {
        let _ = writeln!(out, "influence {} {}", vars.name(x), bits(inf));
    }
    for (x, inf) in parallel::influence_all(dnf, vars, INFLUENCE, THREADS) {
        let _ = writeln!(out, "parallel_influence {} {}", vars.name(x), bits(inf));
    }
    let s = sufficient_provenance(
        dnf,
        vars,
        0.02,
        DerivationAlgo::NaiveGreedy,
        ProbMethod::MonteCarlo(INFLUENCE),
    );
    let _ = writeln!(
        out,
        "greedy_mc {} {}",
        bits(s.probability),
        s.polynomial.len()
    );
}

fn record_atoms(out: &mut String, name: &str, program: &Program, atoms: &[String]) {
    let p3 = P3::from_program(program.clone()).expect("negation-free program");
    for atom in atoms {
        let dnf = p3.provenance(atom).expect("derived atom");
        let _ = writeln!(out, "== {name} {atom}");
        record_formula(out, &dnf, p3.vars());
        let session = p3.session();
        for e in session
            .influence(atom, &fig14_recipe())
            .expect("derived atom")
        {
            let _ = writeln!(out, "fig14 {} {}", p3.vars().name(e.var), bits(e.influence));
        }
    }
}

fn record_plan(out: &mut String, label: &str, vars: &VarTable, plan: &ModificationPlan) {
    let _ = writeln!(
        out,
        "{label} initial {} achieved {}",
        bits(plan.initial_probability),
        bits(plan.achieved_probability)
    );
    for s in &plan.steps {
        let _ = writeln!(
            out,
            "{label} step {} {} {} {}",
            vars.name(s.var),
            bits(s.from),
            bits(s.to),
            bits(s.resulting_probability)
        );
    }
}

fn record_modification(out: &mut String, name: &str, program: &Program, atom: &str, target: f64) {
    let p3 = P3::from_program(program.clone()).expect("negation-free program");
    let dnf = p3.provenance(atom).expect("derived atom");
    let _ = writeln!(out, "== modification {name} {atom} -> {target}");
    for (label, eval) in [
        ("mc", EvalMethod::Mc(MODIFY)),
        ("mc_parallel", EvalMethod::McParallel(MODIFY, THREADS)),
    ] {
        let opts = ModificationOptions {
            eval,
            ..Default::default()
        };
        let plan = modification_query(&dnf, p3.vars(), target, &opts);
        record_plan(out, label, p3.vars(), &plan);
        let plan = p3
            .session()
            .modification(atom, target, &opts)
            .expect("derived atom");
        record_plan(out, &format!("session_{label}"), p3.vars(), &plan);
    }
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

fn snapshot() -> String {
    let mut out = String::new();
    let fig2 = acquaintance::program();
    record_atoms(&mut out, "fig2", &fig2, &all_derived_queries(&fig2));
    for seed in 0..20u64 {
        let program = generate(RandomConfig {
            seed,
            ..Default::default()
        });
        let atoms = all_derived_queries(&program);
        record_atoms(&mut out, &format!("random seed {seed}"), &program, &atoms);
    }
    record_atoms(
        &mut out,
        "church buggy",
        &vqa::church_image_buggy().to_program(),
        &[vqa::ANS_BARN.to_string()],
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
    let _ = writeln!(out, "== chain 64");
    record_formula(&mut out, &dnf, &vars);
    record_modification(&mut out, "fig2", &fig2, acquaintance::QUERY, 0.5);
    record_modification(
        &mut out,
        "fig8",
        &trust::case_study_program(),
        trust::CASE_STUDY_QUERY,
        0.5,
    );
    out
}

#[test]
fn monte_carlo_answers_match_the_golden_snapshot() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/mc.txt");
    let actual = snapshot();
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
            "Monte-Carlo answers drifted from {} ({} vs {} lines):\n{}",
            path.display(),
            expected.lines().count(),
            actual.lines().count(),
            drift.join("\n")
        );
    }
}
