//! Micro-bench: influence estimation — exact vs sequential MC vs
//! thread-parallel MC (the Criterion companion to Table 8) — and the cost
//! of exact influence of every literal against one exact probability on
//! the two wide `mutualTrustPath` atoms of the §6.2 BFS sample, with their
//! ratio printed (the ROADMAP's target is at most 3×).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use p3_core::query::influence::exact_influence;
use p3_core::{influence_query, InfluenceMethod, InfluenceOptions, P3};
use p3_prob::{exact, mc, parallel, Dnf, McConfig, Monomial, VarId, VarTable};
use p3_workloads::trust;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

fn random_dnf(nvars: usize, nmono: usize, seed: u64) -> (Dnf, VarTable) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut vars = VarTable::new();
    for i in 0..nvars {
        vars.add(format!("x{i}"), rng.random::<f64>());
    }
    let monomials = (0..nmono)
        .map(|_| {
            let len = rng.random_range(2..=4usize);
            Monomial::new(
                (0..len)
                    .map(|_| VarId(rng.random_range(0..nvars) as u32))
                    .collect(),
            )
        })
        .collect();
    (Dnf::new(monomials), vars)
}

fn bench_influence(c: &mut Criterion) {
    let (dnf, vars) = random_dnf(40, 60, 17);
    let cfg = McConfig {
        samples: 5_000,
        seed: 3,
    };
    let x = dnf.vars()[0];

    let mut group = c.benchmark_group("influence");
    group.bench_function("single_exact", |b| {
        b.iter(|| exact_influence(&dnf, &vars, x))
    });
    group.bench_function("all_literals_mc_5k", |b| {
        b.iter(|| mc::influence_all(&dnf, &vars, cfg))
    });
    group.sample_size(10);
    for &threads in &[1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("all_literals_mc", threads),
            &threads,
            |b, &t| b.iter(|| parallel::influence_all(&dnf, &vars, cfg, t)),
        );
    }
    group.finish();
}

/// The wide atoms of the §6.2 BFS sample that the exact golden pins.
const WIDE_ATOMS: [&str; 2] = ["mutualTrustPath(32,5492)", "mutualTrustPath(0,1524)"];

/// Median seconds of `runs` calls of `f`.
fn median_secs<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[runs / 2]
}

fn bench_wide_exact(c: &mut Criterion) {
    let sample = trust::generate(trust::NetworkConfig::default()).sample_bfs(250, 11);
    let p3 = P3::from_program(sample.to_program()).expect("negation-free program");
    let opts = InfluenceOptions {
        method: InfluenceMethod::Exact,
        ..Default::default()
    };
    let mut group = c.benchmark_group("influence_wide");
    group.sample_size(10);
    for atom in WIDE_ATOMS {
        let dnf = p3.provenance(atom).expect("derived atom");
        let vars = p3.vars();
        group.bench_function(format!("exact_all_literals/{atom}"), |b| {
            b.iter(|| influence_query(&dnf, vars, &opts))
        });
        group.bench_function(format!("exact_probability/{atom}"), |b| {
            b.iter(|| exact::probability(&dnf, vars))
        });
        let all = median_secs(11, || influence_query(&dnf, vars, &opts));
        let one = median_secs(11, || exact::probability(&dnf, vars));
        println!(
            "ratio: {atom} ({} monomials, {} literals): exact influence of all \
             literals / one exact probability = {:.2}x ({:.2} ms / {:.2} ms, medians of 11)",
            dnf.len(),
            dnf.vars().len(),
            all / one,
            all * 1e3,
            one * 1e3
        );
    }
    group.finish();
}

criterion_group!(benches, bench_influence, bench_wide_exact);
criterion_main!(benches);
