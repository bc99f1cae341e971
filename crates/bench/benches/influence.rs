//! Micro-bench: influence estimation — exact vs sequential MC vs
//! thread-parallel MC (the Criterion companion to Table 8).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p3_core::query::influence::exact_influence;
use p3_prob::{mc, parallel, Dnf, McConfig, Monomial, VarId, VarTable};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

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

criterion_group!(benches, bench_influence);
criterion_main!(benches);
