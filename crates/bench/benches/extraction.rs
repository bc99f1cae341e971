//! Micro-bench: provenance-polynomial extraction under varying hop limits
//! (the Criterion companion to Figure 10).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use p3_core::P3;
use p3_provenance::extract::{ExtractOptions, Extractor};
use p3_workloads::trust::{self, NetworkConfig};
use std::time::{Duration, Instant};

fn bench_extraction(c: &mut Criterion) {
    let net = trust::generate(NetworkConfig {
        nodes: 2000,
        edges: 10_000,
        seed: 5,
        ..NetworkConfig::default()
    });
    let sample = net.sample_bfs(80, 13);
    let p3 = P3::from_program(sample.to_program()).expect("negation-free program");
    let Some(pred) = p3.program().symbols().get("trustPath") else {
        return;
    };
    let Some(rel) = p3.database().relation(pred) else {
        return;
    };
    let tuples: Vec<_> = rel.tuples().iter().copied().take(20).collect();

    let mut group = c.benchmark_group("extraction");
    for &depth in &[2usize, 4, 6] {
        // An extractor memoises finished results, so each iteration times a
        // fresh one; building it (the SCC analysis, timed below) is not
        // part of the span.
        group.bench_with_input(BenchmarkId::new("hop_limited", depth), &depth, |b, &d| {
            b.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                for _ in 0..iters {
                    let extractor = Extractor::new(p3.graph());
                    let start = Instant::now();
                    let monomials: usize = tuples
                        .iter()
                        .map(|&t| {
                            extractor
                                .polynomial(t, ExtractOptions::with_max_depth(d))
                                .len()
                        })
                        .sum();
                    timed += start.elapsed();
                    black_box(monomials);
                }
                timed
            })
        });
    }
    // Extractor construction itself (SCC analysis).
    group.bench_function("extractor_build", |b| b.iter(|| Extractor::new(p3.graph())));
    group.finish();
}

criterion_group!(benches, bench_extraction);
criterion_main!(benches);
