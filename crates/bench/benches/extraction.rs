//! Micro-bench: provenance-polynomial extraction under varying hop limits
//! (the Criterion companion to Figure 10), and unbounded extraction on the
//! cold demand path of the benchmark ledger's trust-cold workload.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use p3_core::P3;
use p3_datalog::engine::{Engine, TupleId};
use p3_datalog::{worlds, Program};
use p3_provenance::extract::{Analysis, ExtractOptions, Extractor};
use p3_provenance::{evaluate_query_with_provenance, DemandEvaluation};
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

/// Demand-evaluates `atom` and returns the evaluation, the atom's tuple in
/// it and the width of its unbounded polynomial.
fn demand(program: &Program, atom: &str) -> (DemandEvaluation, TupleId, usize) {
    let (pred, args) = worlds::parse_ground_query(program, atom).expect("ground atom");
    let eval = evaluate_query_with_provenance(program, pred, &args).expect("negation-free program");
    let tuple = eval.db.lookup(pred, &args).expect("derivable atom");
    let width = Extractor::new(&eval.graph)
        .polynomial(tuple, ExtractOptions::unbounded())
        .len();
    (eval, tuple, width)
}

/// What a trust-cold request extracts: `mutualTrustPath(332,1626)`, the
/// widest polynomial the workload asks (5,155 monomials), and the
/// median-width atom of a systematic sample of 16 `trustPath` atoms, each
/// on its own demand graph. Demand evaluation is outside the timed span, and so is building
/// the fresh analysis each iteration extracts on.
fn bench_demand_cold(c: &mut Criterion) {
    let program = trust::generate(NetworkConfig {
        nodes: 2000,
        edges: 10_000,
        seed: 5,
        ..NetworkConfig::default()
    })
    .sample_bfs(250, 11)
    .to_program();
    let db = Engine::new(&program).run_plain();
    let Some(rel) = program
        .symbols()
        .get("trustPath")
        .and_then(|pred| db.relation(pred))
    else {
        return;
    };
    let mut paths: Vec<String> = rel
        .tuples()
        .iter()
        .map(|&t| db.display_tuple(t, program.symbols()).to_string())
        .collect();
    paths.sort();
    let step = (paths.len() / 16).max(1);
    let mut sample: Vec<(usize, &String)> = paths
        .iter()
        .step_by(step)
        .take(16)
        .map(|atom| (demand(&program, atom).2, atom))
        .collect();
    sample.sort();
    let median = sample[sample.len() / 2].1.as_str();

    let mut group = c.benchmark_group("demand_cold");
    for atom in ["mutualTrustPath(332,1626)", median] {
        let (eval, tuple, width) = demand(&program, atom);
        println!("demand_cold {atom}: {width} monomials");
        group.bench_function(atom, |b| {
            b.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                for _ in 0..iters {
                    let analysis = Analysis::new(&eval.graph);
                    let extractor = Extractor::with_analysis(&eval.graph, &analysis);
                    let start = Instant::now();
                    let dnf = extractor.polynomial(tuple, ExtractOptions::unbounded());
                    timed += start.elapsed();
                    black_box(dnf);
                }
                timed
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_extraction, bench_demand_cold);
criterion_main!(benches);
