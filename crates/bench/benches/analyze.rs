//! Static-analysis calibration: does `p3 analyze` predict where the cost
//! goes, and is the prediction itself close to free?
//!
//! The workload is a sparse sampled trust network whose transitive-closure
//! rule `r2` dominates measured cost under both eval modes — the regime a
//! mode-independent static prediction can be held to. The bench measures
//! the analysis itself (median over many runs), one cold query per eval
//! mode (fresh system + session, engine evaluation + provenance
//! extraction), and compares the predicted per-rule ranking against the
//! EXPLAIN-measured one. Headline numbers go to `BENCH_analyze.json` at
//! the repository root.
//!
//! Acceptance: predicted top rule matches the measured top rule in both
//! eval modes, Spearman rank correlation against the naive (whole-program)
//! measurement is ≥ 0.6, and analysis wall time is ≤ 5% of one cold query.

use criterion::{criterion_group, Criterion};
use p3_core::{rank_correlation, EvalMode, SessionOptions, P3};
use p3_datalog::program::Program;
use p3_provenance::extract::ExtractOptions;
use p3_workloads::random_programs::all_derived_queries;
use p3_workloads::trust;
use std::time::Instant;

/// The calibration workload: sparse enough that r2 (the recursive
/// trustPath rule) tops the measured plan under naive *and* demand.
fn workload() -> (Program, String) {
    let net = trust::generate(trust::NetworkConfig {
        nodes: 200,
        edges: 260,
        seed: 7,
        ..trust::NetworkConfig::default()
    });
    let sample = net.sample_bfs(80, 11);
    let program = sample.to_program();
    let query = all_derived_queries(&program)
        .into_iter()
        .find(|q| q.starts_with("mutualTrustPath("))
        .expect("sample derives a mutualTrustPath tuple");
    (program, query)
}

/// Median wall time of `runs` executions of `f`, in nanoseconds.
fn median_ns<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// One cold query: fresh system, fresh session, engine evaluation and
/// provenance extraction for the queried atom.
fn cold_query(program: &Program, query: &str, mode: EvalMode) {
    let p3 = P3::from_program(program.clone()).expect("workload evaluates");
    let session = p3.session_with(SessionOptions {
        eval_mode: mode,
        ..Default::default()
    });
    session
        .provenance_id_with(query, ExtractOptions::unbounded())
        .expect("query derives");
}

fn bench_analysis(c: &mut Criterion) {
    let (program, query) = workload();
    let mut group = c.benchmark_group("analyze");
    group.bench_function("analyze_program", |b| {
        b.iter(|| p3_analyze::analyze(&program).total_cost())
    });
    group.bench_function("analyze_with_query", |b| {
        b.iter(|| p3_analyze::analyze_query(&program, &query).total_cost())
    });
    group.finish();
}

/// Records the headline numbers the acceptance criteria care about.
fn record_json() {
    let (program, query) = workload();

    const ANALYSIS_RUNS: usize = 200;
    let analysis_ns = median_ns(ANALYSIS_RUNS, || {
        p3_analyze::analyze_query(&program, &query);
    });

    const QUERY_RUNS: usize = 15;
    let cold_naive_ns = median_ns(QUERY_RUNS, || cold_query(&program, &query, EvalMode::Naive));
    let cold_demand_ns = median_ns(QUERY_RUNS, || {
        cold_query(&program, &query, EvalMode::Demand)
    });
    // Held to the naive cold query: the whole-program evaluation is what
    // the static model predicts (and what auto mode uses the prediction
    // to avoid). The demand ratio is reported alongside for context.
    let analysis_pct = 100.0 * analysis_ns / cold_naive_ns.max(1.0);
    let analysis_pct_demand = 100.0 * analysis_ns / cold_demand_ns.max(1.0);

    // Prediction vs measurement, per mode.
    let plan = p3_analyze::analyze_query(&program, &query);
    let predicted_top = plan.top_rule().expect("plan has rules").label.clone();
    let predicted: Vec<(String, u64)> = plan
        .rules
        .iter()
        .map(|r| (r.label.clone(), r.cost()))
        .collect();
    let mut measured_top = Vec::new();
    let mut rho_naive = 0.0f64;
    let mut rho_demand = 0.0f64;
    for mode in [EvalMode::Naive, EvalMode::Demand] {
        let p3 = P3::from_program(program.clone()).expect("workload evaluates");
        let session = p3.session_with(SessionOptions {
            eval_mode: mode,
            ..Default::default()
        });
        let explained = session.explain(&query).0.expect("query explains");
        let measured: Vec<(String, u64)> = explained
            .plan
            .rules
            .iter()
            .map(|r| (r.label.clone(), r.cost()))
            .collect();
        let top = measured
            .iter()
            .find(|(_, c)| *c > 0)
            .or_else(|| measured.first())
            .map(|(l, _)| l.clone())
            .expect("explain has rules");
        let rho = rank_correlation(&predicted, &measured);
        match mode {
            EvalMode::Naive => rho_naive = rho,
            _ => rho_demand = rho,
        }
        measured_top.push((mode.as_str(), top));
    }
    let match_naive = measured_top[0].1 == predicted_top;
    let match_demand = measured_top[1].1 == predicted_top;
    let achieved = match_naive && match_demand && rho_naive >= 0.6 && analysis_pct <= 5.0;

    let json = format!(
        r#"{{
  "workload": {{
    "program": "trust(nodes=200, edges=260, seed=7).sample_bfs(80, 11)",
    "query": "{query}"
  }},
  "analysis_ns": {analysis_ns:.0},
  "cold_query_ns": {{
    "naive": {cold_naive_ns:.0},
    "demand": {cold_demand_ns:.0}
  }},
  "analysis_pct_of_cold_query": {analysis_pct:.3},
  "analysis_pct_of_cold_demand_query": {analysis_pct_demand:.3},
  "top_rule": {{
    "predicted": "{predicted_top}",
    "measured_naive": "{m_naive}",
    "measured_demand": "{m_demand}",
    "match_naive": {match_naive},
    "match_demand": {match_demand}
  }},
  "rank_correlation": {{
    "naive": {rho_naive:.3},
    "demand": {rho_demand:.3}
  }},
  "acceptance": {{
    "top_rule_match_both_modes": {top_match},
    "min_rank_correlation_naive": 0.6,
    "max_analysis_pct_of_cold_query": 5.0,
    "achieved": {achieved}
  }}
}}
"#,
        m_naive = measured_top[0].1,
        m_demand = measured_top[1].1,
        top_match = match_naive && match_demand,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analyze.json");
    std::fs::write(path, &json).expect("write BENCH_analyze.json");
    println!("wrote {path}:\n{json}");
    assert!(
        match_naive && match_demand,
        "predicted top rule '{predicted_top}' must match the measured top \
         rule in both modes (naive '{}', demand '{}')",
        measured_top[0].1,
        measured_top[1].1,
    );
    assert!(
        rho_naive >= 0.6,
        "predicted/measured rank correlation must be >= 0.6 (got {rho_naive:.3})"
    );
    assert!(
        analysis_pct <= 5.0,
        "analysis must cost <= 5% of one cold query (got {analysis_pct:.3}%)"
    );
}

criterion_group!(benches, bench_analysis);

fn main() {
    benches();
    record_json();
}
