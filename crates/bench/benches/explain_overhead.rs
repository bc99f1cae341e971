//! EXPLAIN-plane overhead on the paths that pay for it.
//!
//! Per-rule stat collection (firings, join fan-out, per-iteration deltas)
//! is always on by default and accumulates inside the semi-naive join
//! loop — the one place the EXPLAIN plane touches evaluation. This bench
//! measures the real served request path — `load-program` followed by a
//! burst of cold demand queries, so every request forces engine work —
//! with collection disabled and enabled, interleaved against the same
//! live server so clock drift cancels out, plus an engine-level
//! microbench of one full evaluation under both settings. The headline
//! numbers go to `BENCH_explain.json` at the repository root.
//! Acceptance: explain-enabled evaluation costs ≤ 5% of served cold-query
//! latency.

use criterion::{criterion_group, Criterion};
use p3_datalog::engine::{set_rule_stat_collection, Engine};
use p3_datalog::program::Program;
use p3_service::client::Client;
use p3_service::json::Value;
use p3_service::protocol::Status;
use p3_service::server::{Server, ServerConfig};
use p3_workloads::random_programs::{all_derived_queries, generate, RandomConfig};
use std::time::Instant;

/// A tangled recursive workload: enough join and fixpoint work per cold
/// evaluation that collection overhead has something to show up in.
fn workload() -> (Program, Vec<String>) {
    let program = generate(RandomConfig {
        domain: 4,
        facts: 14,
        rules: 7,
        recursion_bias: 0.6,
        seed: 20_200_817,
    });
    let queries = all_derived_queries(&program);
    assert!(!queries.is_empty(), "workload derives tuples");
    (program, queries)
}

fn request_line(pairs: Vec<(&str, Value)>) -> String {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_json()
}

/// One in-process server plus a connected client. Each timed run reloads
/// the program (dropping every warm core and memo) and then answers a
/// burst of demand queries — so the run's cost is dominated by engine
/// evaluation, the only path rule-stat collection touches.
struct ServedSetup {
    server: Server,
    client: Client,
    load_line: String,
    query_lines: Vec<String>,
    socket: std::path::PathBuf,
}

impl ServedSetup {
    fn start() -> ServedSetup {
        let (program, queries) = workload();
        let source = program.to_source();
        let p3 = p3_core::P3::from_program(program).expect("workload program evaluates");
        let socket =
            std::env::temp_dir().join(format!("p3-explain-overhead-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let server = Server::start(
            p3,
            ServerConfig {
                unix: Some(socket.clone()),
                workers: 2,
                ..Default::default()
            },
        )
        .expect("start server");
        let client = Client::connect_unix(&socket).expect("connect");
        let load_line = request_line(vec![
            ("op", Value::from("load-program")),
            ("source", Value::from(source)),
        ]);
        let query_lines = queries
            .iter()
            .map(|q| {
                request_line(vec![
                    ("op", Value::from("probability")),
                    ("query", Value::from(q.as_str())),
                    ("eval_mode", Value::from("demand")),
                ])
            })
            .collect();
        let mut setup = ServedSetup {
            server,
            client,
            load_line,
            query_lines,
            socket,
        };
        for _ in 0..5 {
            setup.one_run();
        }
        setup
    }

    /// One cold burst: reload, then answer every workload query on demand.
    fn one_run(&mut self) {
        let resp = self.client.request(&self.load_line).expect("load");
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
        for line in &self.query_lines {
            let resp = self.client.request(line).expect("round-trip");
            assert_eq!(resp.status, Status::Ok, "{line}: {:?}", resp.error);
        }
    }

    /// ns per query over `runs` cold bursts.
    fn run_ns(&mut self, runs: usize) -> f64 {
        let start = Instant::now();
        for _ in 0..runs {
            self.one_run();
        }
        start.elapsed().as_nanos() as f64 / (runs * self.query_lines.len()) as f64
    }

    fn stop(self) {
        drop(self.client);
        self.server.shutdown();
        self.server.join();
        let _ = std::fs::remove_file(&self.socket);
    }
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

fn bench_engine_eval(c: &mut Criterion) {
    let (program, _) = workload();
    let mut group = c.benchmark_group("explain_overhead");
    set_rule_stat_collection(false);
    group.bench_function("engine_eval_collection_off", |b| {
        b.iter(|| {
            let mut e = Engine::new(&program);
            e.run_plain();
            e.stats().tuples
        })
    });
    set_rule_stat_collection(true);
    group.bench_function("engine_eval_collection_on", |b| {
        b.iter(|| {
            let mut e = Engine::new(&program);
            e.run_plain();
            e.stats().tuples
        })
    });
    group.finish();
}

/// Records the headline numbers the acceptance criteria care about.
fn record_json() {
    let (program, queries) = workload();

    // One full engine evaluation, collection off then on (median).
    const ENGINE_RUNS: usize = 300;
    set_rule_stat_collection(false);
    let engine_off = median_ns(ENGINE_RUNS, || {
        let mut e = Engine::new(&program);
        e.run_plain();
    });
    set_rule_stat_collection(true);
    let engine_on = median_ns(ENGINE_RUNS, || {
        let mut e = Engine::new(&program);
        e.run_plain();
    });
    let engine_overhead_pct = 100.0 * (engine_on - engine_off) / engine_off.max(1.0);

    // The served cold-query path, interleaved best-of against one live
    // server with the toggle flipped between runs, so drift cancels out.
    let mut setup = ServedSetup::start();
    const RUNS_PER_MEASUREMENT: usize = 6;
    const MEASUREMENTS: usize = 9;
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..MEASUREMENTS {
        set_rule_stat_collection(false);
        best_off = best_off.min(setup.run_ns(RUNS_PER_MEASUREMENT));
        set_rule_stat_collection(true);
        best_on = best_on.min(setup.run_ns(RUNS_PER_MEASUREMENT));
    }
    setup.stop();
    set_rule_stat_collection(true);
    let served_overhead_pct = 100.0 * (best_on - best_off) / best_off.max(1.0);

    let json = format!(
        r#"{{
  "workload": {{
    "program": "random_programs(domain=4, facts=14, rules=7, recursion_bias=0.6, seed=20200817)",
    "queries_per_cold_burst": {queries}
  }},
  "engine_eval_ns": {{
    "collection_off": {engine_off:.0},
    "collection_on": {engine_on:.0},
    "overhead_pct": {engine_overhead_pct:.3}
  }},
  "served_cold_query_ns": {{
    "collection_off": {best_off:.0},
    "collection_on": {best_on:.0},
    "overhead_pct": {served_overhead_pct:.3}
  }},
  "acceptance": {{
    "max_explain_overhead_pct": 5.0,
    "achieved": {achieved}
  }}
}}
"#,
        queries = queries.len(),
        achieved = served_overhead_pct <= 5.0,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explain.json");
    std::fs::write(path, &json).expect("write BENCH_explain.json");
    println!("wrote {path}:\n{json}");
    assert!(
        served_overhead_pct <= 5.0,
        "per-rule stat collection must cost <= 5% of served cold-query \
         latency (got {served_overhead_pct:.3}%)"
    );
}

criterion_group!(benches, bench_engine_eval);

fn main() {
    benches();
    record_json();
}
