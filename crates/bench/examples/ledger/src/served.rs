//! **served-mix**: the real `p3-serve` binary, driven over one connection.
//!
//! The server runs the trust-cold program in demand mode with two
//! workers, audit and store directories beside the reads, and a session
//! cache capped below the distinct working set. Requests are all
//! `trustPath` `probability` with Monte-Carlo 1000: 80% from a hot set of
//! 64 atoms, 20% cold atoms asked once per pass. One client sends them in
//! a closed loop on one connection, so only one request is ever inside
//! the server, and the CPU time all the server's threads use between two
//! answers belongs to the request in between. A request's cost is that
//! CPU time plus the client thread's, for encoding, the socket calls and
//! decoding.
//!
//! Like the in-process closed loops it runs whole passes, each on a
//! freshly booted server with fresh audit and store directories, and a
//! request's cost is its median over passes.

use crate::common::{
    median, ms, percentile, phase, ratio, thread_cpu, EndToEnd, Outcome, Passes, Probes, Rng,
};
use crate::layers::PerLayer;
use crate::trace;
use crate::trust::{self, MC, MC_CONFIG};
use p3_core::{EvalMode, SessionOptions, P3};
use p3_service::client::Client;
use p3_service::json::Value;
use p3_service::protocol::{Response, Status};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests in one pass, 20% of them cold.
const REQUESTS: usize = 2000;
const COLD_SHARE: f64 = 0.2;
const HOT_ATOMS: usize = 64;
const COLD_ORDER_SEED: u64 = 0xc01d;
const WORKERS: &str = "2";
const CACHE_CAP: &str = "256";
/// Server boots whose CPU time gives `setup_s`, at least.
const MIN_SETUPS: usize = 5;
/// Served answers compared with an in-process session.
const CHECKED: usize = 200;
/// Cold atoms replayed in-process to split the server's extract stage
/// into layers.
const REPLAYED: usize = 60;
/// Reads of the server's thread states while waiting for all of them to
/// stop running.
const SETTLE_TRIES: usize = 10_000;

/// A running `p3-serve` with fresh audit and store directories under
/// `dir`, and the one connection that drives it; killed on drop if it has
/// not been shut down.
struct Server {
    child: Child,
    /// Kept open so that the server's later writes to stdout never fail.
    _stdout: BufReader<ChildStdout>,
    client: Client,
    /// `/proc/<pid>/task/<tid>` of every server thread.
    threads: Vec<PathBuf>,
    dir: PathBuf,
}

impl Server {
    /// Spawns the server, connects and waits until a `ping` is answered.
    fn spawn(program: &Path, dir: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(dir);
        for sub in ["audit", "store"] {
            std::fs::create_dir_all(dir.join(sub))
                .map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let bin = crate::out_dir().join("../release/p3-serve");
        let mut child = Command::new(&bin)
            .arg("--program")
            .arg(program)
            .args(["--tcp", "127.0.0.1:0", "--eval-mode", "demand"])
            .args(["--workers", WORKERS, "--cache-cap", CACHE_CAP])
            .arg("--audit-dir")
            .arg(dir.join("audit"))
            .arg("--store-dir")
            .arg(dir.join("store"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {} (build it first): {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("p3-serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening tcp ") {
                break addr.to_string();
            }
        };
        let client = match Client::connect_tcp(&addr) {
            Ok(client) => client,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("connect {addr}: {e}"));
            }
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            client,
            threads: Vec::new(),
            dir: dir.to_path_buf(),
        };
        server.call(r#"{"op":"ping"}"#)?;
        // The connection's thread exists now; no thread starts or ends
        // until shutdown.
        let tasks = format!("/proc/{}/task", server.child.id());
        server.threads = std::fs::read_dir(&tasks)
            .map_err(|e| format!("{tasks}: {e}"))?
            .map(|e| e.map(|e| e.path()).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(server)
    }

    fn call(&mut self, line: &str) -> Result<Value, String> {
        let response = self.client.request(line).map_err(|e| e.to_string())?;
        match response.status {
            Status::Ok => Ok(response.result.unwrap_or(Value::Null)),
            _ => Err(response.error.unwrap_or_default()),
        }
    }

    /// CPU time (ns) all the server's threads have used, read once none of
    /// them is running: the kernel brings a thread's total up to date when
    /// it stops, so a running thread's total reads short.
    fn cpu_ns(&self) -> u64 {
        for _ in 0..SETTLE_TRIES {
            if !self.threads.iter().any(|t| running(t)) {
                break;
            }
            std::thread::yield_now();
        }
        self.threads.iter().map(|t| schedstat_ns(t)).sum()
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::common::peak_rss_mb(&self.child.id().to_string())
    }

    /// Graceful shutdown, so the audit ring and the store are flushed.
    fn shutdown(mut self) -> Result<(), String> {
        self.call(r#"{"op":"shutdown"}"#)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("p3-serve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("p3-serve did not stop within 30 s of shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Whether the thread at `/proc/<pid>/task/<tid>` is running or runnable.
fn running(task: &Path) -> bool {
    std::fs::read_to_string(task.join("stat"))
        .ok()
        .and_then(|s| Some(s.rsplit_once(')')?.1.trim_start().starts_with('R')))
        .unwrap_or(false)
}

/// The thread's CPU time (ns), the first field of its `schedstat`.
fn schedstat_ns(task: &Path) -> u64 {
    std::fs::read_to_string(task.join("schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The request mix: a fixed hot set and fixed cold atoms (dataset
/// parameters); the seed places the cold requests among the hot ones and
/// draws which hot atom each hot request asks.
struct Mix {
    src: String,
    hot: Vec<String>,
    cold: Vec<String>,
}

impl Mix {
    fn new() -> Self {
        let net = trust::cold_network();
        // `trustPath` atoms only: their cold cost stays under about 10 ms,
        // while `mutualTrustPath` DNFs reach 5k monomials and 300 ms
        // (trust-cold measures that tail).
        let atoms: Vec<String> = trust::derivable_atoms(&net)
            .into_iter()
            .filter(|a| a.starts_with("trustPath("))
            .collect();
        let hot = trust::spread(&atoms, HOT_ATOMS);
        let rest: Vec<String> = atoms.into_iter().filter(|a| !hot.contains(a)).collect();
        let mut cold = trust::spread(&rest, (REQUESTS as f64 * COLD_SHARE) as usize);
        Rng::new(COLD_ORDER_SEED).shuffle(&mut cold);
        Mix {
            src: net.to_source(),
            hot,
            cold,
        }
    }

    /// One pass's requests: every cold atom once, in a fixed order, and
    /// hot atoms for the rest.
    fn requests(&self, seed: u64) -> Vec<String> {
        let mut rng = Rng::new(seed);
        let mut is_cold: Vec<bool> = (0..REQUESTS).map(|i| i < self.cold.len()).collect();
        rng.shuffle(&mut is_cold);
        let mut cold = self.cold.iter();
        is_cold
            .into_iter()
            .map(|is_cold| match is_cold {
                true => cold.next().expect("one cold atom per cold request").clone(),
                false => self.hot[rng.below(self.hot.len())].clone(),
            })
            .collect()
    }
}

fn request_line(k: usize, atom: &str) -> String {
    Value::object(vec![
        ("op", Value::from("probability")),
        ("id", Value::from(k)),
        // The trace id joins the request to its audit record.
        ("trace", Value::from(trace_id(k))),
        ("query", Value::from(atom)),
        ("method", Value::from("mc")),
        ("samples", Value::from(MC_CONFIG.samples)),
        ("seed", Value::from(MC_CONFIG.seed)),
    ])
    .to_json()
}

fn trace_id(k: usize) -> String {
    format!("{:032x}", k + 1)
}

/// What one pass on one server measured.
struct Pass {
    /// CPU ms per request: the server's threads plus the client's.
    cpu_ms: Vec<f64>,
    /// Client wall time per request, encoding to decoding.
    wall_ms: Vec<f64>,
    /// The probability's bits, or the error.
    answers: Vec<Result<u64, String>>,
    /// Bytes sent and received per request.
    bytes: Vec<u64>,
}

/// Sends `requests` one after another, each under a traced request (a
/// plain call when no recorder runs) with spans around encoding, the
/// round trip and decoding.
fn pass(server: &mut Server, requests: &[String], probes: &mut Probes) -> Pass {
    let n = requests.len();
    let mut p = Pass {
        cpu_ms: Vec::with_capacity(n),
        wall_ms: Vec::with_capacity(n),
        answers: Vec::with_capacity(n),
        bytes: Vec::with_capacity(n),
    };
    let mut before = server.cpu_ns();
    for (k, atom) in requests.iter().enumerate() {
        let (wall, client) = (Instant::now(), thread_cpu());
        let (answer, bytes) = trace::request(k as u64, || {
            let line = trace::span("encode", || request_line(k, atom));
            let raw = match trace::span("roundtrip", || server.client.roundtrip(&line)) {
                Ok(raw) => raw,
                Err(e) => return (Err(e.to_string()), line.len() as u64),
            };
            let bytes = (line.len() + raw.len() + 2) as u64;
            let answer = trace::span("decode", || Response::parse(&raw)).and_then(|r| {
                match (r.status, r.result) {
                    (Status::Ok, Some(v)) => v
                        .get("probability")
                        .and_then(Value::as_f64)
                        .map(f64::to_bits)
                        .ok_or_else(|| "no probability".to_string()),
                    (_, _) => Err(r.error.unwrap_or_default()),
                }
            });
            (answer, bytes)
        });
        let client_ms = ms(thread_cpu() - client);
        p.wall_ms.push(ms(wall.elapsed()));
        let after = server.cpu_ns();
        let cost = client_ms + after.saturating_sub(before) as f64 / 1e6;
        p.cpu_ms.push(cost);
        probes.after(cost);
        before = after;
        p.answers.push(answer);
        p.bytes.push(bytes);
    }
    p
}

/// Counts requests and failures.
fn tally(requests: &[String], answers: &[Result<u64, String>], out: &mut Outcome) {
    for (atom, answer) in requests.iter().zip(answers) {
        out.attempted += 1;
        if let Err(e) = answer {
            out.failed += 1;
            eprintln!("served {atom} failed: {e}");
        }
    }
}

/// Served answers must equal an in-process demand session's, bit for
/// bit, on a seeded subset of them.
fn check(
    src: &str,
    requests: &[String],
    answers: &[Result<u64, String>],
    seed: u64,
    out: &mut Outcome,
) {
    let session = P3::from_source(src)
        .expect("trust program loads")
        .session_with(SessionOptions {
            eval_mode: EvalMode::Demand,
            ..SessionOptions::default()
        });
    let mut idx: Vec<usize> = (0..answers.len()).collect();
    Rng::new(seed ^ 0xc0ffee).shuffle(&mut idx);
    for &i in idx.iter().take(CHECKED) {
        let Ok(bits) = answers[i] else { continue };
        let atom = &requests[i];
        let expected = session.probability(atom, MC).map(f64::to_bits);
        out.check(matches!(&expected, Ok(e) if *e == bits), || {
            format!(
                "{atom}: served {} vs in-process {expected:?}",
                f64::from_bits(bits)
            )
        });
    }
}

fn work_dir(seed: u64) -> PathBuf {
    crate::out_dir().join(format!("served-{}-seed{seed}", std::process::id()))
}

/// The mix, written where the server reads it.
fn prepare(dir: &Path) -> Result<(Mix, PathBuf), String> {
    let mix = Mix::new();
    let program = dir.join("program.pl");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(&program, &mix.src).map_err(|e| format!("{}: {e}", program.display()))?;
    Ok((mix, program))
}

pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> Result<(), String> {
    let dir = work_dir(seed);
    let result = if traced {
        run_traced(seed, &dir, out)
    } else {
        run_untraced(seed, seconds, &dir, out)
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The untraced run: passes on fresh servers; `setup_s` is the median CPU
/// time a server uses from its spawn to its first answered `ping`, scaled
/// like the pass that follows it.
fn run_untraced(seed: u64, seconds: f64, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let (mix, program) = phase("input", || prepare(dir))?;
    let requests = mix.requests(seed);
    let mut cpu: Vec<Vec<f64>> = vec![Vec::new(); requests.len()];
    let (mut setups, mut peaks) = (Vec::new(), Vec::new());
    let mut first: Vec<Result<u64, String>> = Vec::new();
    let mut probes = Probes::default();
    let mut passes = Passes::new(seconds);
    while passes.another() {
        let mut server = Server::spawn(&program, &dir.join(format!("pass{}", setups.len())))?;
        let boot_s = server.cpu_ns() as f64 / 1e9;
        let p = pass(&mut server, &requests, &mut probes);
        peaks.push(server.peak_rss_mb());
        server.shutdown()?;
        let scale = probes.scale();
        setups.push(boot_s * scale);
        tally(&requests, &p.answers, out);
        for (samples, cost) in cpu.iter_mut().zip(p.cpu_ms) {
            samples.push(cost * scale);
        }
        if first.is_empty() {
            first = p.answers;
        } else {
            for (i, (a, b)) in first.iter().zip(&p.answers).enumerate() {
                out.check(a == b, || format!("request {i} changed between passes"));
            }
        }
    }
    while setups.len() < MIN_SETUPS {
        let server = Server::spawn(&program, &dir.join(format!("boot{}", setups.len())))?;
        let boot_s = server.cpu_ns() as f64 / 1e9;
        server.shutdown()?;
        probes.after(boot_s * 1e3);
        setups.push(boot_s * probes.scale());
    }
    EndToEnd {
        setup_s: median(&setups),
        cpu_ms: cpu.iter().map(|s| median(s)).collect(),
        peak_rss_mb: median(&peaks),
        probe_ms: probes.mean_ms(),
    }
    .report(out);
    phase("check", || check(&mix.src, &requests, &first, seed, out));
    Ok(())
}

/// The traced run: one untraced pass for reference, then the same
/// requests traced on a fresh server. The server's side of each traced
/// request comes from its audit records, joined by trace id.
fn run_traced(seed: u64, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let (mix, program) = prepare(dir)?;
    let requests = mix.requests(seed);
    let n = requests.len() as f64;

    let mut server = Server::spawn(&program, &dir.join("untraced"))?;
    let reference = phase("untraced", || {
        pass(&mut server, &requests, &mut Probes::default())
    });
    server.shutdown()?;
    tally(&requests, &reference.answers, out);
    let untraced_ms: f64 = reference.wall_ms.iter().sum();

    let mut server = Server::spawn(&program, &dir.join("traced"))?;
    trace::start();
    let traced = phase("traced", || {
        pass(&mut server, &requests, &mut Probes::default())
    });
    let spans = trace::finish();
    let stats = server.call(r#"{"op":"stats"}"#)?;
    let server_dir = server.dir.clone();
    server.shutdown()?;
    tally(&requests, &traced.answers, out);
    for (i, (t, u)) in traced.answers.iter().zip(&reference.answers).enumerate() {
        out.check(t == u, || {
            format!("request {i}: traced {t:?} vs untraced {u:?}")
        });
    }

    let totals = trace::layer_totals(&spans);
    let trace_path = crate::out_dir().join(format!("trace-served-mix-seed{seed}.json"));
    if let Err(e) = std::fs::write(&trace_path, trace::chrome_trace(&spans, &totals)) {
        eprintln!("cannot write {}: {e}", trace_path.display());
    }

    let (records, _) = p3_audit::read_dir(&server_dir.join("audit")).map_err(|e| e.to_string())?;
    let by_trace: HashMap<&str, &p3_audit::AuditRecord> =
        records.iter().map(|r| (r.trace.as_str(), r)).collect();
    let mut stage_ms: BTreeMap<String, f64> = BTreeMap::new();
    let (mut queue_ms, mut execute) = (0.0, Vec::new());
    let (mut tuples, mut monomials, mut literals, mut max_monomials) = (0, 0, 0, 0);
    let mut evaluated = Vec::new();
    for (k, atom) in requests.iter().enumerate() {
        let Some(r) = by_trace.get(trace_id(k).as_str()) else {
            continue;
        };
        queue_ms += r.queue_wait_us as f64 / 1e3;
        execute.push(r.execute_us as f64 / 1e3);
        for s in &r.stages {
            *stage_ms.entry(s.name.clone()).or_insert(0.0) += s.wall_us as f64 / 1e3;
        }
        tuples += r.derived_tuples;
        monomials += r.dnf_monomials;
        literals += r.dnf_literals;
        max_monomials = max_monomials.max(r.dnf_monomials);
        if r.derived_tuples > 0 {
            evaluated.push(atom.clone());
        }
    }
    let misses = evaluated.len() as f64;
    let execute_ms: f64 = execute.iter().sum();

    // The server times resolution, demand evaluation, analysis, extraction
    // and interning as one `extract` stage; replaying atoms it had to
    // evaluate, in process, splits that stage by layer.
    evaluated.truncate(REPLAYED);
    let (replay, counts) = phase("replay", || trust::demand_split(&mix.src, evaluated));
    let stage_layers = [
        "resolve",
        "transform",
        "engine",
        "capture",
        "analysis",
        "extract",
        "intern",
    ];
    let replayed_ms: f64 = stage_layers
        .iter()
        .map(|l| replay.self_ms.get(l).copied().unwrap_or(0.0))
        .sum();
    let extract_stage = stage_ms.get("extract").copied().unwrap_or(0.0) / n;
    let split = |layer: &str| {
        extract_stage
            * ratio(
                replay.self_ms.get(layer).copied().unwrap_or(0.0),
                replayed_ms,
            )
    };
    let per_evaluation = |v: u64| ratio(v as f64, replay.requests as f64) * misses / n;
    let request_ms = totals.request_ms;
    let protocol_ms = totals.self_ms.get("encode").copied().unwrap_or(0.0)
        + totals.self_ms.get("decode").copied().unwrap_or(0.0);
    let stat = |section: &str, key: &str| {
        stats
            .get(section)
            .and_then(|v| v.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let setup = crate::closed::setup_layers(&mix.src, EvalMode::Demand);
    PerLayer {
        load_ms: setup.load_ms,
        parse_ms: setup.parse_ms,
        request_ms: request_ms / n,
        resolve_ms: split("resolve"),
        engine_ms: split("engine"),
        capture_ms: split("capture"),
        analysis_ms: split("analysis"),
        extract_ms: split("extract"),
        intern_ms: split("intern"),
        prob_ms: stage_ms.get("probability").copied().unwrap_or(0.0) / n,
        transform_share: ratio(split("transform") * n, request_ms),
        protocol_share: ratio(protocol_ms, request_ms),
        server_queue_share: ratio(queue_ms, request_ms),
        server_execute_share: ratio(execute_ms, request_ms),
        execute_ms_p50: percentile(&execute, 0.5),
        execute_ms_p99: percentile(&execute, 0.99),
        transform_rules: per_evaluation(counts.transform_rules),
        engine_tuples: tuples as f64 / n,
        engine_firings: per_evaluation(counts.engine_firings),
        capture_execs: per_evaluation(counts.capture_execs),
        extract_monomials: monomials as f64 / n,
        extract_literals: literals as f64 / n,
        dnf_max_monomials: max_monomials as f64,
        intern_hit_ratio: ratio(
            stat("store", "intern_hits"),
            stat("store", "intern_hits") + stat("store", "intern_misses"),
        ),
        session_hit_ratio: ratio(
            stat("session", "hits"),
            stat("session", "hits") + stat("session", "misses"),
        ),
        session_evictions: stat("session", "evictions"),
        protocol_bytes: traced.bytes.iter().sum::<u64>() as f64 / n,
        audit_bytes_per_req: dir_bytes(&server_dir.join("audit")) as f64 / n,
        store_bytes_per_req: dir_bytes(&server_dir.join("store")) as f64 / n,
        attributed_ratio: ratio(protocol_ms + queue_ms + execute_ms, request_ms),
        trace_overhead_ratio: ratio(request_ms, untraced_ms) - 1.0,
        alloc_count_per_req: totals.allocs as f64 / n,
        alloc_bytes_per_req: totals.alloc_bytes as f64 / n,
        ..PerLayer::default()
    }
    .report(out);
    phase("check", || {
        check(&mix.src, &requests, &reference.answers, seed, out)
    });
    Ok(())
}
