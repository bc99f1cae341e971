//! End-to-end test of the real `p3-serve` binary: spawn it on ephemeral
//! endpoints, hit it with concurrent clients mixing all four query
//! classes, and check every answer against a direct in-process
//! [`QuerySession`] over the same program. Also exercises the timeout,
//! malformed-request and graceful-shutdown paths.

use p3_core::{DerivationAlgo, InfluenceOptions, ProbMethod, P3};
use p3_service::client::Client;
use p3_service::protocol::{op_spec, Status, OPS};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const ACQ: &str = r#"
    r1 0.8: know(P1,P2) :- live(P1,C), live(P2,C), P1 != P2.
    r2 0.4: know(P1,P2) :- like(P1,L), like(P2,L), P1 != P2.
    r3 0.2: know(P1,P3) :- know(P1,P2), know(P2,P3), P1 != P3.
    t1 1.0: live("Steve","DC").
    t2 1.0: live("Elena","DC").
    t3 1.0: live("Mary","NYC").
    t4 0.4: like("Steve","Veggies").
    t5 0.6: like("Elena","Veggies").
    t6 1.0: know("Ben","Steve").
"#;

const QUERIES: &[&str] = &[
    r#"know("Ben","Elena")"#,
    r#"know("Steve","Elena")"#,
    r#"know("Elena","Steve")"#,
];

struct Served {
    child: Child,
    tcp: String,
    unix: PathBuf,
    admin: Option<String>,
    program: PathBuf,
}

impl Served {
    /// Spawns `p3-serve` on an ephemeral TCP port + a temp Unix socket and
    /// parses the `listening …` lines it prints.
    fn spawn(extra_args: &[&str]) -> Served {
        let dir = std::env::temp_dir();
        let tag = format!(
            "p3-it-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        )
        .replace(['(', ')'], "");
        let program = dir.join(format!("{tag}.pl"));
        let unix = dir.join(format!("{tag}.sock"));
        std::fs::write(&program, ACQ).unwrap();

        let mut child = Command::new(env!("CARGO_BIN_EXE_p3-serve"))
            .arg("--program")
            .arg(&program)
            .arg("--tcp")
            .arg("127.0.0.1:0")
            .arg("--unix")
            .arg(&unix)
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn p3-serve");

        let stdout = child.stdout.take().unwrap();
        let mut reader = BufReader::new(stdout);
        let mut tcp = None;
        let mut admin = None;
        let expects_admin = extra_args.contains(&"--admin-addr");
        for _ in 0..2 + usize::from(expects_admin) {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if let Some(addr) = line.strip_prefix("listening tcp ") {
                tcp = Some(addr.trim().to_string());
            } else if let Some(addr) = line.strip_prefix("listening admin ") {
                admin = Some(addr.trim().to_string());
            }
        }
        if expects_admin {
            admin.as_deref().expect("p3-serve did not announce admin");
        }
        Served {
            child,
            tcp: tcp.expect("p3-serve did not announce a TCP endpoint"),
            unix,
            admin,
            program,
        }
    }

    fn wait_for_exit(&mut self) -> std::process::ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return status;
            }
            assert!(Instant::now() < deadline, "p3-serve did not exit in time");
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.program);
        let _ = std::fs::remove_file(&self.unix);
    }
}

fn esc(query: &str) -> String {
    query.replace('"', "\\\"")
}

/// Runs the four query classes for one query over an existing connection
/// and checks each answer against the in-process session.
fn check_all_classes(client: &mut Client, session: &p3_core::QuerySession, query: &str) {
    // Probability.
    let resp = client
        .request(&format!(
            r#"{{"op":"probability","query":"{}"}}"#,
            esc(query)
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Ok, "probability {query}");
    let served = resp
        .result
        .unwrap()
        .get("probability")
        .unwrap()
        .as_f64()
        .unwrap();
    let direct = session.probability(query, ProbMethod::Exact).unwrap();
    assert!(
        (served - direct).abs() < 1e-12,
        "{query}: {served} vs {direct}"
    );

    // Explanation.
    let resp = client
        .request(&format!(
            r#"{{"op":"explanation","query":"{}"}}"#,
            esc(query)
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Ok, "explanation {query}");
    let result = resp.result.unwrap();
    let n = result.get("num_derivations").unwrap().as_u64().unwrap();
    let direct_n = session.provenance(query).unwrap().len() as u64;
    assert_eq!(n, direct_n, "explanation {query}");
    assert!((result.get("probability").unwrap().as_f64().unwrap() - direct).abs() < 1e-12);

    // Derivation.
    let resp = client
        .request(&format!(
            r#"{{"op":"derivation","query":"{}","eps":0.05}}"#,
            esc(query)
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Ok, "derivation {query}");
    let result = resp.result.unwrap();
    let direct_s = session
        .sufficient_provenance(query, 0.05, DerivationAlgo::NaiveGreedy, ProbMethod::Exact)
        .unwrap();
    assert_eq!(
        result.get("kept").unwrap().as_u64().unwrap(),
        direct_s.polynomial.len() as u64
    );
    assert!(
        (result.get("probability").unwrap().as_f64().unwrap() - direct_s.probability).abs() < 1e-12
    );

    // Influence.
    let resp = client
        .request(&format!(
            r#"{{"op":"influence","query":"{}","method":"exact"}}"#,
            esc(query)
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Ok, "influence {query}");
    let entries = resp.result.unwrap();
    let entries = entries.get("entries").unwrap().as_array().unwrap().to_vec();
    let direct_e = session
        .influence(
            query,
            &InfluenceOptions {
                method: p3_core::InfluenceMethod::Exact,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(entries.len(), direct_e.len(), "influence {query}");
    let vars = session.p3().vars();
    for (served, direct) in entries.iter().zip(&direct_e) {
        assert_eq!(
            served.get("var").unwrap().as_str().unwrap(),
            vars.name(direct.var),
            "influence ranking {query}"
        );
        assert!(
            (served.get("influence").unwrap().as_f64().unwrap() - direct.influence).abs() < 1e-12
        );
    }

    // Modification.
    let resp = client
        .request(&format!(
            r#"{{"op":"modification","query":"{}","target":0.5,"tolerance":1e-9}}"#,
            esc(query)
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Ok, "modification {query}");
    let result = resp.result.unwrap();
    let plan = session
        .modification(
            query,
            0.5,
            &p3_core::ModificationOptions {
                tolerance: 1e-9,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(
        result.get("reached_target").unwrap().as_bool().unwrap(),
        plan.reached_target
    );
    assert!(
        (result
            .get("achieved_probability")
            .unwrap()
            .as_f64()
            .unwrap()
            - plan.achieved_probability)
            .abs()
            < 1e-12
    );
}

#[test]
fn concurrent_clients_match_direct_session_on_both_transports() {
    let served = Served::spawn(&["--workers", "4"]);
    let p3 = P3::from_source(ACQ).unwrap();
    let session = p3.session();

    // Warm the direct session once so the reference answers exist.
    for q in QUERIES {
        session.probability(q, ProbMethod::Exact).unwrap();
    }

    // ≥4 concurrent clients, mixing transports and query classes.
    std::thread::scope(|scope| {
        for i in 0..6 {
            let tcp = served.tcp.clone();
            let unix = served.unix.clone();
            let session = &session;
            scope.spawn(move || {
                let mut client = if i % 2 == 0 {
                    Client::connect_tcp(&tcp).unwrap()
                } else {
                    Client::connect_unix(&unix).unwrap()
                };
                // Each client walks the queries starting at a different
                // offset, so classes and formulas interleave across workers.
                for step in 0..QUERIES.len() {
                    let query = QUERIES[(i + step) % QUERIES.len()];
                    check_all_classes(&mut client, session, query);
                }
            });
        }
    });

    // The shared session memoizes across all those clients.
    let mut client = Client::connect_tcp(&served.tcp).unwrap();
    let stats = client.request(r#"{"op":"stats"}"#).unwrap();
    let result = stats.result.unwrap();
    let hits = result
        .get("session")
        .unwrap()
        .get("hits")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(hits > 0, "concurrent clients should share memoized results");
}

#[test]
fn timeout_malformed_and_shutdown_paths() {
    let mut served = Served::spawn(&[]);
    let mut client = Client::connect_tcp(&served.tcp).unwrap();

    // An already-expired deadline reports "timeout" and keeps the
    // connection usable.
    let resp = client
        .request(&format!(
            r#"{{"op":"probability","query":"{}","timeout_ms":0,"id":1}}"#,
            esc(QUERIES[0])
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Timeout);
    assert_eq!(resp.id, Some(1));

    // Malformed requests answer with an error, connection intact.
    let resp = client.request("{{{ nope").unwrap();
    assert_eq!(resp.status, Status::Error);
    let resp = client.request(r#"{"op":"probability"}"#).unwrap();
    assert_eq!(resp.status, Status::Error);
    // A rejected request still gets its id back, so pipelining clients
    // can match the answer.
    let resp = client.request(r#"{"op":"probability","id":7}"#).unwrap();
    assert_eq!((resp.status, resp.id), (Status::Error, Some(7)));
    let resp = client
        .request(&format!(
            r#"{{"op":"probability","query":"{}","id":8,"method":"magic"}}"#,
            esc(QUERIES[0])
        ))
        .unwrap();
    assert_eq!((resp.status, resp.id), (Status::Error, Some(8)));

    // Still serving after all that.
    let resp = client
        .request(&format!(
            r#"{{"op":"probability","query":"{}"}}"#,
            esc(QUERIES[0])
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);

    // Graceful shutdown via protocol: acknowledged, then the process
    // exits cleanly and the socket file is removed.
    let resp = client.request(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(resp.status, Status::Ok);
    let status = served.wait_for_exit();
    assert!(status.success(), "p3-serve exit: {status:?}");
    assert!(!served.unix.exists(), "socket file should be cleaned up");
}

#[test]
fn out_of_range_modification_target_is_an_error_and_the_worker_keeps_serving() {
    let served = Served::spawn(&["--workers", "1"]);
    let mut client = Client::connect_tcp(&served.tcp).unwrap();
    for target in ["2", "-0.5"] {
        let started = Instant::now();
        let resp = client
            .request(&format!(
                r#"{{"op":"modification","query":"{}","target":{target}}}"#,
                esc(QUERIES[1])
            ))
            .unwrap();
        assert_eq!(resp.status, Status::Error, "{resp:?}");
        let error = resp.error.unwrap_or_default();
        assert!(error.contains("target"), "{error}");
        assert!(started.elapsed() < Duration::from_secs(10));
    }
    // The single worker still answers, and still answers modifications.
    let resp = client
        .request(&format!(
            r#"{{"op":"probability","query":"{}"}}"#,
            esc(QUERIES[1])
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Ok, "{resp:?}");
    let resp = client
        .request(&format!(
            r#"{{"op":"modification","query":"{}","target":0.5}}"#,
            esc(QUERIES[1])
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Ok, "{resp:?}");
}

#[test]
fn lint_op_and_load_program_gate() {
    let served = Served::spawn(&[]);
    let mut client = Client::connect_tcp(&served.tcp).unwrap();

    // The lint op analyzes without loading: findings, counts, and a
    // rendered text payload come back.
    let resp = client
        .request(r#"{"op":"lint","source":"f(X).\n"}"#)
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    let result = resp.result.unwrap();
    assert_eq!(
        result
            .get("clean")
            .and_then(p3_service::json::Value::as_bool),
        Some(false)
    );
    let text = result
        .get("text")
        .and_then(p3_service::json::Value::as_str)
        .unwrap();
    assert!(text.contains("error[P3102]"), "{text}");
    let findings = result.get("findings").unwrap().to_json();
    assert!(findings.contains("\"code\":\"P3102\""), "{findings}");

    // The served program is untouched by linting.
    let resp = client
        .request(&format!(
            r#"{{"op":"probability","query":"{}"}}"#,
            esc(QUERIES[0])
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);

    // load-program rejects error-severity findings by default...
    let resp = client
        .request(r#"{"op":"load-program","source":"f(X).\n"}"#)
        .unwrap();
    assert_eq!(resp.status, Status::Error);
    let err = resp.error.unwrap();
    assert!(err.contains("rejected by lint"), "{err}");
    assert!(err.contains("P3102"), "{err}");

    // ...and "lint": false falls back to plain validation (still an error
    // for this program, but the validator's single-error report).
    let resp = client
        .request(r#"{"op":"load-program","source":"f(X).\n","lint":false}"#)
        .unwrap();
    assert_eq!(resp.status, Status::Error);
    let err = resp.error.unwrap();
    assert!(!err.contains("rejected by lint"), "{err}");

    // A program with only warning-level findings loads, and the response
    // reports the lint counts.
    let resp = client
        .request(
            r#"{"op":"load-program","source":"t1 0.5: p(a).\nt2 0.5: p(a).\nr1 0.9: q(X) :- p(X).\n"}"#,
        )
        .unwrap();
    assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
    let result = resp.result.unwrap();
    let warnings = result
        .get("lint_warnings")
        .and_then(p3_service::json::Value::as_u64)
        .unwrap();
    assert!(warnings >= 1, "duplicate fact should warn: {result:?}");
}

#[test]
fn lint_and_load_program_never_read_a_server_side_path() {
    let served = Served::spawn(&[]);
    let mut client = Client::connect_tcp(&served.tcp).unwrap();
    let file = std::env::temp_dir().join(format!("p3-it-private-{}.txt", std::process::id()));
    std::fs::write(&file, "t1 0.5: p(a).\nTOKEN=p3-private-marker\n").unwrap();
    let path = file.display().to_string();
    for op in ["lint", "load-program"] {
        let resp = client
            .request(&format!(r#"{{"op":"{op}","path":"{}"}}"#, esc(&path)))
            .unwrap();
        let line = resp.to_line();
        assert_eq!(resp.status, Status::Error, "{op}: {line}");
        assert!(resp.error.unwrap().contains("source"), "{op}: {line}");
        assert!(!line.contains("p3-private-marker"), "{op}: {line}");
    }
    let _ = std::fs::remove_file(&file);
}

#[test]
fn the_client_binary_runs_every_op_row() {
    let dir = std::env::temp_dir().join(format!("p3-it-ops-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (store, audit) = (dir.join("store"), dir.join("audit"));
    let mut served = Served::spawn(&[
        "--store-dir",
        store.to_str().unwrap(),
        "--audit-dir",
        audit.to_str().unwrap(),
    ]);
    let file = dir.join("served.pl");
    std::fs::write(&file, ACQ).unwrap();
    // load-program detaches the store that persist needs, and shutdown
    // stops the server: those two run last.
    let last = ["load-program", "shutdown"];
    let rows = OPS
        .iter()
        .filter(|spec| !last.contains(&spec.name))
        .chain(last.iter().map(|name| op_spec(name).unwrap()));
    for spec in rows {
        let words: Vec<String> = spec
            .args
            .split_whitespace()
            .map(|slot| match slot.trim_matches(['[', ']']) {
                "QUERY" => QUERIES[0].to_string(),
                "TARGET" => "0.5".to_string(),
                "N" => "3".to_string(),
                "FILE" => file.display().to_string(),
                other => panic!("{}: no word for {other}", spec.name),
            })
            .collect();
        let output = Command::new(env!("CARGO_BIN_EXE_p3-client"))
            .arg("--tcp")
            .arg(&served.tcp)
            .arg(spec.name)
            .args(&words)
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "{} {words:?}: {output:?}",
            spec.name
        );
    }
    assert!(served.wait_for_exit().success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Requests the `metrics` op and returns the Prometheus exposition text.
fn scrape(client: &mut Client) -> String {
    let resp = client.request(r#"{"op":"metrics"}"#).unwrap();
    assert_eq!(resp.status, Status::Ok);
    let result = resp.result.unwrap();
    assert_eq!(
        result.get("content_type").unwrap().as_str().unwrap(),
        "text/plain; version=0.0.4"
    );
    result.get("text").unwrap().as_str().unwrap().to_string()
}

/// Sums every sample of one family (across label sets) in an exposition.
fn family_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.is_empty())
        .filter(|line| {
            let name = line.split(['{', ' ']).next().unwrap_or_default();
            name == family
        })
        .map(|line| line.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum()
}

#[test]
fn metrics_op_emits_valid_prometheus_text_with_monotone_counters() {
    let served = Served::spawn(&[]);
    let mut client = Client::connect_tcp(&served.tcp).unwrap();

    // Two identical queries: the second hits the session memo, so both
    // hit- and miss-side metric families are registered.
    for _ in 0..2 {
        let resp = client
            .request(&format!(
                r#"{{"op":"probability","query":"{}"}}"#,
                esc(QUERIES[0])
            ))
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
    }

    let text = scrape(&mut client);

    // Every line is a comment or a `name[{labels}] value` sample, and
    // every family carries both a HELP and a TYPE line.
    let mut help = std::collections::BTreeSet::new();
    let mut types = std::collections::BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            help.insert(rest.split(' ').next().unwrap().to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            types.insert(it.next().unwrap().to_string());
            let kind = it.next().unwrap();
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad TYPE: {line}"
            );
        } else if !line.is_empty() {
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample line: {line}"
            );
        }
    }
    assert_eq!(help, types, "HELP/TYPE lines must pair up");
    assert!(help.len() >= 10, "want ≥10 metric families, got {help:?}");

    // Families from every layer of the pipeline are present.
    for family in [
        "p3_datalog_iterations_total",     // datalog
        "p3_datalog_delta_tuples",         // datalog (histogram)
        "p3_provenance_memo_misses_total", // provenance
        "p3_prob_store_intern_hits_total", // prob
        "p3_prob_store_shard_entries",     // prob (per-shard gauges)
        "p3_core_session_misses_total",    // core
        "p3_service_requests_total",       // service
        "p3_service_request_latency_us",   // service (histogram)
    ] {
        assert!(help.contains(family), "missing {family} in:\n{text}");
    }

    // Counters are monotone across scrapes.
    let before = family_sum(&text, "p3_service_requests_total");
    let resp = client
        .request(&format!(
            r#"{{"op":"probability","query":"{}"}}"#,
            esc(QUERIES[1])
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    let after = family_sum(&scrape(&mut client), "p3_service_requests_total");
    assert!(
        after >= before + 1.0,
        "requests_total should grow: {before} -> {after}"
    );
}

#[test]
fn trace_op_returns_request_span_trees() {
    let served = Served::spawn(&[]);
    let mut client = Client::connect_tcp(&served.tcp).unwrap();

    let resp = client
        .request(&format!(
            r#"{{"op":"probability","query":"{}","id":77}}"#,
            esc(QUERIES[0])
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);

    let resp = client.request(r#"{"op":"trace","n":5}"#).unwrap();
    assert_eq!(resp.status, Status::Ok);
    let result = resp.result.unwrap();
    assert_eq!(result.get("enabled").unwrap().as_bool(), Some(true));
    let trees = result.get("trees").unwrap().as_array().unwrap().to_vec();
    assert!(
        !trees.is_empty() && trees.len() <= 5,
        "{} trees",
        trees.len()
    );

    // Newest first: the root is the probability request we just sent,
    // carrying its request id, with the worker's execute span as a child.
    let root = &trees[0];
    assert_eq!(root.get("name").unwrap().as_str(), Some("request"));
    let fields = root.get("fields").unwrap();
    assert_eq!(fields.get("request_id").unwrap().as_str(), Some("77"));
    assert_eq!(fields.get("class").unwrap().as_str(), Some("probability"));
    let children = root.get("children").unwrap().as_array().unwrap();
    assert!(
        children
            .iter()
            .any(|c| c.get("name").unwrap().as_str() == Some("execute")),
        "request span should have an execute child: {:?}",
        root.to_json()
    );
}

/// One raw HTTP/1.1 request against the admin plane; returns
/// `(status, headers, body)` with lowercased header names.
fn http_request(addr: &str, method: &str, target: &str) -> (u16, Vec<(String, String)>, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: p3\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("no header/body split");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let headers = lines
        .filter_map(|line| line.split_once(": "))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn http_get(addr: &str, target: &str) -> (u16, Vec<(String, String)>, String) {
    http_request(addr, "GET", target)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

#[test]
fn admin_plane_serves_probes_metrics_and_traces_over_http() {
    let served = Served::spawn(&["--admin-addr", "127.0.0.1:0"]);
    let admin = served.admin.as_deref().unwrap();

    // One query so request metrics and a request span tree exist.
    let mut client = Client::connect_tcp(&served.tcp).unwrap();
    let resp = client
        .request(&format!(
            r#"{{"op":"probability","query":"{}"}}"#,
            esc(QUERIES[0])
        ))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);

    let (status, _, body) = http_get(admin, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, _, body) = http_get(admin, "/readyz");
    assert_eq!((status, body.as_str()), (200, "ready\n"));

    let (status, headers, body) = http_get(admin, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4")
    );
    for family in [
        "p3_service_requests_total",
        "p3_service_queue_depth",
        "p3_service_workers_busy",
        // The query above forced a (demand) evaluation, so the engine's
        // per-rule and per-stratum attribution families exist.
        "p3_engine_rule_firings_total",
        "p3_engine_rule_candidates_total",
        "p3_engine_stratum_firings_total",
    ] {
        assert!(body.contains(family), "missing {family} in:\n{body}");
    }
    assert_eq!(
        header(&headers, "content-length").and_then(|v| v.parse::<usize>().ok()),
        Some(body.len())
    );

    let (status, headers, body) = http_get(admin, "/traces?n=5");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    assert!(body.contains("traceEvents"), "{body}");
    assert!(body.contains("request"), "{body}");

    // The EXPLAIN plane: accumulated per-rule cost attribution.
    let (status, headers, body) = http_get(admin, "/explain");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    for needle in [
        "\"rule_cost_total\"",
        "\"top_rules\"",
        "\"plans\"",
        "\"mode\":\"demand\"",
        "\"r3\"",
    ] {
        assert!(body.contains(needle), "missing {needle} in:\n{body}");
    }

    let (status, _, _) = http_get(admin, "/no-such-route");
    assert_eq!(status, 404);

    let (status, headers, _) = http_request(admin, "POST", "/metrics");
    assert_eq!(status, 405);
    assert_eq!(header(&headers, "allow"), Some("GET"));
}

#[test]
fn explain_command_round_trips_through_the_client_binary() {
    let served = Served::spawn(&[]);
    let output = Command::new(env!("CARGO_BIN_EXE_p3-client"))
        .arg("--tcp")
        .arg(&served.tcp)
        .arg("explain")
        .arg(QUERIES[0])
        .output()
        .unwrap();
    assert!(output.status.success(), "p3-client exit: {output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    for needle in ["\"mode\":\"demand\"", "\"rules\":", "\"r3\"", "\"caches\":"] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
    // The naive override explains the whole-program run instead.
    let output = Command::new(env!("CARGO_BIN_EXE_p3-client"))
        .arg("--tcp")
        .arg(&served.tcp)
        .arg("explain")
        .arg(QUERIES[0])
        .arg("--eval-mode")
        .arg("naive")
        .output()
        .unwrap();
    assert!(output.status.success(), "p3-client exit: {output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("\"mode\":\"naive\""), "{stdout}");
}

#[test]
fn one_trace_id_links_client_binary_and_server_spans() {
    let served = Served::spawn(&["--admin-addr", "127.0.0.1:0"]);
    let admin = served.admin.as_deref().unwrap();
    let trace_file = std::env::temp_dir().join(format!("p3-it-trace-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&trace_file);

    // Run the real p3-client with --trace-out: it mints a trace id,
    // propagates it to the server, and records its own spans under it.
    let status = Command::new(env!("CARGO_BIN_EXE_p3-client"))
        .arg("--tcp")
        .arg(&served.tcp)
        .arg("--trace-out")
        .arg(&trace_file)
        .arg("probability")
        .arg(QUERIES[0])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "p3-client exit: {status:?}");

    // The client-side chrome trace carries the id and the client spans.
    let client_trace = std::fs::read_to_string(&trace_file).unwrap();
    let _ = std::fs::remove_file(&trace_file);
    let at = client_trace.find("\"trace\":\"").expect("no trace id") + "\"trace\":\"".len();
    let id = &client_trace[at..at + 32];
    assert!(
        id.len() == 32 && id.chars().all(|c| c.is_ascii_hexdigit()),
        "bad trace id {id:?} in {client_trace}"
    );
    for name in ["client.connect", "client.send", "client.recv"] {
        assert!(
            client_trace.contains(name),
            "missing {name}:\n{client_trace}"
        );
    }

    // The server's request span adopted the same id: /traces shows it.
    let (status, _, body) = http_get(admin, "/traces?n=20");
    assert_eq!(status, 200);
    assert!(
        body.contains(id),
        "server traces do not carry client trace id {id}:\n{body}"
    );
}

#[test]
fn readyz_flips_to_503_under_a_saturated_queue_and_recovers() {
    // One worker + a tiny queue: three outstanding slow Monte-Carlo
    // requests (distinct seeds, so the session cache cannot shortcut
    // them) keep the worker busy with the queue at its high-water mark.
    let served = Served::spawn(&[
        "--workers",
        "1",
        "--queue-cap",
        "2",
        "--admin-addr",
        "127.0.0.1:0",
    ]);
    let admin = served.admin.as_deref().unwrap().to_string();

    let stop = std::sync::atomic::AtomicBool::new(false);
    let seed = std::sync::atomic::AtomicU64::new(1);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let tcp = served.tcp.clone();
            let stop = &stop;
            let seed = &seed;
            scope.spawn(move || {
                let mut client = Client::connect_tcp(&tcp).unwrap();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let s = seed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let resp = client
                        .request(&format!(
                            r#"{{"op":"probability","query":"{}","method":"mc","samples":2000000,"seed":{s}}}"#,
                            esc(QUERIES[0])
                        ))
                        .unwrap();
                    assert_eq!(resp.status, Status::Ok);
                }
            });
        }

        // Poll until saturation is visible, then release the producers.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (status, _, body) = http_get(&admin, "/readyz");
            if status == 503 {
                assert!(body.contains("not ready: saturated"), "{body}");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "readyz never reported saturation"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    // Producers are gone and the queue has drained: ready again.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, _, _) = http_get(&admin, "/readyz");
        if status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "readyz never recovered");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn profile_endpoint_emits_folded_stacks_under_load() {
    let served = Served::spawn(&["--workers", "2", "--admin-addr", "127.0.0.1:0"]);
    let admin = served.admin.as_deref().unwrap().to_string();

    // Keep the server busy for the whole sampling window with fresh
    // Monte-Carlo work (distinct seeds defeat the session cache).
    let stop = std::sync::atomic::AtomicBool::new(false);
    let seed = std::sync::atomic::AtomicU64::new(1_000);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let tcp = served.tcp.clone();
            let stop = &stop;
            let seed = &seed;
            scope.spawn(move || {
                let mut client = Client::connect_tcp(&tcp).unwrap();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let s = seed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let resp = client
                        .request(&format!(
                            r#"{{"op":"probability","query":"{}","method":"mc","samples":500000,"seed":{s}}}"#,
                            esc(QUERIES[0])
                        ))
                        .unwrap();
                    assert_eq!(resp.status, Status::Ok);
                }
            });
        }

        let (status, headers, body) = http_get(&admin, "/profile?secs=1");
        stop.store(true, std::sync::atomic::Ordering::Relaxed);

        assert_eq!(status, 200);
        assert!(header(&headers, "content-type")
            .unwrap()
            .starts_with("text/plain"));
        // Every line is `frame;frame;… count` — the folded-stack format
        // flamegraph.pl and speedscope ingest directly.
        let mut lines = 0;
        for line in body.lines().filter(|l| !l.is_empty()) {
            lines += 1;
            let (stack, count) = line.rsplit_once(' ').expect("no count field");
            assert!(!stack.is_empty(), "empty stack in {line:?}");
            assert!(
                count.parse::<u64>().is_ok(),
                "unparseable count in {line:?}"
            );
        }
        assert!(lines > 0, "no samples despite constant load:\n{body}");
        // The NDJSON handler threads hold an open `request` span for the
        // whole round-trip, so the profile must have caught one.
        assert!(body.contains("request"), "{body}");
    });
}

#[test]
fn sigterm_triggers_graceful_shutdown() {
    let mut served = Served::spawn(&[]);
    // Make sure it serves before signalling.
    let mut client = Client::connect_unix(&served.unix).unwrap();
    let resp = client.request(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(resp.status, Status::Ok);

    let kill = Command::new("kill")
        .arg("-TERM")
        .arg(served.child.id().to_string())
        .status()
        .unwrap();
    assert!(kill.success());
    let status = served.wait_for_exit();
    assert!(status.success(), "p3-serve exit after SIGTERM: {status:?}");
}
