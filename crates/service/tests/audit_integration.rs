//! End-to-end audit plane: every request line `p3-serve --audit-dir`
//! handles — queries, inline admin ops, malformed lines, hostile text —
//! appends exactly one framed record, and those records survive SIGKILL
//! plus a torn segment tail. `audit-top` must surface the known most
//! expensive query, and the HTTP plane (`/audit`, `/audit/top`, `/slo`)
//! must keep emitting valid JSON no matter what the client sent.

use p3_service::client::Client;
use p3_service::json::Value;
use p3_service::protocol::Status;
use std::io::{BufRead, BufReader, Read, Write};
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

/// Wide DNF: reachable through r1, r2, and r3 chains.
const WIDE_QUERY: &str = r#"know("Ben","Elena")"#;
/// Single-fact DNF: t6 verbatim.
const NARROW_QUERY: &str = r#"know("Ben","Steve")"#;

/// Trace text chosen to break naive framing or JSON emission: quotes,
/// structural JSON characters, a real newline, and multi-byte unicode.
const HOSTILE_TRACE: &str = "\"],}\n{💥\\tail";
/// Query text with the same flavor of hostility; it will not parse as a
/// query, but the request is still one auditable unit of work.
const HOSTILE_QUERY: &str = "know(\"a\nb\",\"c\\\"d\")💣[],{}";

/// A spawned `p3-serve --audit-dir`, with the admin plane optionally
/// bound, stdout announce lines parsed, and stderr piped for assertions.
struct Served {
    child: Child,
    tcp: String,
    admin: Option<String>,
    stderr: Option<std::process::ChildStderr>,
}

impl Served {
    fn spawn(program: &PathBuf, audit_dir: &PathBuf, extra: &[&str]) -> Served {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_p3-serve"));
        cmd.arg("--program")
            .arg(program)
            .arg("--tcp")
            .arg("127.0.0.1:0")
            .arg("--audit-dir")
            .arg(audit_dir);
        for arg in extra {
            cmd.arg(arg);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn p3-serve");
        let stdout = child.stdout.take().unwrap();
        let mut reader = BufReader::new(stdout);
        let mut tcp = None;
        let mut admin = None;
        let want_admin = extra.contains(&"--admin-addr");
        while tcp.is_none() || (want_admin && admin.is_none()) {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if let Some(addr) = line.strip_prefix("listening tcp ") {
                tcp = Some(addr.trim().to_string());
            } else if let Some(addr) = line.strip_prefix("listening admin ") {
                admin = Some(addr.trim().to_string());
            } else {
                panic!("unexpected announce line: {line:?}");
            }
        }
        let stderr = child.stderr.take();
        Served {
            child,
            tcp: tcp.unwrap(),
            admin,
            stderr,
        }
    }

    fn client(&self) -> Client {
        Client::connect_tcp(&self.tcp).unwrap()
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

    fn drain_stderr(&mut self) -> String {
        let mut out = String::new();
        if let Some(mut pipe) = self.stderr.take() {
            let _ = pipe.read_to_string(&mut out);
        }
        out
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p3-audit-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Full JSON string escaping — the hostile payloads hold newlines and
/// backslashes, which the simple quote-only escape would mangle.
fn jesc(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The JSON exposition renders `query_hash` as 16 lowercase hex chars.
fn hash_hex(query: &str) -> String {
    format!("{:016x}", p3_audit::fnv1a_64(query))
}

/// Sends one request, asserting only that the server answered (any
/// status): the audit invariant is one record per request, successful
/// or not.
fn send(client: &mut Client, line: &str) -> p3_service::protocol::Response {
    client.request(line).unwrap()
}

fn probability_line(query: &str) -> String {
    format!(r#"{{"op":"probability","query":"{}"}}"#, jesc(query))
}

/// The active (highest-numbered) audit segment in `dir`.
fn active_segment(dir: &PathBuf) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("audit-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    segs.pop().expect("no audit segments on disk")
}

/// One blocking HTTP GET against the admin plane; returns (status, body).
fn admin_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: p3\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("http status line")
        .parse()
        .expect("numeric http status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn every_request_is_one_record_and_the_log_survives_sigkill_and_a_torn_tail() {
    let work = tmpdir("crash");
    std::fs::create_dir_all(&work).unwrap();
    let program = work.join("acq.pl");
    let audit = work.join("audit");
    std::fs::write(&program, ACQ).unwrap();

    let served = Served::spawn(&program, &audit, &[]);
    let mut client = served.client();
    let mut sent = 0u64;

    // A representative mix: three queries, an op with no query text, a
    // request whose query and trace are actively hostile, and one line
    // that is not JSON at all. Each is exactly one auditable request.
    for line in [
        probability_line(WIDE_QUERY),
        probability_line(NARROW_QUERY),
        probability_line(WIDE_QUERY),
        r#"{"op":"stats"}"#.to_string(),
        format!(
            r#"{{"op":"probability","query":"{}","trace":"{}"}}"#,
            jesc(HOSTILE_QUERY),
            jesc(HOSTILE_TRACE)
        ),
        "this is not json {\"op\": ".to_string(),
    ] {
        send(&mut client, &line);
        sent += 1;
    }

    // The tail snapshot is built before its own record is appended, so
    // it sees exactly the `sent` requests above.
    let resp = send(&mut client, r#"{"op":"audit-tail","n":50}"#);
    sent += 1;
    assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
    let tail = resp.result.unwrap();
    assert_eq!(tail.get("enabled").unwrap().as_bool(), Some(true));
    let records = tail.get("records").unwrap().as_array().unwrap();
    assert_eq!(records.len() as u64, sent - 1, "{}", tail.to_json());
    let stats = tail.get("stats").unwrap();
    assert_eq!(
        stats.get("records_appended").unwrap().as_u64(),
        Some(sent - 1)
    );

    // The hostile request surfaced intact: its trace round-tripped the
    // binary codec and the JSON emitter without corrupting either.
    let hostile = records
        .iter()
        .find(|r| r.get("trace").and_then(Value::as_str) == Some(HOSTILE_TRACE))
        .unwrap_or_else(|| panic!("hostile trace missing from tail: {}", tail.to_json()));
    assert_eq!(
        hostile.get("query_hash").unwrap().as_str(),
        Some(hash_hex(HOSTILE_QUERY).as_str())
    );
    // The malformed line was audited too, under its own class.
    assert!(
        records
            .iter()
            .any(|r| r.get("class").and_then(Value::as_str) == Some("malformed")),
        "{}",
        tail.to_json()
    );

    drop(client);
    drop(served); // SIGKILL: no flush, no graceful shutdown.

    // Offline post-mortem: every request — including the audit-tail op
    // itself — left exactly one record, and the log is clean.
    let (records, dirty) = p3_audit::read_dir(&audit).unwrap();
    assert_eq!(records.len() as u64, sent, "one record per request");
    assert_eq!(dirty, 0, "a SIGKILL between requests leaves no torn tail");
    let hostile = records
        .iter()
        .find(|r| r.trace == HOSTILE_TRACE)
        .expect("hostile record survived the crash");
    // Its canonical JSON is still well-formed despite the embedded
    // quotes, newline, and structural characters.
    let parsed = Value::parse(&hostile.to_value().to_json()).unwrap();
    assert_eq!(
        parsed.get("trace").and_then(Value::as_str),
        Some(HOSTILE_TRACE)
    );

    // Tear the active segment mid-record, as a crash mid-write would.
    let seg = active_segment(&audit);
    let len = std::fs::metadata(&seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);
    let (records, dirty) = p3_audit::read_dir(&audit).unwrap();
    assert_eq!(dirty, 1, "offline reader flags the torn segment");
    assert_eq!(
        records.len() as u64,
        sent - 1,
        "only the last frame is lost"
    );

    // Restart on the same directory: recovery truncates the bad tail,
    // keeps every whole frame, and the ring serves them immediately.
    let mut served = Served::spawn(&program, &audit, &[]);
    let mut client = served.client();
    let resp = send(&mut client, r#"{"op":"audit-tail","n":50}"#);
    assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
    let tail = resp.result.unwrap();
    let stats = tail.get("stats").unwrap();
    assert_eq!(
        stats.get("records_recovered").unwrap().as_u64(),
        Some(sent - 1),
        "{}",
        tail.to_json()
    );
    assert_eq!(
        stats.get("recovery_truncations").unwrap().as_u64(),
        Some(1),
        "{}",
        tail.to_json()
    );
    assert_eq!(
        tail.get("records").unwrap().as_array().unwrap().len() as u64,
        sent - 1,
        "recovered records populate the in-memory ring"
    );

    // And the log keeps growing from where recovery left off.
    send(&mut client, &probability_line(NARROW_QUERY));
    let resp = send(&mut client, r#"{"op":"shutdown"}"#);
    assert_eq!(resp.status, Status::Ok);
    assert!(served.wait_for_exit().success());
    let stderr = served.drain_stderr();
    assert!(
        stderr.contains("bad tail"),
        "recovery should warn about the truncation:\n{stderr}"
    );
    let (records, dirty) = p3_audit::read_dir(&audit).unwrap();
    assert_eq!(dirty, 0);
    // sent-1 recovered + audit-tail + probability + shutdown.
    assert_eq!(records.len() as u64, sent - 1 + 3);

    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn audit_top_surfaces_the_most_expensive_query() {
    let work = tmpdir("top");
    std::fs::create_dir_all(&work).unwrap();
    let program = work.join("acq.pl");
    let audit = work.join("audit");
    std::fs::write(&program, ACQ).unwrap();

    let served = Served::spawn(&program, &audit, &[]);
    let mut client = served.client();

    // Cheap work: a single-fact query, answered exactly, several times.
    for _ in 0..5 {
        let resp = send(&mut client, &probability_line(NARROW_QUERY));
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
    }
    // Expensive work: one heavyweight Monte Carlo run, milliseconds of
    // sampling against the microsecond-scale exact answers above.
    let resp = send(
        &mut client,
        &format!(
            r#"{{"op":"probability","query":"{}","method":"mc","samples":2000000,"seed":7}}"#,
            jesc(WIDE_QUERY)
        ),
    );
    assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);

    let wide_hash = hash_hex(WIDE_QUERY);
    let resp = send(&mut client, r#"{"op":"audit-top","by":"latency","n":1}"#);
    assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
    let top = resp.result.unwrap();
    assert_eq!(top.get("by").unwrap().as_str(), Some("latency"));
    let records = top.get("records").unwrap().as_array().unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(
        records[0].get("query_hash").unwrap().as_str(),
        Some(wide_hash.as_str()),
        "the MC run must rank first by latency: {}",
        top.to_json()
    );
    assert_eq!(
        records[0].get("class").unwrap().as_str(),
        Some("probability")
    );

    // Ranked by DNF width instead, the wide recursive query beats the
    // single-fact one no matter how the clock behaved.
    let resp = send(&mut client, r#"{"op":"audit-top","by":"dnf_width","n":1}"#);
    assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
    let top = resp.result.unwrap();
    let records = top.get("records").unwrap().as_array().unwrap();
    assert_eq!(
        records[0].get("query_hash").unwrap().as_str(),
        Some(wide_hash.as_str()),
        "{}",
        top.to_json()
    );

    let resp = send(&mut client, r#"{"op":"shutdown"}"#);
    assert_eq!(resp.status, Status::Ok);

    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn admin_plane_serves_audit_and_slo_json_even_after_hostile_input() {
    let work = tmpdir("admin");
    std::fs::create_dir_all(&work).unwrap();
    let program = work.join("acq.pl");
    let audit = work.join("audit");
    std::fs::write(&program, ACQ).unwrap();

    let served = Served::spawn(
        &program,
        &audit,
        &[
            "--admin-addr",
            "127.0.0.1:0",
            "--slo",
            "probability:250:0.99",
        ],
    );
    let admin = served.admin.clone().expect("admin plane bound");
    let mut client = served.client();

    let mut sent = 0u64;
    for line in [
        probability_line(WIDE_QUERY),
        probability_line(NARROW_QUERY),
        format!(
            r#"{{"op":"probability","query":"{}","trace":"{}"}}"#,
            jesc(HOSTILE_QUERY),
            jesc(HOSTILE_TRACE)
        ),
    ] {
        send(&mut client, &line);
        sent += 1;
    }

    // GET /audit: valid JSON holding every record, hostile trace intact.
    let (status, body) = admin_get(&admin, "/audit?n=50");
    assert_eq!(status, 200, "{body}");
    let tail = Value::parse(body.trim()).expect("GET /audit must stay valid JSON");
    assert_eq!(tail.get("enabled").unwrap().as_bool(), Some(true));
    let records = tail.get("records").unwrap().as_array().unwrap();
    assert_eq!(records.len() as u64, sent, "{body}");
    assert!(
        records
            .iter()
            .any(|r| r.get("trace").and_then(Value::as_str) == Some(HOSTILE_TRACE)),
        "hostile trace mangled in /audit: {body}"
    );

    // GET /audit/top: ranked, still valid JSON.
    let (status, body) = admin_get(&admin, "/audit/top?by=dnf_width&n=2");
    assert_eq!(status, 200, "{body}");
    let top = Value::parse(body.trim()).unwrap();
    assert_eq!(top.get("by").unwrap().as_str(), Some("dnf_width"));
    let wide_hash = hash_hex(WIDE_QUERY);
    let top_records = top.get("records").unwrap().as_array().unwrap();
    assert_eq!(
        top_records[0].get("query_hash").unwrap().as_str(),
        Some(wide_hash.as_str()),
        "{body}"
    );

    // Bad query parameters are a client error, not a panic or a 200.
    let (status, body) = admin_get(&admin, "/audit?n=banana");
    assert_eq!(status, 400, "{body}");
    Value::parse(body.trim()).expect("400 body must be JSON");

    // GET /slo: the configured objective is present with both windows.
    let (status, body) = admin_get(&admin, "/slo");
    assert_eq!(status, 200, "{body}");
    let slo = Value::parse(body.trim()).unwrap();
    let objectives = slo.get("objectives").unwrap().as_array().unwrap();
    let prob = objectives
        .iter()
        .find(|o| o.get("class").and_then(Value::as_str) == Some("probability"))
        .unwrap_or_else(|| panic!("probability objective missing: {body}"));
    assert!(prob.get("fast").unwrap().get("burn_rate").is_some());
    assert!(prob.get("slow").unwrap().get("tripped").is_some());

    // A healthy server stays ready.
    let (status, _) = admin_get(&admin, "/readyz");
    assert_eq!(status, 200);

    let resp = send(&mut client, r#"{"op":"shutdown"}"#);
    assert_eq!(resp.status, Status::Ok);

    let _ = std::fs::remove_dir_all(&work);
}
