//! Golden snapshot of the JSON documents the service renders beyond the
//! per-query views `report_golden` pins: the `lint` and `analyze` ops, the
//! admin plane's `GET /analyze`, `/explain`, `/audit`, `/audit/top` and
//! `/slo` bodies, its two kinds of 400 body, and the event shape of
//! `GET /traces`.
//!
//! Wall-clock fields (`ts_ms`, `now_ms` and every `*_us`) are masked, and
//! so are the thread, time and span-id fields of each trace event;
//! everything else must match `tests/golden/plane.txt` byte for byte.
//! Keep this the only test in its binary: it turns on the process-wide
//! span collector. Regenerate after an intentional change with
//! `P3_UPDATE_EXPECTED=1 cargo test -p p3-service --test plane_golden`.

use p3_core::P3;
use p3_obs::slo::SloConfig;
use p3_service::client::Client;
use p3_service::json::Value;
use p3_service::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::path::Path;

/// The paper's Fig 2 acquaintance program.
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

const QUERY: &str = r#"know(\"Ben\",\"Elena\")"#;

/// A second demand atom, so `GET /explain` lists two demand plans.
const OTHER: &str = r#"know(\"Steve\",\"Elena\")"#;

/// Replaces wall-clock readings, and the trace events' thread, time and
/// span ids, which differ run to run.
fn mask(value: &mut Value) {
    const VOLATILE: &[&str] = &[
        "ts_ms",
        "now_ms",
        "tid",
        "ts",
        "dur",
        "span_id",
        "parent_id",
    ];
    match value {
        Value::Object(pairs) => {
            for (key, v) in pairs {
                if VOLATILE.contains(&key.as_str()) || key.ends_with("_us") {
                    *v = Value::from("<masked>");
                } else {
                    mask(v);
                }
            }
        }
        Value::Array(items) => items.iter_mut().for_each(mask),
        _ => {}
    }
}

/// One blocking HTTP GET against the admin plane; returns (status, body).
fn admin_get(addr: &str, target: &str) -> (u16, String) {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: p3\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let (_, body) = raw.split_once("\r\n\r\n").unwrap();
    (status, body.to_string())
}

/// Appends one masked document under a header naming where it came from.
/// The body must already be in the encoder's canonical form, so the
/// snapshot pins its bytes and not only its value.
fn push(out: &mut String, header: &str, body: &str) {
    let mut value = Value::parse(body.trim())
        .unwrap_or_else(|e| panic!("{header} is not one JSON document ({e}): {body:?}"));
    assert_eq!(value.to_json(), body.trim(), "{header} is not canonical");
    mask(&mut value);
    out.push_str(&format!("== {header}\n{}\n", value.to_json()));
}

#[test]
fn plane_documents_match_the_golden_snapshot() {
    let dir = std::env::temp_dir().join(format!("p3-plane-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    p3_obs::span::set_enabled(true);
    let server = Server::start(
        P3::from_source(ACQ).unwrap(),
        ServerConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            admin: Some("127.0.0.1:0".to_string()),
            workers: 1,
            audit: Some(p3_audit::AuditConfig::new(&dir)),
            slos: vec![SloConfig {
                class: "probability".to_string(),
                target_ms: 60_000,
                objective: 0.99,
            }],
            ..Default::default()
        },
    )
    .unwrap();
    let admin = server.admin_addr().unwrap().to_string();
    let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();
    let mut out = String::new();

    let requests = [
        r#"{"op":"lint","source":"t1 0.5: p(a).\nr1 0.9: q(X) :- p(X).\n"}"#.to_string(),
        r#"{"op":"lint","source":"f(X).\nr1 0.5: q(X) :- p(X), X != Z.\nt1 0.5: p(\"a b\").\nt2 0.5: p(\"a b\").\n"}"#.to_string(),
        r#"{"op":"analyze"}"#.to_string(),
        format!(r#"{{"op":"analyze","query":"{QUERY}"}}"#),
        format!(r#"{{"op":"probability","query":"{QUERY}","eval_mode":"naive","trace":"tr-\"1\""}}"#),
        format!(r#"{{"op":"probability","query":"{QUERY}","eval_mode":"demand"}}"#),
        format!(r#"{{"op":"probability","query":"{OTHER}","eval_mode":"demand"}}"#),
        format!(r#"{{"op":"explanation","query":"{QUERY}","eval_mode":"demand","hop_limit":2}}"#),
    ];
    for line in &requests {
        let response = client.request(line).unwrap().to_line();
        push(&mut out, &format!("request {line}"), &response);
    }
    for target in [
        "/analyze",
        "/explain",
        "/audit?n=10",
        "/audit/top?by=rule_cost&n=3",
        "/slo",
        "/traces?n=1",
        "/traces?n=0",
        "/audit/top?by=late\"ncy",
    ] {
        let (status, body) = admin_get(&admin, target);
        push(&mut out, &format!("GET {target} ({status})"), &body);
    }
    server.shutdown();
    server.join();
    p3_obs::span::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/plane.txt");
    if std::env::var_os("P3_UPDATE_EXPECTED").is_some() {
        std::fs::write(&golden, &out).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} (set P3_UPDATE_EXPECTED=1 to create): {e}",
            golden.display()
        )
    });
    for (n, (got, want)) in out.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "line {} of {} drifted", n + 1, golden.display());
    }
    assert_eq!(out, expected, "{} drifted", golden.display());
}
