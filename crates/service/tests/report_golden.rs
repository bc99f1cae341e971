//! Golden snapshot of every per-query view the server renders: the five
//! query ops, `profile` of each class and `explain`, each asked cold then
//! warm under naive and demand evaluation, then a malformed line, a
//! hop-limited modification and a naive `load-program` — followed by the
//! audit records all of those requests left behind.
//!
//! Wall-clock fields (`ts_ms` and every `*_us`) are masked; everything
//! else must match `tests/golden/report.json` byte for byte. Regenerate
//! after an intentional change with
//! `P3_UPDATE_EXPECTED=1 cargo test -p p3-service --test report_golden`.

use p3_core::P3;
use p3_service::client::Client;
use p3_service::json::Value;
use p3_service::server::{Server, ServerConfig};
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

/// The request lines, in the order they are sent.
fn script() -> Vec<String> {
    let classes = [
        ("probability", String::new()),
        ("explanation", String::new()),
        ("derivation", r#","eps":0.01"#.to_string()),
        ("influence", r#","method":"exact""#.to_string()),
        (
            "modification",
            r#","target":0.5,"tolerance":1e-9"#.to_string(),
        ),
    ];
    let mut ops = Vec::new();
    for (class, fields) in &classes {
        ops.push(format!(r#""op":"{class}","query":"{QUERY}"{fields}"#));
    }
    for (class, fields) in &classes {
        ops.push(format!(
            r#""op":"profile","class":"{class}","query":"{QUERY}"{fields}"#
        ));
    }
    ops.push(format!(r#""op":"explain","query":"{QUERY}""#));
    let mut lines = Vec::new();
    for mode in ["naive", "demand"] {
        for op in &ops {
            for _ in ["cold", "warm"] {
                lines.push(format!(r#"{{{op},"eval_mode":"{mode}"}}"#));
            }
        }
    }
    lines.push("this is not json".to_string());
    lines.push(format!(
        r#"{{"op":"modification","query":"{QUERY}","target":0.5,"hop_limit":1}}"#
    ));
    lines
        .push(r#"{"op":"load-program","source":"r 0.5: b(X) :- a(X).\nt 1.0: a(1)."}"#.to_string());
    lines
}

/// Replaces wall-clock readings, which differ run to run.
fn mask(value: &mut Value) {
    match value {
        Value::Object(pairs) => {
            for (key, v) in pairs {
                if key == "ts_ms" || key.ends_with("_us") {
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

#[test]
fn per_query_views_match_the_golden_snapshot() {
    let dir = std::env::temp_dir().join(format!("p3-report-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::start(
        P3::from_source(ACQ).unwrap(),
        ServerConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            workers: 1,
            audit: Some(p3_audit::AuditConfig::new(&dir)),
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect_tcp(&server.tcp_addr().unwrap().to_string()).unwrap();

    let mut out = String::from("{\"steps\":[\n");
    let lines = script();
    for (i, line) in lines.iter().enumerate() {
        let mut response = Value::parse(&client.request(line).unwrap().to_line()).unwrap();
        mask(&mut response);
        let step = Value::object(vec![
            ("request", Value::from(line.as_str())),
            ("response", response),
        ]);
        let sep = if i + 1 < lines.len() { "," } else { "" };
        out.push_str(&format!("{}{sep}\n", step.to_json()));
    }
    out.push_str("],\n\"audit\":[\n");
    let tail = client
        .request(&format!(r#"{{"op":"audit-tail","n":{}}}"#, lines.len()))
        .unwrap();
    let tail = tail.result.expect("audit-tail answers");
    let records = tail.get("records").and_then(Value::as_array).unwrap();
    assert_eq!(records.len(), lines.len(), "one audit record per request");
    // Oldest first, so the records line up with the steps above.
    for (i, record) in records.iter().rev().enumerate() {
        let mut record = record.clone();
        mask(&mut record);
        let sep = if i + 1 < records.len() { "," } else { "" };
        out.push_str(&format!("{}{sep}\n", record.to_json()));
    }
    out.push_str("]}\n");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/report.json");
    if std::env::var_os("P3_UPDATE_EXPECTED").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
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
