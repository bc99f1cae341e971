//! The HTTP admin plane: a minimal, std-only HTTP/1.1 listener serving
//! the observability surface on `--admin-addr`, hand-rolled in the same
//! spirit as the NDJSON codec (no HTTP library, no TLS, GET only).
//!
//! Routes:
//!
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4) of the
//!   whole process registry, gauges refreshed at scrape time;
//! * `GET /healthz` — liveness: 200 as long as the process can answer;
//! * `GET /readyz` — readiness: 200 while the server should receive
//!   traffic, 503 (with the reason in the body) when shutting down, when
//!   the worker pool is gone, or when saturated — queue at its high-water
//!   mark with every worker busy (see `Shared::readiness`);
//! * `GET /traces?n=N` — the `N` most recent request span trees as
//!   chrome://tracing JSON (load in `chrome://tracing` or Perfetto);
//! * `GET /profile?secs=S` — samples the worker pool's live span stacks
//!   for `S` seconds (1..=30) and returns folded-stack lines for
//!   `flamegraph.pl` or speedscope;
//! * `GET /audit?n=N` — the `N` most recent audit records (newest first)
//!   with the audit log's counters;
//! * `GET /audit/top?by=latency|tuples|dnf_width|rule_cost&n=N` — worst
//!   offenders from the audit ring, each carrying its trace id as the
//!   exemplar link into `/traces`;
//! * `GET /slo` — per-class burn rates, window trip state, and error
//!   budgets (503s `/readyz` when fast-burn trips under `--slo-readyz`);
//! * `GET /explain` — the current session's accumulated per-rule cost
//!   attribution: every retained evaluation plan plus the cross-plan
//!   top-rules ranking;
//! * `GET /analyze` — the static cost prediction for the loaded program:
//!   ranked predicted rule costs, cardinality/DNF-width bounds, the
//!   eval-mode recommendation with its reason, and `P37xx` diagnostics
//!   (computed fresh per request; evaluates nothing).
//!
//! Integer query parameters are validated, not silently defaulted: a
//! non-numeric or out-of-range `n`/`secs` is a 400 with a JSON error
//! body naming the parameter and its documented range (`n` ≤ 256 on
//! `/traces`, `secs` ≤ 30 on `/profile`, `n` ≤ 1000 on the audit
//! routes). An *absent* parameter takes the documented default.
//!
//! Every response carries `Content-Length` and `Connection: close`; one
//! request per connection keeps the loop trivial and is plenty for
//! scrapers and probes. Unknown paths get 404, non-GET methods 405 with
//! an `Allow: GET` header.

use crate::json::Value;
use crate::server::{
    analyze_snapshot, audit_tail_snapshot, audit_top_snapshot, explain_snapshot, refresh_gauges,
    slo_snapshot, Shared,
};
use p3_audit::AuditKey;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Longest `/profile` sampling window, seconds.
const MAX_PROFILE_SECS: u64 = 30;

/// Largest `n` accepted by `/traces`.
const MAX_TRACE_N: u64 = 256;

/// Largest `n` accepted by `/audit` and `/audit/top`.
const MAX_AUDIT_N: u64 = 1000;

/// Largest request head we will buffer before giving up on a client.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// One HTTP response, ready to serialize.
pub(crate) struct HttpResponse {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: String,
    /// `Allow` header value, set on 405 responses.
    pub(crate) allow: Option<&'static str>,
}

impl HttpResponse {
    fn ok(content_type: &'static str, body: String) -> Self {
        Self {
            status: 200,
            content_type,
            body,
            allow: None,
        }
    }

    fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            allow: None,
        }
    }

    /// One JSON document and a newline.
    fn json(status: u16, value: Value) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: value.to_json() + "\n",
            allow: None,
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serves exactly one request on `stream`, on a short-lived thread of its
/// own (probes and scrapers are low-rate, `/profile` blocks for its
/// sampling window).
pub(crate) fn handle(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let head = match read_head(&mut stream) {
        Some(head) => head,
        None => return,
    };
    let response = match parse_request_line(&head) {
        Some((method, target)) => respond(&method, &target, &shared),
        None => HttpResponse::text(400, "malformed request line\n"),
    };
    let _ = write_response(&mut stream, &response);
}

/// Reads the request head (request line + headers) up to the blank line.
/// Any body is ignored — every route is a GET.
fn read_head(stream: &mut TcpStream) -> Option<String> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        if head.len() >= MAX_HEAD_BYTES {
            return None;
        }
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => return None,
        }
    }
    String::from_utf8(head).ok()
}

/// Splits `GET /path?query HTTP/1.1` into `("GET", "/path?query")`.
fn parse_request_line(head: &str) -> Option<(String, String)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?.to_string();
    Some((method, target))
}

/// The value of query parameter `key` in `target`, if present.
fn query_param(target: &str, key: &str) -> Option<String> {
    let (_, query) = target.split_once('?')?;
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.to_string())
}

/// A 400 with a JSON error body naming the offending parameter. The raw
/// value is client-controlled, so it is echoed as its own JSON string
/// field, never spliced into the error message.
fn bad_param(error: String, raw: &str) -> HttpResponse {
    let body = Value::object(vec![("error", error.into()), ("got", raw.into())]);
    HttpResponse::json(400, body)
}

/// Parses integer query parameter `key`: absent means `default`;
/// non-numeric or outside `min..=max` is a 400 (never a silent default
/// or clamp — a typo in a dashboard URL should fail loudly).
fn parse_count(
    target: &str,
    key: &str,
    default: u64,
    min: u64,
    max: u64,
) -> Result<u64, HttpResponse> {
    let Some(raw) = query_param(target, key) else {
        return Ok(default);
    };
    match raw.parse::<u64>() {
        Ok(v) if (min..=max).contains(&v) => Ok(v),
        _ => Err(bad_param(
            format!("query parameter '{key}' must be an integer in {min}..={max}"),
            &raw,
        )),
    }
}

/// Routes one request. Pure (modulo reading server state), so tests can
/// exercise every path without a socket.
pub(crate) fn respond(method: &str, target: &str, shared: &Shared) -> HttpResponse {
    if method != "GET" {
        return HttpResponse {
            status: 405,
            content_type: "text/plain; charset=utf-8",
            body: "only GET is supported\n".to_string(),
            allow: Some("GET"),
        };
    }
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/healthz" => HttpResponse::text(200, "ok\n"),
        "/readyz" => match shared.readiness() {
            Ok(()) => HttpResponse::text(200, "ready\n"),
            Err(why) => HttpResponse::text(503, format!("not ready: {why}\n")),
        },
        "/metrics" => {
            refresh_gauges(shared);
            HttpResponse::ok(
                "text/plain; version=0.0.4",
                p3_obs::metrics::prometheus_text(),
            )
        }
        "/traces" => {
            let n = match parse_count(target, "n", 10, 1, MAX_TRACE_N) {
                Ok(n) => n as usize,
                Err(resp) => return resp,
            };
            let trees = p3_obs::span::recent_roots(Some("request"), n);
            HttpResponse::ok(
                "application/json",
                p3_obs::span::chrome_trace_json_for(&trees),
            )
        }
        "/profile" => {
            let secs = match parse_count(target, "secs", 1, 1, MAX_PROFILE_SECS) {
                Ok(secs) => secs,
                Err(resp) => return resp,
            };
            let folded = p3_obs::profile::sample_folded(
                Duration::from_secs(secs),
                p3_obs::profile::DEFAULT_INTERVAL,
            );
            HttpResponse::ok("text/plain; charset=utf-8", folded)
        }
        "/audit" => {
            let n = match parse_count(target, "n", 100, 1, MAX_AUDIT_N) {
                Ok(n) => n as usize,
                Err(resp) => return resp,
            };
            HttpResponse::json(200, audit_tail_snapshot(shared, n))
        }
        "/audit/top" => {
            let n = match parse_count(target, "n", 10, 1, MAX_AUDIT_N) {
                Ok(n) => n as usize,
                Err(resp) => return resp,
            };
            let by = match query_param(target, "by").as_deref() {
                None => AuditKey::Latency,
                Some(raw) => match AuditKey::parse(raw) {
                    Ok(by) => by,
                    Err(_) => {
                        let error =
                            format!("query parameter 'by' must be one of {}", AuditKey::EXPECTED);
                        return bad_param(error, raw);
                    }
                },
            };
            HttpResponse::json(200, audit_top_snapshot(shared, by, n))
        }
        "/slo" => HttpResponse::json(200, slo_snapshot(shared)),
        "/explain" => HttpResponse::json(200, explain_snapshot(shared)),
        "/analyze" => HttpResponse::json(200, analyze_snapshot(shared)),
        _ => HttpResponse::text(404, format!("no such route: {path}\n")),
    }
}

/// Serializes `response` with `Content-Length` and `Connection: close`.
fn write_response(stream: &mut TcpStream, response: &HttpResponse) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
    );
    if let Some(allow) = response.allow {
        out.push_str("Allow: ");
        out.push_str(allow);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(&response.body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::test_shared;

    #[test]
    fn routes_and_status_codes() {
        let shared = test_shared(2, 10);
        let health = respond("GET", "/healthz", &shared);
        assert_eq!(health.status, 200);
        assert_eq!(health.body, "ok\n");

        let ready = respond("GET", "/readyz", &shared);
        assert_eq!(ready.status, 200);

        let metrics = respond("GET", "/metrics", &shared);
        assert_eq!(metrics.status, 200);
        assert_eq!(metrics.content_type, "text/plain; version=0.0.4");
        assert!(
            metrics.body.contains("# TYPE p3_service_queue_depth gauge"),
            "{}",
            metrics.body
        );
        assert!(
            metrics
                .body
                .contains("# TYPE p3_service_workers_busy gauge"),
            "{}",
            metrics.body
        );

        let traces = respond("GET", "/traces?n=5", &shared);
        assert_eq!(traces.status, 200);
        assert_eq!(traces.content_type, "application/json");
        assert!(traces.body.contains("traceEvents"), "{}", traces.body);

        let missing = respond("GET", "/nope", &shared);
        assert_eq!(missing.status, 404);

        let post = respond("POST", "/metrics", &shared);
        assert_eq!(post.status, 405);
        assert_eq!(post.allow, Some("GET"));
    }

    #[test]
    fn readyz_reports_the_reason_when_unready() {
        let shared = test_shared(0, 10);
        let ready = respond("GET", "/readyz", &shared);
        assert_eq!(ready.status, 503);
        assert!(ready.body.contains("no workers"), "{}", ready.body);
    }

    #[test]
    fn query_params_parse_and_default() {
        assert_eq!(query_param("/traces?n=7", "n").as_deref(), Some("7"));
        assert_eq!(
            query_param("/profile?secs=3&x=1", "secs").as_deref(),
            Some("3")
        );
        assert_eq!(query_param("/traces", "n"), None);
        assert_eq!(query_param("/traces?m=2", "n"), None);
    }

    #[test]
    fn bad_integer_params_are_400_with_json_bodies() {
        let shared = test_shared(2, 10);
        for target in [
            "/traces?n=abc",
            "/traces?n=-1",
            "/traces?n=0",
            "/traces?n=999999",
            "/profile?secs=abc",
            "/profile?secs=0",
            "/profile?secs=31",
            "/audit?n=xyz",
            "/audit?n=1001",
            "/audit/top?n=huge",
        ] {
            let resp = respond("GET", target, &shared);
            assert_eq!(resp.status, 400, "{target}");
            assert_eq!(resp.content_type, "application/json", "{target}");
            assert!(resp.body.contains("\"error\""), "{target}: {}", resp.body);
        }
        // Hostile parameter values are escaped, not echoed raw.
        let resp = respond("GET", "/traces?n=\"quoted\"", &shared);
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\\\"quoted\\\""), "{}", resp.body);
        // Absent parameters still take the documented defaults.
        assert_eq!(respond("GET", "/traces", &shared).status, 200);
        assert_eq!(respond("GET", "/audit", &shared).status, 200);
    }

    #[test]
    fn audit_routes_report_disabled_without_a_log() {
        let shared = test_shared(2, 10);
        for target in ["/audit", "/audit/top?by=latency"] {
            let resp = respond("GET", target, &shared);
            assert_eq!(resp.status, 200, "{target}");
            assert_eq!(resp.content_type, "application/json");
            assert!(
                resp.body.contains("\"enabled\":false"),
                "{target}: {}",
                resp.body
            );
        }
        let resp = respond("GET", "/audit/top?by=bogus", &shared);
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("'by'"), "{}", resp.body);
        assert!(resp.body.contains("rule_cost"), "{}", resp.body);
        // rule_cost is a valid ranking key even without a log.
        let resp = respond("GET", "/audit/top?by=rule_cost", &shared);
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn explain_route_reports_accumulated_plans() {
        let shared = test_shared(2, 10);
        // No query has forced an evaluation yet: the route still answers
        // with an empty accumulation rather than erroring.
        let resp = respond("GET", "/explain", &shared);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "application/json");
        for needle in [
            "\"evaluations\"",
            "\"rule_cost_total\"",
            "\"top_rules\"",
            "\"plans\"",
        ] {
            assert!(resp.body.contains(needle), "{needle}: {}", resp.body);
        }
        // Force an evaluation through the session, then the plans show up.
        let session = shared.current_session();
        let _ = session
            .probability("a(1)", p3_core::ProbMethod::Exact)
            .unwrap();
        let resp = respond("GET", "/explain", &shared);
        assert!(resp.body.contains("\"mode\":\"naive\""), "{}", resp.body);
        assert!(resp.body.contains("\"total_cost\""), "{}", resp.body);
    }

    #[test]
    fn analyze_route_predicts_without_evaluating() {
        let shared = test_shared(2, 10);
        let resp = respond("GET", "/analyze", &shared);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "application/json");
        for needle in ["\"total_cost\"", "\"recommend\"", "\"rules\"", "\"preds\""] {
            assert!(resp.body.contains(needle), "{needle}: {}", resp.body);
        }
        // Static analysis must not have forced an evaluation: the explain
        // accumulation is still empty afterwards.
        let explain = respond("GET", "/explain", &shared);
        assert!(
            explain.body.contains("\"evaluations\":0"),
            "{}",
            explain.body
        );
    }

    #[test]
    fn slo_route_reports_default_objectives() {
        let shared = test_shared(2, 10);
        let resp = respond("GET", "/slo", &shared);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "application/json");
        for needle in [
            "\"objectives\"",
            "\"probability\"",
            "\"modification\"",
            "\"burn_rate\"",
            "\"budget_remaining\"",
            "\"any_fast_trip\":false",
        ] {
            assert!(resp.body.contains(needle), "{needle}: {}", resp.body);
        }
    }

    #[test]
    fn audit_routes_serve_records_when_enabled() {
        let dir = std::env::temp_dir().join(format!(
            "p3-admin-audit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let shared =
            crate::server::test_shared_with_audit(2, 10, Some(p3_audit::AuditConfig::new(&dir)));
        // An inline admin op still funnels through handle_line, so it
        // must leave exactly one audit record behind.
        let _ = crate::server::test_handle_line(r#"{"op":"ping"}"#, &shared);
        let resp = respond("GET", "/audit?n=5", &shared);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"enabled\":true"), "{}", resp.body);
        assert!(resp.body.contains("\"class\":\"ping\""), "{}", resp.body);
        let resp = respond("GET", "/audit/top?by=latency&n=5", &shared);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"by\":\"latency\""), "{}", resp.body);
        assert!(resp.body.contains("\"class\":\"ping\""), "{}", resp.body);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn request_lines_parse() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET".to_string(), "/metrics".to_string()))
        );
        assert_eq!(parse_request_line("\r\n"), None);
    }
}
