//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response per line, in order. The grammar
//! (documented in `DESIGN.md` §8):
//!
//! ```text
//! request  = { "op": <op>, ["id": n], ["timeout_ms": n], ["hop_limit": n],
//!              ["eval_mode": "auto"|"naive"|"demand"],
//!              ["trace": "32-hex"], ...op fields }
//! op       = the name of an [`OPS`] row
//! response = { ["id": n], "status": "ok" | "error" | "timeout",
//!              ["result": {...}], ["error": "..."] }
//! ```
//!
//! [`OPS`] declares every op once: its name, whether the server answers it
//! inline or queues it for a worker, and the positional words `p3-client`
//! takes for it. The five query classes and `profile` decode to one
//! [`Op::Query`] carrying a [`QueryClass`]; `profile` names its class in
//! `"class"` (default `probability`).
//!
//! `id` is echoed verbatim so clients can pipeline, also on a rejected
//! request whose `id` decodes; `timeout_ms` arms the per-request deadline
//! (see `server`); `hop_limit` caps provenance extraction depth for the
//! query ops; `eval_mode` overrides the server's default evaluation
//! strategy (naive whole-model vs query-directed demand, see
//! `p3_core::EvalMode`) for one request. `trace` is an optional
//! client-generated 128-bit trace id (lowercase hex): the server adopts
//! it as a field on the request's root span so one id links client-side
//! connect/send/recv spans with the server-side execution tree.

use crate::json::Value;
use p3_audit::AuditKey;
use p3_core::{
    DerivationAlgo, EvalMode, InfluenceMethod, InfluenceOptions, ModificationOptions, ProbMethod,
    QueryClass,
};
use p3_prob::McConfig;

/// One service op, declared once in [`OPS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSpec {
    /// The wire name, also the request's stats and audit class.
    pub name: &'static str,
    /// Answered on the connection handler, so it works while the queue is
    /// full; otherwise queued for the worker pool.
    pub inline: bool,
    /// The positional words `p3-client` takes: `QUERY`, `TARGET`, `N` or
    /// `FILE`, in brackets when optional.
    pub args: &'static str,
}

const fn op(name: &'static str, inline: bool, args: &'static str) -> OpSpec {
    OpSpec { name, inline, args }
}

/// Every op the server answers. Adding one takes a row here, a decode arm
/// in [`Request::parse`] and a handler arm in the server.
pub const OPS: &[OpSpec] = &[
    op("ping", true, ""),
    op("stats", true, ""),
    op("metrics", true, ""),
    op("trace", true, "[N]"),
    op("shutdown", true, ""),
    op("warm", true, ""),
    op("store-stats", true, ""),
    op("audit-tail", true, "[N]"),
    op("audit-top", true, "[N]"),
    op("slo", true, ""),
    op("persist", false, ""),
    op("load-program", false, "FILE"),
    op("lint", false, "FILE"),
    op("probability", false, "QUERY"),
    op("explanation", false, "QUERY"),
    op("derivation", false, "QUERY"),
    op("influence", false, "QUERY"),
    op("modification", false, "QUERY TARGET"),
    op("profile", false, "QUERY [TARGET]"),
    op("explain", false, "QUERY"),
    op("analyze", false, "[QUERY]"),
];

/// The [`OPS`] row named `name`.
pub fn op_spec(name: &str) -> Option<&'static OpSpec> {
    OPS.iter().find(|spec| spec.name == name)
}

/// An op, parsed and validated.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Liveness check.
    Ping,
    /// Server + session + store counters.
    Stats,
    /// Prometheus text exposition of the process metrics registry.
    Metrics,
    /// The `n` most recent request span trees.
    Trace {
        /// How many request trees to return.
        n: usize,
    },
    /// Graceful shutdown: drain in-flight work, refuse new connections.
    Shutdown,
    /// Force a compaction of the persistent store: export the session's
    /// full provenance state as a snapshot and truncate the intern log.
    /// Runs on the worker pool — it reads the same session the queries
    /// mutate.
    Persist,
    /// Warm-boot report: what the persistent store restored at startup
    /// (formulas, memos, recovery truncations, staleness).
    Warm,
    /// Persistent-store backend counters (records written, pending buffer,
    /// snapshot size).
    StoreStats,
    /// Replace the served program with `source`, unless it has
    /// error-severity lint findings.
    LoadProgram {
        /// Program text.
        source: String,
    },
    /// Static analysis: lint `source` without loading it.
    Lint {
        /// Program text.
        source: String,
    },
    /// One query class answered for `query` by `QuerySession::run`: the
    /// ops `probability`, `explanation`, `derivation`, `influence` and
    /// `modification`, or `profile` of any of them.
    Query {
        /// Ground atom, e.g. `know("Ben","Elena")`.
        query: String,
        /// The class and its parameters.
        class: QueryClass,
        /// Answer with the query's stage-by-stage report instead.
        profile: bool,
    },
    /// Query EXPLAIN plane: per-rule cost attribution of the evaluation
    /// that answers `query` (engine plan, DNF shape, cache deltas,
    /// measured lint recommendations). Observation-only.
    Explain {
        /// Ground atom to explain.
        query: String,
    },
    /// Static analysis plane: predicted per-rule costs, cardinality
    /// bounds, DNF widths and `P37xx` diagnostics — computed without
    /// evaluating anything. Optionally predicts per-query-class work
    /// for one query atom.
    Analyze {
        /// Optional atom whose predicate gets a per-class prediction.
        query: Option<String>,
    },
    /// The `n` most recent audit records, newest first.
    AuditTail {
        /// How many records to return.
        n: usize,
    },
    /// Worst offenders from the audit ring, ranked by a cost key.
    AuditTop {
        /// Ranking key.
        by: AuditKey,
        /// How many records to return.
        n: usize,
    },
    /// SLO burn-rate and error-budget snapshot per request class.
    Slo,
}

impl Op {
    /// The query text carried by this op, when it has one — the query
    /// classes, `profile` and `explain`. Used for audit-record query
    /// hashing; the text itself is never persisted.
    pub fn query_text(&self) -> Option<&str> {
        match self {
            Op::Query { query, .. } | Op::Explain { query } => Some(query),
            _ => None,
        }
    }
}

/// A parsed request envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Per-request deadline in milliseconds from receipt.
    pub timeout_ms: Option<u64>,
    /// Provenance extraction depth cap for query ops.
    pub hop_limit: Option<usize>,
    /// Per-request evaluation-mode override for query ops; `None` uses the
    /// server's configured default.
    pub eval_mode: Option<EvalMode>,
    /// Client-generated trace id (lowercase hex), adopted on the
    /// server-side root span for cross-process trace assembly.
    pub trace: Option<String>,
    /// The op's [`OPS`] row.
    pub spec: &'static OpSpec,
    /// The operation.
    pub op: Op,
}

/// Generates a fresh 128-bit trace id as 32 lowercase hex characters.
///
/// Mixes wall-clock nanoseconds, the process id, and a process-local
/// counter through two rounds of splitmix64 — not cryptographic, but
/// collision-free in practice for correlating client and server spans.
pub fn new_trace_id() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seed =
        nanos ^ (u64::from(std::process::id()) << 32) ^ COUNTER.fetch_add(1, Ordering::Relaxed);
    let hi = splitmix64(seed);
    let lo = splitmix64(hi ^ seed.rotate_left(17));
    format!("{hi:016x}{lo:016x}")
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

fn probability_field(v: &Value, key: &str) -> Result<f64, String> {
    let p = f64_field(v, key)?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!(
            "field '{key}' must be a probability in [0, 1], got {p}"
        ))
    }
}

/// Reads the optional field `key` with `read`: absent or `null` is `None`,
/// and a value `read` rejects is an error saying the field must be
/// `expected`.
fn opt<'v, T>(
    v: &'v Value,
    key: &str,
    expected: &str,
    read: impl FnOnce(&'v Value) -> Option<T>,
) -> Result<Option<T>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(field) => read(field)
            .map(Some)
            .ok_or_else(|| format!("field '{key}' must be {expected}")),
    }
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    opt(v, key, "a non-negative integer", Value::as_u64)
}

fn opt_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    opt(v, key, "a number", Value::as_f64)
}

fn opt_str<'v>(v: &'v Value, key: &str) -> Result<Option<&'v str>, String> {
    opt(v, key, "a string", Value::as_str)
}

/// A non-empty string field, when present.
fn opt_text(v: &Value, key: &str) -> Result<Option<String>, String> {
    opt(v, key, "a non-empty string", |f| {
        f.as_str().filter(|s| !s.is_empty()).map(str::to_string)
    })
}

/// Shared Monte-Carlo knobs: `samples`, `seed`, `threads` (0 = auto).
fn mc_config(v: &Value) -> Result<(McConfig, usize), String> {
    let samples = opt_u64(v, "samples")?.unwrap_or(100_000) as usize;
    let seed = opt_u64(v, "seed")?.unwrap_or(0x7033);
    let threads = opt_u64(v, "threads")?.unwrap_or(0) as usize;
    Ok((McConfig { samples, seed }, threads))
}

fn prob_method(v: &Value) -> Result<ProbMethod, String> {
    let (cfg, threads) = mc_config(v)?;
    ProbMethod::parse(opt_str(v, "method")?.unwrap_or("exact"), cfg, threads)
}

/// Reads the query class `name` and its parameters from `v` — one reader
/// for the five query ops and `profile`.
fn query_class(name: &str, v: &Value) -> Result<QueryClass, String> {
    Ok(match name {
        "probability" => QueryClass::Probability(prob_method(v)?),
        "explanation" => QueryClass::Explanation(prob_method(v)?),
        "derivation" => QueryClass::Derivation {
            eps: f64_field(v, "eps")?,
            algo: opt_str(v, "algo")?
                .map_or(Ok(DerivationAlgo::NaiveGreedy), str::parse)?,
            method: prob_method(v)?,
        },
        "influence" => {
            let (cfg, threads) = mc_config(v)?;
            QueryClass::Influence(InfluenceOptions {
                method: InfluenceMethod::parse(
                    opt_str(v, "method")?.unwrap_or("exact"),
                    cfg,
                    threads,
                )?,
                top_k: opt_u64(v, "top_k")?.map(|n| n as usize),
                preprocess_epsilon: opt_f64(v, "preprocess_epsilon")?,
                restrict_to: None,
            })
        }
        "modification" => QueryClass::Modification {
            target: probability_field(v, "target")?,
            opts: ModificationOptions {
                tolerance: opt_f64(v, "tolerance")?.unwrap_or(1e-6),
                ..Default::default()
            },
        },
        other => return Err(format!(
            "unknown query class '{other}' (expected probability|explanation|derivation|influence|modification)"
        )),
    })
}

impl Request {
    /// Parses one request line. Errors are protocol-level (malformed JSON,
    /// unknown op, missing or wrong-typed fields) and never tear down the
    /// connection.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Value::parse(line.trim()).map_err(|e| format!("malformed JSON: {e}"))?;
        if !matches!(v, Value::Object(_)) {
            return Err("request must be a JSON object".to_string());
        }
        let id = opt_u64(&v, "id")?;
        let timeout_ms = opt_u64(&v, "timeout_ms")?;
        let hop_limit = opt_u64(&v, "hop_limit")?.map(|n| n as usize);
        let eval_mode = opt_str(&v, "eval_mode")?
            .map(|s| s.parse().map_err(|e| format!("eval_mode: {e}")))
            .transpose()?;
        let trace = opt_text(&v, "trace")?;
        let name = str_field(&v, "op")?;
        let spec = op_spec(&name).ok_or_else(|| format!("unknown op '{name}'"))?;
        let n = |default: u64| opt_u64(&v, "n").map(|n| n.unwrap_or(default) as usize);
        let op = match spec.name {
            "ping" => Op::Ping,
            "stats" => Op::Stats,
            "metrics" => Op::Metrics,
            "trace" => Op::Trace { n: n(10)? },
            "shutdown" => Op::Shutdown,
            "warm" => Op::Warm,
            "store-stats" => Op::StoreStats,
            "audit-tail" => Op::AuditTail { n: n(20)? },
            "audit-top" => Op::AuditTop {
                by: opt_str(&v, "by")?.map_or(Ok(AuditKey::Latency), AuditKey::parse)?,
                n: n(10)?,
            },
            "slo" => Op::Slo,
            "persist" => Op::Persist,
            "load-program" => Op::LoadProgram {
                source: str_field(&v, "source")?,
            },
            "lint" => Op::Lint {
                source: str_field(&v, "source")?,
            },
            "explain" => Op::Explain {
                query: str_field(&v, "query")?,
            },
            "analyze" => Op::Analyze {
                query: opt_text(&v, "query")?,
            },
            // The query classes, and `profile` of one named in "class".
            name => {
                let profile = name == "profile";
                let class = if profile {
                    opt_str(&v, "class")?.unwrap_or("probability")
                } else {
                    name
                };
                Op::Query {
                    class: query_class(class, &v)?,
                    query: str_field(&v, "query")?,
                    profile,
                }
            }
        };
        Ok(Request {
            id,
            timeout_ms,
            hop_limit,
            eval_mode,
            trace,
            spec,
            op,
        })
    }
}

/// Response status discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// The op succeeded; `result` is set.
    Ok,
    /// The op failed; `error` explains why.
    Error,
    /// The per-request deadline expired before the answer was ready.
    Timeout,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Error => "error",
            Status::Timeout => "timeout",
        }
    }
}

/// A response envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request's correlation id, echoed back.
    pub id: Option<u64>,
    /// Outcome.
    pub status: Status,
    /// Payload on success.
    pub result: Option<Value>,
    /// Explanation on error/timeout.
    pub error: Option<String>,
}

impl Response {
    /// A success response.
    pub fn ok(id: Option<u64>, result: Value) -> Response {
        Response {
            id,
            status: Status::Ok,
            result: Some(result),
            error: None,
        }
    }

    /// An error response.
    pub fn error(id: Option<u64>, message: impl Into<String>) -> Response {
        Response {
            id,
            status: Status::Error,
            result: None,
            error: Some(message.into()),
        }
    }

    /// A deadline-expired response.
    pub fn timeout(id: Option<u64>, message: impl Into<String>) -> Response {
        Response {
            id,
            status: Status::Timeout,
            result: None,
            error: Some(message.into()),
        }
    }

    /// Serialises to one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut pairs: Vec<(String, Value)> = Vec::new();
        if let Some(id) = self.id {
            pairs.push(("id".to_string(), Value::from(id)));
        }
        pairs.push((
            "status".to_string(),
            Value::from(self.status.as_str().to_string()),
        ));
        if let Some(result) = &self.result {
            pairs.push(("result".to_string(), result.clone()));
        }
        if let Some(error) = &self.error {
            pairs.push(("error".to_string(), Value::from(error.clone())));
        }
        Value::Object(pairs).to_json()
    }

    /// Parses a response line (the client side of the protocol).
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = Value::parse(line.trim()).map_err(|e| format!("malformed response: {e}"))?;
        let status = match v.get("status").and_then(Value::as_str) {
            Some("ok") => Status::Ok,
            Some("error") => Status::Error,
            Some("timeout") => Status::Timeout,
            other => return Err(format!("bad response status {other:?}")),
        };
        Ok(Response {
            id: v.get("id").and_then(Value::as_u64),
            status,
            result: v.get("result").cloned(),
            error: v.get("error").and_then(Value::as_str).map(str::to_string),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_query_class() {
        let cases = [
            (r#"{"op":"ping"}"#, "ping"),
            (r#"{"op":"stats"}"#, "stats"),
            (r#"{"op":"metrics"}"#, "metrics"),
            (r#"{"op":"trace","n":5}"#, "trace"),
            (r#"{"op":"shutdown"}"#, "shutdown"),
            (r#"{"op":"persist"}"#, "persist"),
            (r#"{"op":"warm"}"#, "warm"),
            (r#"{"op":"store-stats"}"#, "store-stats"),
            (r#"{"op":"audit-tail","n":5}"#, "audit-tail"),
            (r#"{"op":"audit-top","by":"tuples"}"#, "audit-top"),
            (r#"{"op":"slo"}"#, "slo"),
            (
                r#"{"op":"load-program","source":"t 1.0: a(1)."}"#,
                "load-program",
            ),
            (r#"{"op":"lint","source":"t 1.0: a(1)."}"#, "lint"),
            (r#"{"op":"probability","query":"a(1)"}"#, "probability"),
            (
                r#"{"op":"explanation","query":"a(1)","method":"mc","samples":1000}"#,
                "explanation",
            ),
            (
                r#"{"op":"derivation","query":"a(1)","eps":0.01,"algo":"resuciu"}"#,
                "derivation",
            ),
            (
                r#"{"op":"influence","query":"a(1)","top_k":3,"method":"pmc"}"#,
                "influence",
            ),
            (
                r#"{"op":"modification","query":"a(1)","target":0.9}"#,
                "modification",
            ),
            (r#"{"op":"explain","query":"a(1)"}"#, "explain"),
            (r#"{"op":"analyze"}"#, "analyze"),
            (r#"{"op":"analyze","query":"a(1)"}"#, "analyze"),
        ];
        for (line, class) in cases {
            let req = Request::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(req.spec.name, class, "{line}");
        }
    }

    #[test]
    fn every_op_row_decodes_to_its_own_spec() {
        for spec in OPS {
            let line = format!(
                r#"{{"op":"{}","query":"a(1)","source":"t 1.0: a(1).","eps":0.01,"target":0.5}}"#,
                spec.name
            );
            let req = Request::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(req.spec, spec, "{line}");
            assert_eq!(op_spec(spec.name), Some(spec));
        }
    }

    #[test]
    fn envelope_fields_are_extracted() {
        let req = Request::parse(
            r#"{"op":"probability","query":"a(1)","id":42,"timeout_ms":250,"hop_limit":3,"eval_mode":"demand","method":"pmc","threads":2,"samples":500,"seed":9}"#,
        )
        .unwrap();
        assert_eq!(req.id, Some(42));
        assert_eq!(req.timeout_ms, Some(250));
        assert_eq!(req.hop_limit, Some(3));
        assert_eq!(req.eval_mode, Some(EvalMode::Demand));
        match req.op {
            Op::Query {
                ref query,
                class: QueryClass::Probability(method),
                profile: false,
            } => {
                assert_eq!(query, "a(1)");
                assert_eq!(
                    method,
                    ProbMethod::ParallelMc(
                        McConfig {
                            samples: 500,
                            seed: 9
                        },
                        2
                    )
                );
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        for (line, needle) in [
            ("not json", "malformed JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"query":"a(1)"}"#, "op"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"probability"}"#, "query"),
            (
                r#"{"op":"probability","query":"a(1)","method":"magic"}"#,
                "unknown method",
            ),
            (r#"{"op":"derivation","query":"a(1)"}"#, "eps"),
            (r#"{"op":"modification","query":"a(1)"}"#, "target"),
            (r#"{"op":"load-program"}"#, "source"),
            (r#"{"op":"lint"}"#, "source"),
            (
                r#"{"op":"probability","query":"a(1)","timeout_ms":-3}"#,
                "timeout_ms",
            ),
            (
                r#"{"op":"probability","query":"a(1)","eval_mode":"magic"}"#,
                "eval_mode",
            ),
            (
                r#"{"op":"probability","query":"a(1)","eval_mode":7}"#,
                "eval_mode",
            ),
            // A wrong-typed optional field is rejected, not defaulted.
            (
                r#"{"op":"probability","query":"a(1)","method":5}"#,
                "field 'method' must be a string",
            ),
            (
                r#"{"op":"probability","query":"a(1)","method":["mc"]}"#,
                "field 'method' must be a string",
            ),
            (
                r#"{"op":"influence","query":"a(1)","method":5}"#,
                "field 'method' must be a string",
            ),
            (
                r#"{"op":"derivation","query":"a(1)","eps":0.01,"algo":false}"#,
                "field 'algo' must be a string",
            ),
            (
                r#"{"op":"profile","class":7,"query":"a(1)"}"#,
                "field 'class' must be a string",
            ),
            (
                r#"{"op":"probability","query":"a(1)","samples":"abc"}"#,
                "field 'samples' must be a non-negative integer",
            ),
            // Programs come inline: a server-side `path` is not read.
            (r#"{"op":"load-program","source":5}"#, "source"),
            (r#"{"op":"load-program","path":"x.pl"}"#, "source"),
            (r#"{"op":"lint","path":"x.pl"}"#, "source"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn modification_target_must_be_a_probability() {
        for target in ["2", "-0.5"] {
            for op in ["modification", "profile\",\"class\":\"modification"] {
                let line = format!(r#"{{"op":"{op}","query":"a(1)","target":{target}}}"#);
                let err = Request::parse(&line).unwrap_err();
                assert!(err.contains("'target'"), "{line} -> {err}");
                assert!(err.contains(target), "{line} -> {err}");
            }
        }
        for target in ["0", "1", "0.25"] {
            let line = format!(r#"{{"op":"modification","query":"a(1)","target":{target}}}"#);
            assert!(Request::parse(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            Response::ok(Some(7), Value::object(vec![("p", Value::from(0.5))])),
            Response::error(None, "boom"),
            Response::timeout(Some(1), "deadline of 10ms expired"),
        ] {
            let line = resp.to_line();
            assert_eq!(Response::parse(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn trace_defaults_to_ten_trees() {
        match Request::parse(r#"{"op":"trace"}"#).unwrap().op {
            Op::Trace { n } => assert_eq!(n, 10),
            ref other => panic!("{other:?}"),
        }
        match Request::parse(r#"{"op":"trace","n":3}"#).unwrap().op {
            Op::Trace { n } => assert_eq!(n, 3),
            ref other => panic!("{other:?}"),
        }
        assert!(Request::parse(r#"{"op":"trace","n":-1}"#).is_err());
    }

    #[test]
    fn profile_wraps_a_query_class() {
        // Defaults to profiling a probability query.
        assert_eq!(
            Request::parse(r#"{"op":"profile","query":"a(1)"}"#)
                .unwrap()
                .op,
            Op::Query {
                query: "a(1)".to_string(),
                class: QueryClass::Probability(ProbMethod::Exact),
                profile: true,
            }
        );
        // Inner-class fields are parsed from the same envelope.
        match Request::parse(
            r#"{"op":"profile","class":"derivation","query":"a(1)","eps":0.05,"algo":"resuciu"}"#,
        )
        .unwrap()
        .op
        {
            Op::Query {
                class: QueryClass::Derivation { eps, algo, .. },
                profile: true,
                ..
            } => {
                assert_eq!(eps, 0.05);
                assert_eq!(algo, DerivationAlgo::ReSuciu);
            }
            ref other => panic!("{other:?}"),
        }
        let req = Request::parse(r#"{"op":"profile","query":"a(1)"}"#).unwrap();
        assert_eq!(req.spec.name, "profile");
        assert!(!req.spec.inline);
        // Only query classes can be profiled.
        for line in [
            r#"{"op":"profile","class":"ping"}"#,
            r#"{"op":"profile","class":"profile","query":"a(1)"}"#,
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains("unknown query class"), "{line} -> {err}");
        }
        // Missing inner fields surface the inner error.
        let err = Request::parse(r#"{"op":"profile","class":"modification","query":"a(1)"}"#)
            .unwrap_err();
        assert!(err.contains("target"), "{err}");
    }

    #[test]
    fn eval_mode_field_is_optional_and_parsed() {
        assert_eq!(
            Request::parse(r#"{"op":"probability","query":"a(1)"}"#)
                .unwrap()
                .eval_mode,
            None
        );
        assert_eq!(
            Request::parse(r#"{"op":"probability","query":"a(1)","eval_mode":null}"#)
                .unwrap()
                .eval_mode,
            None
        );
        for (spelling, mode) in [
            ("auto", EvalMode::Auto),
            ("naive", EvalMode::Naive),
            ("demand", EvalMode::Demand),
        ] {
            let line = format!(r#"{{"op":"probability","query":"a(1)","eval_mode":"{spelling}"}}"#);
            assert_eq!(Request::parse(&line).unwrap().eval_mode, Some(mode));
        }
    }

    #[test]
    fn trace_field_is_extracted_and_validated() {
        let req =
            Request::parse(r#"{"op":"ping","trace":"00ff00ff00ff00ff00ff00ff00ff00ff"}"#).unwrap();
        assert_eq!(
            req.trace.as_deref(),
            Some("00ff00ff00ff00ff00ff00ff00ff00ff")
        );
        assert_eq!(Request::parse(r#"{"op":"ping"}"#).unwrap().trace, None);
        assert_eq!(
            Request::parse(r#"{"op":"ping","trace":null}"#)
                .unwrap()
                .trace,
            None
        );
        for line in [r#"{"op":"ping","trace":""}"#, r#"{"op":"ping","trace":7}"#] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains("trace"), "{line} -> {err}");
        }
    }

    #[test]
    fn trace_ids_are_well_formed_and_distinct() {
        let a = new_trace_id();
        let b = new_trace_id();
        for id in [&a, &b] {
            assert_eq!(id.len(), 32, "{id}");
            assert!(id
                .chars()
                .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        }
        assert_ne!(a, b);
    }

    /// The [`OPS`] row a request line names.
    fn spec_of(line: &str) -> &'static OpSpec {
        let v = Value::parse(line).unwrap();
        op_spec(v.get("op").and_then(Value::as_str).unwrap()).unwrap()
    }

    #[test]
    fn query_vs_admin_split() {
        assert!(spec_of(r#"{"op":"ping"}"#).inline);
        assert!(spec_of(r#"{"op":"stats"}"#).inline);
        assert!(spec_of(r#"{"op":"metrics"}"#).inline);
        assert!(spec_of(r#"{"op":"trace"}"#).inline);
        assert!(spec_of(r#"{"op":"warm"}"#).inline);
        assert!(spec_of(r#"{"op":"store-stats"}"#).inline);
        assert!(spec_of(r#"{"op":"audit-tail"}"#).inline);
        assert!(spec_of(r#"{"op":"audit-top"}"#).inline);
        assert!(spec_of(r#"{"op":"slo"}"#).inline);
        assert!(!spec_of(r#"{"op":"persist"}"#).inline);
        assert!(!spec_of(r#"{"op":"probability","query":"a(1)"}"#).inline);
        assert!(!spec_of(r#"{"op":"load-program","path":"x.pl"}"#).inline);
        assert!(!spec_of(r#"{"op":"lint","path":"x.pl"}"#).inline);
        // Explain forces an evaluation, so it runs on the worker pool.
        assert!(!spec_of(r#"{"op":"explain","query":"a(1)"}"#).inline);
        // Analyze evaluates nothing but walks the whole program, so it
        // also runs on the worker pool rather than inline.
        assert!(!spec_of(r#"{"op":"analyze"}"#).inline);
    }

    #[test]
    fn analyze_parses_optional_query() {
        match Request::parse(r#"{"op":"analyze"}"#).unwrap().op {
            Op::Analyze { query: None } => {}
            ref other => panic!("{other:?}"),
        }
        match Request::parse(r#"{"op":"analyze","query":"a(1)"}"#)
            .unwrap()
            .op
        {
            Op::Analyze { query: Some(q) } => assert_eq!(q, "a(1)"),
            ref other => panic!("{other:?}"),
        }
        assert!(Request::parse(r#"{"op":"analyze","query":42}"#).is_err());
        assert!(Request::parse(r#"{"op":"analyze","query":""}"#).is_err());
    }

    #[test]
    fn audit_ops_parse_with_defaults_and_reject_bad_keys() {
        match Request::parse(r#"{"op":"audit-tail"}"#).unwrap().op {
            Op::AuditTail { n } => assert_eq!(n, 20),
            ref other => panic!("{other:?}"),
        }
        match Request::parse(r#"{"op":"audit-top"}"#).unwrap().op {
            Op::AuditTop { by, n } => {
                assert_eq!(by, AuditKey::Latency);
                assert_eq!(n, 10);
            }
            ref other => panic!("{other:?}"),
        }
        match Request::parse(r#"{"op":"audit-top","by":"dnf_width","n":3}"#)
            .unwrap()
            .op
        {
            Op::AuditTop { by, n } => {
                assert_eq!(by, AuditKey::DnfWidth);
                assert_eq!(n, 3);
            }
            ref other => panic!("{other:?}"),
        }
        match Request::parse(r#"{"op":"audit-top","by":"rule_cost"}"#)
            .unwrap()
            .op
        {
            Op::AuditTop { by, .. } => assert_eq!(by, AuditKey::RuleCost),
            ref other => panic!("{other:?}"),
        }
        assert_eq!(AuditKey::RuleCost.as_str(), "rule_cost");
        for line in [
            r#"{"op":"audit-top","by":"magic"}"#,
            r#"{"op":"audit-top","by":7}"#,
            r#"{"op":"audit-tail","n":-1}"#,
        ] {
            assert!(Request::parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn query_text_covers_query_classes_only() {
        let q = Request::parse(r#"{"op":"probability","query":"a(1)"}"#).unwrap();
        assert_eq!(q.op.query_text(), Some("a(1)"));
        let p = Request::parse(r#"{"op":"profile","query":"a(2)"}"#).unwrap();
        assert_eq!(p.op.query_text(), Some("a(2)"));
        for line in [
            r#"{"op":"ping"}"#,
            r#"{"op":"slo"}"#,
            r#"{"op":"lint","source":"t 1.0: a(1)."}"#,
        ] {
            assert_eq!(
                Request::parse(line).unwrap().op.query_text(),
                None,
                "{line}"
            );
        }
    }

    #[test]
    fn load_program_ignores_a_lint_field() {
        let line = r#"{"op":"load-program","source":"t 1.0: a(1).","lint":false}"#;
        match Request::parse(line).unwrap().op {
            Op::LoadProgram { ref source } => assert_eq!(source, "t 1.0: a(1)."),
            ref other => panic!("{other:?}"),
        }
    }
}
