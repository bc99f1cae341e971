//! `p3-client` — one-shot and REPL client for `p3-serve`.
//!
//! ```text
//! p3-client (--tcp ADDR | --unix PATH) <command> [options]
//! p3-client (--tcp ADDR | --unix PATH) repl
//! ```
//!
//! Each command is an op of the protocol's `OPS` table and builds one
//! request from the op's positional words and the options given; the
//! client prints the response's `result` (or error) and exits non-zero on
//! `error`/`timeout`. The REPL accepts the same command syntax line by
//! line, or raw JSON for lines starting with `{`.

use p3_service::client::Client;
use p3_service::json::Value;
use p3_service::protocol::{op_spec, Status};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
p3-client — client for the p3-serve query server

USAGE:
    p3-client (--tcp ADDR | --unix PATH) <command> [options]

COMMANDS:
    probability QUERY            P[QUERY]
    explanation QUERY            Explanation Query: derivations + polynomial
    derivation QUERY             Derivation Query: sufficient provenance
    influence QUERY              Influence Query: ranked influential clauses
    modification QUERY TARGET    Modification Query: plan towards TARGET
    profile QUERY [TARGET]       stage-by-stage breakdown of one query
                                 (--class picks the query class; TARGET is
                                 required for --class modification)
    explain QUERY                per-rule cost attribution of the evaluation
                                 answering QUERY (EXPLAIN plane)
    analyze [QUERY]              static cost/cardinality prediction for the
                                 served program (no evaluation; QUERY adds a
                                 per-query-class prediction)
    load-program FILE            replace the served program (FILE's text is
                                 sent inline)
    lint FILE                    static analysis of FILE without loading it
    stats                        server/session/store counters
    metrics                      Prometheus text exposition of all metrics
    trace [N]                    the N most recent request span trees [default: 10]
    audit-tail [N]               the N most recent audit records [default: 20]
    audit-top [N]                the N costliest audit records [default: 10]
                                 (--by picks the ranking key)
    slo                          per-class burn rates and error budgets
    ping                         liveness check
    persist                      compact the persistent store to a fresh snapshot
    warm                         what the store restored at boot (warm-boot report)
    store-stats                  persistent-store backend counters
    shutdown                     graceful server shutdown
    raw JSON                     send one raw request line
    repl                         interactive loop (commands or raw JSON lines)

OPTIONS (where applicable; each is sent as the request field of the same
name, dashes as underscores, and the server checks its value):
    --class C           profiled query class: probability|explanation|
                        derivation|influence|modification [default: probability]
    --method M          exact|bdd|mc|kl|pmc     (influence: exact|mc|pmc)
    --samples N         Monte-Carlo samples     [default: 100000]
    --seed N            Monte-Carlo seed
    --threads N         pmc worker threads; 0 = auto
    --eps E             derivation error bound  [default: 0.01]
    --algo A            greedy|resuciu          [default: greedy]
    --by K              audit-top ranking key: latency|tuples|dnf_width|
                        rule_cost [default: latency]
    --top-k K           keep only the K most influential entries
    --tolerance T       modification tolerance  [default: 1e-6]
    --eval-mode M       evaluation mode override: auto|naive|demand
    --timeout-ms N      per-request deadline
    --hop-limit N       provenance extraction depth cap
    --no-lint           load-program: skip the lint pre-flight gate
    --trace-out FILE    record client-side spans under a fresh trace id,
                        propagate the id to the server, and write the
                        client's chrome://tracing JSON to FILE on exit
    -h, --help          print this help
";

/// The options a command may carry, each sent as the request field of the
/// same name with dashes as underscores.
const FLAGS: &[&str] = &[
    "--class",
    "--method",
    "--samples",
    "--seed",
    "--threads",
    "--eps",
    "--algo",
    "--by",
    "--top-k",
    "--tolerance",
    "--eval-mode",
    "--timeout-ms",
    "--hop-limit",
];

/// A word as a request field: a finite number is sent as a JSON number,
/// anything else as a string — the server checks each field's type.
fn scalar(word: &str) -> Value {
    match word.parse::<f64>() {
        Ok(x) if x.is_finite() => Value::from(x),
        _ => Value::from(word),
    }
}

/// Builds one request line from command words (shared by one-shot and
/// REPL). The command is an [`OPS`](p3_service::protocol::OPS) row, whose
/// `args` name the positional words: `QUERY`, `TARGET` and `N` fill
/// `query`, `target` and `n`, and `FILE` sends the file's text as `source`.
fn build_request(words: &[String]) -> Result<String, String> {
    let cmd = words.first().ok_or("missing command")?;
    let spec = op_spec(cmd).ok_or_else(|| format!("unknown command '{cmd}'"))?;
    let mut pairs = vec![("op".to_string(), Value::from(spec.name))];
    let mut positional = Vec::new();
    let mut iter = words[1..].iter();
    while let Some(word) = iter.next() {
        match word.as_str() {
            "--no-lint" => pairs.push(("lint".into(), Value::Bool(false))),
            flag if FLAGS.contains(&flag) => {
                let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
                pairs.push((flag[2..].replace('-', "_"), scalar(value)));
            }
            other if other.starts_with("--") => return Err(format!("unknown option '{other}'")),
            _ => positional.push(word),
        }
    }
    let mut positional = positional.into_iter();
    for slot in spec.args.split_whitespace() {
        let name = slot.trim_matches(['[', ']']);
        let Some(word) = positional.next() else {
            if slot.starts_with('[') {
                continue;
            }
            return Err(format!("{cmd} needs a {name} argument"));
        };
        pairs.push(match name {
            "QUERY" => ("query".into(), Value::from(word.as_str())),
            "FILE" => (
                "source".into(),
                Value::from(
                    std::fs::read_to_string(word)
                        .map_err(|e| format!("cannot read {word}: {e}"))?,
                ),
            ),
            _ => (name.to_lowercase(), scalar(word)),
        });
    }
    // The one client-side default: a derivation, profiled or not, sent
    // without --eps gets eps 0.01.
    let field = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let class = field("class").and_then(Value::as_str).unwrap_or(spec.name);
    if class == "derivation" && field("eps").is_none() {
        pairs.push(("eps".into(), Value::from(0.01)));
    }
    Ok(Value::Object(pairs).to_json())
}

/// Injects the propagated trace id into a request line (unless the line
/// already carries one, or isn't a JSON object).
fn with_trace(line: &str, trace: Option<&str>) -> String {
    let Some(id) = trace else {
        return line.to_string();
    };
    match Value::parse(line.trim()) {
        Ok(Value::Object(mut pairs)) => {
            if !pairs.iter().any(|(k, _)| k == "trace") {
                pairs.push(("trace".to_string(), Value::from(id)));
            }
            Value::Object(pairs).to_json()
        }
        _ => line.to_string(),
    }
}

/// Sends one line and pretty-prints the outcome; true on `status: ok`.
/// Text-typed payloads (e.g. the `metrics` exposition) print raw, not as
/// JSON, so the output pipes straight into Prometheus tooling.
fn send(client: &mut Client, line: &str, trace: Option<&str>) -> bool {
    let line = with_trace(line, trace);
    match client.request(&line) {
        Err(e) => {
            p3_obs::error!("request failed", err = e);
            false
        }
        Ok(resp) => match resp.status {
            Status::Ok => {
                let payload = resp.result.unwrap_or(Value::Null);
                let is_text = payload
                    .get("content_type")
                    .and_then(Value::as_str)
                    .is_some_and(|ct| ct.starts_with("text/plain"));
                match payload.get("text").and_then(Value::as_str) {
                    Some(text) if is_text => print!("{text}"),
                    _ => println!("{}", payload.to_json()),
                }
                true
            }
            Status::Error => {
                p3_obs::error!(resp.error.unwrap_or_default());
                false
            }
            Status::Timeout => {
                p3_obs::warn!("request timed out", detail = resp.error.unwrap_or_default());
                false
            }
        },
    }
}

fn repl(client: &mut Client, trace: Option<&str>) -> ExitCode {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    let _ = write!(out, "p3> ");
    let _ = out.flush();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            let _ = write!(out, "p3> ");
            let _ = out.flush();
            continue;
        }
        if trimmed == "quit" || trimmed == "exit" {
            break;
        }
        if trimmed.starts_with('{') {
            send(client, trimmed, trace);
        } else {
            let words: Vec<String> = trimmed.split_whitespace().map(str::to_string).collect();
            match build_request(&words) {
                Ok(request) => {
                    send(client, &request, trace);
                }
                Err(e) => p3_obs::error!(e),
            }
        }
        let _ = write!(out, "p3> ");
        let _ = out.flush();
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    // Pull the connection options out; everything else is the command.
    let mut tcp: Option<String> = None;
    let mut unix: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut iter = args.drain(..);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--tcp" => match iter.next() {
                Some(v) => tcp = Some(v),
                None => {
                    p3_obs::error!("--tcp needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--unix" => match iter.next() {
                Some(v) => unix = Some(PathBuf::from(v)),
                None => {
                    p3_obs::error!("--unix needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--trace-out" => match iter.next() {
                Some(v) => trace_out = Some(PathBuf::from(v)),
                None => {
                    p3_obs::error!("--trace-out needs a value");
                    return ExitCode::FAILURE;
                }
            },
            _ => rest.push(arg),
        }
    }
    drop(iter);

    // With --trace-out, everything from connect to the last reply nests
    // under one root "client" span carrying a fresh 128-bit trace id; the
    // same id rides each request envelope, so the server's request trees
    // carry it too — one trace across both processes.
    let trace_id = trace_out.as_ref().map(|_| {
        p3_obs::span::set_enabled(true);
        p3_service::protocol::new_trace_id()
    });
    let root_span = trace_id.as_ref().map(|id| {
        let mut span = p3_obs::span::span("client");
        span.add_field("trace", id);
        span
    });

    let mut client = match (&tcp, &unix) {
        (Some(addr), _) => match Client::connect_tcp(addr) {
            Ok(c) => c,
            Err(e) => {
                p3_obs::error!("cannot connect", tcp = addr, err = e);
                return ExitCode::FAILURE;
            }
        },
        (None, Some(path)) => match Client::connect_unix(path) {
            Ok(c) => c,
            Err(e) => {
                p3_obs::error!("cannot connect", unix = path.display(), err = e);
                return ExitCode::FAILURE;
            }
        },
        (None, None) => {
            p3_obs::error!("need --tcp ADDR or --unix PATH");
            eprintln!("run 'p3-client --help' for usage");
            return ExitCode::FAILURE;
        }
    };

    let trace = trace_id.as_deref();
    let code = match rest.first().map(String::as_str) {
        None => {
            p3_obs::error!("missing command");
            eprintln!("run 'p3-client --help' for usage");
            ExitCode::FAILURE
        }
        Some("repl") => repl(&mut client, trace),
        Some("raw") => {
            let Some(line) = rest.get(1) else {
                p3_obs::error!("raw needs a JSON argument");
                return ExitCode::FAILURE;
            };
            if send(&mut client, line, trace) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some(_) => match build_request(&rest) {
            Err(e) => {
                p3_obs::error!(e);
                eprintln!("run 'p3-client --help' for usage");
                ExitCode::FAILURE
            }
            Ok(request) => {
                if send(&mut client, &request, trace) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
        },
    };

    // Close the root span (it only lands in the ring on drop), then write
    // the client-side tree as chrome://tracing JSON.
    drop(root_span);
    if let (Some(path), Some(id)) = (&trace_out, &trace_id) {
        let trees = p3_obs::span::recent_roots(Some("client"), 1);
        let json = p3_obs::span::chrome_trace_json_for(&trees);
        match std::fs::write(path, json) {
            Ok(()) => p3_obs::info!("trace written", path = path.display(), trace = id),
            Err(e) => {
                p3_obs::error!("cannot write trace", path = path.display(), err = e);
                return ExitCode::FAILURE;
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_service::protocol::OPS;

    /// Every p3-client command line that the CI workflow, the README and
    /// the service tests run, plus one per documented option. `FILE`
    /// stands for a small program file written by the test.
    const COMMAND_LINES: &[&[&str]] = &[
        &["ping"],
        &["probability", r#"know("Steve","Elena")"#],
        &["explanation", r#"know("Steve","Elena")"#],
        &["derivation", r#"know("Steve","Elena")"#, "--eps", "0.05"],
        &["influence", r#"know("Steve","Elena")"#, "--method", "exact"],
        &["modification", r#"know("Steve","Elena")"#, "0.5"],
        &["modification", r#"know("Steve","Elena")"#, "2"],
        &["stats"],
        &["shutdown"],
        &["store-stats"],
        &["warm"],
        &["persist"],
        &["metrics"],
        &["trace"],
        &["trace", "3"],
        &["explain", r#"know("Steve","Elena")"#],
        &["explain", r#"know("Ben","Elena")"#, "--eval-mode", "naive"],
        &["analyze"],
        &["analyze", r#"know("Steve","Elena")"#],
        &["audit-tail", "5"],
        &["audit-top", "1", "--by", "dnf_width"],
        &["audit-top", "1", "--by", "rule_cost"],
        &["audit-top", "10", "--by", "latency"],
        &["audit-top", "--by", "rule_cost"],
        &["slo"],
        &[
            "influence",
            r#"know("Ben","Elena")"#,
            "--method",
            "exact",
            "--top-k",
            "5",
        ],
        &["probability", "trustPath(1,13)", "--eval-mode", "naive"],
        &["profile", r#"know("Ben","Elena")"#],
        &["profile", r#"know("Ben","Elena")"#, "--class", "influence"],
        &["profile", r#"know("Ben","Elena")"#, "--class", "derivation"],
        &[
            "profile",
            r#"know("Ben","Elena")"#,
            "--class",
            "derivation",
            "--eps",
            "0.05",
        ],
        &[
            "profile",
            r#"know("Ben","Elena")"#,
            "0.5",
            "--class",
            "modification",
        ],
        &[
            "probability",
            r#"know("Ben","Elena")"#,
            "--method",
            "pmc",
            "--samples",
            "1000",
            "--seed",
            "7",
            "--threads",
            "2",
            "--timeout-ms",
            "250",
            "--hop-limit",
            "3",
        ],
        &["derivation", r#"know("Ben","Elena")"#, "--algo", "resuciu"],
        &[
            "modification",
            r#"know("Ben","Elena")"#,
            "0.5",
            "--tolerance",
            "1e-9",
        ],
        &["lint", "FILE"],
        &["load-program", "FILE"],
        &["load-program", "FILE", "--no-lint"],
    ];

    /// Where the requests built at the commit that introduced this test
    /// are kept; `P3_UPDATE_EXPECTED=1` rewrites it.
    const GOLDEN: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/client_requests.txt"
    );

    /// A request's fields as a set: one JSON object with sorted keys.
    fn field_set(request: &str) -> String {
        match Value::parse(request) {
            Ok(Value::Object(mut pairs)) => {
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                Value::Object(pairs).to_json()
            }
            other => panic!("{request}: {other:?}"),
        }
    }

    #[test]
    fn requests_match_the_golden_snapshot() {
        let file = std::env::temp_dir().join(format!("p3-client-{}.pl", std::process::id()));
        std::fs::write(&file, "t1 0.5: p(a).\nr1 0.9: q(X) :- p(X).\n").unwrap();
        let mut got = String::new();
        for words in COMMAND_LINES {
            let args: Vec<String> = words
                .iter()
                .map(|w| match *w {
                    "FILE" => file.display().to_string(),
                    w => w.to_string(),
                })
                .collect();
            let request = build_request(&args).unwrap_or_else(|e| panic!("{words:?}: {e}"));
            got.push_str(&format!("{}\t{}\n", words.join(" "), field_set(&request)));
        }
        let _ = std::fs::remove_file(&file);
        if std::env::var_os("P3_UPDATE_EXPECTED").is_some() {
            std::fs::write(GOLDEN, &got).unwrap();
            return;
        }
        let want = std::fs::read_to_string(GOLDEN).unwrap();
        for (got, want) in got.lines().zip(want.lines()) {
            assert_eq!(got, want);
        }
        assert_eq!(got.lines().count(), want.lines().count());
    }

    fn words(list: &[&str]) -> Vec<String> {
        list.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn usage_lists_every_op_and_documents_every_option() {
        let section = USAGE.split("COMMANDS:\n").nth(1).unwrap();
        let commands: Vec<&str> = section
            .split("\n\n")
            .next()
            .unwrap()
            .lines()
            .filter(|line| !line.starts_with("     "))
            .map(|line| line.trim().split("  ").next().unwrap())
            .filter(|command| !["raw JSON", "repl"].contains(command))
            .collect();
        for command in &commands {
            let name = command.split(' ').next().unwrap();
            let spec = op_spec(name).unwrap_or_else(|| panic!("'{name}' is no OPS row"));
            assert_eq!(*command, format!("{name} {}", spec.args).trim_end());
        }
        for spec in OPS {
            assert!(
                commands
                    .iter()
                    .any(|c| c.split(' ').next() == Some(spec.name)),
                "{} has no USAGE line",
                spec.name
            );
        }
        let options = USAGE.split("\nOPTIONS").nth(1).unwrap();
        for flag in FLAGS.iter().chain(&["--no-lint"]) {
            assert!(options.contains(&format!("    {flag} ")), "{flag}");
        }
    }

    #[test]
    fn the_client_checks_words_and_the_server_checks_values() {
        for (line, needle) in [
            (&["frobnicate"][..], "unknown command"),
            (&["probability"], "needs a QUERY"),
            (&["modification", "a(1)"], "needs a TARGET"),
            (&["lint"], "needs a FILE"),
            (&["ping", "--bogus"], "unknown option"),
            (&["probability", "a(1)", "--samples"], "needs a value"),
        ] {
            let err = build_request(&words(line)).unwrap_err();
            assert!(err.contains(needle), "{line:?} -> {err}");
        }
        let request = build_request(&words(&["probability", "a(1)", "--samples", "abc"])).unwrap();
        assert!(request.contains(r#""samples":"abc""#), "{request}");
    }
}
