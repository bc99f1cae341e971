//! `p3-serve` — stand up a provenance query server for one program.
//!
//! ```text
//! p3-serve --program FILE [--tcp ADDR] [--unix PATH] [--admin-addr ADDR]
//!          [--workers N] [--queue-cap N] [--cache-cap N] [--eval-mode M]
//!          [--timeout-ms N] [--slow-ms N] [--store-dir DIR]
//!          [--audit-dir DIR] [--slo CLASS:TARGET_MS:OBJECTIVE]... [--slo-readyz]
//! ```
//!
//! Prints one `listening tcp ADDR` / `listening unix PATH` /
//! `listening admin ADDR` line per bound endpoint (machine-parseable — the
//! integration tests and benches read them), then serves until
//! SIGTERM/SIGINT or a client `shutdown` request, draining queued work
//! before exiting. `--admin-addr` binds the HTTP observability plane:
//! `/metrics`, `/healthz`, `/readyz`, `/traces`, `/profile`, `/audit`,
//! `/audit/top`, `/slo`, `/explain`, `/analyze`.

use p3_service::server::{Server, ServerConfig};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
p3-serve — provenance query server (newline-delimited JSON)

USAGE:
    p3-serve --program FILE [OPTIONS]

OPTIONS:
    --program FILE     probabilistic Datalog program to serve (required)
    --tcp ADDR         TCP bind address, e.g. 127.0.0.1:7033 (port 0 = ephemeral)
    --unix PATH        Unix-domain socket path
    --admin-addr ADDR  HTTP observability plane bind address (GET /metrics,
                       /healthz, /readyz, /traces?n=N, /profile?secs=S,
                       /audit?n=N, /audit/top?by=K&n=N, /slo, /explain, /analyze)
    --workers N        worker pool size; 0 = auto (P3_THREADS env var,
                       else available cores capped at 16) [default: 0]
    --queue-cap N      bounded request queue capacity [default: 256]
    --cache-cap N      per-table session cache cap (entries); omit for unbounded
    --eval-mode M      default evaluation mode: auto|naive|demand [default: auto];
                       requests override per-query with \"eval_mode\"
    --timeout-ms N     default per-request deadline for requests without timeout_ms
    --slow-ms N        log requests slower than N ms at warn level
    --store-dir DIR    persistent provenance store: journal interned formulas
                       and query memos to DIR and replay them on the next
                       start for a warm boot (stale stores — a different
                       program text — are discarded automatically)
    --audit-dir DIR    per-request audit log: append one crash-safe record per
                       request to a bounded segment ring in DIR (read back via
                       audit-tail/audit-top ops, GET /audit, or `p3 audit DIR`)
    --audit-segment-bytes N   rotate audit segments at N bytes [default: 4194304]
    --audit-max-segments N    keep at most N audit segments [default: 8]
    --audit-segment-age-secs N  also rotate segments older than N seconds;
                       0 disables age-based rotation [default: 3600]
    --slo SPEC         latency objective CLASS:TARGET_MS:OBJECTIVE, e.g.
                       probability:500:0.99; repeatable, overrides the
                       built-in 500ms/0.99 default for that class
    --slo-readyz       turn a tripped 5-minute SLO burn window into a 503
                       on GET /readyz (off by default)
    -h, --help         print this help

At least one of --tcp / --unix is required. Shut down with SIGTERM, SIGINT,
or a client {\"op\":\"shutdown\"} request; in-flight work drains first.
Set P3_LOG=error|warn|info|debug to control log verbosity (default warn).
";

fn fail(msg: &str) -> ExitCode {
    p3_obs::error!(msg);
    eprintln!("run 'p3-serve --help' for usage");
    ExitCode::FAILURE
}

/// The value of a numeric flag.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad {flag} value '{value}'"))
}

/// What the command line asks for: the program to serve and the server's
/// configuration. `None` asks for `--help`.
type Args = Option<(PathBuf, ServerConfig)>;

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut program: Option<PathBuf> = None;
    let mut config = ServerConfig::default();
    let mut audit: Option<p3_audit::AuditConfig> = None;
    let (mut segment_bytes, mut max_segments, mut segment_age_secs) = (None, None, None);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--program" => program = Some(PathBuf::from(value()?)),
            "--tcp" => config.tcp = Some(value()?),
            "--unix" => config.unix = Some(PathBuf::from(value()?)),
            "--admin-addr" => config.admin = Some(value()?),
            "--workers" => config.workers = number(&arg, value()?)?,
            "--queue-cap" => config.queue_cap = number(&arg, value()?)?,
            "--cache-cap" => config.cache_cap = Some(number(&arg, value()?)?),
            "--eval-mode" => config.eval_mode = value()?.parse()?,
            "--timeout-ms" => config.default_timeout_ms = Some(number(&arg, value()?)?),
            "--slow-ms" => config.slow_ms = Some(number(&arg, value()?)?),
            "--store-dir" => config.store_dir = Some(PathBuf::from(value()?)),
            "--audit-dir" => audit = Some(p3_audit::AuditConfig::new(value()?)),
            "--audit-segment-bytes" => segment_bytes = Some(number(&arg, value()?)?),
            "--audit-max-segments" => max_segments = Some(number(&arg, value()?)?),
            "--audit-segment-age-secs" => segment_age_secs = Some(number(&arg, value()?)?),
            "--slo" => config.slos.push(p3_obs::slo::SloConfig::parse(&value()?)?),
            "--slo-readyz" => config.slo_readyz = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let program = program.ok_or("--program is required")?;
    if config.tcp.is_none() && config.unix.is_none() {
        return Err("need at least one of --tcp / --unix".to_string());
    }
    if let Some(mut cfg) = audit {
        cfg.max_segment_bytes = segment_bytes.unwrap_or(cfg.max_segment_bytes);
        cfg.max_segments = max_segments.unwrap_or(cfg.max_segments);
        cfg.max_segment_age_secs = segment_age_secs.unwrap_or(cfg.max_segment_age_secs);
        config.audit = Some(cfg);
    } else if segment_bytes.is_some() || max_segments.is_some() || segment_age_secs.is_some() {
        return Err("--audit-segment-* options need --audit-dir".to_string());
    }
    Ok(Some((program, config)))
}

fn main() -> ExitCode {
    // Span collection is on for the server's lifetime: the ring holds the
    // most recent spans for `trace` requests at a bounded memory cost.
    p3_obs::span::set_enabled(true);
    let (program, mut config) = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => return fail(&e),
    };
    let source = match std::fs::read_to_string(&program) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot read {}: {e}", program.display())),
    };
    let p3 = match p3_core::P3::from_source(&source) {
        Ok(p3) => p3,
        Err(e) => {
            // A program that breaks a validity rule gets every finding
            // reported with source excerpts before the server refuses it.
            let name = program.display().to_string();
            let report = p3_lint::lint_source(&source);
            if report.has_errors() {
                eprint!("{}", report.render(Some(&source), Some(&name)));
                return fail(&format!("{name} is invalid ({})", report.summary_line()));
            }
            return fail(&format!("cannot load {name}: {e}"));
        }
    };
    if config.store_dir.is_some() {
        // The store is keyed to the exact program text: a store directory
        // written for any other text is detected and discarded at open.
        config.store_fingerprint = Some(p3_store::content_hash(&source));
    }

    let server = match Server::start(p3, config) {
        Ok(server) => server,
        Err(e) => return fail(&format!("cannot start server: {e}")),
    };
    let mut stdout = std::io::stdout();
    if let Some(addr) = server.tcp_addr() {
        let _ = writeln!(stdout, "listening tcp {addr}");
    }
    if let Some(path) = server.unix_path() {
        let _ = writeln!(stdout, "listening unix {}", path.display());
    }
    if let Some(addr) = server.admin_addr() {
        let _ = writeln!(stdout, "listening admin {addr}");
    }
    let _ = stdout.flush();
    p3_obs::info!("server started", program = program.display());

    let flag = p3_service::signal::install_shutdown_flag();
    server.serve_until_shutdown(flag);
    p3_obs::info!("server stopped");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|w| w.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let (program, config) = parse(&[
            "--program",
            "p.pl",
            "--unix",
            "/tmp/s.sock",
            "--workers",
            "3",
            "--cache-cap",
            "64",
            "--eval-mode",
            "demand",
            "--audit-dir",
            "/tmp/a",
            "--audit-max-segments",
            "2",
            "--slo",
            "probability:250:0.99",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(program, PathBuf::from("p.pl"));
        assert_eq!(config.workers, 3);
        assert_eq!(config.cache_cap, Some(64));
        assert_eq!(config.eval_mode, p3_core::EvalMode::Demand);
        assert_eq!(config.audit.unwrap().max_segments, 2);
        assert_eq!(config.slos.last().unwrap().target_ms, 250);
    }

    #[test]
    fn a_bad_numeric_value_names_its_flag() {
        for flag in [
            "--workers",
            "--queue-cap",
            "--cache-cap",
            "--timeout-ms",
            "--slow-ms",
            "--audit-segment-bytes",
            "--audit-max-segments",
            "--audit-segment-age-secs",
        ] {
            let line = [
                "--program",
                "p.pl",
                "--tcp",
                "127.0.0.1:0",
                "--audit-dir",
                "/tmp/a",
            ];
            let err = parse(&[&line[..], &[flag, "x"]].concat()).unwrap_err();
            assert_eq!(err, format!("bad {flag} value 'x'"));
        }
        let err = parse(&["--program", "p.pl", "--tcp"]).unwrap_err();
        assert_eq!(err, "--tcp needs a value");
    }

    #[test]
    fn rejects_incomplete_command_lines() {
        for (line, err) in [
            (&["--tcp", "127.0.0.1:0"][..], "--program is required"),
            (
                &["--program", "p.pl"],
                "need at least one of --tcp / --unix",
            ),
            (
                &[
                    "--program",
                    "p.pl",
                    "--tcp",
                    "127.0.0.1:0",
                    "--audit-segment-bytes",
                    "9",
                ],
                "--audit-segment-* options need --audit-dir",
            ),
            (
                &["--program", "p.pl", "--frobnicate"],
                "unknown argument '--frobnicate'",
            ),
        ] {
            assert_eq!(parse(line).unwrap_err(), err, "{line:?}");
        }
    }

    #[test]
    fn help_asks_for_the_usage() {
        assert!(matches!(parse(&["--help"]), Ok(None)));
        assert!(matches!(parse(&["--program", "p.pl", "-h"]), Ok(None)));
    }
}
