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
    --no-lint          skip the lint pre-flight gate on the boot-time program
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

fn main() -> ExitCode {
    // Span collection is on for the server's lifetime: the ring holds the
    // most recent spans for `trace` requests at a bounded memory cost.
    p3_obs::span::set_enabled(true);
    let mut args = std::env::args().skip(1);
    let mut program: Option<PathBuf> = None;
    let mut lint = true;
    let mut config = ServerConfig::default();
    let mut audit: Option<p3_audit::AuditConfig> = None;
    let mut audit_segment_bytes: Option<u64> = None;
    let mut audit_max_segments: Option<usize> = None;
    let mut audit_segment_age_secs: Option<u64> = None;

    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--program" => match take("--program") {
                Ok(v) => program = Some(PathBuf::from(v)),
                Err(e) => return fail(&e),
            },
            "--tcp" => match take("--tcp") {
                Ok(v) => config.tcp = Some(v),
                Err(e) => return fail(&e),
            },
            "--unix" => match take("--unix") {
                Ok(v) => config.unix = Some(PathBuf::from(v)),
                Err(e) => return fail(&e),
            },
            "--admin-addr" => match take("--admin-addr") {
                Ok(v) => config.admin = Some(v),
                Err(e) => return fail(&e),
            },
            "--workers" => match take("--workers")
                .and_then(|v| v.parse().map_err(|_| format!("bad --workers value '{v}'")))
            {
                Ok(v) => config.workers = v,
                Err(e) => return fail(&e),
            },
            "--queue-cap" => match take("--queue-cap").and_then(|v| {
                v.parse()
                    .map_err(|_| format!("bad --queue-cap value '{v}'"))
            }) {
                Ok(v) => config.queue_cap = v,
                Err(e) => return fail(&e),
            },
            "--cache-cap" => match take("--cache-cap").and_then(|v| {
                v.parse()
                    .map_err(|_| format!("bad --cache-cap value '{v}'"))
            }) {
                Ok(v) => config.cache_cap = Some(v),
                Err(e) => return fail(&e),
            },
            "--eval-mode" => match take("--eval-mode").and_then(|v| v.parse()) {
                Ok(v) => config.eval_mode = v,
                Err(e) => return fail(&e),
            },
            "--timeout-ms" => match take("--timeout-ms").and_then(|v| {
                v.parse()
                    .map_err(|_| format!("bad --timeout-ms value '{v}'"))
            }) {
                Ok(v) => config.default_timeout_ms = Some(v),
                Err(e) => return fail(&e),
            },
            "--slow-ms" => match take("--slow-ms")
                .and_then(|v| v.parse().map_err(|_| format!("bad --slow-ms value '{v}'")))
            {
                Ok(v) => config.slow_ms = Some(v),
                Err(e) => return fail(&e),
            },
            "--store-dir" => match take("--store-dir") {
                Ok(v) => config.store_dir = Some(PathBuf::from(v)),
                Err(e) => return fail(&e),
            },
            "--audit-dir" => match take("--audit-dir") {
                Ok(v) => audit = Some(p3_audit::AuditConfig::new(v)),
                Err(e) => return fail(&e),
            },
            "--audit-segment-bytes" => match take("--audit-segment-bytes").and_then(|v| {
                v.parse()
                    .map_err(|_| format!("bad --audit-segment-bytes value '{v}'"))
            }) {
                Ok(v) => audit_segment_bytes = Some(v),
                Err(e) => return fail(&e),
            },
            "--audit-max-segments" => match take("--audit-max-segments").and_then(|v| {
                v.parse()
                    .map_err(|_| format!("bad --audit-max-segments value '{v}'"))
            }) {
                Ok(v) => audit_max_segments = Some(v),
                Err(e) => return fail(&e),
            },
            "--audit-segment-age-secs" => match take("--audit-segment-age-secs").and_then(|v| {
                v.parse()
                    .map_err(|_| format!("bad --audit-segment-age-secs value '{v}'"))
            }) {
                Ok(v) => audit_segment_age_secs = Some(v),
                Err(e) => return fail(&e),
            },
            "--slo" => match take("--slo").and_then(|v| p3_obs::slo::SloConfig::parse(&v)) {
                Ok(v) => config.slos.push(v),
                Err(e) => return fail(&e),
            },
            "--slo-readyz" => config.slo_readyz = true,
            "--no-lint" => lint = false,
            other => return fail(&format!("unknown argument '{other}'")),
        }
    }

    let Some(program) = program else {
        return fail("--program is required");
    };
    if config.tcp.is_none() && config.unix.is_none() {
        return fail("need at least one of --tcp / --unix");
    }
    if let Some(mut cfg) = audit {
        if let Some(bytes) = audit_segment_bytes {
            cfg.max_segment_bytes = bytes;
        }
        if let Some(n) = audit_max_segments {
            cfg.max_segments = n;
        }
        if let Some(secs) = audit_segment_age_secs {
            cfg.max_segment_age_secs = secs;
        }
        config.audit = Some(cfg);
    } else if audit_segment_bytes.is_some()
        || audit_max_segments.is_some()
        || audit_segment_age_secs.is_some()
    {
        return fail("--audit-segment-* options need --audit-dir");
    }

    let source = match std::fs::read_to_string(&program) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot read {}: {e}", program.display())),
    };
    if lint {
        // Same gate the load-program op applies: every error-severity
        // finding is reported (with source excerpts) before refusing to
        // serve; --no-lint falls back to plain parse + validate.
        let report = p3_lint::lint_source(&source);
        if report.has_errors() {
            let name = program.display().to_string();
            eprint!("{}", report.render(Some(&source), Some(&name)));
            return fail(&format!(
                "{} failed lint pre-flight ({}); pass --no-lint to skip the gate",
                name,
                report.summary_line()
            ));
        }
    }
    let p3 = match p3_core::P3::from_source(&source) {
        Ok(p3) => p3,
        Err(e) => return fail(&format!("cannot load {}: {e}", program.display())),
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
