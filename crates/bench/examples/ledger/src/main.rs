//! `ledger`: the P3 benchmark — four paper workloads, end-to-end metrics
//! from an untraced run, per-layer attribution from a traced one.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1
//! ledger run   [--seed N] [--seconds S] [--runs K] [--out FILE]
//! ledger trace [--seed N] [--seconds S] [--out FILE]
//! ledger compare A.json B.json
//! ```
//!
//! The first form runs one workload in this process and prints, last on
//! stdout, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end untraced, per-layer traced). `run` and `trace` run
//! every workload, each in its own child process, print every metric as
//! `workload metric value unit` and write a result file; `compare` rates
//! two result files against the bounds in `BENCHMARK.json`. See README.md.

mod checks;
mod closed;
mod common;
mod layers;
mod ledger;
mod served;
mod trace;
mod trust;
mod vqa;

use common::Outcome;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["trust-cold", "trust-infer", "vqa-debug", "served-mix"];

/// Where result, trace and scratch files go (result files unless `--out`
/// says otherwise): `ledger/` under Cargo's target directory.
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("ledger")
}

/// One workload run's settings.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<String>,
    pub runs: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger --workload W --seed N --seconds S --trace 0|1\n       \
         ledger run|trace [--seed N] [--seconds S] [--runs K] [--out FILE]\n       \
         ledger compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: ledger::default_seconds(),
        trace: false,
        out: None,
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => run.workload = value()?,
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                run.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if run.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => run.out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(run)
}

/// Runs one workload in this process and prints its result line.
fn run_workload(args: &RunArgs) -> ExitCode {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("unknown workload '{}'", args.workload);
        return usage();
    }
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let trace_path = args.trace.then(|| {
        dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed))
            .display()
            .to_string()
    });
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "trust-cold" => {
            trust::run_cold(args.seed, args.seconds, trace_path.as_deref(), &mut out);
            Ok(())
        }
        "trust-infer" => {
            trust::run_infer(args.seed, args.seconds, trace_path.as_deref(), &mut out);
            Ok(())
        }
        "vqa-debug" => {
            vqa::run(args.seed, args.seconds, trace_path.as_deref(), &mut out);
            Ok(())
        }
        _ => served::run(args.seed, args.seconds, args.trace, &mut out),
    };
    if let Err(e) = result {
        eprintln!("{}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    common::phase("paper checks", || checks::paper_checks(&mut out));
    ledger::print_outcome(&args.workload, &out);
    if out.wrong > 0 || out.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare")) => (c, &args[1..]),
        _ => ("workload", &args[..]),
    };
    if command == "compare" {
        let [a, b] = rest else { return usage() };
        return ledger::compare(a, b);
    }
    let parsed = match parse(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    match command {
        "run" => ledger::run_all(&parsed, false),
        "trace" => ledger::run_all(&parsed, true),
        _ if parsed.workload.is_empty() => usage(),
        _ => run_workload(&parsed),
    }
}
