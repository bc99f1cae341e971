//! Result lines, whole-ledger runs (one child process per workload run)
//! and `compare`.

use crate::common::{median, ratio, Outcome};
use crate::{out_dir, RunArgs, WORKLOADS};
use p3_service::json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// `BENCHMARK.json` at the repository root, relative to the checkout root
/// the ledger runs from.
const BENCHMARK_JSON: &str = "BENCHMARK.json";

fn benchmark() -> Option<Value> {
    let text = std::fs::read_to_string(BENCHMARK_JSON).ok()?;
    Value::parse(&text).ok()
}

/// The run length `BENCHMARK.json` fixes, or 10 s without one.
pub fn default_seconds() -> f64 {
    benchmark()
        .and_then(|b| b.get("run_seconds").and_then(Value::as_f64))
        .unwrap_or(10.0)
}

/// Prints every metric as `workload metric value unit`, then the result
/// line: one JSON object, last on stdout.
pub fn print_outcome(workload: &str, out: &Outcome) {
    for (name, value, unit) in &out.metrics {
        println!("{workload} {name} {value} {unit}");
    }
    let fail_ratio = ratio(out.failed as f64, out.attempted as f64);
    println!("{workload} fail_ratio {fail_ratio} ratio");
    println!("{workload} wrong_answers {} count", out.wrong);
    println!("{workload} checked_answers {} count", out.checked);
    let metrics = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Value::object(vec![
                    ("value", Value::from(*value)),
                    ("unit", Value::from(*unit)),
                ]),
            )
        })
        .collect();
    let line = Value::object(vec![
        ("correct", Value::from(out.wrong == 0)),
        ("attempted", Value::from(out.attempted)),
        ("failed", Value::from(out.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", line.to_json());
}

fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One child run of one workload: its parsed result line and the wrong
/// answers it printed.
fn child_run(args: &RunArgs, workload: &str, trace: bool) -> Result<(Value, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Value::parse(last)
        .map_err(|e| format!("{workload}: no result line ({e}), {}", output.status))?;
    let prefix = format!("{workload} wrong_answers ");
    let wrong = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&prefix)?.split(' ').next()?.parse().ok())
        .unwrap_or(u64::from(
            result.get("correct").and_then(Value::as_bool) != Some(true),
        ));
    Ok((result, wrong))
}

/// `ledger run` / `ledger trace`: every workload, `runs` child processes
/// each (one for `trace`); medians printed, everything written to FILE.
/// Runs go round the workloads in turn, so a spell in which the whole
/// machine is slow costs each workload one run rather than several.
pub fn run_all(args: &RunArgs, trace: bool) -> ExitCode {
    let started = Instant::now();
    let runs = if trace { 1 } else { args.runs };
    let mut bad = false;
    let mut results: Vec<(Vec<Value>, u64)> = vec![(Vec::new(), 0); WORKLOADS.len()];
    for _ in 0..runs {
        for (workload, (values, wrong)) in WORKLOADS.iter().zip(&mut results) {
            match child_run(args, workload, trace) {
                Ok((v, w)) => {
                    values.push(v);
                    *wrong += w;
                }
                Err(e) => {
                    eprintln!("{e}");
                    bad = true;
                }
            }
        }
    }
    let mut workloads = Vec::new();
    for (workload, (values, wrong)) in WORKLOADS.iter().zip(&results) {
        let entry = summarise(workload, values, *wrong);
        bad |= *wrong > 0
            || entry.get("failed").and_then(Value::as_f64).unwrap_or(1.0) > 0.0
            || values.is_empty();
        workloads.push((workload.to_string(), entry));
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let file = Value::object(vec![
        ("mode", Value::from(if trace { "trace" } else { "run" })),
        ("seed", Value::from(args.seed)),
        ("seconds", Value::from(args.seconds)),
        ("runs", Value::from(runs)),
        ("cores", Value::from(cores)),
        ("rustc", Value::from(tool_output("rustc", &["--version"]))),
        (
            "git_rev",
            Value::from(tool_output("git", &["rev-parse", "HEAD"])),
        ),
        ("wall_s", Value::from(started.elapsed().as_secs_f64())),
        ("workloads", Value::Object(workloads)),
    ]);
    let path = args.out.clone().unwrap_or_else(|| {
        let name = format!(
            "{}-seed{}.json",
            if trace { "trace" } else { "run" },
            args.seed
        );
        out_dir().join(name).display().to_string()
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, file.to_json() + "\n") {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            bad = true;
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Per-workload summary: every run's values and their median, printed as
/// `workload metric value unit` lines.
fn summarise(workload: &str, results: &[Value], wrong: u64) -> Value {
    let sum = |key: &str| -> f64 {
        results
            .iter()
            .filter_map(|r| r.get(key).and_then(Value::as_f64))
            .sum()
    };
    let (attempted, failed) = (sum("attempted"), sum("failed"));
    let mut metrics: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut order = Vec::new();
    for r in results {
        let Some(Value::Object(pairs)) = r.get("metrics") else {
            continue;
        };
        for (name, m) in pairs {
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let slot = metrics.entry(name.clone()).or_insert_with(|| {
                order.push(name.clone());
                (unit, Vec::new())
            });
            slot.1.push(value);
        }
    }
    let mut rows = Vec::new();
    for name in order {
        let (unit, values) = &metrics[&name];
        let med = median(values);
        println!("{workload} {name} {med} {unit}");
        rows.push((
            name,
            Value::object(vec![
                ("unit", Value::from(unit.clone())),
                ("median", Value::from(med)),
                (
                    "values",
                    Value::Array(values.iter().map(|&v| Value::from(v)).collect()),
                ),
            ]),
        ));
    }
    let fail_ratio = ratio(failed, attempted);
    println!("{workload} fail_ratio {fail_ratio} ratio");
    println!("{workload} wrong_answers {wrong} count");
    Value::object(vec![
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("fail_ratio", Value::from(fail_ratio)),
        ("wrong_answers", Value::from(wrong)),
        ("metrics", Value::Object(rows)),
    ])
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default exclusive method); a single value is its own quartiles.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |j: f64| {
        let m = (n + 1) as f64 * j / 4.0;
        let k = (m.floor() as usize).clamp(1, n - 1);
        let frac = m - k as f64;
        v[k - 1] + (v[k] - v[k - 1]) * frac
    };
    (at(1.0), at(3.0))
}

#[derive(Debug, PartialEq)]
enum Rating {
    Better,
    Within,
    Worse,
    Unresolved,
}

/// Rates one (workload, metric) pair, change `b` against baseline `a`
/// (runs paired in order):
///
/// - where the baseline's spread (quartile distance over median) exceeds
///   the bound, the pair is unresolved unless every run of the change
///   reads better than every baseline run;
/// - it is worse when the change's median is worse by more than the bound;
/// - it is better when the change wins at least nine tenths of the pairs
///   (ties count for neither) and the medians differ by more than the
///   spread;
/// - otherwise it is within bound.
fn rate(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Rating {
    let (ma, mb) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let spread = ratio(q3 - q1, ma.abs());
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let gain = ratio(if lower_is_better { ma - mb } else { mb - ma }, ma.abs());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let pairs = a.len().min(b.len());
    if spread > bound {
        if all_better {
            Rating::Better
        } else {
            Rating::Unresolved
        }
    } else if -gain > bound {
        Rating::Worse
    } else if gain > spread && pairs > 0 && wins as f64 >= 0.9 * pairs as f64 {
        Rating::Better
    } else {
        Rating::Within
    }
}

fn load_result(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(result: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = result
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some(
        m.get("values")?
            .as_array()?
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
    )
}

/// `ledger compare A.json B.json`: rates B (the change) against A for
/// every workload and end-to-end metric; exits non-zero on any "worse".
pub fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b, bench) = match (load_result(a_path), load_result(b_path), benchmark()) {
        (Ok(a), Ok(b), Some(bench)) => (a, b, bench),
        (Err(e), _, _) | (_, Err(e), _) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
        (_, _, None) => {
            eprintln!("cannot read {BENCHMARK_JSON} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    let metrics = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    let mut worse = 0;
    println!(
        "{:<12} {:<16} {:>12} {:>12} {:>8}  rating",
        "workload", "metric", "A", "B", "bound"
    );
    for workload in WORKLOADS {
        for m in metrics {
            let name = m.get("name").and_then(Value::as_str).unwrap_or("");
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (Some(va), Some(vb)) = (values(&a, workload, name), values(&b, workload, name))
            else {
                println!("{workload:<12} {name:<16} missing in one file");
                continue;
            };
            let rating = rate(&va, &vb, lower, bound);
            worse += usize::from(rating == Rating::Worse);
            println!(
                "{workload:<12} {name:<16} {:>12.4} {:>12.4} {:>7.0}%  {rating:?}",
                median(&va),
                median(&vb),
                bound * 100.0
            );
        }
        let wrong = |r: &Value| {
            r.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("wrong_answers"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        let fail = |r: &Value| {
            r.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("fail_ratio"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        if wrong(&b) > 0.0 || fail(&b) > fail(&a) {
            println!("{workload:<12} wrong_answers/fail_ratio increased: Worse");
            worse += 1;
        }
    }
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
            (2.75, 8.25)
        );
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn ratings_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            rate(&base, &[100.5, 100.0, 99.5], true, 0.1),
            Rating::Within
        );
        assert_eq!(
            rate(&base, &[120.0, 121.0, 119.0], true, 0.1),
            Rating::Worse
        );
        assert_eq!(rate(&base, &[80.0, 81.0, 79.0], true, 0.1), Rating::Better);
        assert_eq!(rate(&base, &[80.0, 81.0, 79.0], false, 0.1), Rating::Worse);
        let noisy = [50.0, 100.0, 150.0];
        assert_eq!(
            rate(&noisy, &[120.0, 90.0, 110.0], true, 0.1),
            Rating::Unresolved
        );
        assert_eq!(rate(&noisy, &[40.0, 30.0, 20.0], true, 0.1), Rating::Better);
    }
}
