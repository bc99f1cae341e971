//! Golden snapshot of every JSON document the `p3` CLI prints:
//! `p3 explain --json` in both eval modes, `p3 analyze --json` and
//! `p3 analyze --calibrate --json` over each `examples/*.pl`, `p3 lint
//! --json` over a clean file, a file with findings and a file whose name
//! holds a control character, and `p3 audit` (JSON and text) over an audit
//! directory this test writes.
//!
//! The one wall-clock field (`analysis_us`) is masked; everything else
//! must match `tests/golden/cli_json.txt` byte for byte. Regenerate after
//! an intentional change with
//! `P3_UPDATE_EXPECTED=1 cargo test --test cli_json_golden`.

use p3::audit::{AuditConfig, AuditLog, AuditRecord, Outcome, StageTiming};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Each example with the query the CI smokes ask of it.
const EXAMPLES: &[(&str, &str)] = &[
    ("acquaintance.pl", r#"know("Ben","Elena")"#),
    ("smokers.pl", r#"smokes("carol")"#),
    ("trust.pl", "mutualTrustPath(1,2)"),
];

/// A program with error, warning and info findings, one of whose
/// messages quotes a string constant.
const FINDINGS: &str = r#"f(X).
r1 0.5: q(X) :- p(X), X != Z.
r2 0.0: s(Y) :- p(Y).
r3 0.5: u(X) :- pp(X).
t1 0.5: p("a b").
t2 0.5: p("a b").
"#;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Replaces the number after each `"analysis_us":` with `"<masked>"`.
fn mask(text: &str) -> String {
    const KEY: &str = "\"analysis_us\":";
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        rest = &rest[at + KEY.len()..];
        let digits = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        out.push_str("\"<masked>\"");
        rest = &rest[digits..];
    }
    out.push_str(rest);
    out
}

/// Runs `p3 ARGS` in `dir` and appends its masked stdout under a header
/// naming the command and its exit status.
fn run(out: &mut String, dir: &Path, args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_p3"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    out.push_str(&format!(
        "== p3 {} (exit {})\n",
        args.join(" ").escape_debug(),
        output.status.code().unwrap_or(-1)
    ));
    out.push_str(&mask(&stdout));
}

/// Writes three audit records — one with a hostile trace id — into `dir`.
fn write_audit_log(dir: &Path) {
    let log = AuditLog::open(AuditConfig::new(dir)).unwrap();
    let records = [
        (
            "probability",
            "tr-1",
            Outcome::Ok,
            900,
            57,
            vec![("r3", 200)],
        ),
        (
            "explanation",
            "q\"uote\\d\n\u{1}",
            Outcome::Timeout,
            40,
            3,
            vec![],
        ),
        (
            "lint",
            "",
            Outcome::LintReject,
            120,
            0,
            vec![("r1", 9), ("r2", 4)],
        ),
    ];
    for (i, (class, trace, outcome, total_us, tuples, top)) in records.into_iter().enumerate() {
        log.append(AuditRecord {
            ts_ms: 1_700_000_000_000 + i as u64,
            trace: trace.to_string(),
            class: class.to_string(),
            eval_mode: "demand".to_string(),
            query_hash: p3::audit::fnv1a_64(class),
            outcome,
            queue_wait_us: 5,
            execute_us: total_us - 5,
            total_us,
            stages: vec![StageTiming {
                name: "extract".to_string(),
                wall_us: total_us / 2,
            }],
            derived_tuples: tuples,
            dnf_monomials: 2,
            dnf_literals: 7,
            session_hits: 1,
            session_misses: 2,
            store_records: 3,
            extract_memo_hits: 4,
            extract_memo_misses: 5,
            rule_cost: top.iter().map(|(_, c)| c).sum(),
            top_rules: top.iter().map(|(l, c)| (l.to_string(), *c)).collect(),
        })
        .unwrap();
    }
}

fn snapshot(dir: &Path) -> String {
    let examples = root().join("examples");
    let mut out = String::new();
    for (file, query) in EXAMPLES {
        let path = examples.join(file);
        let path = path.to_str().unwrap();
        std::fs::copy(path, dir.join(file)).unwrap();
        run(&mut out, dir, &["analyze", file, "--json"]);
        run(
            &mut out,
            dir,
            &["analyze", file, "--query", query, "--calibrate", "--json"],
        );
        for mode in ["naive", "demand"] {
            run(
                &mut out,
                dir,
                &[
                    "explain",
                    file,
                    "--query",
                    query,
                    "--eval-mode",
                    mode,
                    "--json",
                ],
            );
        }
    }
    std::fs::write(
        dir.join("clean.pl"),
        "t1 0.5: p(a).\nr1 0.9: q(X) :- p(X).\n",
    )
    .unwrap();
    std::fs::write(dir.join("findings.pl"), FINDINGS).unwrap();
    std::fs::write(dir.join("ctl\u{1}name.pl"), "t1 0.5: p(a).\n").unwrap();
    run(&mut out, dir, &["lint", "clean.pl", "--json"]);
    run(&mut out, dir, &["lint", "findings.pl", "--json"]);
    run(&mut out, dir, &["lint", "ctl\u{1}name.pl", "--json"]);
    run(
        &mut out,
        dir,
        &[
            "lint",
            "clean.pl",
            "findings.pl",
            "acquaintance.pl",
            "--json",
        ],
    );
    write_audit_log(&dir.join("audit"));
    run(&mut out, dir, &["audit", "audit", "--json"]);
    run(
        &mut out,
        dir,
        &["audit", "audit", "--json", "--top", "2", "--by", "tuples"],
    );
    run(&mut out, dir, &["audit", "audit"]);
    out
}

#[test]
fn cli_json_documents_match_the_golden_snapshot() {
    let dir = std::env::temp_dir().join(format!("p3-cli-json-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = snapshot(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    let golden = root().join("tests/golden/cli_json.txt");
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
