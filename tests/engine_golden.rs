//! Golden transcript of the semi-naive engine.
//!
//! For each evaluation the snapshot holds what the engine hands to its
//! callers: every tuple in id order with each of its derivations in the
//! order the [`DerivationSink`] saw them, the run's `EngineStats`, the
//! per-iteration deltas, and each compiled rule's `firings` and
//! `new_tuples`. The join counters (`candidates`, per-rule `iterations`)
//! are left out: they measure work, not results, and a cheaper join plan
//! may lower them.
//!
//! The corpus is every shipped example program (naive, and demand for the
//! query CI's smoke steps ask), 40 random programs in two configurations,
//! the stratified negation programs of `support::NEGATION` (which only the
//! engine evaluates), and the trust-cold network of the benchmark ledger. The trust evaluations
//! are large, so each is recorded as the FNV-1a-64 digest of its
//! transcript.
//!
//! Regenerate after an intentional change with
//! `P3_UPDATE_EXPECTED=1 cargo test --test engine_golden`.

use p3::datalog::ast::ClauseId;
use p3::datalog::engine::{DerivationSink, Engine, TupleId};
use p3::datalog::transform::magic_transform;
use p3::datalog::{worlds, Program};
use p3::workloads::random_programs::{all_derived_queries, generate, RandomConfig};
use p3::workloads::trust::{self, NetworkConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

mod support;
use support::NEGATION;

/// The query each shipped example answers in CI's smoke steps.
const EXAMPLES: &[(&str, &str)] = &[
    ("examples/acquaintance.pl", r#"know("Ben","Elena")"#),
    ("examples/smokers.pl", r#"smokes("carol")"#),
    ("examples/trust.pl", "mutualTrustPath(1,2)"),
];

/// Every derivation per tuple id, in the order the engine reported them:
/// `(clause, body)` with an empty body for a base assertion.
#[derive(Default)]
struct Transcript(Vec<Vec<(ClauseId, Vec<TupleId>)>>);

impl Transcript {
    fn slot(&mut self, tuple: TupleId) -> &mut Vec<(ClauseId, Vec<TupleId>)> {
        if tuple.index() >= self.0.len() {
            self.0.resize_with(tuple.index() + 1, Vec::new);
        }
        &mut self.0[tuple.index()]
    }
}

impl DerivationSink for Transcript {
    fn base_fact(&mut self, clause: ClauseId, tuple: TupleId) {
        self.slot(tuple).push((clause, Vec::new()));
    }

    fn derived(&mut self, rule: ClauseId, head: TupleId, body: &[TupleId]) {
        self.slot(head).push((rule, body.to_vec()));
    }
}

/// Runs `program` to fixpoint and renders what the engine reported. The
/// facts of a shared fact base name clauses of `source`, the program the
/// base was built from.
fn transcript(program: &Program, source: &Program) -> String {
    let base_len = program.over_base().map_or(0, |base| base.len());
    let mut sink = Transcript::default();
    let mut engine = Engine::new(program);
    let db = engine.run(&mut sink);
    let stats = engine.stats();
    let mut out = format!(
        "stats iterations={} firings={} tuples={}\ndeltas",
        stats.iterations, stats.firings, stats.tuples
    );
    for delta in engine.deltas() {
        let _ = write!(out, " {delta}");
    }
    out.push('\n');
    for rule in engine.rule_stats() {
        let _ = writeln!(
            out,
            "rule {} firings={} new_tuples={}",
            program.clause(rule.clause).label,
            rule.firings,
            rule.new_tuples
        );
    }
    for i in 0..db.len() {
        let id = TupleId(i as u32);
        let _ = write!(out, "#{i} {}", db.display_tuple(id, program.symbols()));
        let derivations = sink.0.get(i).map(Vec::as_slice).unwrap_or(&[]);
        for (n, (clause, body)) in derivations.iter().enumerate() {
            out.push_str(if n == 0 { " = " } else { " | " });
            let labels = if body.is_empty() && i < base_len {
                source
            } else {
                program
            };
            out.push_str(&labels.clause(*clause).label);
            if !body.is_empty() {
                let ids: Vec<String> = body.iter().map(|b| format!("#{}", b.0)).collect();
                let _ = write!(out, "({})", ids.join(","));
            }
        }
        out.push('\n');
    }
    out
}

/// The transcript of the demand evaluation of `query`: the engine run
/// over the magic-transformed program.
fn demand_transcript(program: &Program, query: &str) -> String {
    let (pred, args) = worlds::parse_ground_query(program, query).expect("ground query");
    let demand = magic_transform(program, pred, &args).expect("negation-free program");
    transcript(&demand.program, program)
}

/// FNV-1a, 64-bit: a stable digest that keeps large transcripts out of
/// the snapshot file.
fn fnv1a_64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The trust-cold network, its naive digest, and the digests of ten
/// demand evaluations: every `len / 8`-th `trustPath` atom and every
/// `len / 2`-th `mutualTrustPath` atom of the naive model, in text order.
fn trust_cold(out: &mut String) {
    let program = trust::generate(NetworkConfig {
        nodes: 2000,
        edges: 10_000,
        seed: 5,
        ..NetworkConfig::default()
    })
    .sample_bfs(250, 11)
    .to_program();
    let naive = transcript(&program, &program);
    let _ = writeln!(out, "== trust-cold naive\n{:016x}", fnv1a_64(&naive));

    let db = Engine::new(&program).run_plain();
    for (pred, count) in [("trustPath", 8), ("mutualTrustPath", 2)] {
        let sym = program.symbols().get(pred).expect("trust predicate");
        let mut atoms: Vec<String> = db
            .relation(sym)
            .expect("derived relation")
            .tuples()
            .iter()
            .map(|&t| db.display_tuple(t, program.symbols()).to_string())
            .collect();
        atoms.sort();
        let step = (atoms.len() / count).max(1);
        for atom in atoms.iter().step_by(step).take(count) {
            let text = demand_transcript(&program, atom);
            let _ = writeln!(out, "== trust-cold demand {atom}\n{:016x}", fnv1a_64(&text));
        }
    }
}

fn snapshot() -> String {
    let root = root();
    let mut out = String::new();
    for (path, query) in EXAMPLES {
        let src = std::fs::read_to_string(root.join(path)).unwrap();
        let program = Program::parse(&src).unwrap();
        let _ = write!(out, "== {path} naive\n{}", transcript(&program, &program));
        let _ = write!(
            out,
            "== {path} demand {query}\n{}",
            demand_transcript(&program, query)
        );
    }
    for seed in 0..40u64 {
        let default = generate(RandomConfig {
            seed,
            ..Default::default()
        });
        let recursive = generate(RandomConfig {
            seed: seed.wrapping_mul(6007),
            recursion_bias: 0.9,
            rules: 5,
            facts: 7,
            ..Default::default()
        });
        for (config, program) in [("default", default), ("recursive", recursive)] {
            let name = format!("random {config} seed {seed}");
            let _ = write!(out, "== {name} naive\n{}", transcript(&program, &program));
            if let Some(query) = all_derived_queries(&program).first() {
                let _ = write!(
                    out,
                    "== {name} demand {query}\n{}",
                    demand_transcript(&program, query)
                );
            }
        }
    }
    for (i, src) in NEGATION.iter().enumerate() {
        let program = Program::parse(src).unwrap();
        let _ = write!(
            out,
            "== negation #{i} naive\n{}",
            transcript(&program, &program)
        );
    }
    trust_cold(&mut out);
    out
}

#[test]
fn engine_transcripts_match_the_golden_snapshot() {
    let path = root().join("tests/golden/engine.txt");
    let actual = snapshot();
    if std::env::var_os("P3_UPDATE_EXPECTED").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} (set P3_UPDATE_EXPECTED=1 to create): {e}",
            path.display()
        )
    });
    if actual != expected {
        let drift: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .take(10)
            .map(|(e, a)| format!("- {e}\n+ {a}"))
            .collect();
        panic!(
            "engine transcripts drifted from {} ({} vs {} lines):\n{}",
            path.display(),
            expected.lines().count(),
            actual.lines().count(),
            drift.join("\n")
        );
    }
}
