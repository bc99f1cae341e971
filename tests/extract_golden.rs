//! Golden snapshot of provenance-polynomial extraction.
//!
//! For each extraction the snapshot holds the root tuple, the options, the
//! polynomial in canonical order as clause labels, and the call's memo
//! hits and misses, cycle skips and hop truncations, read as deltas of the
//! process-wide counters around the call. That is why this is the only
//! test in its binary: no other test may move those counters meanwhile.
//!
//! Every atom is extracted in two ways: on a fresh [`Analysis`] per
//! (atom, options) pair, unbounded and at hop limits 1, 2 and 4; and then
//! all atoms of one graph in order, each at those four options, through
//! one shared [`Analysis`], followed by a repeat pass that the result
//! cache must serve unchanged. The second way pins what the memo publishes
//! from one call to the next.
//!
//! The corpus is every derived atom of the shipped example programs, on
//! the naive graph and on each atom's own demand graph; 40 random programs
//! in two configurations; and ten atoms of the trust-cold network of the
//! benchmark ledger on their demand graphs. Random programs and trust
//! atoms are recorded as FNV-1a-64 digests of their text.
//!
//! Regenerate after an intentional change with
//! `P3_UPDATE_EXPECTED=1 cargo test --test extract_golden`.

use p3::datalog::engine::{Database, TupleId};
use p3::datalog::{worlds, Program};
use p3::prob::{Dnf, VarTable};
use p3::provenance::extract::{self, Analysis, ExtractOptions, Extractor};
use p3::provenance::{clause_vars, evaluate_query_with_provenance, ProvGraph};
use p3::workloads::random_programs::{all_derived_queries, generate, RandomConfig};
use p3::workloads::trust::{self, NetworkConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

const OPTIONS: [ExtractOptions; 4] = [
    ExtractOptions { max_depth: None },
    ExtractOptions { max_depth: Some(1) },
    ExtractOptions { max_depth: Some(2) },
    ExtractOptions { max_depth: Some(4) },
];

/// The process-wide extraction counters: memo hits, memo misses, cycle
/// skips and hop truncations.
fn counters() -> [u64; 4] {
    let (hits, misses) = extract::memo_counters();
    let skips = p3::obs::counter!(
        "p3_provenance_cycle_skips_total",
        "Derivations skipped by path-based cycle elimination"
    )
    .get();
    let hops = p3::obs::counter!(
        "p3_provenance_hop_truncations_total",
        "Derivations dropped because the hop limit was exhausted"
    )
    .get();
    [hits, misses, skips, hops]
}

fn options_text(opts: ExtractOptions) -> String {
    match opts.max_depth {
        None => "unbounded".to_string(),
        Some(h) => format!("hops={h}"),
    }
}

/// Extracts `root` through `extractor`, appends the polynomial with the
/// call's counter deltas to `out`, and returns the polynomial.
fn record(
    extractor: &Extractor<'_>,
    vars: &VarTable,
    (atom, root): &(String, TupleId),
    how: &str,
    opts: ExtractOptions,
    out: &mut String,
) -> Dnf {
    let before = counters();
    let dnf = extractor.polynomial(*root, opts);
    let after = counters();
    let [hits, misses, skips, hops] = [0, 1, 2, 3].map(|i| after[i] - before[i]);
    let _ = writeln!(
        out,
        "{atom} {how} {} = {} ; hits={hits} misses={misses} skips={skips} hops={hops}",
        options_text(opts),
        dnf.display(vars)
    );
    dnf
}

/// Both ways of extracting `atoms` (text and tuple id) from one graph;
/// returns each atom's unbounded polynomial.
fn extractions(
    graph: &ProvGraph,
    vars: &VarTable,
    atoms: &[(String, TupleId)],
    out: &mut String,
) -> Vec<Dnf> {
    for atom in atoms {
        for opts in OPTIONS {
            record(&Extractor::new(graph), vars, atom, "fresh", opts, out);
        }
    }
    let analysis = Analysis::new(graph);
    let shared = Extractor::with_analysis(graph, &analysis);
    let mut first = Vec::new();
    for atom in atoms {
        for opts in OPTIONS {
            first.push(record(&shared, vars, atom, "shared", opts, out));
        }
    }
    let before = counters();
    let mut same = true;
    let mut n = 0;
    for (_, tuple) in atoms {
        for opts in OPTIONS {
            same &= shared.polynomial(*tuple, opts) == first[n];
            n += 1;
        }
    }
    let after = counters();
    let moved: Vec<u64> = (0..4).map(|i| after[i] - before[i]).collect();
    let _ = writeln!(
        out,
        "repeat of {n} served from the result cache: same={same} counters={moved:?} cached={}",
        analysis.cached_results()
    );
    first.into_iter().step_by(OPTIONS.len()).collect()
}

fn tuple_of(db: &Database, program: &Program, atom: &str) -> TupleId {
    let (pred, args) = worlds::parse_ground_query(program, atom).expect("ground atom");
    db.lookup(pred, &args).expect("derived atom")
}

/// Every atom of `atoms` on the naive graph.
fn naive_text(program: &Program, atoms: &[String]) -> String {
    let (db, graph) = p3::provenance::capture::evaluate_with_provenance(program);
    let vars = clause_vars(program);
    let atoms: Vec<(String, TupleId)> = atoms
        .iter()
        .map(|a| (a.clone(), tuple_of(&db, program, a)))
        .collect();
    let mut out = String::new();
    extractions(&graph, &vars, &atoms, &mut out);
    out
}

/// `atom` on its own demand graph, and its unbounded polynomial's width.
fn demand_text(program: &Program, atom: &str) -> (String, usize) {
    let (pred, args) = worlds::parse_ground_query(program, atom).expect("ground atom");
    let eval = evaluate_query_with_provenance(program, pred, &args).expect("negation-free");
    let tuple = eval.db.lookup(pred, &args).expect("derived atom");
    let vars = clause_vars(program);
    let mut out = String::new();
    let unbounded = extractions(&eval.graph, &vars, &[(atom.to_string(), tuple)], &mut out);
    (out, unbounded[0].len())
}

/// FNV-1a, 64-bit: a stable digest that keeps large texts out of the
/// snapshot file.
fn fnv1a_64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Ten atoms of the trust-cold network on their demand graphs: two wide
/// `mutualTrustPath` atoms the ledger asks (the first is its widest
/// polynomial) and every `len / 8`-th `trustPath` atom of the naive model
/// in text order. Each line also gives the unbounded polynomial's width.
fn trust_cold(out: &mut String) {
    let program = trust::generate(NetworkConfig {
        nodes: 2000,
        edges: 10_000,
        seed: 5,
        ..NetworkConfig::default()
    })
    .sample_bfs(250, 11)
    .to_program();
    let mut atoms = vec![
        "mutualTrustPath(332,1626)".to_string(),
        "mutualTrustPath(1237,7)".to_string(),
    ];
    let db = p3::datalog::engine::Engine::new(&program).run_plain();
    let sym = program.symbols().get("trustPath").expect("trust predicate");
    let mut paths: Vec<String> = db
        .relation(sym)
        .expect("derived relation")
        .tuples()
        .iter()
        .map(|&t| db.display_tuple(t, program.symbols()).to_string())
        .collect();
    paths.sort();
    let step = (paths.len() / 8).max(1);
    atoms.extend(paths.into_iter().step_by(step).take(8));
    for atom in &atoms {
        let (text, width) = demand_text(&program, atom);
        let _ = writeln!(
            out,
            "== trust-cold demand {atom} monomials={width}\n{:016x}",
            fnv1a_64(&text)
        );
    }
}

fn snapshot() -> String {
    let root = root();
    let mut out = String::new();
    let mut examples: Vec<PathBuf> = std::fs::read_dir(root.join("examples"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "pl"))
        .collect();
    examples.sort();
    for path in examples {
        let name = path.strip_prefix(&root).unwrap().display().to_string();
        let program = Program::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let atoms = all_derived_queries(&program);
        let _ = write!(out, "== {name} naive\n{}", naive_text(&program, &atoms));
        for atom in &atoms {
            let (text, _) = demand_text(&program, atom);
            let _ = write!(out, "== {name} demand {atom}\n{text}");
        }
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
            let atoms = all_derived_queries(&program);
            let naive = naive_text(&program, &atoms);
            let demand: String = atoms.iter().map(|a| demand_text(&program, a).0).collect();
            for (mode, text) in [("naive", naive), ("demand", demand)] {
                let _ = writeln!(
                    out,
                    "== random {config} seed {seed} {mode} atoms={}\n{:016x}",
                    atoms.len(),
                    fnv1a_64(&text)
                );
            }
        }
    }
    trust_cold(&mut out);
    out
}

#[test]
fn extractions_match_the_golden_snapshot() {
    let path = root().join("tests/golden/extract.txt");
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
            "extractions drifted from {} ({} vs {} lines):\n{}",
            path.display(),
            expected.lines().count(),
            actual.lines().count(),
            drift.join("\n")
        );
    }
}
