//! The two trust-network workloads (§6 of the paper).
//!
//! The network and its BFS sample are fixed dataset parameters; `--seed`
//! only orders the requests. Sampling is deliberately not seeded from the
//! run: another BFS seed of the same network (23) yields 55,743-monomial
//! `mutualTrustPath` DNFs and single cold queries of 51 s.

use crate::closed::{self, err, influence_answer, Answer, Counts, Loaded, Workload};
use crate::common::{phase, Outcome, Rng};
use crate::trace;
use p3_core::{
    DerivationAlgo, EvalMode, InfluenceMethod, InfluenceOptions, ProbMethod, SessionOptions, P3,
};
use p3_datalog::engine::{Engine, NoopSink};
use p3_datalog::transform::magic_transform;
use p3_datalog::worlds;
use p3_prob::McConfig;
use p3_provenance::{evaluate_query_with_provenance, Analysis, ExtractOptions, Extractor};
use p3_workloads::trust::{self, NetworkConfig, TrustNetwork};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Monte-Carlo setting of the paper's Fig 10, with the service's default
/// seed so that served and in-process answers are comparable bit for bit.
pub const MC_CONFIG: McConfig = McConfig {
    samples: 1000,
    seed: 0x7033,
};
pub const MC: ProbMethod = ProbMethod::MonteCarlo(MC_CONFIG);

/// Atoms of the trust-cold pool: every request is a distinct atom.
const COLD_ATOMS: usize = 400;

/// trust-infer: narrow (≤10 monomials) and wide (100–1300 monomials)
/// atoms. Two wide atoms per narrow one, so the median falls inside the
/// wide atoms' latencies instead of on the gap between the two groups.
const INFER_NARROW: usize = 5;
const INFER_WIDE: usize = 10;
const NARROW_MAX: usize = 10;
const WIDE_RANGE: std::ops::RangeInclusive<usize> = 100..=1300;

/// Fixed order in which trust-infer scans candidates for its width bands.
const SCAN_SEED: u64 = 0x5ca9;

/// The `BENCH_grounding` lineage: a 2000-node / 10000-edge network, BFS
/// sample of 250 nodes (about 45k naive tuples).
pub fn cold_network() -> TrustNetwork {
    trust::generate(NetworkConfig {
        nodes: 2000,
        edges: 10_000,
        seed: 5,
        ..NetworkConfig::default()
    })
    .sample_bfs(250, 11)
}

/// The §6.2 protocol: the Bitcoin-OTC-sized network, BFS sample of 250.
fn infer_network() -> TrustNetwork {
    trust::generate(NetworkConfig::default()).sample_bfs(250, 11)
}

/// Every derivable `trustPath` and `mutualTrustPath` atom, sorted.
///
/// Computed by graph reachability, not by the system under test:
/// `trustPath(a,b)` holds iff `b` is reachable from `a` and `a != b` (the
/// sample has no self-loops), and `mutualTrustPath(a,b)` iff both
/// directions hold.
pub fn derivable_atoms(net: &TrustNetwork) -> Vec<String> {
    let mut adj: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(a, b, _) in &net.edges {
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default();
    }
    let reach: BTreeMap<u32, BTreeSet<u32>> = adj
        .keys()
        .map(|&a| {
            let mut seen = BTreeSet::new();
            let mut queue = VecDeque::from([a]);
            while let Some(u) = queue.pop_front() {
                for &v in &adj[&u] {
                    if seen.insert(v) {
                        queue.push_back(v);
                    }
                }
            }
            seen.remove(&a);
            (a, seen)
        })
        .collect();
    let mut atoms = Vec::new();
    for (a, targets) in &reach {
        for b in targets {
            atoms.push(format!("trustPath({a},{b})"));
            if reach[b].contains(a) {
                atoms.push(format!("mutualTrustPath({a},{b})"));
            }
        }
    }
    atoms.sort();
    atoms
}

/// `count` atoms spread evenly over `atoms` (a fixed systematic sample).
pub fn spread(atoms: &[String], count: usize) -> Vec<String> {
    let step = (atoms.len() / count).max(1);
    atoms.iter().step_by(step).take(count).cloned().collect()
}

/// **trust-cold**: a fresh demand-mode session; each request asks one
/// distinct atom's probability once, so every request is a cache miss and
/// runs transform, engine, capture, extraction and Monte-Carlo.
pub struct TrustCold {
    src: String,
    atoms: Vec<String>,
}

impl TrustCold {
    pub fn new(seed: u64) -> Self {
        let net = cold_network();
        let mut atoms = spread(&derivable_atoms(&net), COLD_ATOMS);
        Rng::new(seed).shuffle(&mut atoms);
        TrustCold {
            src: net.to_source(),
            atoms,
        }
    }

    /// Demand answers must be bit-identical to a naive session's, on a
    /// seeded subset of at least 200 of them.
    pub fn check(&self, answers: &[Result<Answer, String>], seed: u64, out: &mut Outcome) {
        let naive = P3::from_source(&self.src)
            .expect("trust program loads")
            .session_with(SessionOptions {
                eval_mode: EvalMode::Naive,
                ..SessionOptions::default()
            });
        let mut idx: Vec<usize> = (0..answers.len()).collect();
        Rng::new(seed ^ 0xc0ffee).shuffle(&mut idx);
        for &i in idx.iter().take(200) {
            let expected = naive
                .probability(&self.atoms[i], MC)
                .map(|p| vec![p.to_bits()])
                .map_err(err);
            out.check(answers[i] == expected, || {
                format!(
                    "{}: demand {:?} vs naive {expected:?}",
                    self.atoms[i], answers[i]
                )
            });
        }
    }
}

/// Replays `atoms` through the traced demand pipeline on a fresh
/// session: per-layer self times and work counts, used to split the
/// server's extract stage into layers.
pub fn demand_split(src: &str, atoms: Vec<String>) -> (trace::LayerTotals, Counts) {
    let w = TrustCold {
        src: src.to_string(),
        atoms,
    };
    let mut st = closed::load(&w.src, EvalMode::Demand);
    let mut counts = Counts::default();
    trace::start();
    for i in 0..w.atoms.len() {
        if let Err(e) = w.traced(&mut st, i, &mut counts) {
            eprintln!("replay of {} failed: {e}", w.atoms[i]);
        }
    }
    (trace::layer_totals(&trace::finish()), counts)
}

impl Workload for TrustCold {
    fn source(&self) -> &str {
        &self.src
    }

    fn mode(&self) -> EvalMode {
        EvalMode::Demand
    }

    fn requests(&self) -> usize {
        self.atoms.len()
    }

    fn run(&self, st: &mut Loaded, i: usize) -> Result<Answer, String> {
        let p = st.session.probability(&self.atoms[i], MC).map_err(err)?;
        Ok(vec![p.to_bits()])
    }

    fn traced(&self, st: &mut Loaded, i: usize, counts: &mut Counts) -> Result<Answer, String> {
        let session = &st.session;
        let p3 = session.p3();
        let program = p3.program();
        let atom = &self.atoms[i];
        // The evaluation and its analysis are returned out of the request
        // so that freeing them is not timed: the session keeps them.
        let result = trace::request(i as u64, || {
            let (pred, args) = trace::span("resolve", || worlds::parse_ground_query(program, atom))
                .map_err(err)?;
            let eval = trace::span("demand", || {
                evaluate_query_with_provenance(program, pred, &args)
            })
            .map_err(err)?;
            let analysis = trace::span("analysis", || Analysis::new(&eval.graph));
            let tuple = eval
                .db
                .lookup(pred, &args)
                .ok_or_else(|| format!("{atom} is not derivable"))?;
            let dnf = trace::span("extract", || {
                Extractor::with_analysis(&eval.graph, &analysis)
                    .polynomial(tuple, ExtractOptions::unbounded())
            });
            counts.dnf(&dnf);
            let id = trace::span("intern", || p3.store().intern(dnf));
            let p = trace::span("prob", || session.probability_of(id, MC));
            Ok::<_, String>((vec![p.to_bits()], pred, args, eval, analysis))
        });
        let (answer, pred, args, eval, _analysis) = result?;
        counts.transform_rules +=
            (eval.stats.transform.variants + eval.stats.transform.magic_rules) as u64;
        counts.engine_tuples += eval.stats.engine.tuples as u64;
        counts.engine_firings += eval.stats.engine.firings as u64;
        counts.capture_execs += eval.graph.num_execs() as u64;
        // Replays on the same input split the demand call into transform,
        // engine and (the rest) capture plus projection.
        let dp = trace::replay("replay.transform", || magic_transform(program, pred, &args))
            .map_err(err)?;
        trace::replay("replay.engine", || {
            Engine::new(&dp.program).run(&mut NoopSink)
        });
        Ok(answer)
    }
}

/// The trust-infer query classes, asked in this order for every atom.
#[derive(Clone, Copy)]
enum Class {
    Probability,
    Derivation,
    Influence,
}

const CLASSES: [Class; 3] = [Class::Probability, Class::Derivation, Class::Influence];
pub const DERIVATION_EPS: f64 = 0.02;

/// The Fig 14 influence recipe.
fn influence_options() -> InfluenceOptions {
    InfluenceOptions {
        method: InfluenceMethod::Mc(McConfig {
            samples: 2000,
            seed: 0x7033,
        }),
        top_k: Some(5),
        preprocess_epsilon: Some(DERIVATION_EPS),
        restrict_to: None,
    }
}

/// **trust-infer**: the paper's §6.2 query classes on a naive model
/// forced during set-up, so the engine does no work per request and
/// probability plus the query classes do nearly all of it. Each atom's
/// three requests share a fresh session over that model, so no atom's
/// work depends on which atoms the seed put before it.
pub struct TrustInfer {
    src: String,
    atoms: Vec<String>,
}

impl TrustInfer {
    pub fn new(seed: u64) -> Self {
        let net = infer_network();
        let src = net.to_source();
        let mut candidates = derivable_atoms(&net);
        Rng::new(SCAN_SEED).shuffle(&mut candidates);
        // Width selection runs on its own instance, so it warms nothing
        // the timed sessions use.
        let scan = P3::from_source(&src).expect("trust program loads");
        let extractor = scan.extractor();
        let (mut narrow, mut wide) = (Vec::new(), Vec::new());
        for atom in candidates {
            if narrow.len() == INFER_NARROW && wide.len() == INFER_WIDE {
                break;
            }
            let tuple = scan.tuple(&atom).expect("reachable atoms are derivable");
            let width = extractor
                .polynomial(tuple, ExtractOptions::unbounded())
                .len();
            if width <= NARROW_MAX && narrow.len() < INFER_NARROW {
                narrow.push(atom);
            } else if WIDE_RANGE.contains(&width) && wide.len() < INFER_WIDE {
                wide.push(atom);
            }
        }
        let mut atoms = [narrow, wide].concat();
        Rng::new(seed).shuffle(&mut atoms);
        TrustInfer { src, atoms }
    }

    fn class(i: usize) -> Class {
        CLASSES[i % CLASSES.len()]
    }

    /// Opens the session an atom's requests share, before its first one.
    fn session_for(st: &mut Loaded, i: usize) {
        if i.is_multiple_of(CLASSES.len()) {
            st.new_session(EvalMode::Naive);
        }
    }

    /// Exact answers must match the BDD backend on DNFs of at most 300
    /// monomials; derivations must start from the exact answer and stay
    /// within ε of it; influence rankings must be top-5 and sorted. Every
    /// answer of the first pass is checked.
    pub fn check(&self, answers: &[Result<Answer, String>], out: &mut Outcome) {
        let session = P3::from_source(&self.src)
            .expect("trust program loads")
            .session_with(SessionOptions {
                eval_mode: EvalMode::Naive,
                ..SessionOptions::default()
            });
        for (i, answer) in answers.iter().enumerate() {
            let Ok(answer) = answer else { continue };
            let atom = &self.atoms[i / CLASSES.len()];
            let value = |k: usize| f64::from_bits(answer[k]);
            match Self::class(i) {
                Class::Probability => {
                    let dnf = session.provenance(atom).expect("derivable");
                    if dnf.len() <= 300 {
                        let bdd = ProbMethod::Bdd.probability(&dnf, session.p3().vars());
                        out.check((bdd - value(0)).abs() <= 1e-9, || {
                            format!("{atom}: exact {} vs BDD {bdd}", value(0))
                        });
                    }
                }
                Class::Derivation => {
                    let (kept, original) = (value(0), value(1));
                    let exact = answers[i - 1].as_ref().map(|a| a[0]);
                    out.check(
                        exact == Ok(answer[1])
                            && original - kept <= DERIVATION_EPS + 1e-12
                            && kept <= original,
                        || format!("{atom}: derivation {kept} of {original}, exact {exact:?}"),
                    );
                }
                Class::Influence => {
                    let values: Vec<f64> = answer.chunks(2).map(|c| f64::from_bits(c[1])).collect();
                    out.check(
                        values.len() <= 5 && values.windows(2).all(|w| w[0] >= w[1]),
                        || format!("{atom}: influence ranking {values:?}"),
                    );
                }
            }
        }
    }
}

impl Workload for TrustInfer {
    fn source(&self) -> &str {
        &self.src
    }

    fn mode(&self) -> EvalMode {
        EvalMode::Naive
    }

    fn requests(&self) -> usize {
        self.atoms.len() * CLASSES.len()
    }

    fn run(&self, st: &mut Loaded, i: usize) -> Result<Answer, String> {
        let atom = &self.atoms[i / CLASSES.len()];
        Self::session_for(st, i);
        let session = &st.session;
        Ok(match Self::class(i) {
            Class::Probability => {
                vec![session
                    .probability(atom, ProbMethod::Exact)
                    .map_err(err)?
                    .to_bits()]
            }
            Class::Derivation => {
                let s = session
                    .sufficient_provenance(
                        atom,
                        DERIVATION_EPS,
                        DerivationAlgo::NaiveGreedy,
                        ProbMethod::Exact,
                    )
                    .map_err(err)?;
                vec![s.probability.to_bits(), s.original_probability.to_bits()]
            }
            Class::Influence => {
                influence_answer(&session.influence(atom, &influence_options()).map_err(err)?)
            }
        })
    }

    fn traced(&self, st: &mut Loaded, i: usize, counts: &mut Counts) -> Result<Answer, String> {
        let atom = &self.atoms[i / CLASSES.len()];
        trace::request(i as u64, || {
            Self::session_for(st, i);
            let id = closed::traced_formula(st, atom, counts)?;
            let session = &st.session;
            Ok(match Self::class(i) {
                Class::Probability => {
                    vec![
                        trace::span("prob", || session.probability_of(id, ProbMethod::Exact))
                            .to_bits(),
                    ]
                }
                Class::Derivation => {
                    let s = trace::span("derivation", || {
                        session.sufficient_provenance_of(
                            id,
                            DERIVATION_EPS,
                            DerivationAlgo::NaiveGreedy,
                            ProbMethod::Exact,
                        )
                    });
                    vec![s.probability.to_bits(), s.original_probability.to_bits()]
                }
                Class::Influence => influence_answer(&trace::span("influence", || {
                    session.influence_of(id, &influence_options())
                })),
            })
        })
    }
}

/// Runs one trust workload, untraced or traced.
pub fn run_cold(seed: u64, seconds: f64, trace_path: Option<&str>, out: &mut Outcome) {
    let w = phase("input", || TrustCold::new(seed));
    match trace_path {
        Some(path) => phase("trace", || closed::trace_run(&w, path, out)),
        None => {
            let answers = phase("measure", || closed::measure(&w, seconds, out));
            phase("check", || w.check(&answers, seed, out));
        }
    }
}

pub fn run_infer(seed: u64, seconds: f64, trace_path: Option<&str>, out: &mut Outcome) {
    let w = phase("input", || TrustInfer::new(seed));
    match trace_path {
        Some(path) => phase("trace", || closed::trace_run(&w, path, out)),
        None => {
            let answers = phase("measure", || closed::measure(&w, seconds, out));
            phase("check", || w.check(&answers, out));
        }
    }
}
