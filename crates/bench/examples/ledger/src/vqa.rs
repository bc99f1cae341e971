//! **vqa-debug**: the paper's §5.1 debugging session, replayed on a
//! synthetic VQA instance scaled to many images.
//!
//! The instance runs the Fig 5 rules (`p3_workloads::vqa::RULES`) over
//! `IMAGES` images of `OBJECTS` captioned objects each, `CANDIDATES`
//! candidate answers per image, a 40-word vocabulary and one similarity
//! table shared by every image. It is a fixed dataset: `--seed` only
//! orders the images. The generator keeps each candidate's answer
//! derivable and its DNF narrow (at most 16 monomials), so per-call
//! overhead, interning, session-cache reuse across query classes and the
//! query-class code dominate, and the engine is idle after set-up.

use crate::closed::{self, err, influence_answer, Answer, Counts, Loaded, Workload};
use crate::common::{phase, Outcome, Rng};
use crate::trace;
use crate::trust::DERIVATION_EPS;
use p3_core::{
    DerivationAlgo, EvalMode, InfluenceMethod, InfluenceOptions, ModificationOptions, ProbMethod,
    SessionOptions, P3,
};
use p3_provenance::{dot, explain, ExtractOptions};
use p3_workloads::vqa::RULES;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Images in the instance: sized so that one pass of requests takes a
/// few seconds on a 2-core machine (see README.md).
const IMAGES: usize = 600;
const OBJECTS: usize = 8;
const CANDIDATES: usize = 10;
/// Image objects a candidate's answer may derive through: a candidate
/// matching `m` objects has `m (m + 3) / 2` monomials, 14 at `m = 4`.
const MAX_MATCHES: usize = 4;
/// Seed of the dataset itself (not of the run).
const DATASET_SEED: u64 = 0x5e51;

const NOUNS: [&str; 24] = [
    "barn", "church", "house", "horse", "cloud", "cross", "building", "tree", "field", "sky",
    "roof", "road", "car", "dog", "cat", "boat", "bridge", "tower", "fence", "river", "hill",
    "door", "window", "bird",
];
const RELATIONS: [&str; 8] = [
    "in", "on", "with", "near", "under", "behind", "above", "color",
];
const REGIONS: [&str; 8] = [
    "background",
    "foreground",
    "left",
    "right",
    "top",
    "bottom",
    "center",
    "edge",
];

/// One captioned image and its WHAT-question.
struct Image {
    /// `(object, relation, region, confidence)` per captioned object.
    objects: Vec<(usize, usize, usize, f64)>,
    /// `(region, subject)` of the question.
    question: (usize, usize),
    candidates: Vec<usize>,
}

/// `(a, b) → p`, by index into the word lists.
type SimTable = BTreeMap<(usize, usize), f64>;

/// Similarities by kind: noun–noun, subject noun–relation and
/// region–region.
#[derive(Default)]
struct Sims {
    nouns: SimTable,
    relations: SimTable,
    regions: SimTable,
}

fn draw_sims(rng: &mut Rng) -> Sims {
    let mut sims = Sims::default();
    let p = |rng: &mut Rng| 0.05 + 0.9 * rng.unit();
    for a in 0..NOUNS.len() {
        for b in 0..NOUNS.len() {
            if a == b {
                sims.nouns.insert((a, b), 1.0);
            } else if rng.unit() < 0.3 {
                sims.nouns.insert((a, b), p(rng));
            }
        }
        for r in 0..RELATIONS.len() {
            if rng.unit() < 0.6 {
                sims.relations.insert((a, r), p(rng));
            }
        }
    }
    for a in 0..REGIONS.len() {
        for b in 0..REGIONS.len() {
            if a == b {
                sims.regions.insert((a, b), 1.0);
            } else if rng.unit() < 0.6 {
                sims.regions.insert((a, b), p(rng));
            }
        }
    }
    sims
}

/// How many of `image`'s objects rule r4 can join a candidate `c` with.
fn matches(sims: &Sims, image: &Image, c: usize) -> usize {
    let (region, subject) = image.question;
    image
        .objects
        .iter()
        .filter(|&&(obj, rel, reg, _)| {
            sims.nouns.contains_key(&(c, obj))
                && sims.relations.contains_key(&(subject, rel))
                && sims.regions.contains_key(&(region, reg))
        })
        .count()
}

fn draw_image(rng: &mut Rng, sims: &Sims) -> Image {
    loop {
        let objects = (0..OBJECTS)
            .map(|_| {
                (
                    rng.below(NOUNS.len()),
                    rng.below(RELATIONS.len()),
                    rng.below(REGIONS.len()),
                    0.5 + 0.5 * rng.unit(),
                )
            })
            .collect();
        let mut image = Image {
            objects,
            question: (rng.below(REGIONS.len()), rng.below(NOUNS.len())),
            candidates: Vec::new(),
        };
        let mut nouns: Vec<usize> = (0..NOUNS.len()).collect();
        rng.shuffle(&mut nouns);
        image.candidates = nouns
            .into_iter()
            .filter(|&c| (1..=MAX_MATCHES).contains(&matches(sims, &image, c)))
            .take(CANDIDATES)
            .collect();
        if image.candidates.len() == CANDIDATES {
            return image;
        }
    }
}

/// The instance as program source: the Fig 5 rules plus facts.
fn render(images: &[Image], sims: &Sims) -> String {
    let mut src = String::from(RULES);
    for (v, image) in images.iter().enumerate() {
        for (j, &(obj, rel, reg, p)) in image.objects.iter().enumerate() {
            let (obj, rel, reg) = (NOUNS[obj], RELATIONS[rel], REGIONS[reg]);
            let _ = writeln!(
                src,
                "img_{v}_{j} {p:.3}: hasImg(\"I{v}\",\"{obj}\",\"{rel}\",\"{reg}\")."
            );
        }
        let (region, subject) = (REGIONS[image.question.0], NOUNS[image.question.1]);
        let _ = writeln!(
            src,
            "q_{v} 1.0: hasQ(\"I{v}\",\"{region}\",\"{subject}\",\"WHAT\")."
        );
        for &c in &image.candidates {
            let _ = writeln!(src, "w_{v}_{c} 0.5: word(\"I{v}\",\"{}\").", NOUNS[c]);
        }
    }
    let tables: [(&SimTable, &[&str], &[&str]); 3] = [
        (&sims.nouns, &NOUNS, &NOUNS),
        (&sims.relations, &NOUNS, &RELATIONS),
        (&sims.regions, &REGIONS, &REGIONS),
    ];
    for (table, left, right) in tables {
        for (&(a, b), p) in table {
            let (a, b) = (left[a], right[b]);
            let _ = writeln!(src, "sim_{a}_{b} {p:.3}: sim(\"{a}\",\"{b}\").");
        }
    }
    src
}

/// One image's debugging session, in request order: an explanation of
/// every candidate, a derivation of every candidate, then an influence
/// ranking and a modification of the winner.
const SESSION: usize = 2 * CANDIDATES + 2;

enum Step {
    Explanation(usize),
    Derivation(usize),
    Influence,
    Modification,
}

fn step(k: usize) -> Step {
    match k {
        k if k < CANDIDATES => Step::Explanation(k),
        k if k < 2 * CANDIDATES => Step::Derivation(k - CANDIDATES),
        k if k == 2 * CANDIDATES => Step::Influence,
        _ => Step::Modification,
    }
}

/// The winner (highest explanation probability, first on ties) and the
/// runner-up's probability, which the modification aims the winner at.
fn winner(probs: &[f64]) -> (usize, f64) {
    let mut order: Vec<usize> = (0..probs.len()).collect();
    order.sort_by(|&a, &b| probs[b].total_cmp(&probs[a]).then(a.cmp(&b)));
    (order[0], probs[order[1]])
}

fn influence_options() -> InfluenceOptions {
    InfluenceOptions {
        method: InfluenceMethod::Exact,
        top_k: Some(5),
        preprocess_epsilon: None,
        restrict_to: None,
    }
}

fn modification_options() -> ModificationOptions {
    ModificationOptions {
        tolerance: 1e-3,
        ..ModificationOptions::default()
    }
}

fn explanation_answer(p: f64, derivations: usize, text: &str, dot: &str) -> Answer {
    vec![
        p.to_bits(),
        derivations as u64,
        text.len() as u64,
        dot.len() as u64,
    ]
}

fn modification_answer(plan: &p3_core::ModificationPlan) -> Answer {
    vec![
        plan.achieved_probability.to_bits(),
        plan.total_cost.to_bits(),
        plan.steps.len() as u64,
    ]
}

pub struct VqaDebug {
    src: String,
    /// `ans(...)` atoms per image (in candidate order), images in the
    /// seeded request order.
    answers: Vec<Vec<String>>,
}

impl VqaDebug {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(DATASET_SEED);
        let sims = draw_sims(&mut rng);
        let images: Vec<Image> = (0..IMAGES).map(|_| draw_image(&mut rng, &sims)).collect();
        let mut answers: Vec<Vec<String>> = images
            .iter()
            .enumerate()
            .map(|(v, image)| {
                image
                    .candidates
                    .iter()
                    .map(|&c| format!("ans(\"I{v}\",\"{}\")", NOUNS[c]))
                    .collect()
            })
            .collect();
        Rng::new(seed).shuffle(&mut answers);
        VqaDebug {
            src: render(&images, &sims),
            answers,
        }
    }

    /// On a seeded subset of at least 200 answers, checks every class
    /// against the BDD backend on a fresh session: explanation and
    /// derivation probabilities, each influence entry (as the difference
    /// of the two restrictions), and the probability a modification plan
    /// achieves under its modified clause table.
    pub fn check(&self, answers: &[Result<Answer, String>], seed: u64, out: &mut Outcome) {
        let p3 = P3::from_source(&self.src).expect("VQA program loads");
        let session = p3.session_with(SessionOptions {
            eval_mode: EvalMode::Naive,
            ..SessionOptions::default()
        });
        let bdd = |vars: &p3_prob::VarTable, atom: &str| {
            ProbMethod::Bdd.probability(&p3.provenance(atom).expect("derivable"), vars)
        };
        let mut idx: Vec<usize> = (0..answers.len()).collect();
        Rng::new(seed ^ 0xc0ffee).shuffle(&mut idx);
        for &i in idx.iter().take(200) {
            let Ok(answer) = &answers[i] else { continue };
            let atoms = &self.answers[i / SESSION];
            let value = |k: usize| f64::from_bits(answer[k]);
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9;
            match step(i % SESSION) {
                Step::Explanation(c) => {
                    let expected = bdd(p3.vars(), &atoms[c]);
                    out.check(close(value(0), expected), || {
                        format!("{}: explanation {} vs BDD {expected}", atoms[c], value(0))
                    });
                }
                Step::Derivation(c) => {
                    let expected = bdd(p3.vars(), &atoms[c]);
                    let (kept, original) = (value(0), value(1));
                    out.check(
                        close(original, expected) && original - kept <= DERIVATION_EPS + 1e-12,
                        || {
                            format!(
                                "{}: derivation {kept} of {original}, BDD {expected}",
                                atoms[c]
                            )
                        },
                    );
                }
                Step::Influence | Step::Modification => {
                    // The winner as the session picked it, from this
                    // image's explanation answers.
                    let base = i - i % SESSION;
                    let probs: Vec<f64> = (base..base + CANDIDATES)
                        .map(|j| match &answers[j] {
                            Ok(a) => f64::from_bits(a[0]),
                            Err(_) => f64::NAN,
                        })
                        .collect();
                    let (w, target) = winner(&probs);
                    let atom = &atoms[w];
                    if matches!(step(i % SESSION), Step::Influence) {
                        for pair in answer.chunks(2) {
                            let var = p3_prob::VarId(pair[0] as u32);
                            let restricted = |p: f64| {
                                bdd(
                                    p3.with_probabilities(&[(var, p)]).expect("valid").vars(),
                                    atom,
                                )
                            };
                            let expected = restricted(1.0) - restricted(0.0);
                            let got = f64::from_bits(pair[1]);
                            out.check(close(got, expected), || {
                                format!("{atom}: influence of {var} {got} vs BDD {expected}")
                            });
                        }
                    } else {
                        let plan = session
                            .modification(atom, target, &modification_options())
                            .expect("derivable");
                        let expected = bdd(&plan.modified_vars, atom);
                        out.check(close(value(0), expected), || {
                            format!(
                                "{atom}: modification reaches {} vs BDD {expected}",
                                value(0)
                            )
                        });
                    }
                }
            }
        }
    }
}

impl Workload for VqaDebug {
    fn source(&self) -> &str {
        &self.src
    }

    fn mode(&self) -> EvalMode {
        EvalMode::Naive
    }

    fn requests(&self) -> usize {
        self.answers.len() * SESSION
    }

    fn run(&self, st: &mut Loaded, i: usize) -> Result<Answer, String> {
        let atoms = &self.answers[i / SESSION];
        let session = &st.session;
        Ok(match step(i % SESSION) {
            Step::Explanation(c) => {
                if c == 0 {
                    st.probs.clear();
                }
                let e = session
                    .p3()
                    .explain_with(&atoms[c], ProbMethod::Exact, ExtractOptions::unbounded())
                    .map_err(err)?;
                st.probs.push(e.probability);
                explanation_answer(e.probability, e.num_derivations, &e.text, &e.dot)
            }
            Step::Derivation(c) => {
                let s = session
                    .sufficient_provenance(
                        &atoms[c],
                        DERIVATION_EPS,
                        DerivationAlgo::NaiveGreedy,
                        ProbMethod::Exact,
                    )
                    .map_err(err)?;
                vec![s.probability.to_bits(), s.original_probability.to_bits()]
            }
            Step::Influence => {
                let atom = &atoms[winner(&st.probs).0];
                influence_answer(&session.influence(atom, &influence_options()).map_err(err)?)
            }
            Step::Modification => {
                let (w, target) = winner(&st.probs);
                let plan = session
                    .modification(&atoms[w], target, &modification_options())
                    .map_err(err)?;
                modification_answer(&plan)
            }
        })
    }

    fn traced(&self, st: &mut Loaded, i: usize, counts: &mut Counts) -> Result<Answer, String> {
        let atoms = &self.answers[i / SESSION];
        trace::request(i as u64, || {
            Ok(match step(i % SESSION) {
                Step::Explanation(c) => {
                    // `P3::explain_with`, call by call.
                    if c == 0 {
                        st.probs.clear();
                    }
                    let p3 = st.session.p3();
                    let tuple = trace::span("resolve", || p3.tuple(&atoms[c])).map_err(err)?;
                    let dnf = trace::span("extract", || {
                        p3.extractor()
                            .polynomial(tuple, ExtractOptions::unbounded())
                    });
                    counts.dnf(&dnf);
                    let p = trace::span("prob", || ProbMethod::Exact.probability(&dnf, p3.vars()));
                    let (text, dot) = trace::span("explanation", || {
                        let (db, graph, program) = (p3.database(), p3.graph(), p3.program());
                        (
                            explain::explain(graph, db, program, tuple, None),
                            dot::to_dot(graph, db, program, tuple),
                        )
                    });
                    st.probs.push(p);
                    explanation_answer(p, dnf.len(), &text, &dot)
                }
                Step::Derivation(c) => {
                    let id = closed::traced_formula(st, &atoms[c], counts)?;
                    let s = trace::span("derivation", || {
                        st.session.sufficient_provenance_of(
                            id,
                            DERIVATION_EPS,
                            DerivationAlgo::NaiveGreedy,
                            ProbMethod::Exact,
                        )
                    });
                    vec![s.probability.to_bits(), s.original_probability.to_bits()]
                }
                Step::Influence => {
                    let atom = &atoms[winner(&st.probs).0];
                    let id = closed::traced_formula(st, atom, counts)?;
                    influence_answer(&trace::span("influence", || {
                        st.session.influence_of(id, &influence_options())
                    }))
                }
                Step::Modification => {
                    // The session resolves the atom again inside the call.
                    let (w, target) = winner(&st.probs);
                    let plan = trace::span("modification", || {
                        st.session
                            .modification(&atoms[w], target, &modification_options())
                    })
                    .map_err(err)?;
                    modification_answer(&plan)
                }
            })
        })
    }
}

pub fn run(seed: u64, seconds: f64, trace_path: Option<&str>, out: &mut Outcome) {
    let w = phase("input", || VqaDebug::new(seed));
    match trace_path {
        Some(path) => phase("trace", || closed::trace_run(&w, path, out)),
        None => {
            let answers = phase("measure", || closed::measure(&w, seconds, out));
            phase("check", || w.check(&answers, seed, out));
        }
    }
}
