//! Closed-loop in-process workloads: one client thread, each request sent
//! when the previous one has been answered.
//!
//! A workload is a fixed list of requests (drawn from the seed) run in
//! whole passes. Every pass starts from a freshly loaded program, so every
//! pass sees the same cold caches and does the same work. Passes repeat
//! for the run's seconds, and at least three times. Each request is timed
//! in CPU time on the one thread that runs it, and its cost is the median
//! over passes, which keeps a burst of load from elsewhere on the machine
//! out of the percentiles.

use crate::common::{
    median, ms, peak_rss_mb, percentile, ratio, reset_peak_rss, setup_s, thread_cpu, EndToEnd,
    Outcome, Passes, Probes,
};
use crate::layers::PerLayer;
use crate::trace;
use p3_core::{EvalMode, LoadOptions, QuerySession, SessionOptions, SessionStats};
use p3_datalog::engine::{Engine, NoopSink};
use p3_datalog::program::Program;
use p3_prob::{Dnf, DnfId};
use p3_provenance::{Analysis, CaptureSink, ExtractOptions};
use std::collections::HashMap;
use std::time::Instant;

/// An answer reduced to the bits that must repeat exactly.
pub type Answer = Vec<u64>;

/// An influence ranking as `(variable, influence bits)` pairs.
pub fn influence_answer(entries: &[p3_core::InfluenceEntry]) -> Answer {
    entries
        .iter()
        .flat_map(|e| [e.var.index() as u64, e.influence.to_bits()])
        .collect()
}

/// A layer's error as the ledger reports it.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A loaded program plus per-pass state.
pub struct Loaded {
    pub session: QuerySession,
    /// Formulas the traced path has interned, by query atom: the traced
    /// twin of the session's own formula cache.
    pub ids: HashMap<String, DnfId>,
    /// Probabilities the current request group has produced so far.
    pub probs: Vec<f64>,
    /// Cache counters of sessions this pass has already replaced.
    pub retired: SessionStats,
}

impl Loaded {
    /// Replaces the session with a fresh one over the same model.
    pub fn new_session(&mut self, mode: EvalMode) {
        let stats = self.session.stats();
        self.retired.hits += stats.hits;
        self.retired.misses += stats.misses;
        self.retired.evictions += stats.evictions;
        self.session = self.session.p3().session_with(SessionOptions {
            eval_mode: mode,
            ..SessionOptions::default()
        });
        self.ids.clear();
    }

    /// Cache counters of every session of this pass.
    pub fn session_stats(&self) -> SessionStats {
        let stats = self.session.stats();
        SessionStats {
            hits: stats.hits + self.retired.hits,
            misses: stats.misses + self.retired.misses,
            evictions: stats.evictions + self.retired.evictions,
            ..stats
        }
    }
}

/// Loads `src` through the lint gate; naive sessions also force the
/// whole model, as a server would before taking traffic.
pub fn load(src: &str, mode: EvalMode) -> Loaded {
    let session = QuerySession::load_program_with(
        src,
        LoadOptions {
            lint: true,
            session: SessionOptions {
                max_entries: None,
                eval_mode: mode,
            },
        },
    )
    .expect("workload program passes the load gate");
    if mode == EvalMode::Naive {
        session.p3().database();
    }
    Loaded {
        session,
        ids: HashMap::new(),
        probs: Vec::new(),
        retired: SessionStats::default(),
    }
}

/// Work counts a traced pass adds up.
#[derive(Default)]
pub struct Counts {
    pub transform_rules: u64,
    pub engine_tuples: u64,
    pub engine_firings: u64,
    pub capture_execs: u64,
    pub monomials: u64,
    pub literals: u64,
    pub max_monomials: u64,
}

impl Counts {
    pub fn dnf(&mut self, dnf: &Dnf) {
        let shape = dnf.shape();
        self.monomials += shape.monomials as u64;
        self.literals += shape.literals as u64;
        self.max_monomials = self.max_monomials.max(shape.monomials as u64);
    }
}

/// The traced twin of `QuerySession::provenance_id` on a naive session:
/// resolves, extracts and interns `atom` in their own spans the first
/// time, and reuses the id afterwards as the session cache would.
pub fn traced_formula(st: &mut Loaded, atom: &str, counts: &mut Counts) -> Result<DnfId, String> {
    if let Some(&id) = st.ids.get(atom) {
        return Ok(id);
    }
    let p3 = st.session.p3();
    let tuple = trace::span("resolve", || p3.tuple(atom)).map_err(err)?;
    let dnf = trace::span("extract", || {
        p3.extractor()
            .polynomial(tuple, ExtractOptions::unbounded())
    });
    counts.dnf(&dnf);
    let id = trace::span("intern", || p3.store().intern(dnf));
    st.ids.insert(atom.to_string(), id);
    Ok(id)
}

pub trait Workload {
    fn source(&self) -> &str;
    fn mode(&self) -> EvalMode;
    fn requests(&self) -> usize;
    /// Request `i` through the session API, as an application calls it.
    fn run(&self, st: &mut Loaded, i: usize) -> Result<Answer, String>;
    /// Request `i` through the layers' own entry points, each call in a
    /// span, under one [`trace::request`]; replay spans follow it.
    fn traced(&self, st: &mut Loaded, i: usize, counts: &mut Counts) -> Result<Answer, String>;
}

/// The untraced run: end-to-end metrics, plus the first pass's answers
/// for the workload's own checks. Every later pass must repeat them.
pub fn measure(w: &impl Workload, seconds: f64, out: &mut Outcome) -> Vec<Result<Answer, String>> {
    let n = w.requests();
    let mut cpu: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut first: Vec<Result<Answer, String>> = Vec::with_capacity(n);
    let mut probes = Probes::default();
    reset_peak_rss();
    // The first load also runs one-time initialisation; set-ups are timed
    // after it, on a heap that passes have not grown yet.
    drop(load(w.source(), w.mode()));
    let setup_s = setup_s(|| load(w.source(), w.mode()), &mut probes);
    let mut passes = Passes::new(seconds);
    while passes.another() {
        let mut st = load(w.source(), w.mode());
        let mut costs = Vec::with_capacity(n);
        for i in 0..n {
            let start = thread_cpu();
            let answer = w.run(&mut st, i);
            let cost = ms(thread_cpu() - start);
            costs.push(cost);
            probes.after(cost);
            if let Err(e) = &answer {
                out.failed += 1;
                eprintln!("request {i} failed: {e}");
            }
            if first.len() < n {
                first.push(answer);
            } else {
                out.check(answer == first[i], || {
                    format!("request {i} changed between passes")
                });
            }
        }
        let scale = probes.scale();
        for (samples, cost) in cpu.iter_mut().zip(costs) {
            samples.push(cost * scale);
        }
        out.attempted += n as u64;
    }
    EndToEnd {
        setup_s,
        cpu_ms: cpu.iter().map(|s| median(s)).collect(),
        peak_rss_mb: peak_rss_mb("self"),
        probe_ms: probes.mean_ms(),
    }
    .report(out);
    first
}

/// Set-up cost by layer, from timing the load gate, `Program::parse` and
/// (naive mode) replays of the forced model's engine run, capture and
/// analysis.
#[derive(Default)]
pub struct SetupLayers {
    pub load_ms: f64,
    pub parse_ms: f64,
    pub engine_ms: f64,
    pub capture_ms: f64,
    pub analysis_ms: f64,
    pub tuples: u64,
    pub firings: u64,
    pub execs: u64,
}

pub fn setup_layers(src: &str, mode: EvalMode) -> SetupLayers {
    const REPEATS: usize = 3;
    let mut rows = Vec::new();
    for _ in 0..REPEATS {
        let mut row = SetupLayers::default();
        let start = Instant::now();
        let st = load(src, EvalMode::Demand);
        row.load_ms = ms(start.elapsed());
        let start = Instant::now();
        let program = Program::parse(src).expect("workload program parses");
        row.parse_ms = ms(start.elapsed());
        if mode == EvalMode::Naive {
            // The forced model is `Engine::run` with a `CaptureSink`, then
            // `Analysis::new`; the same run with a `NoopSink` separates the
            // engine from capture.
            let p3 = st.session.p3();
            p3.database();
            let start = Instant::now();
            let mut engine = Engine::new(&program);
            engine.run(&mut NoopSink);
            row.engine_ms = ms(start.elapsed());
            let stats = engine.stats();
            let start = Instant::now();
            Engine::new(&program).run(&mut CaptureSink::new());
            row.capture_ms = ms(start.elapsed()) - row.engine_ms;
            let start = Instant::now();
            Analysis::new(p3.graph());
            row.analysis_ms = ms(start.elapsed());
            row.tuples = stats.tuples as u64;
            row.firings = stats.firings as u64;
            row.execs = p3.graph().num_execs() as u64;
        }
        rows.push(row);
    }
    let med = |f: fn(&SetupLayers) -> f64| median(&rows.iter().map(f).collect::<Vec<_>>());
    SetupLayers {
        load_ms: med(|r| r.load_ms),
        parse_ms: med(|r| r.parse_ms),
        engine_ms: med(|r| r.engine_ms),
        capture_ms: med(|r| r.capture_ms),
        analysis_ms: med(|r| r.analysis_ms),
        ..rows.swap_remove(0)
    }
}

/// The traced run: one untraced pass for reference, then the same
/// requests traced on a fresh set-up. Traced answers must be
/// bit-identical to untraced ones.
pub fn trace_run(w: &impl Workload, trace_path: &str, out: &mut Outcome) {
    let n = w.requests();
    let mut st = load(w.source(), w.mode());
    let mut untraced_ms = 0.0;
    let mut answers = Vec::with_capacity(n);
    for i in 0..n {
        let start = Instant::now();
        answers.push(w.run(&mut st, i));
        untraced_ms += ms(start.elapsed());
    }
    let session_stats = st.session_stats();
    drop(st);

    let mut st = load(w.source(), w.mode());
    let store_before = st.session.p3().store().stats();
    let mut counts = Counts::default();
    trace::start();
    let traced: Vec<_> = (0..n).map(|i| w.traced(&mut st, i, &mut counts)).collect();
    let spans = trace::finish();
    let store_after = st.session.p3().store().stats();
    drop(st);
    out.attempted += 2 * n as u64;
    for (i, (t, u)) in traced.iter().zip(&answers).enumerate() {
        out.failed += u64::from(t.is_err()) + u64::from(u.is_err());
        out.check(t == u, || {
            format!("request {i}: traced {t:?} vs untraced {u:?}")
        });
    }

    let totals = trace::layer_totals(&spans);
    let requests = trace::request_ms(&spans);
    if let Err(e) = std::fs::write(trace_path, trace::chrome_trace(&spans, &totals)) {
        eprintln!("cannot write {trace_path}: {e}");
    }
    let setup = setup_layers(w.source(), w.mode());
    let per_req = |v: u64| v as f64 / n as f64;
    let intern_hits = store_after.intern_hits - store_before.intern_hits;
    let intern_misses = store_after.intern_misses - store_before.intern_misses;
    PerLayer {
        load_ms: setup.load_ms,
        parse_ms: setup.parse_ms,
        request_ms: totals.request_ms / n as f64,
        resolve_ms: totals.per_request("resolve"),
        engine_ms: totals.per_request("engine") + setup.engine_ms / n as f64,
        capture_ms: totals.per_request("capture") + setup.capture_ms / n as f64,
        analysis_ms: totals.per_request("analysis") + setup.analysis_ms / n as f64,
        extract_ms: totals.per_request("extract"),
        intern_ms: totals.per_request("intern"),
        prob_ms: totals.per_request("prob"),
        transform_share: totals.share("transform"),
        derivation_share: totals.share("derivation"),
        influence_share: totals.share("influence"),
        modification_share: totals.share("modification"),
        explanation_share: totals.share("explanation"),
        execute_ms_p50: percentile(&requests, 0.5),
        execute_ms_p99: percentile(&requests, 0.99),
        transform_rules: per_req(counts.transform_rules),
        engine_tuples: per_req(counts.engine_tuples + setup.tuples),
        engine_firings: per_req(counts.engine_firings + setup.firings),
        capture_execs: per_req(counts.capture_execs + setup.execs),
        extract_monomials: per_req(counts.monomials),
        extract_literals: per_req(counts.literals),
        dnf_max_monomials: counts.max_monomials as f64,
        intern_hit_ratio: ratio(intern_hits as f64, (intern_hits + intern_misses) as f64),
        session_hit_ratio: ratio(
            session_stats.hits as f64,
            (session_stats.hits + session_stats.misses) as f64,
        ),
        session_evictions: session_stats.evictions as f64,
        attributed_ratio: totals.attributed(),
        trace_overhead_ratio: ratio(totals.request_ms, untraced_ms) - 1.0,
        alloc_count_per_req: per_req(totals.allocs),
        alloc_bytes_per_req: per_req(totals.alloc_bytes),
        ..PerLayer::default()
    }
    .report(out);
}
