//! The `p3` command-line tool: evaluate a ProbLog-like program with
//! provenance and run the four P3 query types from the shell.
//!
//! ```sh
//! p3 program.pl --query 'know("Ben","Elena")' --explain
//! p3 program.pl --query 'know("Ben","Elena")' --prob mc --samples 200000
//! p3 program.pl --query 'know("Ben","Elena")' --derivation 0.01
//! p3 program.pl --query 'know("Ben","Elena")' --influence 5
//! p3 program.pl --query 'know("Ben","Elena")' --modify 0.5 --facts-only
//! p3 program.pl --stats
//! ```

use p3::audit::AuditKey;
use p3::core::{
    DerivationAlgo, EvalMode, InfluenceMethod, InfluenceOptions, ModificationOptions, ProbMethod,
    QueryAnswer, QueryClass, SessionOptions, Strategy, P3,
};
use p3::obs::json::Value;
use p3::prob::McConfig;
use p3::provenance::extract::ExtractOptions;
use std::process::ExitCode;

const USAGE: &str = "\
p3 — provenance queries for probabilistic logic programs

USAGE:
    p3 <PROGRAM.pl> [OPTIONS]
    p3 explain <PROGRAM.pl> --query <ATOM> [--eval-mode <M>] [--json | --folded]
    p3 analyze <PROGRAM.pl> [--query <ATOM>] [--calibrate] [--json] [--eval-mode <M>]
    p3 lint <PROGRAM.pl>... [--json] [--workloads <N>]
    p3 audit <DIR> [--json] [--top <N>] [--by <K>]

OPTIONS:
    --query <ATOM>         ground atom to analyse, e.g. 'know(\"Ben\",\"Elena\")'
    --explain              print the derivation tree of the queried tuple
    --dot <FILE>           write the provenance subgraph as Graphviz dot
    --prob <METHOD>        success probability: exact | bdd | mc | kl | pmc
    --derivation <EPS>     sufficient provenance within error EPS
    --algo <A>             derivation algorithm: greedy (default) | resuciu
    --influence [K]        top-K most influential clauses (default K = 10)
    --modify <TARGET>      minimal-cost plan reaching probability TARGET
    --facts-only           restrict modification/influence to base tuples
    --strategy <S>         modification strategy: greedy (default) | random
    --hop-limit <N>        cap provenance extraction depth
    --eval-mode <M>        auto (default) | naive | demand. Demand magic-transforms
                           the program per query and derives only the relevant
                           fragment; auto picks demand for recursive programs
    --samples <N>          Monte-Carlo samples (default 100000)
    --seed <N>             Monte-Carlo seed (default 7033)
    --threads <N>          threads for pmc; 0 = auto (P3_THREADS env var,
                           else available cores capped at 16)
    --trace-out <FILE>     record pipeline spans and write Chrome trace-event
                           JSON (load in chrome://tracing or Perfetto)
    --stats                print engine and provenance statistics
    --help                 show this help

EXPLAIN OPTIONS (after 'p3 explain'):
    --query <ATOM>         ground atom whose evaluation cost to attribute (required)
    --eval-mode <M>        auto (default) | naive | demand, as for plain queries
    --json                 one JSON object (the wire shape of the 'explain' service op)
    --folded               folded 'frame;frame cost' lines for flamegraph tooling
    (default output is a rustc-style plan: rules ranked by measured cost —
    firings, derived tuples, join candidates, iterations, index usage — plus
    DNF shape, cache deltas and any measured P3603/P3604 recommendations)

ANALYZE OPTIONS (after 'p3 analyze'):
    --query <ATOM>         also predict per-query-class work for this atom's predicate
    --calibrate            run the query (required with this flag) and report
                           predicted-vs-measured rule rank agreement
    --json                 one JSON object (the wire shape of the 'analyze' service op)
    --eval-mode <M>        evaluation mode used by --calibrate's measured run
    (default output is the predicted plan: rules ranked by predicted cost —
    firings, tuples, join candidates, iterations — plus per-predicate
    cardinality/DNF-width bounds, the eval-mode recommendation with its
    reason, and any P37xx prediction diagnostics; nothing is evaluated
    unless --calibrate asks for the measured comparison)

LINT OPTIONS (after 'p3 lint'):
    --json                 one JSON line per program instead of rustc-style text
    --workloads <N>        also lint N generated random workload programs
    (exit status is 1 when any program has error-severity findings)

AUDIT OPTIONS (after 'p3 audit'):
    --json                 one JSON line per record (the canonical /audit shape)
    --top <N>              print only the N costliest records
    --by <K>               ranking key for --top: latency (default) | tuples |
                           dnf_width | rule_cost
    (reads a p3-serve --audit-dir segment ring offline, without truncating
    torn tails; exit status is 1 when any segment scan stopped dirty)
";

#[derive(Debug)]
struct Options {
    program_path: String,
    query: Option<String>,
    explain: bool,
    dot: Option<String>,
    prob: Option<String>,
    derivation: Option<f64>,
    algo: DerivationAlgo,
    influence: Option<usize>,
    modify: Option<f64>,
    facts_only: bool,
    strategy: Strategy,
    hop_limit: Option<usize>,
    eval_mode: EvalMode,
    samples: usize,
    seed: u64,
    threads: usize,
    trace_out: Option<String>,
    stats: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    // Surface a bad P3_THREADS as a normal CLI error, not a panic.
    p3::prob::parallel::threads_from_env()?;
    let mut opts = Options {
        program_path: String::new(),
        query: None,
        explain: false,
        dot: None,
        prob: None,
        derivation: None,
        algo: DerivationAlgo::NaiveGreedy,
        influence: None,
        modify: None,
        facts_only: false,
        strategy: Strategy::Greedy,
        hop_limit: None,
        eval_mode: EvalMode::Auto,
        samples: 100_000,
        seed: 0x7033,
        threads: p3::prob::parallel::default_threads(),
        trace_out: None,
        stats: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--query" => opts.query = Some(value(&mut it, arg)?.clone()),
            "--explain" => opts.explain = true,
            "--dot" => opts.dot = Some(value(&mut it, arg)?.clone()),
            "--prob" => opts.prob = Some(value(&mut it, arg)?.clone()),
            "--derivation" => opts.derivation = Some(parsed(value(&mut it, arg)?, "epsilon")?),
            "--algo" => opts.algo = value(&mut it, arg)?.parse()?,
            // An optional top-K, 10 when no number follows.
            "--influence" => match it.next_if(|next| !next.starts_with("--")) {
                Some(k) => opts.influence = Some(parsed(k, "top-K")?),
                None => opts.influence = Some(10),
            },
            "--modify" => opts.modify = Some(parsed(value(&mut it, arg)?, "target")?),
            "--facts-only" => opts.facts_only = true,
            // The random strategy's seed is `--seed`, wherever it appears.
            "--strategy" => {
                opts.strategy = match value(&mut it, arg)?.as_str() {
                    "greedy" => Strategy::Greedy,
                    "random" => Strategy::Random { seed: 0 },
                    other => return Err(format!("unknown strategy '{other}'")),
                }
            }
            "--hop-limit" => opts.hop_limit = Some(parsed(value(&mut it, arg)?, "hop limit")?),
            "--eval-mode" => opts.eval_mode = value(&mut it, arg)?.parse()?,
            "--samples" => opts.samples = parsed(value(&mut it, arg)?, "sample count")?,
            "--seed" => opts.seed = parsed(value(&mut it, arg)?, "seed")?,
            "--threads" => opts.threads = parsed(value(&mut it, arg)?, "thread count")?,
            "--trace-out" => opts.trace_out = Some(value(&mut it, arg)?.clone()),
            "--stats" => opts.stats = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            path => {
                if opts.program_path.is_empty() {
                    opts.program_path = path.to_string();
                } else {
                    return Err(format!("unexpected argument '{path}'"));
                }
            }
        }
    }
    if opts.program_path.is_empty() {
        return Err("no program file given\n\n".to_string() + USAGE);
    }
    if let Strategy::Random { seed } = &mut opts.strategy {
        *seed = opts.seed;
    }
    Ok(opts)
}

/// The value after `flag`.
fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
}

/// `v` parsed as a `what`.
fn parsed<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {what} '{v}'"))
}

fn mc_config(opts: &Options) -> McConfig {
    McConfig {
        samples: opts.samples,
        seed: opts.seed,
    }
}

fn prob_method(opts: &Options) -> Result<ProbMethod, String> {
    let name = opts.prob.as_deref().unwrap_or("exact");
    ProbMethod::parse(name, mc_config(opts), opts.threads)
}

fn run(opts: &Options) -> Result<(), String> {
    if opts.trace_out.is_some() {
        // Enable before loading the program so engine/provenance spans
        // from the initial evaluation land in the trace too.
        p3::obs::span::set_enabled(true);
    }
    let source = std::fs::read_to_string(&opts.program_path)
        .map_err(|e| format!("cannot read {}: {e}", opts.program_path))?;
    let system = P3::from_source(&source).map_err(|e| e.to_string())?;
    let extract = match opts.hop_limit {
        Some(limit) => ExtractOptions::with_max_depth(limit),
        None => ExtractOptions::unbounded(),
    };
    let method = prob_method(opts)?;

    if opts.stats {
        let graph = system.graph();
        println!("clauses:            {}", system.program().len());
        println!("tuples derived:     {}", system.database().len());
        println!("provenance tuples:  {}", graph.num_tuples());
        println!("rule executions:    {}", graph.num_execs());
        println!("provenance edges:   {}", graph.num_edges());
    }

    let Some(query) = &opts.query else {
        if !opts.stats {
            return Err("nothing to do: pass --query or --stats".to_string());
        }
        return Ok(());
    };

    // The session resolves --eval-mode against the program and, in demand
    // mode, magic-transforms per query instead of forcing the whole model;
    // `run` answers every class below from the query's one polynomial.
    let session = system.session_with(SessionOptions {
        eval_mode: opts.eval_mode,
        ..Default::default()
    });
    let run = |class: QueryClass| match session.run(query, &class, extract) {
        (Ok(answer), report) => Ok((answer, report)),
        (Err(e), _) => Err(e.to_string()),
    };
    if let (QueryAnswer::Probability(p), report) = run(QueryClass::Probability(method))? {
        println!(
            "P[{query}] = {p:.6}   ({} derivations)",
            report.dnf_monomials
        );
    }

    if opts.explain || opts.dot.is_some() {
        if let (QueryAnswer::Explanation(explanation), _) = run(QueryClass::Explanation(method))? {
            if opts.explain {
                println!("\nderivations:\n{}", explanation.text);
                println!(
                    "polynomial: {}",
                    system.render_polynomial(&explanation.polynomial)
                );
            }
            if let Some(path) = &opts.dot {
                std::fs::write(path, &explanation.dot)
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("provenance graph written to {path}");
            }
        }
    }

    if let Some(eps) = opts.derivation {
        let algo = opts.algo;
        if let (QueryAnswer::Derivation(suff), _) =
            run(QueryClass::Derivation { eps, algo, method })?
        {
            println!(
                "\nsufficient provenance (eps = {eps}): kept {}/{} derivations, P = {:.6} \
                 (error {:.6})",
                suff.polynomial.len(),
                suff.original_len,
                suff.probability,
                suff.error
            );
            println!("λS = {}", system.render_polynomial(&suff.polynomial));
        }
    }

    let facts_filter = || -> Vec<p3::prob::VarId> {
        system
            .program()
            .iter()
            .filter(|(_, c)| c.is_fact())
            .map(|(id, _)| p3::provenance::vars::var_of(id))
            .collect()
    };

    if let Some(k) = opts.influence {
        let class = QueryClass::Influence(InfluenceOptions {
            method: InfluenceMethod::Mc(mc_config(opts)),
            top_k: Some(k),
            restrict_to: opts.facts_only.then(facts_filter),
            ..Default::default()
        });
        if let (QueryAnswer::Influence(ranked), _) = run(class)? {
            println!("\ntop-{k} influential clauses:");
            for (i, e) in ranked.iter().enumerate() {
                let clause = system
                    .program()
                    .clause(p3::provenance::vars::clause_of(e.var));
                println!(
                    "  {:>2}. {:<12} {}  influence = {:.4}",
                    i + 1,
                    system.vars().name(e.var),
                    clause.head.display(system.program().symbols()),
                    e.influence
                );
            }
        }
    }

    if let Some(target) = opts.modify {
        let search = ModificationOptions {
            modifiable: opts.facts_only.then(facts_filter),
            strategy: opts.strategy,
            ..Default::default()
        };
        if let (QueryAnswer::Modification(plan), _) = run(QueryClass::Modification {
            target,
            opts: search,
        })? {
            println!("\nmodification plan (target P = {target}):");
            for (i, s) in plan.steps.iter().enumerate() {
                println!(
                    "  step {}: {} {:.4} -> {:.4}   (P = {:.4})",
                    i + 1,
                    system.vars().name(s.var),
                    s.from,
                    s.to,
                    s.resulting_probability
                );
            }
            println!(
                "  total cost = {:.4}; achieved P = {:.4}; reached target: {}",
                plan.total_cost, plan.achieved_probability, plan.reached_target
            );
        }
    }

    if let Some(path) = &opts.trace_out {
        let json = p3::obs::span::chrome_trace_json();
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace written to {path} (open in chrome://tracing)");
    }
    Ok(())
}

/// Options for the `p3 explain` subcommand.
#[derive(Debug)]
struct ExplainOptions {
    program_path: String,
    query: String,
    eval_mode: EvalMode,
    json: bool,
    folded: bool,
}

fn parse_explain_args(args: &[String]) -> Result<ExplainOptions, String> {
    let mut opts = ExplainOptions {
        program_path: String::new(),
        query: String::new(),
        eval_mode: EvalMode::Auto,
        json: false,
        folded: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--query" => opts.query = value(&mut it, arg)?.clone(),
            "--eval-mode" => opts.eval_mode = value(&mut it, arg)?.parse()?,
            "--json" => opts.json = true,
            "--folded" => opts.folded = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            path if opts.program_path.is_empty() => opts.program_path = path.to_string(),
            path => return Err(format!("unexpected argument '{path}'")),
        }
    }
    if opts.program_path.is_empty() {
        return Err("p3 explain: no program file given\n\n".to_string() + USAGE);
    }
    if opts.query.is_empty() {
        return Err("p3 explain: --query is required\n\n".to_string() + USAGE);
    }
    if opts.json && opts.folded {
        return Err("p3 explain: --json and --folded are mutually exclusive".to_string());
    }
    Ok(opts)
}

fn run_explain(opts: &ExplainOptions) -> Result<String, String> {
    let source = std::fs::read_to_string(&opts.program_path)
        .map_err(|e| format!("cannot read {}: {e}", opts.program_path))?;
    let system = P3::from_source(&source).map_err(|e| e.to_string())?;
    let session = system.session_with(SessionOptions {
        eval_mode: opts.eval_mode,
        ..Default::default()
    });
    let explained = session.explain(&opts.query).0.map_err(|e| e.to_string())?;
    if opts.json {
        Ok(explained.to_value().to_json() + "\n")
    } else if opts.folded {
        Ok(explained.to_folded())
    } else {
        Ok(explained.render_text())
    }
}

/// Options for the `p3 analyze` subcommand.
#[derive(Debug)]
struct AnalyzeOptions {
    program_path: String,
    query: Option<String>,
    eval_mode: EvalMode,
    json: bool,
    calibrate: bool,
}

fn parse_analyze_args(args: &[String]) -> Result<AnalyzeOptions, String> {
    let mut opts = AnalyzeOptions {
        program_path: String::new(),
        query: None,
        eval_mode: EvalMode::Auto,
        json: false,
        calibrate: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--query" => opts.query = Some(value(&mut it, arg)?.clone()),
            "--eval-mode" => opts.eval_mode = value(&mut it, arg)?.parse()?,
            "--json" => opts.json = true,
            "--calibrate" => opts.calibrate = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            path if opts.program_path.is_empty() => opts.program_path = path.to_string(),
            path => return Err(format!("unexpected argument '{path}'")),
        }
    }
    if opts.program_path.is_empty() {
        return Err("p3 analyze: no program file given\n\n".to_string() + USAGE);
    }
    if opts.calibrate && opts.query.is_none() {
        return Err("p3 analyze: --calibrate requires --query".to_string());
    }
    Ok(opts)
}

fn run_analyze(opts: &AnalyzeOptions) -> Result<String, String> {
    let source = std::fs::read_to_string(&opts.program_path)
        .map_err(|e| format!("cannot read {}: {e}", opts.program_path))?;
    let system = P3::from_source(&source).map_err(|e| e.to_string())?;
    let session = system.session_with(SessionOptions {
        eval_mode: opts.eval_mode,
        ..Default::default()
    });
    let plan = session.analyze(opts.query.as_deref());
    if let Some(q) = opts.query.as_deref() {
        if plan.query.is_none() {
            return Err(format!(
                "p3 analyze: bad query '{q}': not an atom over a program predicate"
            ));
        }
    }
    if !opts.calibrate {
        return Ok(if opts.json {
            plan.to_value().to_json() + "\n"
        } else {
            plan.render_text()
        });
    }

    // --calibrate: run the query the normal way and line the measured
    // rule costs up against the prediction.
    let query = opts.query.as_deref().expect("checked in parse");
    let explained = session.explain(query).0.map_err(|e| e.to_string())?;
    let predicted: Vec<(String, u64)> = plan
        .rules
        .iter()
        .map(|r| (r.label.clone(), r.cost()))
        .collect();
    let measured: Vec<(String, u64)> = explained
        .plan
        .rules
        .iter()
        .map(|r| (r.label.clone(), r.cost()))
        .collect();
    let correlation = p3::core::rank_correlation(&predicted, &measured);
    let top_of = |costs: &[(String, u64)]| -> Option<String> {
        costs
            .iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|(l, _)| l.clone())
    };
    let top_predicted = top_of(&predicted);
    let top_measured = top_of(
        &measured
            .iter()
            .filter(|(_, c)| *c > 0)
            .cloned()
            .collect::<Vec<_>>(),
    )
    .or(top_of(&measured));
    let top_match = top_predicted.is_some() && top_predicted == top_measured;

    if opts.json {
        let top = |label: &Option<String>| Value::from(label.as_deref().unwrap_or("-"));
        let calibration = Value::object(vec![
            ("query", query.into()),
            ("eval_mode", session.eval_mode().as_str().into()),
            ("correlation", correlation.into()),
            ("top_predicted", top(&top_predicted)),
            ("top_measured", top(&top_measured)),
            ("top_match", top_match.into()),
        ]);
        let out = Value::object(vec![
            ("analyze", plan.to_value()),
            ("calibration", calibration),
        ]);
        return Ok(out.to_json() + "\n");
    }

    let mut out = plan.render_text();
    let measured_of: std::collections::HashMap<&str, u64> =
        measured.iter().map(|(l, c)| (l.as_str(), *c)).collect();
    out.push_str(&format!(
        "calibrate: {} [{} mode]\n  rule    predicted    measured\n",
        query,
        session.eval_mode().as_str()
    ));
    for (label, predicted_cost) in &predicted {
        let shown = measured_of
            .get(label.as_str())
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!("  {label:<6}  {predicted_cost:<11}  {shown}\n"));
    }
    out.push_str(&format!(
        "  rank correlation {:.2}, top rule match: {} (predicted {}, measured {})\n",
        correlation,
        if top_match { "yes" } else { "NO" },
        top_predicted.as_deref().unwrap_or("-"),
        top_measured.as_deref().unwrap_or("-"),
    ));
    Ok(out)
}

/// Options for the `p3 lint` subcommand.
#[derive(Debug, PartialEq)]
struct LintOptions {
    paths: Vec<String>,
    json: bool,
    workloads: usize,
}

fn parse_lint_args(args: &[String]) -> Result<LintOptions, String> {
    let mut opts = LintOptions {
        paths: Vec::new(),
        json: false,
        workloads: 0,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--json" => opts.json = true,
            "--workloads" => opts.workloads = parsed(value(&mut it, arg)?, "workload count")?,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            path => opts.paths.push(path.to_string()),
        }
    }
    if opts.paths.is_empty() && opts.workloads == 0 {
        return Err("p3 lint: no programs given\n\n".to_string() + USAGE);
    }
    Ok(opts)
}

/// Lints one named source, printing findings; returns whether it is free of
/// error-severity findings.
fn lint_one(name: &str, src: &str, json: bool, out: &mut String) -> bool {
    let report = p3::lint::lint_source(src);
    if json {
        let line = Value::object(vec![
            ("file", name.into()),
            ("clean", report.is_clean().into()),
            ("findings", report.to_value()),
        ]);
        out.push_str(&format!("{line}\n"));
    } else if report.diagnostics.is_empty() {
        out.push_str(&format!("{name}: clean\n"));
    } else {
        out.push_str(&format!("{name}: {}\n", report.summary_line()));
        out.push_str(&report.render(Some(src), Some(name)));
    }
    report.is_clean()
}

fn run_lint(opts: &LintOptions) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut all_clean = true;
    for path in &opts.paths {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        all_clean &= lint_one(path, &src, opts.json, &mut out);
    }
    for seed in 0..opts.workloads as u64 {
        let program = p3::workloads::random_programs::generate(
            p3::workloads::random_programs::RandomConfig {
                seed,
                ..Default::default()
            },
        );
        let src = program.source().unwrap_or("").to_string();
        all_clean &= lint_one(&format!("workload(seed={seed})"), &src, opts.json, &mut out);
    }
    Ok((out, all_clean))
}

/// Options for the `p3 audit` subcommand.
#[derive(Debug, PartialEq)]
struct AuditOptions {
    dir: String,
    json: bool,
    top: Option<usize>,
    by: AuditKey,
}

fn parse_audit_args(args: &[String]) -> Result<AuditOptions, String> {
    let mut opts = AuditOptions {
        dir: String::new(),
        json: false,
        top: None,
        by: AuditKey::Latency,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--json" => opts.json = true,
            "--top" => opts.top = Some(parsed(value(&mut it, arg)?, "--top value")?),
            "--by" => {
                let v = value(&mut it, arg)?;
                opts.by = AuditKey::parse(v).map_err(|_| {
                    format!("unknown --by key '{v}' (expected {})", AuditKey::EXPECTED)
                })?;
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            path if opts.dir.is_empty() => opts.dir = path.to_string(),
            path => return Err(format!("unexpected argument '{path}'")),
        }
    }
    if opts.dir.is_empty() {
        return Err("p3 audit: no directory given\n\n".to_string() + USAGE);
    }
    Ok(opts)
}

fn run_audit(opts: &AuditOptions) -> Result<(String, bool), String> {
    let (mut records, dirty) = p3::audit::read_dir(std::path::Path::new(&opts.dir))
        .map_err(|e| format!("cannot read audit dir {}: {e}", opts.dir))?;
    if let Some(n) = opts.top {
        records.sort_by_key(|r| std::cmp::Reverse(opts.by.key(r)));
        records.truncate(n);
    }
    let mut out = String::new();
    if opts.json {
        for r in &records {
            out.push_str(&format!("{}\n", r.to_value()));
        }
    } else {
        for r in &records {
            out.push_str(&format!(
                "{:>13}  {:<12} {:<11} {:>9} us  tuples={:<6} dnf={}x{}  trace={}\n",
                r.ts_ms,
                r.class,
                r.outcome.label(),
                r.total_us,
                r.derived_tuples,
                r.dnf_monomials,
                r.dnf_literals,
                // Trace ids are client-supplied; escape before terminal output.
                Value::from(r.trace.as_str()),
            ));
        }
        out.push_str(&format!(
            "{} record(s); {} segment(s) with dirty tails\n",
            records.len(),
            dirty
        ));
    }
    Ok((out, dirty == 0))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    // Each command parses its arguments (a usage error), then runs (an
    // error), giving its output and whether it exits successfully.
    let outcome = match args.first().map(String::as_str) {
        Some("explain") => parse_explain_args(rest).map(|o| run_explain(&o).map(|out| (out, true))),
        Some("analyze") => parse_analyze_args(rest).map(|o| run_analyze(&o).map(|out| (out, true))),
        Some("audit") => parse_audit_args(rest).map(|o| run_audit(&o)),
        Some("lint") => parse_lint_args(rest).map(|o| run_lint(&o)),
        _ => parse_args(&args).map(|o| run(&o).map(|()| (String::new(), true))),
    };
    match outcome {
        Err(usage) => eprintln!("{usage}"),
        Ok(Err(msg)) => eprintln!("error: {msg}"),
        Ok(Ok((out, success))) => {
            print!("{out}");
            if success {
                return ExitCode::SUCCESS;
            }
        }
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let opts = parse_args(&args(&[
            "prog.pl",
            "--query",
            "p(a)",
            "--explain",
            "--prob",
            "mc",
            "--samples",
            "5000",
            "--influence",
            "3",
            "--modify",
            "0.5",
            "--facts-only",
            "--hop-limit",
            "4",
            "--eval-mode",
            "naive",
        ]))
        .unwrap();
        assert_eq!(opts.program_path, "prog.pl");
        assert_eq!(opts.query.as_deref(), Some("p(a)"));
        assert!(opts.explain);
        assert_eq!(opts.prob.as_deref(), Some("mc"));
        assert_eq!(opts.samples, 5000);
        assert_eq!(opts.influence, Some(3));
        assert_eq!(opts.modify, Some(0.5));
        assert!(opts.facts_only);
        assert_eq!(opts.hop_limit, Some(4));
        assert_eq!(opts.eval_mode, EvalMode::Naive);
    }

    #[test]
    fn eval_mode_defaults_to_auto_and_rejects_junk() {
        let opts = parse_args(&args(&["p.pl"])).unwrap();
        assert_eq!(opts.eval_mode, EvalMode::Auto);
        let opts = parse_args(&args(&["p.pl", "--eval-mode", "demand"])).unwrap();
        assert_eq!(opts.eval_mode, EvalMode::Demand);
        let err = parse_args(&args(&["p.pl", "--eval-mode", "magic"])).unwrap_err();
        assert!(err.contains("unknown eval mode"), "{err}");
    }

    #[test]
    fn run_answers_in_every_eval_mode() {
        let dir = std::env::temp_dir().join("p3_cli_eval_mode_test");
        std::fs::create_dir_all(&dir).unwrap();
        let program = dir.join("trust.pl");
        std::fs::write(
            &program,
            "r1 1.0: trustPath(P1,P2) :- trust(P1,P2).
             r2 1.0: trustPath(P1,P3) :- trust(P1,P2), trustPath(P2,P3), P1 != P3.
             t1 0.9: trust(1,2).
             t2 0.8: trust(2,3).",
        )
        .unwrap();
        for mode in ["auto", "naive", "demand"] {
            let opts = parse_args(&args(&[
                program.to_str().unwrap(),
                "--query",
                "trustPath(1,3)",
                "--eval-mode",
                mode,
            ]))
            .unwrap();
            run(&opts).unwrap_or_else(|e| panic!("{mode}: {e}"));
        }
    }

    #[test]
    fn influence_defaults_to_ten() {
        let opts = parse_args(&args(&["p.pl", "--influence", "--explain"])).unwrap();
        assert_eq!(opts.influence, Some(10));
        assert!(opts.explain);
    }

    #[test]
    fn missing_program_is_an_error() {
        assert!(parse_args(&args(&["--query", "p(a)"])).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse_args(&args(&["p.pl", "--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown option"));
    }

    #[test]
    fn run_executes_all_queries_end_to_end() {
        let dir = std::env::temp_dir().join("p3_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let program = dir.join("acq.pl");
        std::fs::write(
            &program,
            r#"r1 0.8: know(P1,P2) :- live(P1,C), live(P2,C), P1 != P2.
               t1 1.0: live("Steve","DC").
               t2 1.0: live("Elena","DC")."#,
        )
        .unwrap();
        let dot = dir.join("out.dot");
        let opts = parse_args(&args(&[
            program.to_str().unwrap(),
            "--query",
            r#"know("Steve","Elena")"#,
            "--explain",
            "--stats",
            "--derivation",
            "0.01",
            "--influence",
            "3",
            "--modify",
            "0.9",
            "--dot",
            dot.to_str().unwrap(),
            "--samples",
            "20000",
        ]))
        .unwrap();
        run(&opts).unwrap();
        let rendered = std::fs::read_to_string(&dot).unwrap();
        assert!(rendered.starts_with("digraph"));
    }

    #[test]
    fn trace_out_writes_chrome_trace_json() {
        let dir = std::env::temp_dir().join("p3_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let program = dir.join("t.pl");
        std::fs::write(
            &program,
            r#"r1 0.8: know(P1,P2) :- live(P1,C), live(P2,C), P1 != P2.
               t1 1.0: live("Steve","DC").
               t2 1.0: live("Elena","DC")."#,
        )
        .unwrap();
        let trace = dir.join("trace.json");
        let opts = parse_args(&args(&[
            program.to_str().unwrap(),
            "--query",
            r#"know("Steve","Elena")"#,
            "--trace-out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        run(&opts).unwrap();
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.starts_with(r#"{"traceEvents":["#), "{json}");
        assert!(json.contains(r#""name":"datalog.run""#), "{json}");
    }

    #[test]
    fn run_reports_missing_file() {
        let opts = parse_args(&args(&["/definitely/not/a/file.pl", "--stats"])).unwrap();
        let err = run(&opts).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn lint_args_parse_flags_and_paths() {
        let opts = parse_lint_args(&args(&["a.pl", "b.pl", "--json", "--workloads", "3"])).unwrap();
        assert_eq!(opts.paths, vec!["a.pl", "b.pl"]);
        assert!(opts.json);
        assert_eq!(opts.workloads, 3);
        assert!(parse_lint_args(&args(&[])).is_err());
        assert!(parse_lint_args(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn lint_reports_findings_and_exit_status() {
        let dir = std::env::temp_dir().join("p3_cli_lint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.pl");
        std::fs::write(&bad, "f(X).\n").unwrap();
        let good = dir.join("good.pl");
        std::fs::write(&good, "t1 0.5: p(a).\nr1 0.9: q(X) :- p(X).\n").unwrap();

        let opts = parse_lint_args(&args(&[bad.to_str().unwrap()])).unwrap();
        let (out, clean) = run_lint(&opts).unwrap();
        assert!(!clean);
        assert!(out.contains("error[P3102]"), "{out}");
        assert!(out.contains("bad.pl:1:"), "{out}");

        let opts = parse_lint_args(&args(&[good.to_str().unwrap()])).unwrap();
        let (out, clean) = run_lint(&opts).unwrap();
        assert!(clean, "{out}");
        assert!(out.contains("clean"), "{out}");

        let opts = parse_lint_args(&args(&[bad.to_str().unwrap(), "--json"])).unwrap();
        let (out, clean) = run_lint(&opts).unwrap();
        assert!(!clean);
        assert!(out.contains("\"clean\":false"), "{out}");
        assert!(out.contains("\"code\":\"P3102\""), "{out}");
    }

    #[test]
    fn lint_json_escapes_control_characters_in_file_names() {
        let dir = std::env::temp_dir().join("p3_cli_lint_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ctl\x01name.pl");
        std::fs::write(&path, "t1 0.5: p(a).\n").unwrap();
        let opts = parse_lint_args(&args(&[path.to_str().unwrap(), "--json"])).unwrap();
        let (out, clean) = run_lint(&opts).unwrap();
        assert!(clean, "{out}");
        assert!(out.contains("ctl\\u0001name.pl"), "{out}");
    }

    #[test]
    fn lint_covers_generated_workloads() {
        let opts = parse_lint_args(&args(&["--workloads", "3"])).unwrap();
        let (out, clean) = run_lint(&opts).unwrap();
        assert!(clean, "generated workloads must lint clean:\n{out}");
        assert!(out.contains("workload(seed=0)"), "{out}");
    }

    #[test]
    fn explain_args_parse_and_validate() {
        let opts = parse_explain_args(&args(&["p.pl", "--query", "p(a)", "--eval-mode", "naive"]))
            .unwrap();
        assert_eq!(opts.program_path, "p.pl");
        assert_eq!(opts.query, "p(a)");
        assert_eq!(opts.eval_mode, EvalMode::Naive);
        assert!(!opts.json && !opts.folded);
        assert!(
            parse_explain_args(&args(&["p.pl"])).is_err(),
            "query required"
        );
        assert!(parse_explain_args(&args(&["--query", "p(a)"])).is_err());
        let err = parse_explain_args(&args(&["p.pl", "--query", "p(a)", "--json", "--folded"]))
            .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn explain_ranks_the_recursive_trust_rule_first_in_both_modes() {
        let dir = std::env::temp_dir().join("p3_cli_explain_test");
        std::fs::create_dir_all(&dir).unwrap();
        let program = dir.join("trust.pl");
        std::fs::write(
            &program,
            "r1 1.0: trustPath(P1,P2) :- trust(P1,P2).
             r2 1.0: trustPath(P1,P3) :- trust(P1,P2), trustPath(P2,P3), P1 != P3.
             t1 0.9: trust(1,2).
             t2 0.8: trust(2,3).
             t3 0.8: trust(3,4).
             t4 0.7: trust(4,5).
             t5 0.9: trust(5,6).",
        )
        .unwrap();
        for mode in ["naive", "demand"] {
            let opts = parse_explain_args(&args(&[
                program.to_str().unwrap(),
                "--query",
                "trustPath(1,6)",
                "--eval-mode",
                mode,
            ]))
            .unwrap();
            let out = run_explain(&opts).unwrap();
            // The recursive closure rule r2 does the join work; it must
            // lead the ranked rule table (rank 1) in both eval modes.
            let rank1 = out
                .lines()
                .find(|l| l.trim_start().starts_with("1 "))
                .unwrap_or_else(|| panic!("{mode}: no rank-1 row in:\n{out}"));
            assert!(rank1.contains("r2"), "{mode}: {rank1}\n{out}");
            assert!(rank1.contains("recursive"), "{mode}: {rank1}");
            // JSON and folded renderings agree on the leader.
            let json_opts = parse_explain_args(&args(&[
                program.to_str().unwrap(),
                "--query",
                "trustPath(1,6)",
                "--eval-mode",
                mode,
                "--json",
            ]))
            .unwrap();
            let json = run_explain(&json_opts).unwrap();
            assert!(json.contains("\"rule\":\"r2\""), "{mode}: {json}");
            let folded_opts = parse_explain_args(&args(&[
                program.to_str().unwrap(),
                "--query",
                "trustPath(1,6)",
                "--eval-mode",
                mode,
                "--folded",
            ]))
            .unwrap();
            let folded = run_explain(&folded_opts).unwrap();
            assert!(
                folded
                    .lines()
                    .any(|l| l.starts_with(&format!("p3;{mode};r2 "))),
                "{mode}: {folded}"
            );
        }
    }

    #[test]
    fn audit_args_parse_flags_and_reject_bad_keys() {
        let opts =
            parse_audit_args(&args(&["/tmp/a", "--json", "--top", "5", "--by", "tuples"])).unwrap();
        assert_eq!(opts.dir, "/tmp/a");
        assert!(opts.json);
        assert_eq!(opts.top, Some(5));
        assert_eq!(opts.by, AuditKey::Tuples);
        assert!(parse_audit_args(&args(&[])).is_err());
        let err = parse_audit_args(&args(&["/tmp/a", "--by", "bogus"])).unwrap_err();
        assert!(err.contains("unknown --by key"), "{err}");
    }

    #[test]
    fn audit_reads_a_log_dir_offline() {
        let dir = std::env::temp_dir().join("p3_cli_audit_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let log = p3::audit::AuditLog::open(p3::audit::AuditConfig::new(&dir)).unwrap();
        for (class, total_us) in [("probability", 900u64), ("explanation", 40)] {
            log.append(p3::audit::AuditRecord {
                class: class.to_string(),
                total_us,
                ..Default::default()
            })
            .unwrap();
        }
        drop(log);

        let opts = parse_audit_args(&args(&[dir.to_str().unwrap()])).unwrap();
        let (out, clean) = run_audit(&opts).unwrap();
        assert!(clean, "{out}");
        assert!(out.contains("2 record(s)"), "{out}");
        assert!(out.contains("probability"), "{out}");

        // --top 1 --by latency keeps only the slow probability record.
        let opts =
            parse_audit_args(&args(&[dir.to_str().unwrap(), "--json", "--top", "1"])).unwrap();
        let (out, _) = run_audit(&opts).unwrap();
        assert_eq!(out.lines().count(), 1, "{out}");
        assert!(out.contains("\"class\":\"probability\""), "{out}");
    }

    #[test]
    fn prob_method_parses_all_variants() {
        for (name, want_exact) in [
            ("exact", true),
            ("bdd", false),
            ("mc", false),
            ("kl", false),
            ("pmc", false),
        ] {
            let opts = parse_args(&args(&["p.pl", "--prob", name])).unwrap();
            let m = prob_method(&opts).unwrap();
            assert_eq!(matches!(m, ProbMethod::Exact), want_exact, "{name}");
        }
        let opts = parse_args(&args(&["p.pl", "--prob", "nope"])).unwrap();
        assert!(prob_method(&opts).is_err());
    }

    #[test]
    fn random_strategy_takes_the_seed_in_either_flag_order() {
        for line in [
            ["p.pl", "--strategy", "random", "--seed", "9"],
            ["p.pl", "--seed", "9", "--strategy", "random"],
        ] {
            let opts = parse_args(&args(&line)).unwrap();
            assert_eq!(opts.strategy, Strategy::Random { seed: 9 }, "{line:?}");
        }
        let opts = parse_args(&args(&["p.pl", "--strategy", "greedy", "--seed", "9"])).unwrap();
        assert_eq!(opts.strategy, Strategy::Greedy);
    }
}
