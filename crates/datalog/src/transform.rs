//! Magic-sets / demand transformation: query-directed evaluation.
//!
//! Bottom-up evaluation computes the *entire* least model, yet a provenance
//! query for one ground atom only ever inspects the derivations reachable
//! from that atom. The classic magic-sets transformation specialises the
//! program to a query: predicates are *adorned* with the query's bound/free
//! pattern, a *magic* (demand) predicate per adornment records which bindings
//! are actually needed, and every rule is guarded so it fires only for
//! demanded bindings. Sideways information passing (SIP) is left-to-right,
//! matching the engine's join order.
//!
//! For a ground query `q(c1,…,cn)` the transformed program contains
//!
//! 1. every **fact** of the source program — not as clauses of its own:
//!    it evaluates over the source's shared
//!    [`FactBase`](crate::engine::FactBase), which
//!    [`Program::fact_base`] interns once per program, on the first
//!    transform, with the tuple ids `0..F` and the indexes every guarded
//!    variant probes (the EDB is never restricted — base tuples are cheap,
//!    derivations are not),
//! 2. one **guarded variant** `h :- __magic_h_a(bound…), body…` per
//!    (rule, head-adornment) pair reachable from the query,
//! 3. **magic rules** propagating demand through rule bodies: for the j-th
//!    IDB body atom, `__magic_bj_aj(bound…) :- guard, b1,…,b(j-1)` plus any
//!    constraint already bound within that prefix, and
//! 4. the **seed fact** `__magic_q_bb…b(c1,…,cn).`, its only fact clause
//!    (tuple id `F` in the run).
//!
//! So a transform clones and validates only the rules it emits; no fact
//! clause is copied and no base tuple is inserted or indexed per query.
//!
//! The least model of the transformed program, restricted to source
//! predicates, contains exactly the source tuples whose derivations are
//! relevant to the query — and every firing of a guarded variant projects
//! (drop the guard) onto a firing of the source rule, which is how
//! provenance capture maps demand-mode derivations back to the source
//! program (see `p3-provenance`'s demand module).
//!
//! Negation is not supported (demand transformation can break
//! stratification); callers fall back to naive evaluation.

use crate::ast::{Atom, Clause, ClauseId, ClauseKind, Const, Term};
use crate::program::{Program, ProgramError};
use crate::symbol::Symbol;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// A bound/free pattern over one predicate's argument positions
/// (`true` = bound).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Adornment(Vec<bool>);

impl Adornment {
    /// The all-bound adornment of the given arity (a ground query).
    pub fn all_bound(arity: usize) -> Self {
        Adornment(vec![true; arity])
    }

    /// The adornment of `atom` given the set of already-bound variables:
    /// a position is bound when its term is a constant or a bound variable.
    pub fn of_atom(atom: &Atom, bound: &HashSet<Symbol>) -> Self {
        Adornment(
            atom.args
                .iter()
                .map(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
                .collect(),
        )
    }

    /// Bound argument positions, ascending.
    pub fn bound_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
    }

    /// Number of bound positions.
    pub fn num_bound(&self) -> usize {
        self.0.iter().filter(|&&b| b).count()
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.0 {
            f.write_str(if b { "b" } else { "f" })?;
        }
        Ok(())
    }
}

/// Counters describing one transformation.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct TransformStats {
    /// Distinct (predicate, adornment) pairs reached from the query.
    pub adornments: usize,
    /// Guarded rule variants emitted.
    pub variants: usize,
    /// Magic (demand-propagation) rules emitted.
    pub magic_rules: usize,
}

/// A magic-transformed program plus the bookkeeping needed to map its
/// derivations back onto the source program.
pub struct DemandProgram {
    /// The transformed, validated program: the seed and the rules, over
    /// the source's fact base ([`Program::over_base`]).
    pub program: Program,
    /// Per transformed clause: the source clause it came from (`None` for
    /// magic rules and the seed fact).
    orig_of: Vec<Option<ClauseId>>,
    /// The magic predicates introduced by the transformation.
    magic_preds: HashSet<Symbol>,
    /// Transformation counters.
    pub stats: TransformStats,
}

impl DemandProgram {
    /// Maps a transformed clause id back to its source clause, or `None`
    /// for transformation-internal clauses (magic rules, seed).
    pub fn original_clause(&self, id: ClauseId) -> Option<ClauseId> {
        self.orig_of.get(id.index()).copied().flatten()
    }

    /// Whether `pred` is a magic predicate introduced by the transformation.
    pub fn is_magic(&self, pred: Symbol) -> bool {
        self.magic_preds.contains(&pred)
    }
}

/// Why a program cannot be demand-transformed.
#[derive(Debug)]
pub enum TransformError {
    /// The program uses negation; the transformation could break
    /// stratification, so callers must evaluate naively.
    Negation,
    /// The query predicate's arity disagrees with the program.
    QueryArity {
        /// Arity declared by the program.
        expected: usize,
        /// Arity of the query atom.
        found: usize,
    },
    /// A predicate of the program has the name of a magic predicate the
    /// transformation introduces. The parser reads `_`-names as
    /// variables, so only a programmatically built program can have one.
    MagicName(String),
    /// Rebuilding the transformed program failed validation.
    Program(ProgramError),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::Negation => {
                write!(f, "demand transformation does not support negation")
            }
            TransformError::QueryArity { expected, found } => write!(
                f,
                "query arity {found} does not match program arity {expected}"
            ),
            TransformError::MagicName(name) => write!(
                f,
                "predicate '{name}' collides with a demand-transformation predicate"
            ),
            TransformError::Program(e) => {
                write!(f, "transformation produced an invalid program: {e}")
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// Source rules grouped by head predicate, in clause order. Its keys are
/// the IDB predicates.
fn rules_by_head(program: &Program) -> HashMap<Symbol, Vec<ClauseId>> {
    let mut rules: HashMap<Symbol, Vec<ClauseId>> = HashMap::new();
    for (id, clause) in program.iter() {
        if clause.is_rule() {
            rules.entry(clause.head.pred).or_default().push(id);
        }
    }
    rules
}

/// The worklist over demanded (predicate, adornment) pairs: each pair is
/// queued once, and pairs are visited in the order first demanded.
#[derive(Default)]
struct Demanded {
    seen: HashSet<(Symbol, Adornment)>,
    work: VecDeque<(Symbol, Adornment)>,
}

impl Demanded {
    fn demand(&mut self, pred: Symbol, adornment: Adornment) {
        if self.seen.insert((pred, adornment.clone())) {
            self.work.push_back((pred, adornment));
        }
    }
}

/// Every (predicate, columns) index a guarded variant can probe on a
/// predicate `program` has facts for, over the transforms of all ground
/// queries: the bound columns of each body atom over such a predicate, in
/// each (rule, adornment) pair demanded from an IDB predicate queried
/// all-bound. A magic rule probes a prefix of its variant's body under the
/// same bindings, so it adds none. The shared [`crate::engine::FactBase`]
/// registers these once, so no demand run indexes a base tuple.
pub(crate) fn base_index_specs(program: &Program) -> BTreeSet<(Symbol, Box<[usize]>)> {
    let rules_by_head = rules_by_head(program);
    let with_facts: HashSet<Symbol> = program
        .iter()
        .filter(|(_, c)| c.is_fact())
        .map(|(_, c)| c.head.pred)
        .collect();
    let mut demanded = Demanded::default();
    for (&pred, rules) in &rules_by_head {
        let arity = program.clause(rules[0]).head.args.len();
        demanded.demand(pred, Adornment::all_bound(arity));
    }
    let mut specs = BTreeSet::new();
    while let Some((pred, adornment)) = demanded.work.pop_front() {
        for &rule_id in &rules_by_head[&pred] {
            let clause = program.clause(rule_id);
            let mut bound: HashSet<Symbol> = adornment
                .bound_positions()
                .filter_map(|i| clause.head.args[i].as_var())
                .collect();
            for atom in clause.body() {
                let at = Adornment::of_atom(atom, &bound);
                if with_facts.contains(&atom.pred) && at.num_bound() > 0 {
                    specs.insert((atom.pred, at.bound_positions().collect()));
                }
                if rules_by_head.contains_key(&atom.pred) {
                    demanded.demand(atom.pred, at);
                }
                bound.extend(atom.vars());
            }
        }
    }
    specs
}

/// Magic-transforms `program` for the ground query `query_pred(query_args)`.
///
/// The result holds the seed and the rules only; it evaluates over
/// `program`'s fact base ([`Program::fact_base`], built here on the first
/// call). `program` is a source program: a derived one's own facts are not
/// in the base it passes on.
pub fn magic_transform(
    program: &Program,
    query_pred: Symbol,
    query_args: &[Const],
) -> Result<DemandProgram, TransformError> {
    let mut span = p3_obs::span::span("datalog.transform");
    if program.has_negation() {
        return Err(TransformError::Negation);
    }
    if let Some(expected) = program.arity(query_pred) {
        if expected != query_args.len() {
            return Err(TransformError::QueryArity {
                expected,
                found: query_args.len(),
            });
        }
    }

    let mut symbols = program.symbols().clone();
    let rules_by_head = rules_by_head(program);

    let mut clauses: Vec<Clause> = Vec::new();
    let mut orig_of: Vec<Option<ClauseId>> = Vec::new();
    let mut magic_preds: HashSet<Symbol> = HashSet::new();
    let mut stats = TransformStats::default();

    let magic_sym = |pred: Symbol, a: &Adornment, symbols: &mut crate::symbol::SymbolTable| {
        let name = format!("__magic_{}_{a}", symbols.resolve(pred).to_owned());
        symbols.intern(&name)
    };

    // Seed the demand for the query itself.
    let mut demanded = Demanded::default();
    let query_adornment = Adornment::all_bound(query_args.len());
    if rules_by_head.contains_key(&query_pred) {
        let seed_pred = magic_sym(query_pred, &query_adornment, &mut symbols);
        magic_preds.insert(seed_pred);
        clauses.push(Clause {
            label: "__magic_seed".to_string(),
            prob: 1.0,
            head: Atom {
                pred: seed_pred,
                args: query_args.iter().map(|&c| Term::Const(c)).collect(),
            },
            kind: ClauseKind::Fact,
        });
        orig_of.push(None);
        demanded.demand(query_pred, query_adornment);
    }

    while let Some((pred, adornment)) = demanded.work.pop_front() {
        stats.adornments += 1;
        let guard_pred = magic_sym(pred, &adornment, &mut symbols);
        magic_preds.insert(guard_pred);
        for &rule_id in &rules_by_head[&pred] {
            let clause = program.clause(rule_id);
            let body = clause.body();
            let constraints = clause.constraints();

            // The guard carries the head's terms at bound positions; its
            // variables are exactly the head variables bound by `adornment`.
            let guard = Atom {
                pred: guard_pred,
                args: adornment
                    .bound_positions()
                    .map(|i| clause.head.args[i])
                    .collect(),
            };
            let mut bound: HashSet<Symbol> = guard.vars().collect();

            // Guarded variant: original rule, demand-restricted.
            let mut variant_body = Vec::with_capacity(body.len() + 1);
            variant_body.push(guard.clone());
            variant_body.extend(body.iter().cloned());
            clauses.push(Clause {
                label: format!("{}@{adornment}", clause.label),
                prob: clause.prob,
                head: clause.head.clone(),
                kind: ClauseKind::Rule {
                    body: variant_body,
                    negated: Vec::new(),
                    constraints: constraints.to_vec(),
                },
            });
            orig_of.push(Some(rule_id));
            stats.variants += 1;

            // Magic rules: left-to-right SIP. Demand for the j-th IDB body
            // atom is everything derivable from the guard plus the body
            // prefix before it (with prefix-ready constraints, which only
            // shrink demand to groundings that could actually fire).
            for (j, atom) in body.iter().enumerate() {
                if rules_by_head.contains_key(&atom.pred) {
                    let sub = Adornment::of_atom(atom, &bound);
                    let magic_head_pred = magic_sym(atom.pred, &sub, &mut symbols);
                    magic_preds.insert(magic_head_pred);
                    let magic_head = Atom {
                        pred: magic_head_pred,
                        args: sub.bound_positions().map(|i| atom.args[i]).collect(),
                    };
                    let mut magic_body = Vec::with_capacity(j + 1);
                    magic_body.push(guard.clone());
                    magic_body.extend(body[..j].iter().cloned());
                    let prefix_vars: HashSet<Symbol> = magic_body
                        .iter()
                        .flat_map(|a| a.vars().collect::<Vec<_>>())
                        .collect();
                    let ready_constraints: Vec<_> = constraints
                        .iter()
                        .filter(|c| c.vars().all(|v| prefix_vars.contains(&v)))
                        .cloned()
                        .collect();
                    clauses.push(Clause {
                        label: format!("__magic_{}@{adornment}_{j}", clause.label),
                        prob: 1.0,
                        head: magic_head,
                        kind: ClauseKind::Rule {
                            body: magic_body,
                            negated: Vec::new(),
                            constraints: ready_constraints,
                        },
                    });
                    orig_of.push(None);
                    stats.magic_rules += 1;
                    demanded.demand(atom.pred, sub);
                }
                bound.extend(atom.vars());
            }
        }
    }

    // The base's relations are the source's: a magic predicate must not
    // name one of them.
    if let Some(&pred) = magic_preds.iter().find(|&&p| program.arity(p).is_some()) {
        return Err(TransformError::MagicName(symbols.resolve(pred).to_string()));
    }
    let base = Arc::clone(program.fact_base());
    let program = Program::over(clauses, symbols, base).map_err(TransformError::Program)?;
    span.add_field("adornments", stats.adornments);
    span.add_field("variants", stats.variants);
    span.add_field("magic_rules", stats.magic_rules);
    Ok(DemandProgram {
        program,
        orig_of,
        magic_preds,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, NoopSink, TupleId};
    use crate::program::T;

    const TRUST: &str = "
        r1 1.0: trustPath(P1,P2) :- trust(P1,P2).
        r2 1.0: trustPath(P1,P3) :- trust(P1,P2), trustPath(P2,P3), P1 != P3.
        r3 0.8: mutualTrustPath(P1,P2) :- trustPath(P1,P2), trustPath(P2,P1).
        t1 0.9: trust(1,2).
        t2 0.9: trust(2,1).
        t3 0.65: trust(1,13).
        t4 0.75: trust(2,6).
        t5 0.7: trust(6,2).
        t6 0.6: trust(13,2).
    ";

    fn query(p: &Program, pred: &str, args: &[i64]) -> (Symbol, Vec<Const>) {
        (
            p.symbols().get(pred).unwrap(),
            args.iter().map(|&i| Const::Int(i)).collect(),
        )
    }

    #[test]
    fn adornment_display_and_positions() {
        let a = Adornment(vec![true, false, true]);
        assert_eq!(a.to_string(), "bfb");
        assert_eq!(a.bound_positions().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(a.num_bound(), 2);
        assert_eq!(Adornment::all_bound(2).to_string(), "bb");
    }

    #[test]
    fn trust_example_reaches_only_bb_adornments() {
        // mutualTrustPath(1,2)^bb demands trustPath^bb twice (r3), and r2's
        // recursive atom stays bb because trust(P1,P2) binds P2 before the
        // recursive call — the textbook same-generation shape.
        let p = Program::parse(TRUST).unwrap();
        let (pred, args) = query(&p, "mutualTrustPath", &[1, 2]);
        let dp = magic_transform(&p, pred, &args).unwrap();
        assert_eq!(dp.stats.adornments, 2, "mutualTrustPath^bb, trustPath^bb");
        assert_eq!(dp.stats.variants, 3, "one per source rule");
        assert_eq!(dp.stats.magic_rules, 3, "r3 body (2 atoms) + r2 recursion");
        assert!(dp
            .program
            .symbols()
            .get("__magic_trustPath_bb")
            .is_some_and(|s| dp.is_magic(s)));
        assert!(dp.program.clause_by_label("r2@bb").is_some());
        assert!(dp.program.clause_by_label("__magic_seed").is_some());
    }

    #[test]
    fn variant_maps_to_source_clause_and_magic_rules_do_not() {
        let p = Program::parse(TRUST).unwrap();
        let (pred, args) = query(&p, "mutualTrustPath", &[1, 2]);
        let dp = magic_transform(&p, pred, &args).unwrap();
        let r2 = p.clause_by_label("r2").unwrap();
        let variant = dp.program.clause_by_label("r2@bb").unwrap();
        assert_eq!(dp.original_clause(variant), Some(r2));
        let seed = dp.program.clause_by_label("__magic_seed").unwrap();
        assert_eq!(dp.original_clause(seed), None);
        // Facts are not copied: the base lists them under their source ids.
        let t1 = p.clause_by_label("t1").unwrap();
        assert!(dp.program.clause_by_label("t1").is_none());
        assert_eq!(dp.program.over_base().unwrap().facts()[0], (t1, TupleId(0)));
    }

    #[test]
    fn transform_emits_the_seed_and_rules_over_the_shared_base() {
        let p = Program::parse(TRUST).unwrap();
        assert!(p.built_fact_base().is_none(), "parsing builds no base");
        let (pred, args) = query(&p, "mutualTrustPath", &[1, 2]);
        let dp = magic_transform(&p, pred, &args).unwrap();
        let facts: Vec<&str> = dp
            .program
            .clauses()
            .iter()
            .filter(|c| c.is_fact())
            .map(|c| c.label.as_str())
            .collect();
        assert_eq!(facts, ["__magic_seed"]);
        assert_eq!(
            dp.program.len(),
            1 + dp.stats.variants + dp.stats.magic_rules
        );
        let base = p.built_fact_base().expect("the transform builds the base");
        assert!(Arc::ptr_eq(dp.program.over_base().unwrap(), base));
        assert_eq!(base.len(), 6);
        // A second query, a clone and a what-if copy reuse it.
        let (pred, args) = query(&p, "trustPath", &[2, 6]);
        let again = magic_transform(&p, pred, &args).unwrap();
        assert!(Arc::ptr_eq(again.program.over_base().unwrap(), base));
        assert!(Arc::ptr_eq(p.clone().fact_base(), base));
        let t1 = p.clause_by_label("t1").unwrap();
        assert!(Arc::ptr_eq(
            p.with_probability(t1, 0.5).unwrap().fact_base(),
            base
        ));
    }

    #[test]
    fn demand_run_numbers_the_base_first_and_the_seed_next() {
        let p = Program::parse(TRUST).unwrap();
        let (pred, args) = query(&p, "mutualTrustPath", &[1, 2]);
        let dp = magic_transform(&p, pred, &args).unwrap();
        let db = Engine::new(&dp.program).run(&mut NoopSink);
        let trust = p.symbols().get("trust").unwrap();
        assert_eq!(
            db.lookup(trust, &[Const::Int(1), Const::Int(2)]),
            Some(TupleId(0))
        );
        assert_eq!(
            db.lookup(trust, &[Const::Int(13), Const::Int(2)]),
            Some(TupleId(5))
        );
        let seed = dp
            .program
            .symbols()
            .get("__magic_mutualTrustPath_bb")
            .unwrap();
        assert_eq!(db.lookup(seed, &args), Some(TupleId(6)));
        assert!(db.lookup(pred, &args).is_some());
        assert_eq!(p.fact_base().len(), 6, "nothing lands in the base");
    }

    #[test]
    fn base_indexes_cover_every_variant_probe() {
        // trustPath^bb: r1 probes trust on (P1,P2), r2 on P1; r3's body is
        // IDB only. trustPath^bf never arises from an all-bound query.
        let p = Program::parse(TRUST).unwrap();
        let trust = p.symbols().get("trust").unwrap();
        let specs: Vec<(Symbol, Vec<usize>)> = base_index_specs(&p)
            .into_iter()
            .map(|(pred, cols)| (pred, cols.into_vec()))
            .collect();
        assert_eq!(specs, vec![(trust, vec![0]), (trust, vec![0, 1])]);
    }

    #[test]
    fn a_magic_name_in_the_program_is_rejected() {
        let mut b = crate::program::ProgramBuilder::new();
        b.fact("t1", 1.0, "__magic_q_b", &[T::int(1)]);
        b.rule(
            "r1",
            1.0,
            ("q", &[T::var("X")]),
            &[("e", &[T::var("X")])],
            &[],
        );
        b.fact("t2", 1.0, "e", &[T::int(1)]);
        let p = b.build().unwrap();
        let q = p.symbols().get("q").unwrap();
        assert!(matches!(
            magic_transform(&p, q, &[Const::Int(1)]),
            Err(TransformError::MagicName(name)) if name == "__magic_q_b"
        ));
    }

    #[test]
    fn guarded_variant_prepends_guard_and_keeps_constraints() {
        let p = Program::parse(TRUST).unwrap();
        let (pred, args) = query(&p, "mutualTrustPath", &[1, 2]);
        let dp = magic_transform(&p, pred, &args).unwrap();
        let variant = dp.program.clause_by_label("r2@bb").unwrap();
        let clause = dp.program.clause(variant);
        assert_eq!(clause.body().len(), 3, "guard + two source atoms");
        assert!(dp.is_magic(clause.body()[0].pred));
        assert_eq!(clause.constraints().len(), 1, "P1 != P3 survives");
    }

    #[test]
    fn magic_rule_keeps_prefix_ready_constraints() {
        // r2's recursion demand rule binds P1, P3 (guard) and P2 (trust), so
        // the `P1 != P3` constraint is prefix-ready and prunes self-demand.
        let p = Program::parse(TRUST).unwrap();
        let (pred, args) = query(&p, "mutualTrustPath", &[1, 2]);
        let dp = magic_transform(&p, pred, &args).unwrap();
        let magic_r2 = dp.program.clause_by_label("__magic_r2@bb_1").unwrap();
        assert_eq!(dp.program.clause(magic_r2).constraints().len(), 1);
    }

    #[test]
    fn demand_evaluation_agrees_with_naive_on_every_derived_tuple() {
        let p = Program::parse(TRUST).unwrap();
        let naive_db = Engine::new(&p).run(&mut NoopSink);
        for pred_name in ["trustPath", "mutualTrustPath"] {
            let pred = p.symbols().get(pred_name).unwrap();
            let rel = naive_db.relation(pred).unwrap();
            for &t in rel.tuples() {
                let args = naive_db.tuple(t).args.to_vec();
                let dp = magic_transform(&p, pred, &args).unwrap();
                let db = Engine::new(&dp.program).run(&mut NoopSink);
                assert!(
                    db.lookup(pred, &args).is_some(),
                    "demand run lost {pred_name}{args:?}"
                );
            }
        }
        // And a non-derivable tuple stays absent.
        let (pred, args) = query(&p, "mutualTrustPath", &[1, 99]);
        let dp = magic_transform(&p, pred, &args).unwrap();
        let db = Engine::new(&dp.program).run(&mut NoopSink);
        assert!(db.lookup(pred, &args).is_none());
    }

    #[test]
    fn demand_derives_fewer_tuples_on_chains() {
        // A 30-node line graph: naive transitive closure derives O(n^2)
        // paths, demand for path(0,29) only the suffix paths into 29.
        let mut src = String::from(
            "r1 1.0: path(X,Y) :- edge(X,Y).
             r2 1.0: path(X,Z) :- edge(X,Y), path(Y,Z).\n",
        );
        for i in 0..29 {
            src.push_str(&format!("e{i} 1.0: edge({i},{}).\n", i + 1));
        }
        let p = Program::parse(&src).unwrap();
        let naive_db = Engine::new(&p).run(&mut NoopSink);
        let (pred, args) = query(&p, "path", &[0, 29]);
        let dp = magic_transform(&p, pred, &args).unwrap();
        let demand_db = Engine::new(&dp.program).run(&mut NoopSink);
        assert!(demand_db.lookup(pred, &args).is_some());
        let count = |db: &crate::engine::Database| db.relation(pred).map_or(0, |r| r.len());
        assert_eq!(count(&naive_db), 29 * 30 / 2);
        assert_eq!(count(&demand_db), 29, "only paths ending at node 29");
    }

    #[test]
    fn edb_query_transform_keeps_facts_only() {
        let p = Program::parse(TRUST).unwrap();
        let (pred, args) = query(&p, "trust", &[1, 2]);
        let dp = magic_transform(&p, pred, &args).unwrap();
        assert_eq!(dp.stats, TransformStats::default());
        let db = Engine::new(&dp.program).run(&mut NoopSink);
        assert!(db.lookup(pred, &args).is_some());
        assert_eq!(db.len(), 6, "the six trust facts, nothing else");
    }

    #[test]
    fn negation_is_rejected() {
        let p = Program::parse(
            "r1 1.0: only(X) :- p(X), \\+ q(X).
             t1 1.0: p(a). t2 1.0: q(b).",
        )
        .unwrap();
        let pred = p.symbols().get("only").unwrap();
        let a = Const::Sym(p.symbols().get("a").unwrap());
        assert!(matches!(
            magic_transform(&p, pred, &[a]),
            Err(TransformError::Negation)
        ));
    }

    #[test]
    fn query_arity_mismatch_is_rejected() {
        let p = Program::parse(TRUST).unwrap();
        let pred = p.symbols().get("trustPath").unwrap();
        assert!(matches!(
            magic_transform(&p, pred, &[Const::Int(1)]),
            Err(TransformError::QueryArity {
                expected: 2,
                found: 1
            })
        ));
    }
}
