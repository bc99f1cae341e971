//! Brute-force possible-worlds semantics (Eq. 1–4 of the paper).
//!
//! A ProbLog program `T = {p1:c1, …, pn:cn}` defines a distribution over
//! subprograms `L ⊆ LT`: clause `ci` is present independently with
//! probability `pi`. The success probability of a ground query `q` is the
//! total probability mass of subprograms that derive `q`.
//!
//! This module computes that probability by *enumerating every world* and
//! running the fixpoint engine in each. It is exponential in the number of
//! uncertain clauses (those with `0 < p < 1`) and exists purely as the
//! semantic ground truth against which the provenance pipeline — extraction,
//! cycle elimination, DNF probability — is validated.

use crate::ast::{ClauseId, Const};
use crate::engine::{Database, Engine, NoopSink, TupleId};
use crate::program::{Program, ProgramError};
use crate::symbol::{Symbol, SymbolTable};
use std::collections::HashMap;

/// Upper bound on uncertain clauses accepted by [`success_probability`];
/// enumeration is `O(2^n)`.
pub const MAX_UNCERTAIN_CLAUSES: usize = 24;

/// Errors from the oracle evaluator.
#[derive(Debug)]
pub enum WorldsError {
    /// More than [`MAX_UNCERTAIN_CLAUSES`] clauses have `0 < p < 1`.
    TooManyUncertainClauses(usize),
    /// The query predicate or tuple shape is unknown to the program.
    UnknownQuery(String),
    /// Rebuilding a subprogram failed (cannot happen for validated input).
    Program(ProgramError),
}

impl std::fmt::Display for WorldsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldsError::TooManyUncertainClauses(n) => write!(
                f,
                "{n} uncertain clauses exceed the oracle limit of {MAX_UNCERTAIN_CLAUSES}"
            ),
            WorldsError::UnknownQuery(q) => write!(f, "unknown query {q}"),
            WorldsError::Program(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WorldsError {}

/// Computes `P(q | T)` by world enumeration for the ground atom
/// `pred(args…)`.
pub fn success_probability(
    program: &Program,
    pred: Symbol,
    args: &[Const],
) -> Result<f64, WorldsError> {
    let mut total = 0.0f64;
    for_each_world(program, |weight, db| {
        if db.lookup(pred, args).is_some() {
            total += weight;
        }
    })?;
    Ok(total)
}

/// Computes `P(q | T)` for every ground atom `q` derived in some world, in
/// one enumeration: each world's weight is added to every tuple its
/// subprogram derives. Each value equals [`success_probability`]'s bit for
/// bit (the same weights, added in the same world order). An atom missing
/// from the map has probability 0.
pub fn success_probabilities(
    program: &Program,
) -> Result<HashMap<(Symbol, Vec<Const>), f64>, WorldsError> {
    let mut totals: HashMap<(Symbol, Vec<Const>), f64> = HashMap::new();
    for_each_world(program, |weight, db| {
        for id in 0..db.len() {
            let t = db.tuple(TupleId(id as u32));
            *totals.entry((t.pred, t.args.to_vec())).or_insert(0.0) += weight;
        }
    })?;
    Ok(totals)
}

/// Calls `visit` with the weight and the derived database of every world
/// of positive weight, in enumeration order. A world fixes which uncertain
/// clauses (those with `0 < p < 1`) are present; its weight is the product
/// of `p` or `1 − p` over them, in clause order.
fn for_each_world(
    program: &Program,
    mut visit: impl FnMut(f64, &Database),
) -> Result<(), WorldsError> {
    let uncertain: Vec<ClauseId> = program
        .iter()
        .filter(|(_, c)| c.prob > 0.0 && c.prob < 1.0)
        .map(|(id, _)| id)
        .collect();
    if uncertain.len() > MAX_UNCERTAIN_CLAUSES {
        return Err(WorldsError::TooManyUncertainClauses(uncertain.len()));
    }
    for world in 0u64..(1u64 << uncertain.len()) {
        let mut weight = 1.0f64;
        for (bit, &id) in uncertain.iter().enumerate() {
            let p = program.clause(id).prob;
            if world & (1 << bit) != 0 {
                weight *= p;
            } else {
                weight *= 1.0 - p;
            }
        }
        if weight == 0.0 {
            continue;
        }
        visit(weight, &world_database(program, &uncertain, world)?);
    }
    Ok(())
}

/// Convenience wrapper: the query is given as source text, e.g.
/// `know("Ben","Elena")`. The atom must be ground and use only symbols
/// already interned by the program (guaranteed when the tuple appears in the
/// program or its derivations).
pub fn success_probability_str(program: &Program, query: &str) -> Result<f64, WorldsError> {
    let (pred, args) = parse_ground_query(program, query)?;
    success_probability(program, pred, &args)
}

/// Parses `pred(const,…)` against the program's symbol table.
pub fn parse_ground_query(
    program: &Program,
    query: &str,
) -> Result<(Symbol, Vec<Const>), WorldsError> {
    // Parse into a table of the query's names alone, then map each name to
    // the program's symbol: cloning the program's table would cost two
    // allocations per program symbol on every query.
    let mut symbols = SymbolTable::new();
    let clauses =
        crate::parser::parse_into(&format!("{}.", query.trim_end_matches('.')), &mut symbols)
            .map_err(|e| WorldsError::UnknownQuery(format!("{query}: {e}")))?;
    let [clause] = clauses.as_slice() else {
        return Err(WorldsError::UnknownQuery(query.to_string()));
    };
    if !clause.is_fact() || !clause.head.is_ground() {
        return Err(WorldsError::UnknownQuery(format!(
            "{query}: not a ground atom"
        )));
    }
    // Reject queries that mention brand-new symbols: they cannot denote a
    // derivable tuple.
    let own = |sym: Symbol| {
        program.symbols().get(symbols.resolve(sym)).ok_or_else(|| {
            WorldsError::UnknownQuery(format!("{query}: mentions symbols absent from the program"))
        })
    };
    let pred = own(clause.head.pred)?;
    let args = clause
        .head
        .args
        .iter()
        .map(|t| match t.as_const().expect("ground atom") {
            Const::Sym(sym) => own(sym).map(Const::Sym),
            int => Ok(int),
        })
        .collect::<Result<_, _>>()?;
    Ok((pred, args))
}

/// The database the subprogram selected by `world` derives.
fn world_database(
    program: &Program,
    uncertain: &[ClauseId],
    world: u64,
) -> Result<Database, WorldsError> {
    let mut kept = Vec::with_capacity(program.len());
    'clauses: for (id, clause) in program.iter() {
        if clause.prob == 0.0 {
            continue;
        }
        for (bit, &uid) in uncertain.iter().enumerate() {
            if uid == id {
                if world & (1 << bit) == 0 {
                    continue 'clauses;
                }
                break;
            }
        }
        kept.push(clause.clone());
    }
    let sub =
        Program::from_clauses(kept, program.symbols().clone()).map_err(WorldsError::Program)?;
    Ok(Engine::new(&sub).run(&mut NoopSink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    #[test]
    fn single_fact_probability() {
        let p = Program::parse("t1 0.3: p(a).").unwrap();
        let prob = success_probability_str(&p, "p(a)").unwrap();
        assert!((prob - 0.3).abs() < 1e-12);
    }

    #[test]
    fn independent_or() {
        // q(a) holds iff t1 or t2 present (both rules deterministic).
        let p = Program::parse(
            "r1 1.0: q(X) :- p1(X). r2 1.0: q(X) :- p2(X).
             t1 0.5: p1(a). t2 0.5: p2(a).",
        )
        .unwrap();
        let prob = success_probability_str(&p, "q(a)").unwrap();
        assert!((prob - 0.75).abs() < 1e-12);
    }

    #[test]
    fn conjunction_with_probabilistic_rule() {
        // q :- p1, p2 with rule prob 0.5: P = 0.5 * 0.4 * 0.6.
        let p = Program::parse(
            "r1 0.5: q(X) :- p1(X), p2(X).
             t1 0.4: p1(a). t2 0.6: p2(a).",
        )
        .unwrap();
        let prob = success_probability_str(&p, "q(a)").unwrap();
        assert!((prob - 0.12).abs() < 1e-12);
    }

    #[test]
    fn acquaintance_ben_knows_elena_exact() {
        // Exact value from the Fig 2 probabilities:
        //   λ = r3 · t6 · (r1·t1·t2 + r2·t4·t5), independent variables.
        //   P[r1 + r2·t4·t5] = 1 − 0.2·(1 − 0.4·0.4·0.6) = 0.8192
        //   P = 0.2 · 0.8192 = 0.16384.
        // (The paper reports ≈0.18; see EXPERIMENTS.md.)
        let src = r#"
            r1 0.8: know(P1,P2) :- live(P1,C), live(P2,C), P1 != P2.
            r2 0.4: know(P1,P2) :- like(P1,L), like(P2,L), P1 != P2.
            r3 0.2: know(P1,P3) :- know(P1,P2), know(P2,P3), P1 != P3.
            t1 1.0: live("Steve","DC").
            t2 1.0: live("Elena","DC").
            t3 1.0: live("Mary","NYC").
            t4 0.4: like("Steve","Veggies").
            t5 0.6: like("Elena","Veggies").
            t6 1.0: know("Ben","Steve").
        "#;
        let p = Program::parse(src).unwrap();
        let prob = success_probability_str(&p, r#"know("Ben","Elena")"#).unwrap();
        assert!((prob - 0.16384).abs() < 1e-9, "got {prob}");
    }

    #[test]
    fn one_enumeration_gives_every_atoms_probability_bit_for_bit() {
        let p = Program::parse(
            "r1 0.5: reach(X) :- src(X).
             r2 0.7: reach(Y) :- reach(X), edge(X,Y).
             t0 0.9: src(a).
             e1 0.5: edge(a,b).
             e2 0.3: edge(b,c).
             e3 0.6: edge(c,a).
             e4 1.0: edge(a,d).",
        )
        .unwrap();
        let all = success_probabilities(&p).unwrap();
        for atom in [
            "reach(a)",
            "reach(b)",
            "reach(c)",
            "reach(d)",
            "src(a)",
            "edge(a,d)",
        ] {
            let (pred, args) = parse_ground_query(&p, atom).unwrap();
            let one = success_probability(&p, pred, &args).unwrap();
            assert_eq!(all[&(pred, args)].to_bits(), one.to_bits(), "{atom}");
        }
        assert_eq!(all.len(), 9, "4 reach, 1 src and 4 edge tuples");
    }

    #[test]
    fn cyclic_program_probability() {
        // Two-node cycle: a↔b plus source edge into a.
        // reach(b) needs e1 (0.5) and e2 (0.5): the cycle back-edge e3 is
        // irrelevant. P = 0.25.
        let p = Program::parse(
            "r1 1.0: reach(X) :- src(X).
             r2 1.0: reach(Y) :- reach(X), edge(X,Y).
             t0 1.0: src(a).
             e1 0.5: edge(a,b).
             e3 0.5: edge(b,a).",
        )
        .unwrap();
        let prob = success_probability_str(&p, "reach(b)").unwrap();
        assert!((prob - 0.5).abs() < 1e-12, "got {prob}");
    }

    /// The error text `parse_ground_query` gives for `query` over `src`.
    fn query_error(src: &str, query: &str) -> String {
        let p = Program::parse(src).unwrap();
        match parse_ground_query(&p, query) {
            Err(WorldsError::UnknownQuery(text)) => text,
            other => panic!("{query}: expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn query_for_unknown_symbol_is_rejected() {
        for query in ["p(zzz)", "nosuch(a)"] {
            assert_eq!(
                query_error("t1 0.3: p(a).", query),
                format!("{query}: mentions symbols absent from the program")
            );
        }
    }

    #[test]
    fn malformed_query_is_a_parse_error() {
        let text = query_error("t1 0.3: p(a).", "p(a");
        assert!(text.starts_with("p(a: "), "{text}");
        assert!(text.contains("parse error"), "{text}");
    }

    #[test]
    fn more_than_one_clause_is_rejected() {
        assert_eq!(query_error("t1 0.3: p(a).", "p(a). p(a)"), "p(a). p(a)");
    }

    #[test]
    fn non_ground_query_is_rejected() {
        assert_eq!(
            query_error("t1 0.3: p(a).", "p(X)"),
            "p(X): not a ground atom"
        );
        assert_eq!(
            query_error("r1 1.0: q(X) :- p(X). t1 0.3: p(a).", "q(a) :- p(a)"),
            "q(a) :- p(a): not a ground atom"
        );
    }

    #[test]
    fn query_resolves_to_the_programs_own_symbols() {
        let p = Program::parse(r#"t1 0.3: edge(a, 7, "b c"). t2 0.5: edge(b, -2, a)."#).unwrap();
        let syms = p.symbols();
        let (pred, args) = parse_ground_query(&p, r#"edge(a, 7, "b c")"#).unwrap();
        assert_eq!(pred, syms.get("edge").unwrap());
        assert_eq!(
            args,
            vec![
                Const::Sym(syms.get("a").unwrap()),
                Const::Int(7),
                Const::Sym(syms.get("b c").unwrap()),
            ]
        );
        // A trailing full stop is accepted.
        let (_, args) = parse_ground_query(&p, "edge(b, -2, a).").unwrap();
        assert_eq!(
            args,
            vec![
                Const::Sym(syms.get("b").unwrap()),
                Const::Int(-2),
                Const::Sym(syms.get("a").unwrap()),
            ]
        );
    }

    #[test]
    fn zero_probability_clause_never_contributes() {
        let p = Program::parse("t1 0.0: p(a). t2 0.5: p(b).").unwrap();
        assert_eq!(success_probability_str(&p, "p(a)").unwrap(), 0.0);
        assert!((success_probability_str(&p, "p(b)").unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn too_many_uncertain_clauses_is_an_error() {
        let mut src = String::new();
        for i in 0..MAX_UNCERTAIN_CLAUSES + 1 {
            src.push_str(&format!("f{i} 0.5: p({i}).\n"));
        }
        let p = Program::parse(&src).unwrap();
        assert!(matches!(
            success_probability_str(&p, "p(0)"),
            Err(WorldsError::TooManyUncertainClauses(_))
        ));
    }
}
