//! Evaluation-mode selection: naive bottom-up vs query-directed (demand).
//!
//! Naive evaluation materialises the *entire* model once and answers every
//! query from it; demand evaluation magic-transforms the program per query
//! (see [`p3_datalog::transform`]) and derives only the query-relevant
//! fragment. Both produce identical answers, polynomials and probabilities
//! — the choice is purely a performance trade-off, which [`EvalMode::Auto`]
//! resolves from the program's *predicted* cost.
//!
//! [`EvalMode::decide`] is the **single** auto-mode decision point: the
//! session constructor and the service's per-query override path both
//! resolve through it, so the same program can never get two different
//! answers depending on which layer asked. The decision
//! itself delegates to [`p3_analyze::recommend_mode`]: recursive programs
//! get demand (the historic syntactic rule), and flat programs whose
//! statically predicted join cost crosses
//! [`p3_analyze::FLAT_DEMAND_THRESHOLD`] now get demand too.

use p3_datalog::program::Program;
use std::fmt;
use std::str::FromStr;

/// The outcome of resolving an [`EvalMode`] against a program: the
/// concrete mode plus the human-readable reason it was chosen, suitable
/// for logging and the `analyze` plane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModeDecision {
    /// The resolved mode — never [`EvalMode::Auto`].
    pub mode: EvalMode,
    /// Why this mode was picked (cites the static cost prediction for
    /// auto; states the override for explicit modes).
    pub reason: String,
}

/// How a [`crate::QuerySession`] evaluates the program for each query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EvalMode {
    /// Pick per program: [`EvalMode::Demand`] when the program has a
    /// recursive IDB predicate (where naive evaluation derives whole
    /// transitive closures a single query never looks at), otherwise
    /// [`EvalMode::Naive`] (non-recursive models are small and evaluating
    /// them once serves every subsequent query for free).
    #[default]
    Auto,
    /// Evaluate the full program bottom-up once; all queries share the one
    /// materialised model and provenance graph.
    Naive,
    /// Magic-transform the program for each queried atom and evaluate only
    /// the demanded fragment, with provenance mapped back onto the source
    /// program. Per-query results are cached, so repeating a query is free.
    Demand,
}

impl EvalMode {
    /// Resolves [`EvalMode::Auto`] against a program; `Naive` and `Demand`
    /// return themselves. Shorthand for [`EvalMode::decide`] when the
    /// reason is not needed.
    pub fn resolve(self, program: &Program) -> EvalMode {
        self.decide(program).mode
    }

    /// The single auto-mode decision point: resolves this mode against
    /// `program` and records why.
    ///
    /// [`EvalMode::Auto`] asks the static analyzer
    /// ([`p3_analyze::recommend_mode`]) — demand for recursive programs
    /// and for flat programs whose predicted join cost crosses the
    /// demand threshold, naive otherwise. Explicit modes pass through
    /// with an "explicitly requested" reason.
    pub fn decide(self, program: &Program) -> ModeDecision {
        match self {
            EvalMode::Auto => {
                let (demand, reason) = p3_analyze::recommend_mode(program);
                ModeDecision {
                    mode: if demand {
                        EvalMode::Demand
                    } else {
                        EvalMode::Naive
                    },
                    reason,
                }
            }
            mode => ModeDecision {
                mode,
                reason: format!("{mode} evaluation explicitly requested"),
            },
        }
    }

    /// The wire/CLI spelling: `auto`, `naive` or `demand`.
    pub fn as_str(self) -> &'static str {
        match self {
            EvalMode::Auto => "auto",
            EvalMode::Naive => "naive",
            EvalMode::Demand => "demand",
        }
    }
}

impl fmt::Display for EvalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for EvalMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(EvalMode::Auto),
            "naive" => Ok(EvalMode::Naive),
            "demand" => Ok(EvalMode::Demand),
            other => Err(format!(
                "unknown eval mode '{other}' (expected auto|naive|demand)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_by_recursion() {
        let recursive = Program::parse(
            "r1 1.0: path(X,Y) :- edge(X,Y).
             r2 0.9: path(X,Z) :- edge(X,Y), path(Y,Z).
             e1 0.5: edge(a,b).",
        )
        .unwrap();
        let flat = Program::parse(
            "r1 0.8: q(X) :- p(X).
             t1 0.5: p(a).",
        )
        .unwrap();
        assert_eq!(EvalMode::Auto.resolve(&recursive), EvalMode::Demand);
        assert_eq!(EvalMode::Auto.resolve(&flat), EvalMode::Naive);
        assert_eq!(EvalMode::Naive.resolve(&recursive), EvalMode::Naive);
        assert_eq!(EvalMode::Demand.resolve(&flat), EvalMode::Demand);
    }

    #[test]
    fn decide_reports_reasons() {
        let recursive = Program::parse(
            "r1 1.0: path(X,Y) :- edge(X,Y).
             r2 0.9: path(X,Z) :- edge(X,Y), path(Y,Z).
             e1 0.5: edge(a,b).",
        )
        .unwrap();
        let auto = EvalMode::Auto.decide(&recursive);
        assert_eq!(auto.mode, EvalMode::Demand);
        assert!(auto.reason.contains("recursive"), "{}", auto.reason);
        let forced = EvalMode::Naive.decide(&recursive);
        assert_eq!(forced.mode, EvalMode::Naive);
        assert!(forced.reason.contains("explicitly requested"));
    }

    #[test]
    fn round_trips_through_strings() {
        for mode in [EvalMode::Auto, EvalMode::Naive, EvalMode::Demand] {
            assert_eq!(mode.as_str().parse::<EvalMode>().unwrap(), mode);
        }
        assert!("magic".parse::<EvalMode>().is_err());
    }
}
