//! # p3-provenance
//!
//! Provenance capture and querying for ProbLog-like programs, following §3
//! of the P3 paper (EDBT 2020).
//!
//! * [`graph`] — the provenance graph: tuple vertices and rule-execution
//!   vertices with unidirectional dependency edges (§3.1);
//! * [`capture`] — maintenance during evaluation via the engine's
//!   [`p3_datalog::engine::DerivationSink`] seam — the optimised variant of
//!   the paper's rule rewriting (its footnote 1: the rule body is evaluated
//!   once);
//! * [`rewrite`] — the literal §3.2 scheme: the program is rewritten so
//!   that rule executions are recorded in ordinary relations, and the graph
//!   is reconstructed from those tables afterwards;
//! * [`extract`] — provenance-polynomial extraction with cycle elimination
//!   (§3.3, Eq. 6–13) and hop limits;
//! * [`sld`] — top-down SLD-resolution proof enumeration (§2.2's route to
//!   the DNF), an independent cross-check of [`extract`];
//! * [`vars`] — the clause ↔ Boolean-variable correspondence;
//! * [`dot`] / [`explain`] — Graphviz and textual renderings.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod capture;
pub mod demand;
pub mod dot;
pub mod explain;
pub mod extract;
pub mod graph;
pub mod rewrite;
pub mod sld;
pub mod vars;

pub use capture::CaptureSink;
pub use demand::{evaluate_query_with_provenance, DemandEvaluation, DemandStats};
pub use extract::{extract_polynomial, Analysis, ExtractOptions, Extractor};
pub use graph::{Derivation, ExecId, ProvGraph, ProvGraphBuilder, RuleExec};
pub use vars::clause_vars;
