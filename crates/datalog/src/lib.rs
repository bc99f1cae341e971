//! # p3-datalog
//!
//! A ProbLog-like probabilistic Datalog substrate: abstract syntax, a
//! hand-written parser, a semi-naive bottom-up evaluation engine with a
//! derivation-observation seam for provenance capture, and a brute-force
//! possible-worlds evaluator used as a semantic oracle in tests.
//!
//! The language is the fragment used by the P3 paper (EDBT 2020): a union of
//! weighted conjunctive rules with recursion and without negation. Every
//! clause — base tuple or rule — carries a probability and denotes one
//! independent Boolean random variable under Sato's distribution semantics.
//!
//! ## Quick tour
//!
//! ```
//! use p3_datalog::{Program, engine::{Engine, NoopSink}};
//!
//! let src = r#"
//!     r1 0.8: know(P1,P2) :- live(P1,C), live(P2,C), P1 != P2.
//!     t1 1.0: live("Steve","DC").
//!     t2 1.0: live("Elena","DC").
//! "#;
//! let program = Program::parse(src).unwrap();
//! let mut engine = Engine::new(&program);
//! let db = engine.run(&mut NoopSink);
//! assert_eq!(db.relation_by_name("know").unwrap().len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod diag;
pub mod engine;
pub mod explain;
pub mod graph;
pub mod hash;
pub mod parser;
pub mod program;
pub mod symbol;
pub mod transform;
pub mod validate;
pub mod worlds;

pub use ast::{Atom, Clause, ClauseId, ClauseKind, CmpOp, Const, Constraint, Term};
pub use diag::{Diagnostic, Severity};
pub use parser::{ClauseSpans, Span};
pub use program::{Program, ProgramError};
pub use symbol::{Symbol, SymbolTable};
