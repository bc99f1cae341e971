//! # p3-prob
//!
//! Probability machinery for provenance polynomials.
//!
//! A provenance polynomial in P3 is a **monotone Boolean DNF formula** whose
//! literals are independent Boolean random variables — one per program
//! clause (base tuple or rule). This crate provides:
//!
//! * [`VarTable`] / [`VarId`] — the variable universe with probabilities;
//! * [`Dnf`] — the formula representation with the algebra the queries need
//!   (restriction, absorption, monomial arithmetic);
//! * [`exact`] — exact success probability by independence decomposition +
//!   Shannon expansion over bitset monomials (the testing oracle and the
//!   exact backend);
//! * [`circuit`] — that expansion compiled once into a decision-DNNF
//!   circuit: a forward pass gives `P[λ]` under any table, bit for bit, and
//!   one backward pass every literal's influence;
//! * [`bdd`] — a reduced ordered BDD package with weighted model counting,
//!   the classic ProbLog inference backend;
//! * [`mc`] — Monte-Carlo estimators: naive sampling, the Karp–Luby union
//!   estimator, and a paired (common-random-numbers) influence estimator;
//! * [`parallel`] — multi-threaded Monte-Carlo drivers (the paper's GPU
//!   parallelisation, reproduced with CPU threads);
//! * [`store`] — a hash-consed [`DnfStore`] interning formulas behind stable
//!   [`DnfId`]s, one table behind one lock; the foundation of
//!   `p3-core`'s shared query sessions.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assignment;
pub mod bdd;
pub mod circuit;
pub mod dnf;
pub mod exact;
pub mod mc;
pub mod parallel;
pub mod store;
pub mod var;

pub use assignment::Assignment;
pub use circuit::Circuit;
pub use dnf::{Dnf, DnfShape, Monomial, MonomialStack, Normalized};
pub use mc::McConfig;
pub use store::{DnfId, DnfStore, InternJournal, StoreStats};
pub use var::{VarId, VarTable};
