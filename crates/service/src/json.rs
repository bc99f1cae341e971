//! The wire protocol's JSON codec: the workspace's one [`Value`] tree,
//! encoder and parser, which live in [`p3_obs::json`] so every crate that
//! prints JSON builds the same `Value`.

pub use p3_obs::json::{ParseError, Value};
