//! Errors surfaced by the P3 facade.

use p3_datalog::program::ProgramError;
use p3_datalog::worlds::WorldsError;
use std::error::Error;
use std::fmt;

/// Errors from loading programs or resolving queried tuples.
#[derive(Debug)]
pub enum P3Error {
    /// The program failed to parse or validate. A validation failure holds
    /// every error-severity finding, each with a stable `P3xxx` code and
    /// (for parsed sources) a located span.
    Program(ProgramError),
    /// The query string is not a ground atom over known symbols.
    BadQuery(String),
    /// The queried tuple is not derivable from the program.
    NotDerivable(String),
    /// The program uses stratified negation, which the provenance model
    /// does not cover (future work in the paper).
    UnsupportedNegation,
}

impl fmt::Display for P3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            P3Error::Program(e) => write!(f, "{e}"),
            P3Error::BadQuery(q) => write!(f, "bad query: {q}"),
            P3Error::NotDerivable(q) => write!(f, "tuple {q} is not derivable"),
            P3Error::UnsupportedNegation => write!(
                f,
                "provenance queries require a negation-free program (the engine can \
                 evaluate stratified negation, but the P3 provenance model cannot)"
            ),
        }
    }
}

impl Error for P3Error {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            P3Error::Program(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProgramError> for P3Error {
    fn from(e: ProgramError) -> Self {
        P3Error::Program(e)
    }
}

impl From<WorldsError> for P3Error {
    fn from(e: WorldsError) -> Self {
        P3Error::BadQuery(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = P3Error::NotDerivable("know(\"a\",\"b\")".into());
        assert!(e.to_string().contains("not derivable"));
        let e = P3Error::BadQuery("oops".into());
        assert!(e.to_string().contains("oops"));
    }
}
