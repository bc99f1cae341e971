//! The shared message table for recommendations that two planes emit.
//!
//! `P3603` (demand mode) and `P3604` (persistent store) are raised both
//! statically — from program shape, in `crate::passes` — and from
//! measured evaluation cost in [`crate::cost`]. Each plane supplies its
//! own *evidence* clause, but the code, the recommendation phrase it
//! leads into, and the `= help:` text come from this one table, so the
//! two renderings can never drift apart.

use p3_datalog::diag::Diagnostic;

/// One row of the table: a stable code, the canonical recommendation
/// phrase the evidence clause leads into, and the canonical help text.
pub struct Recommendation {
    /// The stable `P3xxx` code.
    pub code: &'static str,
    /// Canonical recommendation phrase; the rendered message is
    /// `"<evidence> <summary>"`.
    pub summary: &'static str,
    /// Canonical `= help:` text shared by every emitter of the code.
    pub help: &'static str,
}

impl Recommendation {
    /// Builds the info-severity diagnostic from one plane's evidence
    /// clause, e.g. `"program shape (recursive cycles)"` or
    /// `"recursive rule 'r2' dominating naive evaluation (…)"`.
    pub fn note(&self, evidence: impl AsRef<str>) -> Diagnostic {
        Diagnostic::info(self.code, format!("{} {}", evidence.as_ref(), self.summary))
            .with_help(self.help)
    }
}

/// `P3603`: query-directed (demand) evaluation pays off.
pub const DEMAND_MODE: Recommendation = Recommendation {
    code: "P3603",
    summary: "benefits from query-directed evaluation",
    help: "demand mode magic-transforms the program per query and derives only the \
           query-relevant fragment; pass --eval-mode demand (auto mode already \
           selects it for recursive and predicted-expensive programs)",
};

/// `P3604`: warm restarts via the persistent store pay off.
pub const WARM_RESTART: Recommendation = Recommendation {
    code: "P3604",
    summary: "makes warm restarts worthwhile",
    help: "recursive provenance is re-derived from scratch on every process start; \
           p3-serve --store-dir DIR journals interned formulas and query memos and \
           replays them on the next boot, skipping the re-derivation",
};

#[cfg(test)]
mod tests {
    use super::*;
    use p3_datalog::diag::Severity;

    #[test]
    fn both_planes_share_one_wording() {
        let from_shape = DEMAND_MODE.note("program shape (recursive cycles)");
        let from_measurement = DEMAND_MODE.note("recursive rule 'r2' dominating naive evaluation");
        assert_eq!(from_shape.code, from_measurement.code);
        assert_eq!(from_shape.help, from_measurement.help);
        assert!(from_shape
            .message
            .ends_with("benefits from query-directed evaluation"));
        assert!(from_measurement
            .message
            .ends_with("benefits from query-directed evaluation"));
        assert_eq!(from_shape.severity, Severity::Info);
    }

    #[test]
    fn store_row_matches_its_code() {
        let d = WARM_RESTART.note("evidence");
        assert_eq!(d.code, "P3604");
        assert!(d.message.ends_with("makes warm restarts worthwhile"));
        assert!(d.help.as_deref().unwrap().contains("--store-dir"));
    }
}
