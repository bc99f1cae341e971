//! The warning and note passes, run in pipeline order by
//! [`crate::lint_source`] after the validator's error checks.

pub(crate) mod names;
pub(crate) mod prob;
pub(crate) mod reach;
pub(crate) mod strata;
