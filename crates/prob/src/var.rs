//! The variable universe: one Boolean random variable per program clause.

use std::fmt;
use std::sync::Arc;

/// Identifies a Boolean random variable in a [`VarTable`].
///
/// In P3 there is one variable per clause; the provenance layer keeps the
/// mapping between clause ids and variable ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

impl VarId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The set of Boolean random variables with their success probabilities and
/// display names.
///
/// Clones share the names: cloning copies only the probabilities, so a
/// what-if table (a modification's working copy, `P3::with_probabilities`)
/// costs one `f64` per variable. [`VarTable::add`] copies the names on
/// write when a clone still shares them.
#[derive(Clone, Default, Debug)]
pub struct VarTable {
    probs: Vec<f64>,
    names: Arc<Vec<String>>,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with display `name` and probability `prob`.
    ///
    /// # Panics
    /// Panics if `prob` is outside `[0, 1]` or not finite.
    pub fn add(&mut self, name: impl Into<String>, prob: f64) -> VarId {
        assert!(
            prob.is_finite() && (0.0..=1.0).contains(&prob),
            "probability {prob} out of range"
        );
        let id = VarId(u32::try_from(self.probs.len()).expect("variable table overflow"));
        self.probs.push(prob);
        Arc::make_mut(&mut self.names).push(name.into());
        id
    }

    /// The probability of `var` being true.
    #[inline]
    pub fn prob(&self, var: VarId) -> f64 {
        self.probs[var.index()]
    }

    /// Replaces the probability of `var`. Used by modification queries.
    pub fn set_prob(&mut self, var: VarId, prob: f64) {
        assert!(
            prob.is_finite() && (0.0..=1.0).contains(&prob),
            "probability {prob} out of range"
        );
        self.probs[var.index()] = prob;
    }

    /// The display name of `var`.
    pub fn name(&self, var: VarId) -> &str {
        &self.names[var.index()]
    }

    /// All probabilities, indexed by variable.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Iterates over all variable ids.
    pub fn ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.probs.len() as u32).map(VarId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read_back() {
        let mut t = VarTable::new();
        let a = t.add("r1", 0.8);
        let b = t.add("t4", 0.4);
        assert_eq!(t.prob(a), 0.8);
        assert_eq!(t.prob(b), 0.4);
        assert_eq!(t.name(a), "r1");
        assert_eq!(t.len(), 2);
        assert_eq!(t.ids().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn set_prob_overwrites() {
        let mut t = VarTable::new();
        let a = t.add("r1", 0.8);
        t.set_prob(a, 0.56);
        assert_eq!(t.prob(a), 0.56);
    }

    #[test]
    fn clones_share_names_but_not_probabilities() {
        let mut original = VarTable::new();
        let a = original.add("r1", 0.8);
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.names, &copy.names));
        copy.set_prob(a, 0.3);
        let b = copy.add("t4", 0.4);
        assert_eq!(original.prob(a), 0.8);
        assert_eq!(original.len(), 1);
        assert_eq!(original.name(a), "r1");
        assert_eq!((copy.prob(a), copy.name(b), copy.len()), (0.3, "t4", 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_rejects_out_of_range() {
        VarTable::new().add("bad", 1.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_prob_rejects_nan() {
        let mut t = VarTable::new();
        let a = t.add("r1", 0.8);
        t.set_prob(a, f64::NAN);
    }
}
