//! The Sequential Address Way-Predictor (SAWP) table (Section 2.3).
//!
//! "For not-taken branches and sequential fetches (non-branches), we use an
//! extra table called the Sequential Address Way-Predictor (SAWP) table,
//! which is indexed by the current PC. At first glance, the SAWP might seem
//! unnecessary, because the incremented PC would map to the same way as the
//! current PC. However, successive PCs may not fall within the same way."

use wp_mem::{Addr, WayIndex};

/// PC-indexed table predicting the i-cache way of the *next sequential*
/// fetch.
///
/// # Example
///
/// ```
/// use wp_predictors::Sawp;
///
/// let mut sawp = Sawp::new(1024);
/// // After observing that the fetch following PC 0x40_0000 hit way 3 ...
/// sawp.update(0x40_0000, 3);
/// // ... the next time we fetch from 0x40_0000 we predict way 3 for its
/// // successor.
/// assert_eq!(sawp.predict(0x40_0000), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct Sawp {
    entries: Vec<Option<WayIndex>>,
}

impl Sawp {
    /// Creates a SAWP with `entries` entries (the paper evaluates a
    /// 1024-entry SAWP).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "SAWP size must be a power of two"
        );
        Self {
            entries: vec![None; entries],
        }
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Bits per entry for an `associativity`-way i-cache (`log2(N)` way bits
    /// plus a valid bit), for energy accounting.
    pub fn bits_per_entry(associativity: usize) -> usize {
        (associativity.max(2)).trailing_zeros() as usize + 1
    }

    fn index(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) & (self.entries.len() - 1)
    }

    /// Predicts the way of the fetch that sequentially follows the fetch at
    /// `current_pc`, or `None` if the entry is untrained (the fetch then
    /// defaults to a parallel access).
    pub fn predict(&self, current_pc: Addr) -> Option<WayIndex> {
        self.entries[self.index(current_pc)]
    }

    /// Records that the fetch following `current_pc` actually resided in
    /// `way`.
    pub fn update(&mut self, current_pc: Addr, way: WayIndex) {
        let idx = self.index(current_pc);
        self.entries[idx] = Some(way);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_entries_return_none() {
        let s = Sawp::new(64);
        assert_eq!(s.predict(0x100), None);
    }

    #[test]
    fn learns_successor_way() {
        let mut s = Sawp::new(64);
        s.update(0x100, 2);
        assert_eq!(s.predict(0x100), Some(2));
        s.update(0x100, 0);
        assert_eq!(s.predict(0x100), Some(0));
    }

    #[test]
    fn successive_pcs_can_predict_different_ways() {
        // The reason the SAWP exists: the next sequential block need not sit
        // in the same way as the current one.
        let mut s = Sawp::new(1024);
        s.update(0x1000, 0);
        s.update(0x1020, 3);
        assert_eq!(s.predict(0x1000), Some(0));
        assert_eq!(s.predict(0x1020), Some(3));
    }

    #[test]
    fn bits_per_entry_matches_associativity() {
        assert_eq!(Sawp::bits_per_entry(4), 3);
        assert_eq!(Sawp::bits_per_entry(8), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = Sawp::new(1000);
    }
}
