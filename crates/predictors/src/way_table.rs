//! Way-prediction tables for d-cache loads.
//!
//! Section 2.2.1: "way-prediction schemes look up a prediction table using a
//! handle to index into the table and obtain the predicted way number". Two
//! handles are viable: the load PC (available early in the pipeline, less
//! accurate) and the XOR approximation of the load address (more accurate,
//! but available too late to hide the table lookup).

use wp_mem::{Addr, WayIndex};

/// A direct-indexed table mapping a handle to the last way the handle's
/// accesses hit in.
#[derive(Debug, Clone)]
struct WayTable {
    entries: Vec<Option<WayIndex>>,
}

impl WayTable {
    fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        Self {
            entries: vec![None; entries],
        }
    }

    #[inline]
    fn index(&self, handle: u64) -> usize {
        (handle as usize) & (self.entries.len() - 1)
    }

    #[inline]
    fn predict(&self, handle: u64) -> Option<WayIndex> {
        self.entries[self.index(handle)]
    }

    #[inline]
    fn update(&mut self, handle: u64, way: WayIndex) {
        let idx = self.index(handle);
        self.entries[idx] = Some(way);
    }
}

/// PC-indexed way predictor (the "early available" handle).
///
/// The predictor exploits per-instruction block locality: a load that keeps
/// accessing the same block (a loop walking an array block, or a load of a
/// global) keeps hitting in the same way. The i-cache's Sequential Address
/// Way-Predictor (Section 2.3) is the same table, indexed by the PC of the
/// fetch before the one it predicts.
///
/// # Example
///
/// ```
/// use wp_predictors::PcWayPredictor;
///
/// let mut p = PcWayPredictor::new(1024);
/// assert_eq!(p.predict(0x400), None); // cold: no prediction
/// p.update(0x400, 2);
/// assert_eq!(p.predict(0x400), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct PcWayPredictor {
    table: WayTable,
}

impl PcWayPredictor {
    /// Creates a predictor with `entries` table entries (the paper uses
    /// 1024).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        Self {
            table: WayTable::new(entries),
        }
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.table.entries.len()
    }

    /// Bits of storage per entry for an `associativity`-way cache (used for
    /// energy accounting: `log2(N)` way bits plus a valid bit).
    pub fn bits_per_entry(associativity: usize) -> usize {
        (associativity.max(2)).trailing_zeros() as usize + 1
    }

    /// Predicts the way for the load at `pc`, or `None` if the entry has
    /// never been trained (the access then defaults to a parallel probe).
    pub fn predict(&self, pc: Addr) -> Option<WayIndex> {
        self.table.predict(pc >> 2)
    }

    /// Records that the load at `pc` actually hit in `way`.
    pub fn update(&mut self, pc: Addr, way: WayIndex) {
        self.table.update(pc >> 2, way);
    }
}

/// Way predictor indexed by the XOR approximation of the load address
/// (the "late available" handle of Section 2.2.1, after \[3\] and \[10\]).
///
/// The caller supplies the approximate address (source register XOR offset);
/// the trace generator models how often that approximation matches the real
/// block address.
#[derive(Debug, Clone)]
pub struct XorWayPredictor {
    table: WayTable,
    block_shift: u32,
}

impl XorWayPredictor {
    /// Creates a predictor with `entries` table entries, indexing by the
    /// approximate *block* address of a cache with `block_bytes` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `block_bytes` is not a power of two.
    pub fn new(entries: usize, block_bytes: usize) -> Self {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        Self {
            table: WayTable::new(entries),
            block_shift: block_bytes.trailing_zeros(),
        }
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.table.entries.len()
    }

    /// Predicts the way for a load whose XOR-approximate address is
    /// `approx_addr`.
    pub fn predict(&self, approx_addr: Addr) -> Option<WayIndex> {
        self.table.predict(approx_addr >> self.block_shift)
    }

    /// Trains the entry for `approx_addr` with the way the load actually hit
    /// in.
    pub fn update(&mut self, approx_addr: Addr, way: WayIndex) {
        self.table.update(approx_addr >> self.block_shift, way);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_predictor_learns_last_way() {
        let mut p = PcWayPredictor::new(16);
        p.update(0x1000, 3);
        assert_eq!(p.predict(0x1000), Some(3));
        p.update(0x1000, 1);
        assert_eq!(p.predict(0x1000), Some(1));
    }

    #[test]
    fn pc_predictor_cold_entries_return_none() {
        let p = PcWayPredictor::new(16);
        assert_eq!(p.predict(0x2000), None);
    }

    #[test]
    fn distinct_pcs_use_distinct_entries() {
        let mut p = PcWayPredictor::new(1024);
        p.update(0x1000, 0);
        p.update(0x1004, 1);
        assert_eq!(p.predict(0x1000), Some(0));
        assert_eq!(p.predict(0x1004), Some(1));
    }

    #[test]
    fn aliasing_pcs_share_an_entry() {
        let mut p = PcWayPredictor::new(16);
        // PCs 16 entries * 4 bytes apart alias.
        p.update(0x1000, 0);
        p.update(0x1000 + 16 * 4, 2);
        assert_eq!(p.predict(0x1000), Some(2));
    }

    #[test]
    fn bits_per_entry_grows_with_associativity() {
        assert_eq!(PcWayPredictor::bits_per_entry(2), 2);
        assert_eq!(PcWayPredictor::bits_per_entry(4), 3);
        assert_eq!(PcWayPredictor::bits_per_entry(8), 4);
    }

    #[test]
    fn xor_predictor_indexes_by_block() {
        let mut p = XorWayPredictor::new(64, 32);
        p.update(0x1000, 3);
        // Same block, different word: same prediction.
        assert_eq!(p.predict(0x101c), Some(3));
        // Different block: untrained.
        assert_eq!(p.predict(0x1020), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_table_panics() {
        let _ = PcWayPredictor::new(1000);
    }
}
