//! A branch target buffer extended with a way field (Section 2.3).
//!
//! "Existing high-performance processors use a branch target buffer (BTB) to
//! determine the next fetch address for predicted taken branches.
//! Next-line-set-prediction supplies a way-prediction for taken branches."
//! The way field adds `log2(N)` bits per entry for an N-way i-cache; the
//! energy overhead of those bits is charged by the experiment harness.

use wp_mem::{Addr, WayIndex};

/// One BTB entry: the predicted target of a taken branch and the i-cache way
/// the target block was last fetched from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbEntry {
    /// Predicted target address.
    pub target: Addr,
    /// Predicted i-cache way of the target, if it has been learned.
    pub way: Option<WayIndex>,
}

#[derive(Debug, Clone, Copy)]
struct TaggedEntry {
    tag: u64,
    entry: BtbEntry,
}

/// A direct-mapped (one way per set) branch target buffer with way
/// prediction.
///
/// # Example
///
/// ```
/// use wp_predictors::Btb;
///
/// let mut btb = Btb::new(512);
/// let branch_pc = 0x40_0010;
/// btb.update(branch_pc, 0x40_2000, Some(1));
/// let entry = btb.lookup(branch_pc).expect("trained entry");
/// assert_eq!(entry.target, 0x40_2000);
/// assert_eq!(entry.way, Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<Option<TaggedEntry>>,
}

impl Btb {
    /// Creates a BTB with `entries` sets.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "BTB size must be a power of two");
        Self {
            entries: vec![None; entries],
        }
    }

    /// Number of BTB entries.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    fn index(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) & (self.entries.len() - 1)
    }

    /// The index bits dropped: `(pc >> 2) / entries`, as a shift because
    /// the size is a power of two.
    fn tag(&self, pc: Addr) -> u64 {
        (pc >> 2) >> self.entries.len().trailing_zeros()
    }

    /// Looks up the branch at `pc`, returning its target and way prediction
    /// if the entry is present (a BTB miss means the fetch defaults to a
    /// parallel i-cache access).
    pub fn lookup(&self, pc: Addr) -> Option<BtbEntry> {
        let idx = self.index(pc);
        let tag = self.tag(pc);
        self.entries[idx].filter(|e| e.tag == tag).map(|e| e.entry)
    }

    /// Installs or updates the entry for the taken branch at `pc`.
    pub fn update(&mut self, pc: Addr, target: Addr, way: Option<WayIndex>) {
        let idx = self.index(pc);
        let tag = self.tag(pc);
        self.entries[idx] = Some(TaggedEntry {
            tag,
            entry: BtbEntry { target, way },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_shift_equals_the_division_by_the_table_size() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut pcs = vec![0, 3, 4, u64::MAX, u64::MAX - 3, 1 << 63];
        for _ in 0..256 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            pcs.push(state);
            pcs.push(state & 0xff_ffff);
        }
        for bits in 0..=16 {
            let btb = Btb::new(1 << bits);
            for &pc in &pcs {
                assert_eq!(
                    btb.tag(pc),
                    (pc >> 2) / (1u64 << bits),
                    "size 2^{bits}, pc {pc:#x}"
                );
            }
        }
    }

    #[test]
    fn miss_then_hit_after_update() {
        let mut btb = Btb::new(64);
        assert!(btb.lookup(0x100).is_none());
        btb.update(0x100, 0x4000, Some(2));
        let e = btb.lookup(0x100).expect("entry present");
        assert_eq!(e.target, 0x4000);
        assert_eq!(e.way, Some(2));
    }

    #[test]
    fn aliasing_pcs_evict_each_other() {
        let mut btb = Btb::new(16);
        let a = 0x100;
        let b = a + 16 * 4; // same index, different tag
        btb.update(a, 0x1000, None);
        btb.update(b, 0x2000, None);
        assert!(btb.lookup(a).is_none(), "displaced by aliasing branch");
        assert_eq!(btb.lookup(b).map(|e| e.target), Some(0x2000));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = Btb::new(100);
    }
}
