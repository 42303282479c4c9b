//! The victim list that identifies conflicting blocks (Section 2.2.2).
//!
//! "We identify conflicting blocks by maintaining a list of victim (i.e.,
//! replaced) block addresses. On a replacement, the evicted block increments
//! its entry's counter in the victim list if it is already present in the
//! victim list; otherwise, a new victim list entry is allocated. If the
//! count exceeds two, the block is deemed conflicting and placed in its
//! set-associative position to avoid future conflicts."

use wp_mem::BlockAddr;

#[derive(Debug, Clone, Copy)]
struct VictimEntry {
    block: BlockAddr,
    count: u32,
    last_use: u64,
    /// Cached [`VictimList::filter_bit`] of `block`, so filter rebuilds
    /// after a displacement never re-hash.
    bit: u64,
}

/// A small, fully-associative list of recently evicted block addresses with
/// per-block eviction counts. The paper uses 16 entries (~0.06 KB).
///
/// # Example
///
/// ```
/// use wp_predictors::VictimList;
///
/// let mut list = VictimList::new(16, 2);
/// let block = 0x4_2000;
/// assert!(!list.record_eviction(block));
/// assert!(!list.record_eviction(block));
/// // The third eviction pushes the count past the threshold.
/// assert!(list.record_eviction(block));
/// assert!(list.is_conflicting(block));
/// ```
#[derive(Debug, Clone)]
pub struct VictimList {
    entries: Vec<VictimEntry>,
    capacity: usize,
    conflict_threshold: u32,
    clock: u64,
    /// Entries displaced because the list was full; every 256th rebuilds
    /// the filters.
    replacements: u64,
    /// 64-bit membership filter over the *conflicting* entries: bit
    /// `hash(block) % 64` is set for every block whose count exceeds the
    /// threshold. [`VictimList::is_conflicting`] is consulted on every
    /// d-cache access and almost always answers "no"; a clear filter bit
    /// proves that without scanning the list. A set bit falls back to the
    /// exact scan, so answers are identical to the unfiltered list.
    conflict_filter: u64,
    /// Same construction over *all* tracked entries: every eviction of a
    /// block the list has never seen (the common case — most victims are
    /// new) skips the exact find and goes straight to allocation.
    presence_filter: u64,
}

impl VictimList {
    /// Creates a victim list with room for `capacity` block addresses; a
    /// block becomes conflicting once its eviction count *exceeds*
    /// `conflict_threshold` (the paper uses a threshold of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, conflict_threshold: u32) -> Self {
        assert!(capacity > 0, "victim list capacity must be non-zero");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            conflict_threshold,
            clock: 0,
            replacements: 0,
            conflict_filter: 0,
            presence_filter: 0,
        }
    }

    /// The filter bit of `block` (multiplicative hash: block addresses are
    /// block-aligned, so the low bits carry no information).
    #[inline]
    fn filter_bit(block: BlockAddr) -> u64 {
        1 << (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
    }

    /// Rebuilds both filters from the entries (after a displacement
    /// removed a block, its bits may have to go).
    fn rebuild_filters(&mut self) {
        self.presence_filter = 0;
        self.conflict_filter = 0;
        for entry in &self.entries {
            self.presence_filter |= entry.bit;
            if entry.count > self.conflict_threshold {
                self.conflict_filter |= entry.bit;
            }
        }
    }

    /// Number of entries the list can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries currently occupied.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no victims have been recorded (or all have aged out).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records that `block` was just evicted from the cache.
    ///
    /// Returns `true` if the block is now considered conflicting (its count
    /// exceeds the threshold), so callers can switch the block to its
    /// set-associative position on the refill.
    pub fn record_eviction(&mut self, block: BlockAddr) -> bool {
        self.clock += 1;
        let threshold = self.conflict_threshold;
        let bit = Self::filter_bit(block);
        if self.presence_filter & bit != 0 {
            // Possibly tracked: the exact find decides.
            if let Some(entry) = self.entries.iter_mut().find(|e| e.block == block) {
                entry.count += 1;
                entry.last_use = self.clock;
                let conflicting = entry.count > threshold;
                if conflicting {
                    self.conflict_filter |= bit;
                }
                return conflicting;
            }
        }
        let entry = VictimEntry {
            block,
            count: 1,
            last_use: self.clock,
            bit,
        };
        if self.entries.len() == self.capacity {
            self.replacements += 1;
            // Replace the least recently touched entry (captures conflicts
            // that recur "within a short duration").
            if let Some(pos) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
            {
                let displaced_conflicting = self.entries[pos].count > threshold;
                self.entries[pos] = entry;
                self.presence_filter |= bit;
                // Displacements leave stale bits behind (harmless: a stale
                // bit only costs a wasted exact scan). Rebuild exactly when
                // a conflicting block was displaced — is_conflicting answers
                // depend on it staying tight — and periodically so the
                // presence filter does not saturate under heavy thrashing.
                if displaced_conflicting || self.replacements & 0xFF == 0 {
                    self.rebuild_filters();
                }
            }
        } else {
            self.entries.push(entry);
            self.presence_filter |= bit;
        }
        let conflicting = 1 > threshold;
        if conflicting {
            self.conflict_filter |= bit;
        }
        conflicting
    }

    /// True if `block` has been evicted more than the threshold number of
    /// times while tracked by the list.
    #[inline]
    pub fn is_conflicting(&self, block: BlockAddr) -> bool {
        if self.conflict_filter & Self::filter_bit(block) == 0 {
            return false;
        }
        self.entries
            .iter()
            .any(|e| e.block == block && e.count > self.conflict_threshold)
    }

    /// The eviction count recorded for `block`, if it is currently tracked.
    pub fn eviction_count(&self, block: BlockAddr) -> Option<u32> {
        self.entries
            .iter()
            .find(|e| e.block == block)
            .map(|e| e.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_has_16_entries() {
        // The paper's list: 16 entries, conflicting after two evictions.
        let mut list = VictimList::new(16, 2);
        assert!(list.is_empty());
        let flagged = 0x1000;
        for _ in 0..3 {
            list.record_eviction(flagged);
        }
        // Fifteen newer victims fill the list without displacing the flag…
        for i in 1..16u64 {
            list.record_eviction(0x1000 + i * 0x100);
        }
        assert!(list.is_conflicting(flagged));
        // …and a sixteenth displaces it, the least recently touched.
        list.record_eviction(0x9000);
        assert!(!list.is_conflicting(flagged));
    }

    #[test]
    fn becomes_conflicting_after_threshold_exceeded() {
        let mut list = VictimList::new(4, 2);
        let block = 0x1000;
        assert!(!list.record_eviction(block));
        assert!(!list.is_conflicting(block));
        assert!(!list.record_eviction(block));
        assert!(!list.is_conflicting(block));
        assert!(list.record_eviction(block));
        assert!(list.is_conflicting(block));
        assert_eq!(list.eviction_count(block), Some(3));
    }

    #[test]
    fn zero_threshold_flags_immediately() {
        let mut list = VictimList::new(4, 0);
        assert!(list.record_eviction(0x2000));
        assert!(list.is_conflicting(0x2000));
    }

    #[test]
    fn capacity_is_bounded_and_lru_entry_is_displaced() {
        let mut list = VictimList::new(2, 2);
        list.record_eviction(0x100);
        list.record_eviction(0x200);
        // Touch 0x100 so 0x200 is the stalest.
        list.record_eviction(0x100);
        list.record_eviction(0x300);
        assert_eq!(list.len(), 2);
        assert!(
            list.eviction_count(0x200).is_none(),
            "stale entry displaced"
        );
        assert_eq!(list.eviction_count(0x100), Some(2));
        assert_eq!(list.eviction_count(0x300), Some(1));
    }

    #[test]
    fn displaced_blocks_lose_their_history() {
        let mut list = VictimList::new(1, 2);
        list.record_eviction(0xa00);
        list.record_eviction(0xa00);
        list.record_eviction(0xb00); // displaces 0xa00
                                     // 0xa00 starts from scratch.
        assert!(!list.record_eviction(0xa00));
        assert_eq!(list.eviction_count(0xa00), Some(1));
    }

    #[test]
    fn untracked_blocks_are_not_conflicting() {
        let list = VictimList::new(16, 2);
        assert!(!list.is_conflicting(0xdead_0000));
        assert_eq!(list.eviction_count(0xdead_0000), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = VictimList::new(0, 2);
    }
}
