//! Hit/miss accounting for the L2.

use crate::cache::AccessKind;

/// Access counters for one cache: the L2, counted by
/// [`crate::MemoryHierarchy`].
///
/// All counters are raw event counts; derived ratios are provided as
/// methods so they are always consistent with the counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of read (load / fetch) accesses.
    pub reads: u64,
    /// Number of read accesses that missed.
    pub read_misses: u64,
    /// Number of write (store) accesses.
    pub writes: u64,
    /// Number of write accesses that missed.
    pub write_misses: u64,
    /// Number of blocks evicted to make room for fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Total number of accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total number of misses (read + write).
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Overall miss ratio in `[0, 1]`; zero if there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        ratio(self.misses(), self.accesses())
    }

    /// Overall miss rate expressed as a percentage, as the paper's Table 4
    /// reports it.
    pub fn miss_rate_percent(&self) -> f64 {
        self.miss_ratio() * 100.0
    }

    /// Records a hit of the given kind.
    #[inline]
    pub fn record_hit(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
        }
    }

    /// Records a miss of the given kind.
    #[inline]
    pub fn record_miss(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Read => {
                self.reads += 1;
                self.read_misses += 1;
            }
            AccessKind::Write => {
                self.writes += 1;
                self.write_misses += 1;
            }
        }
    }

    /// Records an eviction.
    #[inline]
    pub fn record_eviction(&mut self) {
        self.evictions += 1;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_have_zero_ratios() {
        let s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.accesses(), 0);
    }

    #[test]
    fn ratios_follow_counts() {
        let mut s = CacheStats::default();
        for _ in 0..3 {
            s.record_hit(AccessKind::Read);
        }
        s.record_miss(AccessKind::Read);
        s.record_hit(AccessKind::Write);
        s.record_miss(AccessKind::Write);
        assert_eq!(s.accesses(), 6);
        assert_eq!(s.misses(), 2);
        assert!((s.miss_ratio() - 2.0 / 6.0).abs() < 1e-12);
        assert!((s.miss_rate_percent() - 100.0 * 2.0 / 6.0).abs() < 1e-9);
    }
}
