//! The L2 + main-memory latency model of Table 1.
//!
//! The paper's system configuration (Table 1) places a 1 MB, 8-way, 12-cycle
//! L2 behind the L1s, and main memory at 80 cycles plus 4 cycles per 8 bytes
//! transferred. [`MemoryHierarchy`] models exactly that: it answers "how many
//! cycles does an L1 miss take to fill, and which lower-level events did it
//! cause".

use crate::cache::{AccessKind, Placement, SetAssocCache};
use crate::geometry::{CacheGeometry, GeometryError};
use crate::stats::CacheStats;
use crate::Addr;

/// Configuration of the levels behind L1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// L2 capacity in bytes (Table 1: 1 MB).
    pub l2_size_bytes: usize,
    /// L2 block size in bytes.
    pub l2_block_bytes: usize,
    /// L2 associativity (Table 1: 8).
    pub l2_associativity: usize,
    /// L2 hit latency in cycles (Table 1: 12).
    pub l2_latency: u64,
    /// Fixed main-memory latency in cycles (Table 1: 80).
    pub memory_latency: u64,
    /// Additional cycles per 8 bytes transferred from memory (Table 1: 4).
    pub memory_cycles_per_8_bytes: u64,
    /// Size of the block transferred from memory on an L2 miss, in bytes
    /// (the L1 block size; Table 1's L1s use 32-byte blocks).
    pub transfer_block_bytes: usize,
}

impl Default for HierarchyConfig {
    /// The paper's Table 1 configuration.
    fn default() -> Self {
        Self {
            l2_size_bytes: 1024 * 1024,
            l2_block_bytes: 64,
            l2_associativity: 8,
            l2_latency: 12,
            memory_latency: 80,
            memory_cycles_per_8_bytes: 4,
            transfer_block_bytes: 32,
        }
    }
}

/// Which level ultimately supplied the data for an L1 miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HierarchyOutcome {
    /// The L2 held the block.
    L2Hit,
    /// The access went to main memory.
    MemoryAccess,
}

/// The levels of the memory system behind the L1 caches.
///
/// # Example
///
/// ```
/// use wp_mem::{AccessKind, HierarchyConfig, MemoryHierarchy};
///
/// # fn main() -> Result<(), wp_mem::GeometryError> {
/// let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::default())?;
/// // A cold access goes to memory: 12 (L2) + 80 + 4 * 32/8 cycles.
/// let (latency, _) = hierarchy.access(0x8000, AccessKind::Read);
/// assert_eq!(latency, 12 + 80 + 16);
/// // The refill leaves the block in L2, so the next miss to it is an L2 hit.
/// let (latency, _) = hierarchy.access(0x8000, AccessKind::Read);
/// assert_eq!(latency, 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l2: SetAssocCache,
    l2_stats: CacheStats,
    memory_accesses: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if the L2 parameters do not describe a
    /// valid cache geometry.
    pub fn new(config: HierarchyConfig) -> Result<Self, GeometryError> {
        let geometry = CacheGeometry::new(
            config.l2_size_bytes,
            config.l2_block_bytes,
            config.l2_associativity,
        )?;
        Ok(Self {
            config,
            l2: SetAssocCache::new(geometry),
            l2_stats: CacheStats::default(),
            memory_accesses: 0,
        })
    }

    /// The configuration the hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        &self.l2_stats
    }

    /// Number of accesses that reached main memory.
    pub fn memory_accesses(&self) -> u64 {
        self.memory_accesses
    }

    /// Latency of transferring one L1 block from main memory.
    pub fn memory_transfer_latency(&self) -> u64 {
        self.config.memory_latency
            + self.config.memory_cycles_per_8_bytes
                * (self.config.transfer_block_bytes as u64).div_ceil(8)
    }

    /// Services an L1 miss for `addr`.
    ///
    /// Returns the number of cycles beyond the L1 access itself, and which
    /// level supplied the data. The L2 is updated (fills on miss) so locality
    /// across L1 misses is captured.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> (u64, HierarchyOutcome) {
        let result = self.l2.access(addr, kind, Placement::SetAssociative);
        if result.evicted.is_some() {
            self.l2_stats.record_eviction();
        }
        if result.is_hit() {
            self.l2_stats.record_hit(kind);
            (self.config.l2_latency, HierarchyOutcome::L2Hit)
        } else {
            self.l2_stats.record_miss(kind);
            self.memory_accesses += 1;
            (
                self.config.l2_latency + self.memory_transfer_latency(),
                HierarchyOutcome::MemoryAccess,
            )
        }
    }

    /// Resets L2 statistics and the memory access counter (contents are
    /// preserved, mirroring a warm-up / measurement split).
    pub fn reset_stats(&mut self) {
        self.l2_stats = CacheStats::default();
        self.memory_accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = HierarchyConfig::default();
        assert_eq!(c.l2_size_bytes, 1024 * 1024);
        assert_eq!(c.l2_associativity, 8);
        assert_eq!(c.l2_latency, 12);
        assert_eq!(c.memory_latency, 80);
        assert_eq!(c.memory_cycles_per_8_bytes, 4);
    }

    #[test]
    fn memory_latency_includes_transfer() {
        let h = MemoryHierarchy::new(HierarchyConfig::default()).expect("valid config");
        // 32-byte L1 block: 80 + 4 * 4 = 96 cycles.
        assert_eq!(h.memory_transfer_latency(), 96);
    }

    #[test]
    fn l2_captures_reuse() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::default()).expect("valid config");
        let (first, outcome) = h.access(0x1_0000, AccessKind::Read);
        assert_eq!(outcome, HierarchyOutcome::MemoryAccess);
        let (second, outcome) = h.access(0x1_0000, AccessKind::Read);
        assert_eq!(outcome, HierarchyOutcome::L2Hit);
        assert!(second < first);
        assert_eq!(h.memory_accesses(), 1);
    }

    #[test]
    fn distinct_l2_blocks_each_go_to_memory_once() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::default()).expect("valid config");
        for i in 0..10u64 {
            h.access(i * 64, AccessKind::Read);
        }
        assert_eq!(h.memory_accesses(), 10);
        for i in 0..10u64 {
            let (_, outcome) = h.access(i * 64, AccessKind::Read);
            assert_eq!(outcome, HierarchyOutcome::L2Hit);
        }
        assert_eq!(h.memory_accesses(), 10);
    }

    #[test]
    fn invalid_l2_geometry_is_rejected() {
        let config = HierarchyConfig {
            l2_associativity: 3,
            ..HierarchyConfig::default()
        };
        assert!(MemoryHierarchy::new(config).is_err());
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::default()).expect("valid config");
        h.access(0x2_0000, AccessKind::Read);
        h.reset_stats();
        assert_eq!(h.memory_accesses(), 0);
        let (_, outcome) = h.access(0x2_0000, AccessKind::Read);
        assert_eq!(outcome, HierarchyOutcome::L2Hit);
    }
}
