//! The oracle's tag store: one `Option<Line>` per way, nested `Vec`s, and
//! plain division/remainder address arithmetic.
//!
//! This is the model `wp_mem::SetAssocCache` is *supposed* to implement.
//! Where the optimized store keeps structure-of-arrays tag lanes, packed
//! flag bytes, a valid bitset, and a fused scan, the oracle keeps a
//! `Vec<Vec<Option<Line>>>` holding whole block addresses, scans sets one
//! way at a time, and derives set/tag/way by `/` and `%` instead of
//! precomputed shifts and masks. Every observable decision — hit way,
//! victim way, LRU ordering, direct-mapped placement, eviction reporting —
//! must agree with the optimized store exactly; the conformance harness in
//! `wp-experiments` asserts that end to end.

use wp_mem::{Addr, BlockAddr, WayIndex};

pub use wp_mem::{AccessKind, Placement};

/// Naive address arithmetic for a set-associative cache, computed with
/// division and remainder on every call (the optimized
/// [`wp_mem::CacheGeometry`] precomputes shift/mask equivalents).
///
/// All parameters are powers of two — validated by the caller through
/// [`wp_cache::L1Config::geometry`] — so the two formulations agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleGeometry {
    /// Block (line) size in bytes.
    pub block_bytes: u64,
    /// Number of sets.
    pub num_sets: u64,
    /// Ways per set.
    pub associativity: u64,
}

impl OracleGeometry {
    /// Derives the naive geometry from a validated optimized geometry.
    pub fn from_mem(geometry: &wp_mem::CacheGeometry) -> Self {
        Self {
            block_bytes: geometry.block_bytes() as u64,
            num_sets: geometry.num_sets() as u64,
            associativity: geometry.associativity() as u64,
        }
    }

    /// The block-aligned address of `addr`.
    pub fn block_addr(&self, addr: Addr) -> BlockAddr {
        addr - addr % self.block_bytes
    }

    /// The set `addr` maps to.
    pub fn set_index(&self, addr: Addr) -> usize {
        ((addr / self.block_bytes) % self.num_sets) as usize
    }

    /// The tag of `addr`: everything above the set-index bits.
    pub fn tag(&self, addr: Addr) -> u64 {
        addr / (self.block_bytes * self.num_sets)
    }

    /// The direct-mapping way of `addr` (Section 2.1: the index bits
    /// extended with `log2(associativity)` bits borrowed from the tag).
    pub fn direct_mapped_way(&self, addr: Addr) -> WayIndex {
        (self.tag(addr) % self.associativity) as WayIndex
    }
}

/// A resident block: the full block address (the optimized store
/// reconstructs it from `(set, tag)`), its flags, and its LRU stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// Block-aligned address of the resident block.
    pub block_addr: BlockAddr,
    /// True if the block has been written since it was filled.
    pub dirty: bool,
    /// True if the block was placed in its direct-mapping way.
    pub direct_mapped: bool,
    /// LRU stamp; larger is more recently used.
    stamp: u64,
}

/// What one access observed — mirrors [`wp_mem::AccessResult`] field for
/// field, with the evicted line reported as `(block_addr, dirty,
/// direct_mapped)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleAccess {
    /// True if the block was resident.
    pub hit: bool,
    /// The way that hit, or the way that was filled.
    pub way: WayIndex,
    /// True if the block sits in its direct-mapping way after the access.
    pub in_direct_mapped_way: bool,
    /// The block evicted to make room, if any.
    pub evicted: Option<(BlockAddr, bool, bool)>,
}

/// The nested-`Vec` LRU tag store.
#[derive(Debug, Clone)]
pub struct OracleCache {
    geometry: OracleGeometry,
    /// `sets[set][way]` — `None` marks an invalid way.
    sets: Vec<Vec<Option<Line>>>,
    clock: u64,
}

impl OracleCache {
    /// An empty cache with the given naive geometry.
    pub fn new(geometry: OracleGeometry) -> Self {
        let sets = (0..geometry.num_sets)
            .map(|_| vec![None; geometry.associativity as usize])
            .collect();
        Self {
            geometry,
            sets,
            clock: 0,
        }
    }

    /// The naive geometry in use.
    pub fn geometry(&self) -> &OracleGeometry {
        &self.geometry
    }

    /// Looks up `addr` without touching LRU state — the pure tag-array
    /// probe the i-cache's call bookkeeping uses to learn a return block's
    /// way.
    pub fn probe(&self, addr: Addr) -> Option<WayIndex> {
        let set = &self.sets[self.geometry.set_index(addr)];
        let block_addr = self.geometry.block_addr(addr);
        set.iter()
            .position(|way| matches!(way, Some(line) if line.block_addr == block_addr))
    }

    /// Number of valid blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|way| way.is_some())
            .count()
    }

    /// One full access: look up, fill on a miss under the requested
    /// placement, refresh LRU state. The rules mirror
    /// [`wp_mem::SetAssocCache::access`] one decision at a time:
    ///
    /// * a hit refreshes the hit way's stamp (and dirties it on a write);
    /// * a set-associative fill victimises the first invalid way, else the
    ///   first way holding the minimum stamp;
    /// * a direct-mapped fill victimises the address's direct-mapping way
    ///   regardless of recency;
    /// * the filled line is flagged direct-mapped exactly when it landed in
    ///   its direct-mapping way, whichever placement was requested.
    pub fn access(&mut self, addr: Addr, kind: AccessKind, placement: Placement) -> OracleAccess {
        self.clock += 1;
        let geometry = self.geometry;
        let set_index = geometry.set_index(addr);
        let block_addr = geometry.block_addr(addr);
        let dm_way = geometry.direct_mapped_way(addr);
        let set = &mut self.sets[set_index];

        // Hit path: scan the ways lowest-first; tags are unique per set, so
        // the first match is the only match.
        for (way, slot) in set.iter_mut().enumerate() {
            if let Some(line) = slot {
                if line.block_addr == block_addr {
                    line.stamp = self.clock;
                    if kind == AccessKind::Write {
                        line.dirty = true;
                    }
                    return OracleAccess {
                        hit: true,
                        way,
                        in_direct_mapped_way: way == dm_way,
                        evicted: None,
                    };
                }
            }
        }

        // Miss path: choose the victim the placement asks for.
        let victim_way = match placement {
            Placement::DirectMapped => dm_way,
            Placement::SetAssociative => {
                match set.iter().position(Option::is_none) {
                    Some(invalid) => invalid,
                    None => {
                        // All ways valid: first way with the minimum stamp.
                        let mut lru_way = 0;
                        for way in 1..set.len() {
                            let stamp = |w: usize| set[w].as_ref().map(|l| l.stamp);
                            if stamp(way) < stamp(lru_way) {
                                lru_way = way;
                            }
                        }
                        lru_way
                    }
                }
            }
        };
        let evicted = set[victim_way]
            .as_ref()
            .map(|line| (line.block_addr, line.dirty, line.direct_mapped));
        set[victim_way] = Some(Line {
            block_addr,
            dirty: kind == AccessKind::Write,
            direct_mapped: victim_way == dm_way,
            stamp: self.clock,
        });
        OracleAccess {
            hit: false,
            way: victim_way,
            in_direct_mapped_way: victim_way == dm_way,
            evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_mem::CacheGeometry;

    fn geometry(assoc: usize) -> OracleGeometry {
        OracleGeometry::from_mem(&CacheGeometry::new(4 * assoc * 32, 32, assoc).expect("valid"))
    }

    /// Addresses that land in set 0 with distinct tags.
    fn set0_addr(g: &OracleGeometry, i: u64) -> Addr {
        i * g.num_sets * g.block_bytes
    }

    #[test]
    fn naive_arithmetic_matches_the_optimized_geometry() {
        for (size, block, assoc) in [(16 * 1024, 32, 4), (8 * 1024, 64, 2), (4 * 1024, 16, 8)] {
            let fast = CacheGeometry::new(size, block, assoc).expect("valid");
            let slow = OracleGeometry::from_mem(&fast);
            for addr in [0u64, 0x33, 0x1234_5678, 0xdead_beef, u64::MAX / 2] {
                assert_eq!(slow.block_addr(addr), fast.block_addr(addr));
                assert_eq!(slow.set_index(addr), fast.set_index(addr));
                assert_eq!(slow.tag(addr), fast.tag(addr));
                assert_eq!(slow.direct_mapped_way(addr), fast.direct_mapped_way(addr));
            }
        }
    }

    #[test]
    fn miss_then_hit_and_lru_eviction() {
        let g = geometry(2);
        let mut c = OracleCache::new(g);
        let a = set0_addr(&g, 0);
        let b = set0_addr(&g, 1);
        let d = set0_addr(&g, 2);
        assert!(!c.access(a, AccessKind::Read, Placement::SetAssociative).hit);
        assert!(!c.access(b, AccessKind::Read, Placement::SetAssociative).hit);
        assert!(c.access(a, AccessKind::Read, Placement::SetAssociative).hit);
        // `b` is now LRU and must be the victim. (It was flagged
        // direct-mapped: the set-associative fill happened to land in its
        // direct-mapping way, which is all the flag records — the same rule
        // the optimized store applies.)
        let res = c.access(d, AccessKind::Read, Placement::SetAssociative);
        assert!(!res.hit);
        assert_eq!(res.evicted, Some((g.block_addr(b), false, true)));
        assert!(c.access(a, AccessKind::Read, Placement::SetAssociative).hit);
    }

    #[test]
    fn direct_mapped_placement_targets_the_dm_way() {
        let g = geometry(4);
        let mut c = OracleCache::new(g);
        for i in 0..4u64 {
            let addr = set0_addr(&g, i);
            let res = c.access(addr, AccessKind::Read, Placement::DirectMapped);
            assert!(!res.hit);
            assert_eq!(res.way, g.direct_mapped_way(addr));
            assert!(res.in_direct_mapped_way);
        }
        for i in 0..4u64 {
            assert!(
                c.access(set0_addr(&g, i), AccessKind::Read, Placement::DirectMapped)
                    .hit
            );
        }
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let g = geometry(2);
        let mut c = OracleCache::new(g);
        let a = set0_addr(&g, 0);
        let b = set0_addr(&g, 1);
        c.access(a, AccessKind::Read, Placement::SetAssociative);
        c.access(b, AccessKind::Read, Placement::SetAssociative);
        assert!(c.probe(a).is_some());
        let res = c.access(
            set0_addr(&g, 2),
            AccessKind::Read,
            Placement::SetAssociative,
        );
        assert_eq!(res.evicted.map(|(addr, _, _)| addr), Some(g.block_addr(a)));
    }

    #[test]
    fn writes_mark_dirty_and_evictions_report_it() {
        let g = geometry(1);
        let mut c = OracleCache::new(g);
        let a = set0_addr(&g, 0);
        c.access(a, AccessKind::Write, Placement::SetAssociative);
        let res = c.access(
            set0_addr(&g, 1),
            AccessKind::Read,
            Placement::SetAssociative,
        );
        assert_eq!(res.evicted, Some((g.block_addr(a), true, true)));
    }
}
