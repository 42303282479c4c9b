//! A set-associative tag store with LRU replacement and explicit placement
//! control.
//!
//! The cache tracks *which way* every resident block occupies and whether it
//! was placed in its direct-mapping position or in a set-associative
//! (LRU-chosen) position — the distinction selective direct-mapping rests on.

use crate::geometry::CacheGeometry;
use crate::stats::CacheStats;
use crate::{Addr, BlockAddr, WayIndex};

/// Whether an access reads or writes the block.
///
/// Writes never use prediction in the paper (stores check the tag array
/// first and then write only the matching way); the distinction matters for
/// energy accounting and for dirty-bit bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load or an instruction fetch.
    Read,
    /// A store.
    Write,
}

/// Where a newly filled block is placed within its set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Conventional placement: the LRU way of the set is victimised.
    SetAssociative,
    /// Selective-DM placement: the block goes to its direct-mapping way
    /// regardless of recency, evicting whatever lives there.
    DirectMapped,
}

/// A resident cache block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    /// Block-aligned address of the resident block.
    pub block_addr: BlockAddr,
    /// True if the block has been written since it was filled.
    pub dirty: bool,
    /// True if the block was placed in its direct-mapping way.
    pub direct_mapped: bool,
}

/// A plain bit vector used for the per-way valid/dirty/direct-mapped flags.
///
/// The tag store keeps flags out of the tag array so the hot lookup loop
/// touches only the contiguous `tags` slice plus one flag word per set.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    #[inline]
    fn get(&self, index: usize) -> bool {
        (self.words[index / 64] >> (index % 64)) & 1 != 0
    }

    /// The `len` bits starting at `base`, as the low bits of one word.
    /// `base` is always `set * assoc` with both powers of two, so for
    /// `len <= 64` the range never straddles a word boundary.
    #[inline]
    fn range_mask(&self, base: usize, len: usize) -> u64 {
        debug_assert!(len <= 64 && base % len == 0);
        let word = self.words[base / 64];
        let mask = if len == 64 {
            u64::MAX
        } else {
            (1u64 << len) - 1
        };
        (word >> (base % 64)) & mask
    }

    #[inline]
    fn set(&mut self, index: usize, value: bool) {
        let word = &mut self.words[index / 64];
        let bit = 1u64 << (index % 64);
        if value {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// What one fused pass over a set observed: the hit way (scan stops there),
/// or — when the tag missed and the whole set was necessarily visited — the
/// LRU victim the set-associative fill would choose (first invalid way,
/// else the first way with the minimum LRU stamp).
struct SetScan {
    hit_way: Option<WayIndex>,
    victim_way: WayIndex,
}

/// The block was written since it was filled.
const FLAG_DIRTY: u8 = 1;
/// The block sits in its direct-mapping way.
const FLAG_DM: u8 = 2;

/// Result of a cache access or fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// True if the block was resident.
    pub hit: bool,
    /// The way that hit, or the way that was (or would be) filled.
    pub way: WayIndex,
    /// True if the block that hit (or was filled) sits in its direct-mapping
    /// way.
    pub in_direct_mapped_way: bool,
    /// The block evicted to make room, if any (only on fills).
    pub evicted: Option<CacheLine>,
}

impl AccessResult {
    /// True if the access hit.
    pub fn is_hit(&self) -> bool {
        self.hit
    }

    /// True if the access missed.
    pub fn is_miss(&self) -> bool {
        !self.hit
    }
}

/// A set-associative cache tag store with LRU replacement.
///
/// The cache stores no data payload — the workspace is a timing and energy
/// simulator, so only residency, way position, and dirtiness matter.
///
/// The tag store is laid out structure-of-arrays: contiguous `tags` and
/// `lru_stamps` slices plus valid/dirty/direct-mapped bitsets, all indexed
/// by `set * associativity + way`, with dirty/direct-mapped sharing one
/// flag byte per block. Block addresses are reconstructed from
/// `(set, tag)` on demand, so the lookup loop touches the minimum of
/// memory, and one fused scan serves the probe, hit, and victim-selection
/// paths (see `docs/PERFORMANCE.md`).
///
/// # Example
///
/// ```
/// use wp_mem::{AccessKind, CacheGeometry, Placement, SetAssocCache};
///
/// # fn main() -> Result<(), wp_mem::GeometryError> {
/// let mut cache = SetAssocCache::new(CacheGeometry::new(16 * 1024, 32, 4)?);
/// let miss = cache.access(0x40, AccessKind::Read, Placement::DirectMapped);
/// assert!(miss.is_miss());
/// let hit = cache.access(0x44, AccessKind::Read, Placement::DirectMapped);
/// assert!(hit.is_hit() && hit.in_direct_mapped_way);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// Ways per set, cached out of the geometry for the hot loop.
    assoc: usize,
    /// Tag of the block in `(set, way)`, at index `set * assoc + way`.
    tags: Vec<u64>,
    /// LRU stamp of `(set, way)`; larger is more recently used.
    lru_stamps: Vec<u64>,
    valid: BitSet,
    /// Per-block dirty / direct-mapped flag byte ([`FLAG_DIRTY`] |
    /// [`FLAG_DM`]): the fill path overwrites the whole byte in one store
    /// and the eviction path reads both flags in one load.
    flags: Vec<u8>,
    stats: CacheStats,
    clock: u64,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let blocks = geometry.num_blocks();
        Self {
            geometry,
            assoc: geometry.associativity(),
            tags: vec![0; blocks],
            lru_stamps: vec![0; blocks],
            valid: BitSet::new(blocks),
            flags: vec![0; blocks],
            stats: CacheStats::default(),
            clock: 0,
        }
    }

    /// One fused pass over `set`'s ways: the hot loop walks the contiguous
    /// tag lane with a scalar early-exit compare against the set's
    /// valid-bitset word. At L1 associativities (2–8 ways) the early exit
    /// wins: most probes hit, usually in a hot way, while a branch-free
    /// whole-lane compare always pays for every way — measured at 0.797×
    /// the scalar scan. On a miss — where the whole set was necessarily
    /// visited — the scan also reports the victim a set-associative fill
    /// would choose (first invalid way, else the first way with the minimum
    /// LRU stamp), so the fill path never re-scans the tags.
    #[inline(always)]
    fn scan(&self, base: usize, tag: u64) -> SetScan {
        if self.assoc > 64 {
            return self.scan_wide(base, tag);
        }
        let valid_mask = self.valid.range_mask(base, self.assoc);
        let tags = &self.tags[base..base + self.assoc];
        for (way, &lane) in tags.iter().enumerate() {
            if lane == tag && valid_mask & (1 << way) != 0 {
                return SetScan {
                    hit_way: Some(way),
                    victim_way: 0,
                };
            }
        }
        let full = if self.assoc == 64 {
            u64::MAX
        } else {
            (1u64 << self.assoc) - 1
        };
        let victim_way = if valid_mask != full {
            // First invalid way.
            (!valid_mask).trailing_zeros() as usize
        } else {
            // All valid: first way with the minimum LRU stamp.
            let stamps = &self.lru_stamps[base..base + self.assoc];
            let mut lru_way = 0;
            let mut lru_stamp = stamps[0];
            for (way, &stamp) in stamps.iter().enumerate().skip(1) {
                if stamp < lru_stamp {
                    lru_stamp = stamp;
                    lru_way = way;
                }
            }
            lru_way
        };
        SetScan {
            hit_way: None,
            victim_way,
        }
    }

    /// Bit-at-a-time variant of [`SetAssocCache::scan`] for associativities
    /// beyond one mask word (cold: no realistic configuration needs it).
    #[cold]
    fn scan_wide(&self, base: usize, tag: u64) -> SetScan {
        let mut first_invalid = None;
        let mut lru_way = 0;
        let mut lru_stamp = u64::MAX;
        for way in 0..self.assoc {
            let index = base + way;
            if !self.valid.get(index) {
                if first_invalid.is_none() {
                    first_invalid = Some(way);
                }
                continue;
            }
            if self.tags[index] == tag {
                return SetScan {
                    hit_way: Some(way),
                    victim_way: 0,
                };
            }
            if self.lru_stamps[index] < lru_stamp {
                lru_stamp = self.lru_stamps[index];
                lru_way = way;
            }
        }
        SetScan {
            hit_way: None,
            victim_way: first_invalid.unwrap_or(lru_way),
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the accumulated statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Looks up `addr` without modifying replacement state or statistics.
    ///
    /// Returns the way holding the block if it is resident. This models a
    /// pure tag-array probe.
    #[inline]
    pub fn probe(&self, addr: Addr) -> Option<WayIndex> {
        let base = self.geometry.set_index(addr) * self.assoc;
        self.scan(base, self.geometry.tag(addr)).hit_way
    }

    /// Performs a full access: looks up `addr`, fills on a miss using the
    /// requested `placement`, updates LRU state and statistics.
    ///
    /// On a miss the returned [`AccessResult::evicted`] carries the victim
    /// block so callers (e.g. the selective-DM victim list) can observe
    /// replacements.
    #[inline(always)]
    pub fn access(&mut self, addr: Addr, kind: AccessKind, placement: Placement) -> AccessResult {
        self.clock += 1;
        let set = self.geometry.set_index(addr);
        let tag = self.geometry.tag(addr);
        let dm_way = self.geometry.direct_mapped_way(addr);
        let base = set * self.assoc;

        let scan = self.scan(base, tag);
        if let Some(way) = scan.hit_way {
            let index = base + way;
            self.lru_stamps[index] = self.clock;
            if kind == AccessKind::Write {
                self.flags[index] |= FLAG_DIRTY;
            }
            self.stats.record_hit(kind);
            return AccessResult {
                hit: true,
                way,
                in_direct_mapped_way: way == dm_way,
                evicted: None,
            };
        }

        self.stats.record_miss(kind);
        let (way, evicted) = self.fill_scanned(set, tag, dm_way, placement, scan.victim_way);
        if kind == AccessKind::Write {
            self.flags[base + way] |= FLAG_DIRTY;
        }
        AccessResult {
            hit: false,
            way,
            in_direct_mapped_way: way == dm_way,
            evicted,
        }
    }

    /// Number of valid blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.valid.count_ones()
    }

    /// Fills `(set, tag)` after a miss whose set scan already chose the
    /// set-associative victim (`scanned_victim`); direct-mapped placement
    /// overrides it with the DM way.
    fn fill_scanned(
        &mut self,
        set: usize,
        tag: u64,
        dm_way: WayIndex,
        placement: Placement,
        scanned_victim: WayIndex,
    ) -> (WayIndex, Option<CacheLine>) {
        let victim_way = match placement {
            Placement::DirectMapped => dm_way,
            Placement::SetAssociative => scanned_victim,
        };
        let index = set * self.assoc + victim_way;
        let evicted = self.valid.get(index).then(|| CacheLine {
            block_addr: self.geometry.block_addr_from_parts(set, self.tags[index]),
            dirty: self.flags[index] & FLAG_DIRTY != 0,
            direct_mapped: self.flags[index] & FLAG_DM != 0,
        });
        if evicted.is_some() {
            self.stats.record_eviction();
        }
        self.valid.set(index, true);
        self.flags[index] = if victim_way == dm_way { FLAG_DM } else { 0 };
        self.tags[index] = tag;
        self.lru_stamps[index] = self.clock;
        (victim_way, evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(assoc: usize) -> SetAssocCache {
        // 4 sets of `assoc` 32-byte blocks.
        SetAssocCache::new(CacheGeometry::new(4 * assoc * 32, 32, assoc).expect("valid geometry"))
    }

    /// Addresses that land in set 0 with distinct tags.
    fn set0_addr(cache: &SetAssocCache, i: u64) -> Addr {
        let g = cache.geometry();
        i * (g.num_sets() * g.block_bytes()) as u64
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache(4);
        assert!(c
            .access(0x100, AccessKind::Read, Placement::SetAssociative)
            .is_miss());
        assert!(c
            .access(0x100, AccessKind::Read, Placement::SetAssociative)
            .is_hit());
        assert_eq!(c.stats().reads, 2);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn same_block_different_word_hits() {
        let mut c = small_cache(4);
        c.access(0x100, AccessKind::Read, Placement::SetAssociative);
        assert!(c
            .access(0x11c, AccessKind::Read, Placement::SetAssociative)
            .is_hit());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache(2);
        let a = set0_addr(&c, 0);
        let b = set0_addr(&c, 1);
        let d = set0_addr(&c, 2);
        c.access(a, AccessKind::Read, Placement::SetAssociative);
        c.access(b, AccessKind::Read, Placement::SetAssociative);
        // Touch `a` so `b` is LRU.
        c.access(a, AccessKind::Read, Placement::SetAssociative);
        let res = c.access(d, AccessKind::Read, Placement::SetAssociative);
        assert!(res.is_miss());
        let evicted = res.evicted.expect("a block must be evicted");
        assert_eq!(evicted.block_addr, c.geometry().block_addr(b));
        // `a` must still hit.
        assert!(c
            .access(a, AccessKind::Read, Placement::SetAssociative)
            .is_hit());
    }

    #[test]
    fn direct_mapped_placement_goes_to_dm_way() {
        let mut c = small_cache(4);
        for i in 0..4u64 {
            let addr = set0_addr(&c, i);
            let res = c.access(addr, AccessKind::Read, Placement::DirectMapped);
            assert!(res.is_miss());
            assert_eq!(res.way, c.geometry().direct_mapped_way(addr));
            assert!(res.in_direct_mapped_way);
        }
        // All four live in distinct DM ways of set 0, so all still hit.
        for i in 0..4u64 {
            assert!(c
                .access(set0_addr(&c, i), AccessKind::Read, Placement::DirectMapped)
                .is_hit());
        }
    }

    #[test]
    fn dm_placement_conflicts_when_dm_ways_collide() {
        let mut c = small_cache(4);
        // Addresses 0 and 4 share set 0 *and* DM way 0 (way bits wrap mod 4).
        let a = set0_addr(&c, 0);
        let b = set0_addr(&c, 4);
        assert_eq!(
            c.geometry().direct_mapped_way(a),
            c.geometry().direct_mapped_way(b)
        );
        c.access(a, AccessKind::Read, Placement::DirectMapped);
        let res = c.access(b, AccessKind::Read, Placement::DirectMapped);
        assert!(res.is_miss());
        assert_eq!(
            res.evicted.expect("dm conflict must evict").block_addr,
            c.geometry().block_addr(a)
        );
        // With set-associative placement the two coexist.
        let mut c = small_cache(4);
        c.access(a, AccessKind::Read, Placement::SetAssociative);
        c.access(b, AccessKind::Read, Placement::SetAssociative);
        assert!(c
            .access(a, AccessKind::Read, Placement::SetAssociative)
            .is_hit());
        assert!(c
            .access(b, AccessKind::Read, Placement::SetAssociative)
            .is_hit());
    }

    #[test]
    fn write_marks_dirty_and_eviction_reports_it() {
        let mut c = small_cache(1);
        let a = set0_addr(&c, 0);
        let b = set0_addr(&c, 1);
        c.access(a, AccessKind::Write, Placement::SetAssociative);
        let res = c.access(b, AccessKind::Read, Placement::SetAssociative);
        let evicted = res.evicted.expect("direct-mapped cache must evict");
        assert!(evicted.dirty);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = small_cache(2);
        let a = set0_addr(&c, 0);
        let b = set0_addr(&c, 1);
        let d = set0_addr(&c, 2);
        c.access(a, AccessKind::Read, Placement::SetAssociative);
        c.access(b, AccessKind::Read, Placement::SetAssociative);
        // Probing `a` must not refresh it.
        assert!(c.probe(a).is_some());
        let res = c.access(d, AccessKind::Read, Placement::SetAssociative);
        assert_eq!(
            res.evicted.expect("must evict").block_addr,
            c.geometry().block_addr(a)
        );
    }

    #[test]
    fn resident_blocks_never_exceeds_capacity() {
        let mut c = small_cache(2);
        for i in 0..64u64 {
            c.access(i * 32, AccessKind::Read, Placement::SetAssociative);
        }
        assert!(c.resident_blocks() <= c.geometry().num_blocks());
    }
}
