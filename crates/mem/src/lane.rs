//! A config-parallel tag store: N structurally identical caches probed as
//! SIMD lanes.
//!
//! Gang-scheduled sweeps broadcast one workload stream to many
//! configurations. Configurations that share a *structural shape* (sets,
//! ways, block size) decompose every address identically — same set index,
//! same tag, same direct-mapping way — so the only thing that differs
//! between them is mutable state: which tags are resident where. The
//! [`LaneTagStore`] lays that state out
//! structure-of-arrays *across configs*: the `(set, way)` slot of all N
//! lanes is contiguous (`tags[(set * assoc + way) * lanes + lane]`), so one
//! probe compares the splatted probe tag against N resident tags with a
//! straight-line pass — a whole-lane compare pointed along the config
//! axis, where every lane genuinely needs an answer and no early exit
//! exists to lose to.
//!
//! Per lane, the semantics are *exactly* [`crate::SetAssocCache`]: LRU
//! stamps from a shared clock (each lane performs one access per call, so
//! the shared clock assigns every lane the same stamp sequence a private
//! clock would), first-invalid-else-first-minimum-LRU victim selection,
//! explicit placement control, and per-lane hit/miss/eviction statistics.
//! The gang engine's conformance harness holds the lane path bit-identical
//! to the scalar path.

use crate::cache::{AccessKind, AccessResult, CacheLine, Placement, FLAG_DIRTY, FLAG_DM};
use crate::geometry::CacheGeometry;
use crate::stats::CacheStats;
use crate::{Addr, WayIndex};

/// Maximum number of configurations one lane batch carries. Eight keeps the
/// per-way lane row at one cache line of tags (8 × 8 bytes) and bounds the
/// scheduler state a batch touches per op.
pub const MAX_LANES: usize = 8;

/// `SetAssocCache` × N with the mutable state lane-strided across configs.
///
/// # Example
///
/// ```
/// use wp_mem::lane::LaneTagStore;
/// use wp_mem::{AccessKind, AccessResult, CacheGeometry, Placement};
///
/// # fn main() -> Result<(), wp_mem::GeometryError> {
/// let geometry = CacheGeometry::new(16 * 1024, 32, 4)?;
/// let mut lanes = LaneTagStore::new(geometry, 2);
/// let placements = [Placement::SetAssociative; 2];
/// let mut results = [AccessResult::default(); 2];
/// lanes.access(0x40, AccessKind::Read, &placements, &mut results);
/// assert!(results.iter().all(|r| r.is_miss()));
/// lanes.access(0x44, AccessKind::Read, &placements, &mut results);
/// assert!(results.iter().all(|r| r.is_hit()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LaneTagStore {
    geometry: CacheGeometry,
    /// Ways per set, cached out of the geometry for the hot loop.
    assoc: usize,
    lanes: usize,
    /// Tag of the block in `(set, way)` for each lane, at index
    /// `(set * assoc + way) * lanes + lane` — the lane-strided SoA layout.
    tags: Vec<u64>,
    /// LRU stamp of `(set, way, lane)`; larger is more recently used.
    /// Stamps only ever compare within one lane.
    lru_stamps: Vec<u64>,
    /// 1 if `(set, way, lane)` holds a valid block. A byte per slot keeps
    /// the probe loop's valid test on the same contiguous lane row as the
    /// tags.
    valid: Vec<u8>,
    /// Per-slot dirty / direct-mapped flag byte (same encoding as the
    /// scalar tag store).
    flags: Vec<u8>,
    stats: Vec<CacheStats>,
    /// One clock for all lanes: every lane performs exactly one access per
    /// [`LaneTagStore::access`] call, so each lane sees the same stamp
    /// sequence a per-lane clock would produce.
    clock: u64,
}

impl LaneTagStore {
    /// Creates `lanes` empty caches of the given shared geometry.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds [`MAX_LANES`], or if the
    /// geometry's associativity does not fit the probe accumulator
    /// (> 255 ways — far beyond any L1 the sweeps explore).
    pub fn new(geometry: CacheGeometry, lanes: usize) -> Self {
        assert!(
            lanes > 0 && lanes <= MAX_LANES,
            "lanes {lanes} out of range"
        );
        assert!(geometry.associativity() < u8::MAX as usize);
        let slots = geometry.num_blocks() * lanes;
        Self {
            geometry,
            assoc: geometry.associativity(),
            lanes,
            tags: vec![0; slots],
            lru_stamps: vec![0; slots],
            valid: vec![0; slots],
            flags: vec![0; slots],
            stats: vec![CacheStats::default(); lanes],
            clock: 0,
        }
    }

    /// The shared geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Number of config lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Accumulated statistics of one lane.
    pub fn stats(&self, lane: usize) -> &CacheStats {
        &self.stats[lane]
    }

    /// Performs one full access *per lane*: look up `addr`, fill misses
    /// using the lane's requested placement, update LRU state and per-lane
    /// statistics. `out[lane]` receives exactly what
    /// [`crate::SetAssocCache::access`] would have returned for that lane's
    /// private cache.
    ///
    /// The probe is the vectorizable part: one pass over `assoc` contiguous
    /// lane rows compares every lane's resident tag against the splatted
    /// probe tag (at most one way per lane can match — tags are unique
    /// within a set). Hit bookkeeping and the minority miss/fill path then
    /// run per lane.
    #[inline]
    pub fn access(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        placements: &[Placement],
        out: &mut [AccessResult],
    ) {
        let lanes = self.lanes;
        debug_assert_eq!(placements.len(), lanes);
        debug_assert_eq!(out.len(), lanes);
        self.clock += 1;
        let set = self.geometry.set_index(addr);
        let tag = self.geometry.tag(addr);
        let dm_way = self.geometry.direct_mapped_way(addr);
        let base = set * self.assoc;

        // Cross-lane probe: for each way, one contiguous lane row of tags
        // and valid bytes against the splatted tag. No early exit — every
        // lane needs an answer — so the loop is branch-free per element
        // and auto-vectorizes.
        const NO_WAY: u8 = u8::MAX;
        let mut hit_way = [NO_WAY; MAX_LANES];
        for way in 0..self.assoc {
            let row = (base + way) * lanes;
            let tag_row = &self.tags[row..row + lanes];
            let valid_row = &self.valid[row..row + lanes];
            for lane in 0..lanes {
                if tag_row[lane] == tag && valid_row[lane] != 0 {
                    hit_way[lane] = way as u8;
                }
            }
        }

        for lane in 0..lanes {
            out[lane] = if hit_way[lane] != NO_WAY {
                let way = hit_way[lane] as WayIndex;
                let index = (base + way) * lanes + lane;
                self.lru_stamps[index] = self.clock;
                if kind == AccessKind::Write {
                    self.flags[index] |= FLAG_DIRTY;
                }
                self.stats[lane].record_hit(kind);
                AccessResult {
                    hit: true,
                    way,
                    in_direct_mapped_way: way == dm_way,
                    evicted: None,
                }
            } else {
                self.stats[lane].record_miss(kind);
                let victim = self.scan_victim(base, lane);
                let (way, evicted) = self.fill(set, lane, tag, dm_way, placements[lane], victim);
                if kind == AccessKind::Write {
                    self.flags[(base + way) * lanes + lane] |= FLAG_DIRTY;
                }
                AccessResult {
                    hit: false,
                    way,
                    in_direct_mapped_way: way == dm_way,
                    evicted,
                }
            };
        }
    }

    /// The set-associative victim of one lane's set: first invalid way,
    /// else the first way with the minimum LRU stamp — the same choice the
    /// scalar scan reports on a miss.
    fn scan_victim(&self, base: usize, lane: usize) -> WayIndex {
        let lanes = self.lanes;
        for way in 0..self.assoc {
            if self.valid[(base + way) * lanes + lane] == 0 {
                return way;
            }
        }
        let mut lru_way = 0;
        let mut lru_stamp = self.lru_stamps[base * lanes + lane];
        for way in 1..self.assoc {
            let stamp = self.lru_stamps[(base + way) * lanes + lane];
            if stamp < lru_stamp {
                lru_stamp = stamp;
                lru_way = way;
            }
        }
        lru_way
    }

    /// Fills `(set, tag)` in one lane after a miss whose victim scan
    /// already ran; direct-mapped placement overrides the scanned victim
    /// with the DM way.
    fn fill(
        &mut self,
        set: usize,
        lane: usize,
        tag: u64,
        dm_way: WayIndex,
        placement: Placement,
        scanned_victim: WayIndex,
    ) -> (WayIndex, Option<CacheLine>) {
        let victim_way = match placement {
            Placement::DirectMapped => dm_way,
            Placement::SetAssociative => scanned_victim,
        };
        let index = (set * self.assoc + victim_way) * self.lanes + lane;
        let evicted = (self.valid[index] != 0).then(|| CacheLine {
            block_addr: self.geometry.block_addr_from_parts(set, self.tags[index]),
            dirty: self.flags[index] & FLAG_DIRTY != 0,
            direct_mapped: self.flags[index] & FLAG_DM != 0,
        });
        if evicted.is_some() {
            self.stats[lane].record_eviction();
        }
        self.valid[index] = 1;
        self.flags[index] = if victim_way == dm_way { FLAG_DM } else { 0 };
        self.tags[index] = tag;
        self.lru_stamps[index] = self.clock;
        (victim_way, evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;

    fn geometry() -> CacheGeometry {
        CacheGeometry::new(4 * 4 * 32, 32, 4).expect("valid geometry")
    }

    /// Addresses that land in set 0 with distinct tags (and cycling DM
    /// ways).
    fn set0_addr(i: u64) -> Addr {
        i * (4 * 32)
    }

    /// A deterministic little address/kind/placement script.
    fn script(len: usize, salt: u64) -> Vec<(Addr, AccessKind, Placement)> {
        let mut state = 0x2545_f491_4f6c_dd1d ^ salt;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..len)
            .map(|_| {
                let addr = set0_addr(next() % 9) + (next() % 4) * 8;
                let kind = if next() % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let placement = if next() % 2 == 0 {
                    Placement::DirectMapped
                } else {
                    Placement::SetAssociative
                };
                (addr, kind, placement)
            })
            .collect()
    }

    #[test]
    fn every_lane_matches_a_private_scalar_cache() {
        // Each lane runs a *different* placement stream; its results and
        // final statistics must match a private SetAssocCache fed the same
        // stream.
        let lanes = 3;
        let mut store = LaneTagStore::new(geometry(), lanes);
        let mut scalars: Vec<_> = (0..lanes).map(|_| SetAssocCache::new(geometry())).collect();
        let mut results = vec![AccessResult::default(); lanes];
        for (i, (addr, kind, placement)) in script(500, 7).into_iter().enumerate() {
            // Lane `l` flips the scripted placement when `(i + l)` is odd,
            // so lanes genuinely diverge.
            let placements: Vec<Placement> = (0..lanes)
                .map(|l| {
                    if (i + l) % 2 == 0 {
                        placement
                    } else {
                        Placement::SetAssociative
                    }
                })
                .collect();
            store.access(addr, kind, &placements, &mut results);
            for (l, scalar) in scalars.iter_mut().enumerate() {
                let expect = scalar.access(addr, kind, placements[l]);
                assert_eq!(results[l], expect, "lane {l} diverged at access {i}");
            }
        }
        for (l, scalar) in scalars.iter().enumerate() {
            assert_eq!(store.stats(l), scalar.stats(), "lane {l} stats diverged");
        }
    }

    #[test]
    fn lanes_are_isolated() {
        // A block filled in lane 0 only must not hit in lane 1.
        let mut store = LaneTagStore::new(geometry(), 2);
        let mut results = [AccessResult::default(); 2];
        let probe = set0_addr(0);
        store.access(
            probe,
            AccessKind::Read,
            &[Placement::SetAssociative, Placement::SetAssociative],
            &mut results,
        );
        assert!(results[0].is_miss() && results[1].is_miss());
        // Both lanes now hold it; evict it from lane 1 only by filling
        // conflicting set-0 tags through DM placement into the same way.
        // Three fills keep lane 0 within its three free ways, so only the
        // DM lane ever evicts.
        let dm = results[1].way;
        for i in 1..4 {
            let addr = set0_addr(4 * i + dm as u64);
            store.access(
                addr,
                AccessKind::Read,
                &[Placement::SetAssociative, Placement::DirectMapped],
                &mut results,
            );
        }
        store.access(
            probe,
            AccessKind::Read,
            &[Placement::SetAssociative, Placement::SetAssociative],
            &mut results,
        );
        assert!(results[0].is_hit(), "lane 0 should have kept the block");
        assert!(results[1].is_miss(), "lane 1 should have evicted it");
    }

    #[test]
    fn width_one_is_legal() {
        let mut store = LaneTagStore::new(geometry(), 1);
        let mut result = [AccessResult::default()];
        store.access(
            0x80,
            AccessKind::Write,
            &[Placement::DirectMapped],
            &mut result,
        );
        assert!(result[0].is_miss());
        assert_eq!(store.stats(0).write_misses, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_many_lanes_panics() {
        LaneTagStore::new(geometry(), MAX_LANES + 1);
    }
}
