//! Property-based tests (proptest) over the core data structures and
//! invariants: cache residency/consistency, LRU behaviour and equivalence
//! with the oracle's tag store, predictor bounds, energy-model
//! monotonicity, trace determinism, and controller accounting identities.

use proptest::prelude::*;
use wpsdm::cache::{DCacheController, DCachePolicy, L1Config};
use wpsdm::energy::CacheEnergyModel;
use wpsdm::mem::{
    AccessKind, AccessResult, CacheGeometry, HierarchyConfig, MemoryHierarchy, Placement,
    SetAssocCache,
};
use wpsdm::oracle::{OracleAccess, OracleCache, OracleGeometry};
use wpsdm::predictors::{MappingPrediction, SaturatingCounter, SelDmPredictor, VictimList};
use wpsdm::workloads::{Benchmark, TraceConfig, TraceGenerator};

/// The optimized store's access result in the oracle's shape, so the two
/// compare field for field: hit, way, direct-mapped flag, and the evicted
/// line as `(block_addr, dirty, direct_mapped)`.
fn as_oracle(result: AccessResult) -> OracleAccess {
    OracleAccess {
        hit: result.hit,
        way: result.way,
        in_direct_mapped_way: result.in_direct_mapped_way,
        evicted: result
            .evicted
            .map(|line| (line.block_addr, line.dirty, line.direct_mapped)),
    }
}

/// A strategy over valid L1-style geometries.
fn geometry_strategy() -> impl Strategy<Value = CacheGeometry> {
    (0usize..=3, 0usize..=2, 0usize..=3).prop_map(|(size, block, assoc)| {
        let size_bytes = (4 * 1024) << size; // 4K..32K
        let block_bytes = 16 << block; // 16..64
        let associativity = 1 << assoc; // 1..8
        CacheGeometry::new(size_bytes, block_bytes, associativity).expect("valid geometry")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any access the block is resident, and a probe finds it in the
    /// way the access reported.
    #[test]
    fn accessed_blocks_are_resident(
        geometry in geometry_strategy(),
        addrs in prop::collection::vec(0u64..0x10_0000, 1..200),
    ) {
        let mut cache = SetAssocCache::new(geometry);
        for addr in addrs {
            let result = cache.access(addr, AccessKind::Read, Placement::SetAssociative);
            prop_assert_eq!(cache.probe(addr), Some(result.way));
        }
    }

    /// The number of resident blocks never exceeds the capacity, whatever
    /// mix of placements is used.
    #[test]
    fn residency_never_exceeds_capacity(
        geometry in geometry_strategy(),
        ops in prop::collection::vec((0u64..0x4_0000, any::<bool>(), any::<bool>()), 1..300),
    ) {
        let mut cache = SetAssocCache::new(geometry);
        for (addr, write, direct) in ops {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let placement = if direct { Placement::DirectMapped } else { Placement::SetAssociative };
            cache.access(addr, kind, placement);
            prop_assert!(cache.resident_blocks() <= geometry.num_blocks());
        }
    }

    /// Hits plus misses always equals accesses, and the miss ratio stays in
    /// [0, 1].
    #[test]
    fn cache_stats_are_consistent(
        addrs in prop::collection::vec(0u64..0x8000, 1..300),
    ) {
        let mut hierarchy = MemoryHierarchy::new(HierarchyConfig {
            l2_size_bytes: 4 * 1024,
            l2_block_bytes: 32,
            l2_associativity: 2,
            ..HierarchyConfig::default()
        })
        .expect("valid geometry");
        for addr in &addrs {
            hierarchy.access(*addr, AccessKind::Read);
        }
        let stats = hierarchy.l2_stats();
        prop_assert_eq!(stats.accesses(), addrs.len() as u64);
        prop_assert!(stats.miss_ratio() >= 0.0 && stats.miss_ratio() <= 1.0);
        prop_assert!(stats.misses() <= stats.accesses());
    }

    /// The direct-mapping way is always a legal way index and depends only
    /// on the address bits above the set index.
    #[test]
    fn direct_mapped_way_is_legal(geometry in geometry_strategy(), addr in any::<u64>()) {
        let way = geometry.direct_mapped_way(addr);
        prop_assert!(way < geometry.associativity());
        let offset = (addr % geometry.block_bytes() as u64) as u64;
        prop_assert_eq!(way, geometry.direct_mapped_way(addr - offset));
    }

    /// Saturating counters never leave their range and is_high is consistent
    /// with the value.
    #[test]
    fn saturating_counter_stays_in_range(start in 0u8..=3, steps in prop::collection::vec(any::<bool>(), 0..64)) {
        let mut counter = SaturatingCounter::two_bit(start);
        for up in steps {
            if up { counter.increment() } else { counter.decrement() }
            prop_assert!(counter.value() <= 3);
            prop_assert_eq!(counter.is_high(), counter.value() >= 2);
        }
    }

    /// The selective-DM predictor flips to set-associative only after more
    /// set-associative hits than direct-mapped hits (within saturation).
    #[test]
    fn seldm_prediction_tracks_hit_history(events in prop::collection::vec(any::<bool>(), 0..32)) {
        let mut predictor = SelDmPredictor::new(64);
        let pc = 0x440;
        for sa_hit in &events {
            if *sa_hit {
                predictor.record_set_associative_hit(pc);
            } else {
                predictor.record_direct_mapped_hit(pc);
            }
        }
        let value = predictor.counter_value(pc);
        prop_assert!(value <= 3);
        let prediction = predictor.predict(pc);
        prop_assert_eq!(prediction == MappingPrediction::SetAssociative, value >= 2);
    }

    /// The victim list flags a block as conflicting if and only if it has
    /// been evicted more than the threshold number of times while tracked.
    #[test]
    fn victim_list_threshold_is_respected(evictions in 0u32..8, threshold in 0u32..4) {
        let mut list = VictimList::new(16, threshold);
        let block = 0xabc0;
        let mut flagged = false;
        for _ in 0..evictions {
            flagged = list.record_eviction(block);
        }
        prop_assert_eq!(list.is_conflicting(block), evictions > threshold);
        if evictions > 0 {
            prop_assert_eq!(flagged, evictions > threshold);
        }
    }

    /// Cache energy is monotonic in the number of ways probed, and a
    /// parallel read of an N-way cache costs more than any partial probe.
    #[test]
    fn energy_monotonic_in_ways_probed(geometry in geometry_strategy(), ways in 1usize..8) {
        let model = CacheEnergyModel::new(geometry);
        let ways = ways.min(geometry.associativity());
        if ways >= 1 {
            prop_assert!(model.n_way_read_energy(ways) <= model.n_way_read_energy(ways + 1));
        }
        prop_assert!(model.single_way_read_energy() <= model.parallel_read_energy());
        prop_assert!(model.tag_and_decode_energy() < model.single_way_read_energy());
    }

    /// Trace generation is deterministic in the seed and honours the
    /// requested length.
    #[test]
    fn traces_are_deterministic(seed in any::<u64>(), ops in 1usize..2_000) {
        let config = TraceConfig::new(Benchmark::Perl).with_ops(ops).with_seed(seed);
        let a: Vec<_> = TraceGenerator::new(config).collect();
        let b: Vec<_> = TraceGenerator::new(config).collect();
        prop_assert_eq!(a.len(), ops);
        prop_assert_eq!(a, b);
    }

    /// The flat structure-of-arrays tag store is access-for-access
    /// equivalent to the oracle's nested-`Vec` store: the same hit, way,
    /// direct-mapped flag, eviction, probe, and residency over arbitrary
    /// interleavings of reads and writes, under both placement modes.
    #[test]
    fn soa_cache_matches_nested_vec_reference(
        geometry in geometry_strategy(),
        ops in prop::collection::vec((0u64..0x8_0000, any::<bool>(), any::<bool>()), 1..300),
    ) {
        let mut flat = SetAssocCache::new(geometry);
        let mut oracle = OracleCache::new(OracleGeometry::from_mem(&geometry));
        for (addr, write, direct) in ops {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let placement = if direct {
                Placement::DirectMapped
            } else {
                Placement::SetAssociative
            };
            prop_assert_eq!(
                as_oracle(flat.access(addr, kind, placement)),
                oracle.access(addr, kind, placement)
            );
            prop_assert_eq!(flat.probe(addr), oracle.probe(addr));
            prop_assert_eq!(flat.resident_blocks(), oracle.resident_blocks());
        }
    }

    /// Dense conflict streams (every address in one set) keep the two
    /// implementations in lock-step through sustained LRU evictions.
    #[test]
    fn soa_cache_matches_reference_under_conflict_pressure(
        assoc in 0usize..=3,
        tags in prop::collection::vec(0u64..12, 1..200),
        writes in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let geometry =
            CacheGeometry::new(4 * 1024, 32, 1 << assoc).expect("valid geometry");
        let set_stride = (geometry.num_sets() * geometry.block_bytes()) as u64;
        let mut flat = SetAssocCache::new(geometry);
        let mut oracle = OracleCache::new(OracleGeometry::from_mem(&geometry));
        for (tag, write) in tags.iter().zip(writes.iter().cycle()) {
            let addr = tag * set_stride;
            let kind = if *write { AccessKind::Write } else { AccessKind::Read };
            prop_assert_eq!(
                as_oracle(flat.access(addr, kind, Placement::SetAssociative)),
                oracle.access(addr, kind, Placement::SetAssociative)
            );
        }
        prop_assert_eq!(flat.resident_blocks(), oracle.resident_blocks());
    }

    /// Controller accounting identity: every load lands in exactly one
    /// breakdown class, latency is at least the base latency, and each load
    /// adds energy, but never more cache energy than a parallel read of
    /// every way plus the refill (no load probes more ways than there are).
    #[test]
    fn dcache_controller_accounting_holds(
        addrs in prop::collection::vec((0u64..64, 0u64..0x4000), 1..200),
        policy_idx in 0usize..7,
    ) {
        let policy = DCachePolicy::all()[policy_idx];
        let mut controller = DCacheController::new(L1Config::paper_dcache(), policy)
            .expect("valid config");
        let model = *controller.energy_model();
        let all_ways = model.parallel_read_energy() + model.data_way_write_energy();
        for (pc, addr) in &addrs {
            let before = *controller.stats();
            let out = controller.load(0x400 + pc * 4, *addr, *addr);
            let after = controller.stats();
            prop_assert!(out.latency >= 1);
            prop_assert!(after.total_energy() > before.total_energy());
            prop_assert!(after.cache_energy - before.cache_energy <= all_ways + 1e-9);
        }
        let stats = controller.stats();
        let classified = stats.direct_mapped_accesses
            + stats.parallel_accesses
            + stats.way_predicted_accesses
            + stats.sequential_accesses
            + stats.mispredicted_accesses;
        prop_assert_eq!(classified, stats.loads);
        prop_assert_eq!(stats.loads, addrs.len() as u64);
    }
}
