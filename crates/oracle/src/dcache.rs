//! The oracle d-cache: every policy decision made by a per-access `match`,
//! every cost priced by a per-access energy-model evaluation.
//!
//! The optimized stack resolves the [`wp_cache::DCachePolicy`] once per run
//! (monomorphized kernels), prices probes from a precomputed cost table,
//! and scans structure-of-arrays tag lanes. The oracle re-reads the policy
//! enum on every load, calls the [`wp_energy::CacheEnergyModel`] for every
//! probe, and runs the nested-`Vec` [`OracleCache`]. The prediction *tables*
//! (selective-DM counters, PC/XOR way tables) are reused from
//! `wp-predictors` — they were never optimized and serve as the shared
//! ground truth — while the victim list, whose optimized form carries
//! membership-filter fast paths, is re-implemented naively in
//! [`OracleVictimList`].

use wp_cache::access::{WaySelection, WaySource};
use wp_cache::{DAccessClass, DCachePolicy, DCacheStats, L1Config};
use wp_energy::{CacheEnergyModel, Energy, PredictionTableEnergy};
use wp_mem::Addr;
use wp_predictors::{MappingPrediction, PcWayPredictor, SelDmPredictor, XorWayPredictor};

use crate::cache::{AccessKind, OracleCache, OracleGeometry, Placement};
use crate::probe::{resolve_probe, ProbeOutcome};
use crate::victims::OracleVictimList;

/// The result of one oracle d-cache access, reduced to what the processor
/// loop consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleDAccess {
    /// True if the block was resident.
    pub hit: bool,
    /// L1 latency in cycles.
    pub latency: u64,
}

/// The naive energy-aware L1 d-cache.
#[derive(Debug, Clone)]
pub struct OracleDCache {
    config: L1Config,
    policy: DCachePolicy,
    geometry: OracleGeometry,
    cache: OracleCache,
    energy: CacheEnergyModel,
    /// Energy of one prediction-table access, computed once from the same
    /// `wp-energy` formula the optimized [`wp_cache::DCacheController`]
    /// uses.
    table_energy: Energy,
    /// Energy of one victim-list access, likewise.
    victim_energy: Energy,
    seldm: SelDmPredictor,
    victims: OracleVictimList,
    pc_way: PcWayPredictor,
    xor_way: XorWayPredictor,
    stats: DCacheStats,
}

impl OracleDCache {
    /// Builds the oracle d-cache for `config` under `policy`.
    ///
    /// # Errors
    ///
    /// Returns a [`wp_cache::ConfigError`] if the configuration is
    /// inconsistent (the same validation the optimized controller applies).
    pub fn new(config: L1Config, policy: DCachePolicy) -> Result<Self, wp_cache::ConfigError> {
        let mem_geometry = config.geometry()?;
        let geometry = OracleGeometry::from_mem(&mem_geometry);
        let way_bits = PcWayPredictor::bits_per_entry(config.associativity);
        Ok(Self {
            config,
            policy,
            geometry,
            cache: OracleCache::new(geometry),
            energy: CacheEnergyModel::new(mem_geometry),
            table_energy: PredictionTableEnergy::new(
                config.prediction_table_entries,
                SelDmPredictor::BITS_PER_ENTRY + way_bits,
            )
            .access_energy(),
            victim_energy: PredictionTableEnergy::new(
                config.victim_list_entries.next_power_of_two().max(2),
                32,
            )
            .access_energy(),
            seldm: SelDmPredictor::new(config.prediction_table_entries),
            victims: OracleVictimList::new(config.victim_list_entries, 2),
            pc_way: PcWayPredictor::new(config.prediction_table_entries),
            xor_way: XorWayPredictor::new(config.prediction_table_entries, config.block_bytes),
            stats: DCacheStats::default(),
        })
    }

    /// Accumulated statistics (the same [`DCacheStats`] the optimized
    /// controller fills, accumulated in the same per-access order).
    pub fn stats(&self) -> &DCacheStats {
        &self.stats
    }

    /// Fill placement for `block_addr` under the current policy: the
    /// per-access re-statement of [`wp_cache::DCacheController`]'s
    /// placement rule.
    fn placement(&self, block_addr: u64) -> Placement {
        if !self.policy.uses_selective_dm() || self.victims.is_conflicting(block_addr) {
            Placement::SetAssociative
        } else {
            Placement::DirectMapped
        }
    }

    /// Services one load; mirrors the optimized controller's `load_impl`
    /// step for step, with the policy matched per access.
    pub fn load(&mut self, pc: Addr, addr: Addr, approx_addr: Addr) -> OracleDAccess {
        self.stats.loads += 1;
        let dm_way = self.geometry.direct_mapped_way(addr);
        let block_addr = self.geometry.block_addr(addr);
        let placement = self.placement(block_addr);
        if self.policy.uses_selective_dm() && placement == Placement::SetAssociative {
            self.stats.victim_list_hits += 1;
        }

        // ---- way selection: one `match` per access ----
        let table = self.table_energy;
        let mut last_seldm = MappingPrediction::SetAssociative;
        let (choice, source, selection_energy) = match self.policy {
            DCachePolicy::Parallel => (WaySelection::Parallel, WaySource::None, 0.0),
            DCachePolicy::Sequential => (WaySelection::Sequential, WaySource::None, 0.0),
            DCachePolicy::PerfectWayPredict => (WaySelection::Oracle, WaySource::Oracle, 0.0),
            DCachePolicy::WayPredictPc => match self.pc_way.predict(pc) {
                Some(way) => (WaySelection::Predicted(way), WaySource::WayTable, table),
                None => (WaySelection::Parallel, WaySource::WayTable, table),
            },
            DCachePolicy::WayPredictXor => match self.xor_way.predict(approx_addr) {
                Some(way) => (WaySelection::Predicted(way), WaySource::WayTable, table),
                None => (WaySelection::Parallel, WaySource::WayTable, table),
            },
            DCachePolicy::SelDmParallel
            | DCachePolicy::SelDmWayPredict
            | DCachePolicy::SelDmSequential => {
                last_seldm = self.seldm.predict(pc);
                if last_seldm == MappingPrediction::DirectMapped {
                    (
                        WaySelection::DirectMapped(dm_way),
                        WaySource::SelectiveDm,
                        table,
                    )
                } else {
                    match self.policy {
                        DCachePolicy::SelDmParallel => {
                            (WaySelection::Parallel, WaySource::None, table)
                        }
                        DCachePolicy::SelDmSequential => {
                            (WaySelection::Sequential, WaySource::None, table)
                        }
                        _ => match self.pc_way.predict(pc) {
                            // The fallback way-table lookup charges a second
                            // table access on top of the selective-DM read.
                            Some(way) => (
                                WaySelection::Predicted(way),
                                WaySource::WayTable,
                                table + table,
                            ),
                            None => (WaySelection::Parallel, WaySource::WayTable, table + table),
                        },
                    }
                }
            }
        };

        // ---- tag store + probe pricing ----
        let access = self.cache.access(addr, AccessKind::Read, placement);
        let probe = resolve_probe(&self.energy, &self.config, choice, access.hit, access.way);

        // ---- training: the same per-access `match` the optimized stack
        // folds at compile time ----
        match self.policy {
            DCachePolicy::WayPredictPc => self.pc_way.update(pc, access.way),
            DCachePolicy::WayPredictXor => self.xor_way.update(approx_addr, access.way),
            DCachePolicy::SelDmWayPredict if last_seldm == MappingPrediction::SetAssociative => {
                self.pc_way.update(pc, access.way)
            }
            _ => {}
        }
        if self.policy.uses_selective_dm() && access.hit {
            if access.in_direct_mapped_way {
                self.seldm.record_direct_mapped_hit(pc);
            } else {
                self.seldm.record_set_associative_hit(pc);
            }
        }
        let prediction_energy = selection_energy;

        // ---- statistics, in the optimized controller's accumulation
        // order (floating-point addition is order-sensitive) ----
        if !access.hit {
            self.stats.load_misses += 1;
        }
        self.note_eviction(access.evicted);
        let single_way_correct = probe.outcome == ProbeOutcome::SingleWay;
        if single_way_correct && access.hit {
            self.stats.single_way_load_hits += 1;
        }
        if self.policy.uses_selective_dm() && !matches!(choice, WaySelection::DirectMapped(_)) {
            self.stats.seldm_predicted_sa += 1;
        }
        match choice {
            WaySelection::Predicted(_) if source == WaySource::WayTable => {
                self.stats.way_predictions += 1;
                if single_way_correct && access.hit {
                    self.stats.way_predictions_correct += 1;
                }
            }
            WaySelection::DirectMapped(_) => {
                self.stats.seldm_predicted_dm += 1;
                if single_way_correct {
                    self.stats.seldm_predicted_dm_correct += 1;
                }
            }
            _ => {}
        }
        let class = match probe.outcome {
            ProbeOutcome::Parallel => DAccessClass::Parallel,
            ProbeOutcome::Sequential => DAccessClass::Sequential,
            ProbeOutcome::Mispredicted => DAccessClass::Mispredicted,
            ProbeOutcome::SingleWay => match choice {
                WaySelection::DirectMapped(_) => DAccessClass::DirectMapped,
                _ => DAccessClass::WayPredicted,
            },
        };
        match class {
            DAccessClass::DirectMapped => self.stats.direct_mapped_accesses += 1,
            DAccessClass::Parallel => self.stats.parallel_accesses += 1,
            DAccessClass::WayPredicted => self.stats.way_predicted_accesses += 1,
            DAccessClass::Sequential => self.stats.sequential_accesses += 1,
            DAccessClass::Mispredicted => self.stats.mispredicted_accesses += 1,
        }
        self.stats.cache_energy += probe.energy;
        self.stats.prediction_energy += prediction_energy;

        OracleDAccess {
            hit: access.hit,
            latency: probe.latency,
        }
    }

    /// Services one store: tag check first, write only the matching way, no
    /// prediction, in every policy.
    pub fn store(&mut self, _pc: Addr, addr: Addr) -> OracleDAccess {
        self.stats.stores += 1;
        let block_addr = self.geometry.block_addr(addr);
        let placement = self.placement(block_addr);
        let access = self.cache.access(addr, AccessKind::Write, placement);
        let mut energy = self.energy.write_energy();
        if !access.hit {
            energy += self.energy.data_way_write_energy();
        }
        if !access.hit {
            self.stats.store_misses += 1;
        }
        self.note_eviction(access.evicted);
        self.stats.cache_energy += energy;

        OracleDAccess {
            hit: access.hit,
            latency: self.config.base_latency,
        }
    }

    /// Eviction bookkeeping shared by loads and stores.
    fn note_eviction(&mut self, evicted: Option<(u64, bool, bool)>) {
        if let Some((block_addr, dirty, _)) = evicted {
            self.stats.evictions += 1;
            if dirty {
                self.stats.dirty_evictions += 1;
            }
            if self.policy.uses_selective_dm() {
                let flagged = self.victims.record_eviction(block_addr);
                self.stats.prediction_energy += self.victim_energy;
                if flagged {
                    self.stats.conflicting_blocks_flagged += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_cache::DCacheController;

    /// Every policy, exercised against the optimized controller over a
    /// mixed load/store address walk: the stats must agree exactly.
    #[test]
    fn matches_the_optimized_controller_over_all_policies() {
        let all = [
            DCachePolicy::Parallel,
            DCachePolicy::Sequential,
            DCachePolicy::WayPredictPc,
            DCachePolicy::WayPredictXor,
            DCachePolicy::SelDmParallel,
            DCachePolicy::SelDmWayPredict,
            DCachePolicy::SelDmSequential,
            DCachePolicy::PerfectWayPredict,
        ];
        for policy in all {
            let config = L1Config::paper_dcache();
            let mut naive = OracleDCache::new(config, policy).expect("valid");
            let mut fast = DCacheController::new(config, policy).expect("valid");
            for i in 0..4_000u64 {
                let pc = 0x400 + (i % 23) * 4;
                let addr = 0x8000 + (i % 61) * 32 + (i % 7) * 0x1000;
                let approx = if i % 5 == 0 { addr + 0x40 } else { addr };
                if i % 4 == 3 {
                    let a = naive.store(pc, addr);
                    let b = fast.store(pc, addr);
                    assert_eq!((a.hit, a.latency), (b.hit, b.latency), "{policy} store {i}");
                } else {
                    let a = naive.load(pc, addr, approx);
                    let b = fast.load(pc, addr, approx);
                    assert_eq!((a.hit, a.latency), (b.hit, b.latency), "{policy} load {i}");
                }
            }
            assert_eq!(naive.stats(), fast.stats(), "stats diverged under {policy}");
        }
    }
}
