//! The oracle i-cache: the fetch-engine way-prediction stack of Section 2.3
//! driven by a per-fetch `match`, over the nested-`Vec` tag store.
//!
//! The BTB, SAWP, and RAS are reused from `wp-predictors` (they were never
//! optimized); the tag store and probe pricing are the oracle's naive
//! re-implementations.

use wp_cache::access::{WaySelection, WaySource};
use wp_cache::{
    FetchKind, IAccessClass, ICachePolicy, ICacheStats, L1Config, BTB_ENTRIES, RAS_DEPTH,
};
use wp_energy::{CacheEnergyModel, Energy, PredictionTableEnergy};
use wp_mem::Addr;
use wp_predictors::{Btb, PcWayPredictor, ReturnAddressStack};

use crate::cache::{AccessKind, OracleCache, OracleGeometry, Placement};
use crate::probe::{resolve_probe, ProbeOutcome};

/// The result of one oracle fetch, reduced to what the processor loop
/// consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleIAccess {
    /// True if the block was resident.
    pub hit: bool,
    /// L1 latency in cycles.
    pub latency: u64,
}

/// The naive energy-aware L1 i-cache with fetch-integrated way prediction.
#[derive(Debug, Clone)]
pub struct OracleICache {
    config: L1Config,
    policy: ICachePolicy,
    cache: OracleCache,
    energy: CacheEnergyModel,
    /// Energy of one way-field access, computed from the same `wp-energy`
    /// formula the optimized [`wp_cache::ICacheController`] precomputes.
    way_field_energy: Energy,
    btb: Btb,
    /// Section 2.3's Sequential Address Way-Predictor (SAWP): a PC-indexed
    /// way table predicting the way of the fetch that follows each PC.
    sawp: PcWayPredictor,
    ras: ReturnAddressStack,
    stats: ICacheStats,
}

impl OracleICache {
    /// Builds the oracle i-cache for `config` under `policy`.
    ///
    /// # Errors
    ///
    /// Returns a [`wp_cache::ConfigError`] if the configuration is
    /// inconsistent.
    pub fn new(config: L1Config, policy: ICachePolicy) -> Result<Self, wp_cache::ConfigError> {
        let mem_geometry = config.geometry()?;
        let geometry = OracleGeometry::from_mem(&mem_geometry);
        Ok(Self {
            config,
            policy,
            cache: OracleCache::new(geometry),
            energy: CacheEnergyModel::new(mem_geometry),
            way_field_energy: PredictionTableEnergy::new(
                config.prediction_table_entries,
                PcWayPredictor::bits_per_entry(config.associativity),
            )
            .access_energy(),
            btb: Btb::new(BTB_ENTRIES),
            sawp: PcWayPredictor::new(config.prediction_table_entries),
            ras: ReturnAddressStack::new(RAS_DEPTH),
            stats: ICacheStats::default(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &L1Config {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ICacheStats {
        &self.stats
    }

    /// The BTB's predicted target for a taken branch at `branch_pc`.
    pub fn predicted_target(&self, branch_pc: Addr) -> Option<Addr> {
        self.btb.lookup(branch_pc).map(|e| e.target)
    }

    /// Fetches the block containing `pc`; mirrors the optimized
    /// controller's `fetch` step for step.
    pub fn fetch(&mut self, pc: Addr, kind: FetchKind) -> OracleIAccess {
        self.stats.fetches += 1;

        // ---- way selection ----
        let (choice, source) = if self.policy == ICachePolicy::Parallel {
            (WaySelection::Parallel, WaySource::None)
        } else {
            let (predicted, source) = match kind {
                FetchKind::Sequential { prev_pc } | FetchKind::NotTakenBranch { prev_pc } => {
                    (self.sawp.predict(prev_pc), WaySource::Sawp)
                }
                FetchKind::TakenBranch { branch_pc } | FetchKind::Call { branch_pc, .. } => (
                    self.btb.lookup(branch_pc).and_then(|e| e.way),
                    WaySource::Btb,
                ),
                FetchKind::Return => (self.ras.pop().and_then(|(_, way)| way), WaySource::Ras),
                FetchKind::Redirect => (None, WaySource::None),
            };
            match predicted {
                Some(way) => (WaySelection::Predicted(way), source),
                None => (WaySelection::Parallel, WaySource::None),
            }
        };

        // ---- tag store + probe pricing ----
        let access = self
            .cache
            .access(pc, AccessKind::Read, Placement::SetAssociative);
        let probe = resolve_probe(&self.energy, &self.config, choice, access.hit, access.way);

        // ---- training ----
        let way_predicting = self.policy == ICachePolicy::WayPredict;
        let mut prediction_energy = 0.0;
        if way_predicting {
            prediction_energy += self.way_field_energy;
        }
        match kind {
            FetchKind::Sequential { prev_pc } | FetchKind::NotTakenBranch { prev_pc } => {
                if way_predicting {
                    self.sawp.update(prev_pc, access.way);
                }
            }
            FetchKind::TakenBranch { branch_pc } => {
                self.btb
                    .update(branch_pc, pc, way_predicting.then_some(access.way));
            }
            FetchKind::Call {
                branch_pc,
                return_pc,
            } => {
                self.btb
                    .update(branch_pc, pc, way_predicting.then_some(access.way));
                let return_way = way_predicting
                    .then(|| self.cache.probe(return_pc))
                    .flatten();
                self.ras.push(return_pc, return_way);
            }
            FetchKind::Return | FetchKind::Redirect => {}
        }

        // ---- statistics, in the optimized controller's order ----
        if !access.hit {
            self.stats.fetch_misses += 1;
        }
        let class = match probe.outcome {
            ProbeOutcome::Mispredicted => IAccessClass::Mispredicted,
            ProbeOutcome::SingleWay => {
                if source.is_branch_structure() {
                    IAccessClass::BtbCorrect
                } else {
                    IAccessClass::SawpCorrect
                }
            }
            ProbeOutcome::Parallel | ProbeOutcome::Sequential => IAccessClass::NoPrediction,
        };
        match class {
            IAccessClass::SawpCorrect => self.stats.sawp_correct += 1,
            IAccessClass::BtbCorrect => {
                self.stats.btb_correct += 1;
                if source == WaySource::Ras {
                    self.stats.ras_correct += 1;
                }
            }
            IAccessClass::NoPrediction => self.stats.no_prediction += 1,
            IAccessClass::Mispredicted => self.stats.mispredicted += 1,
        }
        self.stats.cache_energy += probe.energy;
        self.stats.prediction_energy += prediction_energy;

        OracleIAccess {
            hit: access.hit,
            latency: probe.latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_cache::ICacheController;

    #[test]
    fn matches_the_optimized_controller_over_both_policies() {
        for policy in [ICachePolicy::Parallel, ICachePolicy::WayPredict] {
            let config = L1Config::paper_icache();
            let mut naive = OracleICache::new(config, policy).expect("valid");
            let mut fast = ICacheController::new(config, policy).expect("valid");
            let mut prev = 0x40_0000u64;
            for i in 0..4_000u64 {
                let pc = 0x40_0000 + (i % 97) * 32 + (i % 3) * 0x1000;
                let kind = match i % 6 {
                    0 => FetchKind::Redirect,
                    1 => FetchKind::TakenBranch {
                        branch_pc: prev + 4,
                    },
                    2 => FetchKind::Return,
                    3 => FetchKind::NotTakenBranch { prev_pc: prev },
                    4 => FetchKind::Call {
                        branch_pc: prev + 8,
                        return_pc: prev + 12,
                    },
                    _ => FetchKind::Sequential { prev_pc: prev },
                };
                let a = naive.fetch(pc, kind);
                let b = fast.fetch(pc, kind);
                assert_eq!((a.hit, a.latency), (b.hit, b.latency), "{policy} fetch {i}");
                assert_eq!(
                    naive.predicted_target(prev + 4),
                    fast.predicted_target(prev + 4)
                );
                prev = pc;
            }
            assert_eq!(naive.stats(), fast.stats(), "stats diverged under {policy}");
        }
    }
}
