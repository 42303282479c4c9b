//! The output of one processor run: cycles, activity counts, cache
//! statistics, and helpers for computing the paper's relative metrics.

use wp_cache::{DCacheStats, ICacheStats};
use wp_energy::{ActivityCounts, Energy, EnergyDelay, ProcessorEnergyBreakdown, RelativeMetrics};

/// Everything measured by one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Execution time in cycles.
    pub cycles: u64,
    /// Per-unit activity counts (for the Wattch-style processor model).
    pub activity: ActivityCounts,
    /// Final d-cache statistics (access breakdown, accuracies, energy).
    pub dcache: DCacheStats,
    /// Final i-cache statistics.
    pub icache: ICacheStats,
    /// Number of L1 misses that also missed in the L2 and went to memory.
    pub memory_accesses: u64,
    /// Branch-direction prediction accuracy over the run.
    pub branch_accuracy: f64,
}

impl SimResult {
    /// Total L1 d-cache energy (arrays plus prediction structures).
    pub fn dcache_energy(&self) -> Energy {
        self.dcache.total_energy()
    }

    /// Total L1 i-cache energy (arrays plus way-field overhead).
    pub fn icache_energy(&self) -> Energy {
        self.icache.total_energy()
    }

    /// The d-cache energy-delay point of this run (the quantity Figures 4–9
    /// normalise between configurations).
    pub fn dcache_energy_delay(&self) -> EnergyDelay {
        EnergyDelay::new(self.dcache_energy(), self.cycles)
    }

    /// The i-cache energy-delay point (Figure 10).
    pub fn icache_energy_delay(&self) -> EnergyDelay {
        EnergyDelay::new(self.icache_energy(), self.cycles)
    }

    /// The Wattch-style breakdown: the core and L2 from this run's
    /// activity, plus both L1 energies.
    fn processor_energy_breakdown(&self) -> ProcessorEnergyBreakdown {
        ProcessorEnergyBreakdown::new(&self.activity, self.icache_energy(), self.dcache_energy())
    }

    /// Overall processor energy under the Wattch-style model (Figure 11).
    pub fn processor_energy(&self) -> Energy {
        self.processor_energy_breakdown().total()
    }

    /// Overall processor energy-delay point (Figure 11).
    pub fn processor_energy_delay(&self) -> EnergyDelay {
        EnergyDelay::new(self.processor_energy(), self.cycles)
    }

    /// Fraction of overall processor energy dissipated in the two L1 caches
    /// (the paper reports 10–16 %).
    pub fn l1_energy_fraction(&self) -> f64 {
        self.processor_energy_breakdown().l1_fraction()
    }

    /// D-cache relative metrics against a baseline run (typically the
    /// 1-cycle parallel-access configuration).
    pub fn dcache_relative_to(&self, baseline: &SimResult) -> RelativeMetrics {
        self.dcache_energy_delay()
            .relative_to(&baseline.dcache_energy_delay())
    }

    /// I-cache relative metrics against a baseline run.
    pub fn icache_relative_to(&self, baseline: &SimResult) -> RelativeMetrics {
        self.icache_energy_delay()
            .relative_to(&baseline.icache_energy_delay())
    }

    /// Overall processor relative metrics against a baseline run.
    pub fn processor_relative_to(&self, baseline: &SimResult) -> RelativeMetrics {
        self.processor_energy_delay()
            .relative_to(&baseline.processor_energy_delay())
    }

    /// Performance degradation relative to a baseline run (positive means
    /// slower), as a fraction.
    pub fn performance_degradation_vs(&self, baseline: &SimResult) -> f64 {
        self.cycles as f64 / baseline.cycles as f64 - 1.0
    }

    /// The result as `(name, value-bits)` pairs: every counter as itself
    /// and every energy/accuracy as its IEEE-754 bit pattern. This is the
    /// *exact-equality contract* the differential conformance subsystem is
    /// built on (see `docs/VALIDATION.md`) — two results are the same
    /// result exactly when every pair matches bit for bit — and the
    /// canonical field enumeration serializers (the experiment matrix
    /// cache) iterate, so a new field added here reaches them without a
    /// second hand-maintained list.
    pub fn fields(&self) -> [(&'static str, u64); 41] {
        let a = &self.activity;
        let d = &self.dcache;
        let i = &self.icache;
        [
            ("cycles", self.cycles),
            ("activity.cycles", a.cycles),
            ("activity.instructions", a.instructions),
            ("activity.int_ops", a.int_ops),
            ("activity.fp_ops", a.fp_ops),
            ("activity.loads", a.loads),
            ("activity.stores", a.stores),
            ("activity.branches", a.branches),
            ("activity.l2_accesses", a.l2_accesses),
            ("dcache.loads", d.loads),
            ("dcache.load_misses", d.load_misses),
            ("dcache.stores", d.stores),
            ("dcache.store_misses", d.store_misses),
            ("dcache.evictions", d.evictions),
            ("dcache.direct_mapped_accesses", d.direct_mapped_accesses),
            ("dcache.parallel_accesses", d.parallel_accesses),
            ("dcache.way_predicted_accesses", d.way_predicted_accesses),
            ("dcache.sequential_accesses", d.sequential_accesses),
            ("dcache.mispredicted_accesses", d.mispredicted_accesses),
            ("dcache.way_predictions", d.way_predictions),
            ("dcache.way_predictions_correct", d.way_predictions_correct),
            ("dcache.seldm_predicted_dm", d.seldm_predicted_dm),
            (
                "dcache.seldm_predicted_dm_correct",
                d.seldm_predicted_dm_correct,
            ),
            (
                "dcache.conflicting_blocks_flagged",
                d.conflicting_blocks_flagged,
            ),
            ("dcache.single_way_load_hits", d.single_way_load_hits),
            ("dcache.seldm_predicted_sa", d.seldm_predicted_sa),
            ("dcache.victim_list_hits", d.victim_list_hits),
            ("dcache.dirty_evictions", d.dirty_evictions),
            ("dcache.cache_energy", d.cache_energy.to_bits()),
            ("dcache.prediction_energy", d.prediction_energy.to_bits()),
            ("icache.fetches", i.fetches),
            ("icache.fetch_misses", i.fetch_misses),
            ("icache.sawp_correct", i.sawp_correct),
            ("icache.btb_correct", i.btb_correct),
            ("icache.ras_correct", i.ras_correct),
            ("icache.no_prediction", i.no_prediction),
            ("icache.mispredicted", i.mispredicted),
            ("icache.cache_energy", i.cache_energy.to_bits()),
            ("icache.prediction_energy", i.prediction_energy.to_bits()),
            ("memory_accesses", self.memory_accesses),
            ("branch_accuracy", self.branch_accuracy.to_bits()),
        ]
    }

    /// True if every field of the two results matches *bit for bit*,
    /// floating-point fields included. Stricter than `==` (which uses `f64`
    /// semantic equality): `exact_eq` distinguishes `0.0` from `-0.0` and
    /// never equates `NaN`-free results that differ only in rounding. This
    /// is the equality the conformance harness holds the optimized stack
    /// to — an optimization is only admissible if the bits do not move.
    pub fn exact_eq(&self, other: &SimResult) -> bool {
        self.fields()
            .iter()
            .zip(other.fields().iter())
            .all(|(a, b)| a.1 == b.1)
    }

    /// The names of every field whose bits differ between the two results,
    /// in declaration order — the diagnostic the conformance report prints
    /// for a mismatching point.
    pub fn diff(&self, other: &SimResult) -> Vec<&'static str> {
        self.fields()
            .iter()
            .zip(other.fields().iter())
            .filter(|(a, b)| a.1 != b.1)
            .map(|(a, _)| a.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(cycles: u64, dcache_energy: f64) -> SimResult {
        SimResult {
            cycles,
            activity: ActivityCounts {
                cycles,
                instructions: 1000,
                int_ops: 500,
                fp_ops: 50,
                loads: 250,
                stores: 100,
                branches: 100,
                l2_accesses: 10,
            },
            dcache: DCacheStats {
                loads: 250,
                stores: 100,
                cache_energy: dcache_energy,
                prediction_energy: 1.0,
                ..DCacheStats::default()
            },
            icache: ICacheStats {
                fetches: 200,
                cache_energy: 50_000.0,
                ..ICacheStats::default()
            },
            memory_accesses: 2,
            branch_accuracy: 0.95,
        }
    }

    #[test]
    fn energy_helpers_add_prediction_overhead() {
        let r = synthetic(500, 100.0);
        assert_eq!(r.dcache_energy(), 101.0);
        assert_eq!(r.icache_energy(), 50_000.0);
    }

    #[test]
    fn relative_metrics_compare_energy_delay() {
        let baseline = synthetic(500, 100_000.0);
        let technique = synthetic(510, 30_000.0);
        let m = technique.dcache_relative_to(&baseline);
        assert!(m.energy_delay_savings() > 0.6);
        assert!(m.performance_degradation() > 0.0 && m.performance_degradation() < 0.03);
        assert!((technique.performance_degradation_vs(&baseline) - 0.02).abs() < 1e-9);
    }

    #[test]
    fn exact_eq_is_bitwise_and_diff_names_the_moved_fields() {
        let a = synthetic(500, 100.0);
        let mut b = a.clone();
        assert!(a.exact_eq(&b));
        assert!(a.diff(&b).is_empty());
        // A semantic-equal-but-bitwise-different float fails exact_eq...
        b.dcache.cache_energy = -0.0 + 100.0; // same value, same bits — control
        assert!(a.exact_eq(&b));
        b.dcache.cache_energy = f64::from_bits(a.dcache.cache_energy.to_bits() + 1);
        assert!(!a.exact_eq(&b));
        assert_eq!(a.diff(&b), vec!["dcache.cache_energy"]);
        // ...and a counter change names its field.
        let mut c = a.clone();
        c.activity.loads += 1;
        assert_eq!(a.diff(&c), vec!["activity.loads"]);
    }

    #[test]
    fn processor_energy_includes_l1_contributions() {
        let small = synthetic(500, 10_000.0);
        let large = synthetic(500, 300_000.0);
        assert!(large.processor_energy() > small.processor_energy());
        assert!(large.l1_energy_fraction() > small.l1_energy_fraction());
    }
}
