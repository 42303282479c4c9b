//! Per-controller statistics: the access-breakdown classes of Figures 6, 7,
//! 8 and 10, prediction accuracies, and energy totals.

use wp_energy::Energy;

/// Statistics accumulated by a [`crate::DCacheController`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DCacheStats {
    /// Loads serviced.
    pub loads: u64,
    /// Loads that missed in the L1.
    pub load_misses: u64,
    /// Stores serviced.
    pub stores: u64,
    /// Stores that missed in the L1.
    pub store_misses: u64,
    /// Blocks evicted from the L1.
    pub evictions: u64,

    // ---- Figure 6/8 access breakdown (loads only) ----
    /// Loads that probed only their direct-mapping way and found the block
    /// there (or missed outright while predicted direct-mapped).
    pub direct_mapped_accesses: u64,
    /// Loads that performed a conventional parallel probe.
    pub parallel_accesses: u64,
    /// Loads that probed a single predicted way and were correct (or missed
    /// outright).
    pub way_predicted_accesses: u64,
    /// Loads serviced by a sequential (tag-then-data) access.
    pub sequential_accesses: u64,
    /// Loads that probed the wrong way (or were wrongly predicted
    /// direct-mapped) and needed a corrective second probe.
    pub mispredicted_accesses: u64,

    // ---- predictor bookkeeping ----
    /// Way predictions attempted (a trained table entry existed).
    pub way_predictions: u64,
    /// Way predictions that matched the way the load actually hit in.
    pub way_predictions_correct: u64,
    /// Loads the selective-DM table predicted as non-conflicting
    /// (direct-mapped).
    pub seldm_predicted_dm: u64,
    /// Of those, loads that did hit in (or miss into) their direct-mapping
    /// way.
    pub seldm_predicted_dm_correct: u64,
    /// Blocks the victim list flagged as conflicting.
    pub conflicting_blocks_flagged: u64,

    // ---- outcome-class coverage counters ----
    /// Loads that probed a single way and *hit* there on the first probe
    /// (the first-hit subset of the way-predicted / direct-mapped classes;
    /// misses-while-predicted are excluded).
    pub single_way_load_hits: u64,
    /// Loads under a selective-DM policy whose per-PC counter predicted the
    /// conflicting (set-associative) side and fell back to the configured
    /// probe scheme.
    pub seldm_predicted_sa: u64,
    /// Loads under a selective-DM policy whose *block* was on the victim
    /// list at placement time (per-block conflict signal, as opposed to the
    /// per-PC `seldm_predicted_sa`).
    pub victim_list_hits: u64,
    /// Evictions that wrote back a dirty block.
    pub dirty_evictions: u64,

    // ---- energy ----
    /// Energy dissipated in the cache arrays (tag + data + refills), in
    /// model units.
    pub cache_energy: Energy,
    /// Energy dissipated in the prediction structures (way table,
    /// selective-DM table, victim list), in model units.
    pub prediction_energy: Energy,
}

impl DCacheStats {
    /// Total L1 d-cache accesses.
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.load_misses + self.store_misses
    }

    /// Overall miss rate as a percentage (the Table 4 quantity).
    pub fn miss_rate_percent(&self) -> f64 {
        percent(self.misses(), self.accesses())
    }

    /// Way-prediction accuracy in `[0, 1]` (predictions that matched).
    pub fn way_prediction_accuracy(&self) -> f64 {
        fraction(self.way_predictions_correct, self.way_predictions)
    }

    /// Fraction of loads the selective-DM framework correctly handled as
    /// direct-mapped (the ~77 % the paper reports).
    pub fn seldm_dm_fraction(&self) -> f64 {
        fraction(self.seldm_predicted_dm_correct, self.loads)
    }

    /// Fraction of loads in each Figure 6 breakdown class, in the order
    /// (direct-mapped, parallel, way-predicted, sequential, mispredicted).
    pub fn access_breakdown(&self) -> [f64; 5] {
        let n = self.loads;
        [
            fraction(self.direct_mapped_accesses, n),
            fraction(self.parallel_accesses, n),
            fraction(self.way_predicted_accesses, n),
            fraction(self.sequential_accesses, n),
            fraction(self.mispredicted_accesses, n),
        ]
    }

    /// Total energy charged to the d-cache, including prediction-structure
    /// overhead.
    pub fn total_energy(&self) -> Energy {
        self.cache_energy + self.prediction_energy
    }
}

/// Statistics accumulated by an [`crate::ICacheController`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ICacheStats {
    /// Fetch accesses serviced.
    pub fetches: u64,
    /// Fetches that missed in the L1 i-cache.
    pub fetch_misses: u64,

    // ---- Figure 10 access breakdown ----
    /// Fetches whose way was correctly predicted by the SAWP.
    pub sawp_correct: u64,
    /// Fetches whose way was correctly predicted by the branch-predictor
    /// structures (BTB or RAS).
    pub btb_correct: u64,
    /// The subset of [`ICacheStats::btb_correct`] supplied by the return
    /// address stack (coverage counter; not part of the Figure 10 classes).
    pub ras_correct: u64,
    /// Fetches with no prediction available (BTB miss, misprediction
    /// restart): conventional parallel access.
    pub no_prediction: u64,
    /// Fetches whose predicted way was wrong, needing a second probe.
    pub mispredicted: u64,

    // ---- energy ----
    /// Energy dissipated in the i-cache arrays.
    pub cache_energy: Energy,
    /// Energy overhead of the way fields added to the BTB, SAWP, and RAS.
    pub prediction_energy: Energy,
}

impl ICacheStats {
    /// Miss rate as a percentage.
    pub fn miss_rate_percent(&self) -> f64 {
        percent(self.fetch_misses, self.fetches)
    }

    /// Fraction of fetches whose way was predicted (by any source) and
    /// correct.
    pub fn way_prediction_accuracy(&self) -> f64 {
        let predicted = self.sawp_correct + self.btb_correct + self.mispredicted;
        fraction(self.sawp_correct + self.btb_correct, predicted)
    }

    /// Fraction of fetches in each Figure 10 breakdown class, in the order
    /// (SAWP correct, BTB/RAS correct, no prediction, mispredicted).
    pub fn access_breakdown(&self) -> [f64; 4] {
        let n = self.fetches;
        [
            fraction(self.sawp_correct, n),
            fraction(self.btb_correct, n),
            fraction(self.no_prediction, n),
            fraction(self.mispredicted, n),
        ]
    }

    /// Total energy charged to the i-cache, including way-field overhead.
    pub fn total_energy(&self) -> Energy {
        self.cache_energy + self.prediction_energy
    }
}

fn fraction(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn percent(num: u64, den: u64) -> f64 {
    fraction(num, den) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_have_zero_rates() {
        let d = DCacheStats::default();
        assert_eq!(d.miss_rate_percent(), 0.0);
        assert_eq!(d.way_prediction_accuracy(), 0.0);
        assert_eq!(d.access_breakdown(), [0.0; 5]);
        let i = ICacheStats::default();
        assert_eq!(i.miss_rate_percent(), 0.0);
        assert_eq!(i.access_breakdown(), [0.0; 4]);
    }

    #[test]
    fn dcache_derived_metrics_follow_counts() {
        let s = DCacheStats {
            loads: 100,
            load_misses: 5,
            stores: 50,
            store_misses: 5,
            direct_mapped_accesses: 70,
            parallel_accesses: 10,
            way_predicted_accesses: 10,
            sequential_accesses: 5,
            mispredicted_accesses: 5,
            way_predictions: 20,
            way_predictions_correct: 15,
            seldm_predicted_dm: 80,
            seldm_predicted_dm_correct: 70,
            cache_energy: 100.0,
            prediction_energy: 1.0,
            ..DCacheStats::default()
        };
        assert!((s.miss_rate_percent() - 100.0 * 10.0 / 150.0).abs() < 1e-9);
        assert!((s.way_prediction_accuracy() - 0.75).abs() < 1e-12);
        assert!((s.seldm_dm_fraction() - 0.70).abs() < 1e-12);
        let breakdown = s.access_breakdown();
        assert!((breakdown.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(s.total_energy(), 101.0);
    }

    #[test]
    fn icache_accuracy_ignores_unpredicted_fetches() {
        let s = ICacheStats {
            fetches: 100,
            fetch_misses: 2,
            sawp_correct: 60,
            btb_correct: 30,
            no_prediction: 5,
            mispredicted: 5,
            cache_energy: 10.0,
            prediction_energy: 0.5,
            ..ICacheStats::default()
        };
        assert!((s.way_prediction_accuracy() - 90.0 / 95.0).abs() < 1e-12);
        assert_eq!(s.total_energy(), 10.5);
    }
}
