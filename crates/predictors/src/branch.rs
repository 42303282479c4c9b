//! A two-level hybrid branch direction predictor (Table 1: "2-level
//! hybrid").
//!
//! The predictor combines a PC-indexed bimodal component with a
//! global-history (gshare) component; a chooser table of two-bit counters
//! selects between them per branch, as in the Alpha 21264-style hybrid the
//! paper's configuration implies. The table sizes and the history length
//! are constants: every simulated machine uses this one predictor.

use wp_mem::Addr;

use crate::counter::SaturatingCounter;

/// The resolved direction of a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOutcome {
    /// The branch was taken.
    Taken,
    /// The branch was not taken.
    NotTaken,
}

impl BranchOutcome {
    /// Converts a boolean "taken" flag.
    pub fn from_taken(taken: bool) -> Self {
        if taken {
            BranchOutcome::Taken
        } else {
            BranchOutcome::NotTaken
        }
    }

    /// True if this outcome is taken.
    pub fn is_taken(&self) -> bool {
        matches!(self, BranchOutcome::Taken)
    }
}

/// Entries in the bimodal (PC-indexed) table.
const BIMODAL_ENTRIES: usize = 2048;
/// Entries in the gshare (history-XOR-PC-indexed) table.
const GSHARE_ENTRIES: usize = 4096;
/// Entries in the chooser table.
const CHOOSER_ENTRIES: usize = 2048;
/// Number of global history bits.
const HISTORY_BITS: u32 = 12;
/// The global history bits the gshare index reads.
const HISTORY_MASK: u64 = (1 << HISTORY_BITS) - 1;

// The table indices mask the PC, so every size must be a power of two.
const _: () = assert!(
    BIMODAL_ENTRIES.is_power_of_two()
        && GSHARE_ENTRIES.is_power_of_two()
        && CHOOSER_ENTRIES.is_power_of_two()
);

/// Two-level hybrid branch direction predictor.
///
/// # Example
///
/// ```
/// use wp_predictors::{BranchOutcome, HybridBranchPredictor};
///
/// let mut p = HybridBranchPredictor::default();
/// let pc = 0x40_0000;
/// // Train a strongly taken branch.
/// for _ in 0..4 {
///     p.update(pc, BranchOutcome::Taken);
/// }
/// assert_eq!(p.predict(pc), BranchOutcome::Taken);
/// ```
#[derive(Debug, Clone)]
pub struct HybridBranchPredictor {
    bimodal: Vec<SaturatingCounter>,
    gshare: Vec<SaturatingCounter>,
    chooser: Vec<SaturatingCounter>,
    history: u64,
    predictions: u64,
    mispredictions: u64,
}

impl Default for HybridBranchPredictor {
    fn default() -> Self {
        Self {
            bimodal: vec![SaturatingCounter::two_bit(1); BIMODAL_ENTRIES],
            gshare: vec![SaturatingCounter::two_bit(1); GSHARE_ENTRIES],
            chooser: vec![SaturatingCounter::two_bit(2); CHOOSER_ENTRIES],
            history: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }
}

impl HybridBranchPredictor {
    fn bimodal_index(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) & (self.bimodal.len() - 1)
    }

    fn gshare_index(&self, pc: Addr) -> usize {
        (((pc >> 2) ^ (self.history & HISTORY_MASK)) as usize) & (self.gshare.len() - 1)
    }

    fn chooser_index(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) & (self.chooser.len() - 1)
    }

    /// Predicts the direction of the branch at `pc` without updating any
    /// state.
    pub fn predict(&self, pc: Addr) -> BranchOutcome {
        let bimodal = self.bimodal[self.bimodal_index(pc)].is_high();
        let gshare = self.gshare[self.gshare_index(pc)].is_high();
        let use_gshare = self.chooser[self.chooser_index(pc)].is_high();
        BranchOutcome::from_taken(if use_gshare { gshare } else { bimodal })
    }

    /// Updates the predictor with the resolved `outcome` of the branch at
    /// `pc` and returns the outcome that had been predicted (so callers can
    /// count mispredictions without a separate `predict` call).
    pub fn update(&mut self, pc: Addr, outcome: BranchOutcome) -> BranchOutcome {
        let bimodal_idx = self.bimodal_index(pc);
        let gshare_idx = self.gshare_index(pc);
        let chooser_idx = self.chooser_index(pc);

        let bimodal_pred = self.bimodal[bimodal_idx].is_high();
        let gshare_pred = self.gshare[gshare_idx].is_high();
        let use_gshare = self.chooser[chooser_idx].is_high();
        let predicted = if use_gshare {
            gshare_pred
        } else {
            bimodal_pred
        };
        let taken = outcome.is_taken();

        self.predictions += 1;
        if predicted != taken {
            self.mispredictions += 1;
        }

        // Train the chooser toward whichever component was right when they
        // disagree.
        if bimodal_pred != gshare_pred {
            if gshare_pred == taken {
                self.chooser[chooser_idx].increment();
            } else {
                self.chooser[chooser_idx].decrement();
            }
        }
        // Train both components.
        if taken {
            self.bimodal[bimodal_idx].increment();
            self.gshare[gshare_idx].increment();
        } else {
            self.bimodal[bimodal_idx].decrement();
            self.gshare[gshare_idx].decrement();
        }
        // Update global history.
        self.history = (self.history << 1) | u64::from(taken);

        BranchOutcome::from_taken(predicted)
    }

    /// Total branches predicted (via [`Self::update`]).
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Branches whose prediction disagreed with the outcome.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Prediction accuracy in `[0, 1]`; 1.0 when no branch has been seen.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            1.0
        } else {
            1.0 - self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_biased_branch() {
        let mut p = HybridBranchPredictor::default();
        let pc = 0x1000;
        for _ in 0..20 {
            p.update(pc, BranchOutcome::Taken);
        }
        assert_eq!(p.predict(pc), BranchOutcome::Taken);
        assert!(p.accuracy() > 0.8);
    }

    #[test]
    fn learns_an_alternating_pattern_via_history() {
        let mut p = HybridBranchPredictor::default();
        let pc = 0x2000;
        // Alternating taken/not-taken: bimodal flounders, gshare learns it.
        let mut correct = 0;
        let total = 400;
        for i in 0..total {
            let outcome = BranchOutcome::from_taken(i % 2 == 0);
            let predicted = p.update(pc, outcome);
            if predicted == outcome {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / total as f64 > 0.8,
            "hybrid should learn alternation, got {correct}/{total}"
        );
    }

    #[test]
    fn accuracy_is_one_before_any_branch() {
        let p = HybridBranchPredictor::default();
        assert_eq!(p.accuracy(), 1.0);
    }

    #[test]
    fn update_returns_the_prediction_made() {
        let mut p = HybridBranchPredictor::default();
        let pc = 0x3000;
        let predicted = p.predict(pc);
        let reported = p.update(pc, BranchOutcome::Taken);
        assert_eq!(predicted, reported);
    }

    #[test]
    fn mispredictions_are_counted() {
        let mut p = HybridBranchPredictor::default();
        let pc = 0x4000;
        for _ in 0..10 {
            p.update(pc, BranchOutcome::Taken);
        }
        let before = p.mispredictions();
        p.update(pc, BranchOutcome::NotTaken);
        assert_eq!(p.mispredictions(), before + 1);
    }
}
