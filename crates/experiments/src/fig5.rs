//! Figure 5 — PC-based versus XOR-based way-prediction.
//!
//! The PC is available early (the prediction is timely) but only reflects
//! per-instruction block locality, so its accuracy is modest (~60 %). The
//! XOR approximation of the address is more accurate (~70 %) but arrives too
//! late: the paper shows its table lookup would sit on the cache critical
//! path, which is why it ultimately rejects the scheme. Energy-delay
//! reductions are 63 % (PC) and 64 % (XOR) at 2.9 % / 2.3 % degradation.

use serde::Serialize;
use wp_cache::{DCachePolicy, L1Config};

use crate::compare::DcacheFigure;
use crate::engine::{SimMatrix, SimPlan};
use crate::runner::RunOptions;

/// The regenerated Figure 5.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig5Result {
    /// The underlying comparison (PC and XOR way-prediction vs. parallel).
    pub figure: DcacheFigure,
}

const TITLE: &str =
    "Figure 5: PC- and XOR-based way-prediction, relative to 1-cycle parallel access";
const POLICIES: [DCachePolicy; 2] = [DCachePolicy::WayPredictPc, DCachePolicy::WayPredictXor];
const PAPER: [(&str, f64, f64); 2] = [("waypred-pc", 63.0, 2.9), ("waypred-xor", 64.0, 2.3)];

/// The simulation points Figure 5 needs.
pub fn plan(options: &RunOptions) -> SimPlan {
    DcacheFigure::plan(&POLICIES, L1Config::paper_dcache(), options)
}

/// Renders Figure 5 from an executed matrix containing [`plan`]'s points.
pub fn from_matrix(matrix: &SimMatrix, options: &RunOptions) -> Fig5Result {
    Fig5Result {
        figure: DcacheFigure::from_matrix(
            matrix,
            TITLE,
            &POLICIES,
            L1Config::paper_dcache(),
            options,
            &PAPER,
        ),
    }
}

impl Fig5Result {
    /// Renders the figure data as text.
    pub fn to_table(&self) -> String {
        self.figure.to_table()
    }

    /// Measured average prediction accuracy of the PC- and XOR-based
    /// schemes, as fractions.
    pub fn average_accuracies(&self) -> (f64, f64) {
        let acc = |policy: DCachePolicy| {
            self.figure
                .averages
                .iter()
                .find(|r| r.policy == policy.label())
                .map(|r| r.way_prediction_accuracy)
                .unwrap_or(0.0)
        };
        (
            acc(DCachePolicy::WayPredictPc),
            acc(DCachePolicy::WayPredictXor),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_is_more_accurate_than_pc() {
        let result = crate::run_standalone(plan, from_matrix, &RunOptions::quick());
        let (pc, xor) = result.average_accuracies();
        assert!(pc > 0.35 && pc < 0.95, "pc accuracy {pc}");
        assert!(xor > pc - 0.03, "xor ({xor}) should not trail pc ({pc})");
    }

    #[test]
    fn both_schemes_save_energy_with_small_degradation() {
        let result = crate::run_standalone(plan, from_matrix, &RunOptions::quick());
        for policy in [DCachePolicy::WayPredictPc, DCachePolicy::WayPredictXor] {
            let savings = result.figure.average_savings(policy).expect("present");
            let degradation = result.figure.average_degradation(policy).expect("present");
            assert!(savings > 0.35, "{policy}: savings {savings}");
            assert!(degradation < 0.08, "{policy}: degradation {degradation}");
        }
    }
}
