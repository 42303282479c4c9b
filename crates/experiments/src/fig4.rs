//! Figure 4 — energy-delay and performance of a sequential-access d-cache.
//!
//! Sequential access saves the most raw energy (only the matching way is
//! ever read) but serializes the tag and data arrays: every access takes an
//! extra cycle, which the out-of-order core cannot hide. The paper reports
//! an average 68 % energy-delay reduction at an average 11 % (up to 18 %)
//! performance degradation — good energy, unacceptable performance for an
//! L1.

use serde::{Deserialize, Serialize};
use wp_cache::{DCachePolicy, L1Config};

use crate::compare::DcacheFigure;
use crate::engine::{SimMatrix, SimPlan};
use crate::runner::RunOptions;

/// The regenerated Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Result {
    /// The underlying comparison (sequential vs. 1-cycle parallel).
    pub figure: DcacheFigure,
}

const TITLE: &str = "Figure 4: sequential-access d-cache, relative to 1-cycle parallel access";
const POLICIES: [DCachePolicy; 1] = [DCachePolicy::Sequential];
const PAPER: [(&str, f64, f64); 1] = [("sequential", 68.0, 11.0)];

/// The simulation points Figure 4 needs.
pub fn plan(options: &RunOptions) -> SimPlan {
    DcacheFigure::plan(&POLICIES, L1Config::paper_dcache(), options)
}

/// Renders Figure 4 from an executed matrix containing [`plan`]'s points.
pub fn from_matrix(matrix: &SimMatrix, options: &RunOptions) -> Fig4Result {
    Fig4Result {
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

impl Fig4Result {
    /// Renders the figure data as text.
    pub fn to_table(&self) -> String {
        self.figure.to_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_saves_energy_but_costs_performance() {
        let result = crate::run_standalone(plan, from_matrix, &RunOptions::quick());
        let savings = result
            .figure
            .average_savings(DCachePolicy::Sequential)
            .expect("sequential average present");
        let degradation = result
            .figure
            .average_degradation(DCachePolicy::Sequential)
            .expect("sequential average present");
        // Shape: deep energy-delay savings, but a clearly visible slowdown.
        assert!(savings > 0.5, "savings {savings}");
        assert!(degradation > 0.02, "degradation {degradation}");
        assert!(result.to_table().contains("sequential"));
    }
}
