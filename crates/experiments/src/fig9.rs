//! Figure 9 — selective-DM schemes on a 2-cycle (high-latency) d-cache.
//!
//! With a 2-cycle base access, a mispredicted or sequential access takes
//! three cycles. The paper shows the out-of-order core still absorbs the
//! occasional third cycle of selective-DM (69 % / 73 % savings at 2.0 % /
//! 3.1 % degradation) but not the third cycle on *every* access of a
//! sequential cache (~13 % degradation).

use serde::Serialize;
use wp_cache::{DCachePolicy, L1Config};

use crate::compare::DcacheFigure;
use crate::engine::{SimMatrix, SimPlan};
use crate::runner::RunOptions;

/// The regenerated Figure 9.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig9Result {
    /// The comparison on the 2-cycle cache (against a 2-cycle parallel
    /// baseline).
    pub figure: DcacheFigure,
}

const TITLE: &str = "Figure 9: 2-cycle d-cache, relative to 2-cycle parallel access";
const POLICIES: [DCachePolicy; 3] = [
    DCachePolicy::SelDmWayPredict,
    DCachePolicy::SelDmSequential,
    DCachePolicy::Sequential,
];
const PAPER: [(&str, f64, f64); 3] = [
    ("seldm+waypred", 69.0, 2.0),
    ("seldm+sequential", 73.0, 3.1),
    ("sequential", 68.0, 13.0),
];

fn l1d_2cycle() -> L1Config {
    L1Config::paper_dcache().with_base_latency(2)
}

/// The simulation points Figure 9 needs.
pub fn plan(options: &RunOptions) -> SimPlan {
    DcacheFigure::plan(&POLICIES, l1d_2cycle(), options)
}

/// Renders Figure 9 from an executed matrix containing [`plan`]'s points.
pub fn from_matrix(matrix: &SimMatrix, options: &RunOptions) -> Fig9Result {
    Fig9Result {
        figure: DcacheFigure::from_matrix(matrix, TITLE, &POLICIES, l1d_2cycle(), options, &PAPER),
    }
}

impl Fig9Result {
    /// Renders the figure data as text.
    pub fn to_table(&self) -> String {
        self.figure.to_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seldm_absorbs_the_extra_latency_sequential_does_not() {
        let result = crate::run_standalone(plan, from_matrix, &RunOptions::quick());
        let f = &result.figure;
        let seldm = f
            .average_degradation(DCachePolicy::SelDmWayPredict)
            .expect("present");
        let sequential = f
            .average_degradation(DCachePolicy::Sequential)
            .expect("present");
        assert!(
            sequential > 2.0 * seldm.max(0.005),
            "sequential ({sequential}) should degrade much more than selective-DM ({seldm})"
        );
        let savings = f
            .average_savings(DCachePolicy::SelDmSequential)
            .expect("present");
        assert!(savings > 0.5, "savings {savings}");
    }
}
