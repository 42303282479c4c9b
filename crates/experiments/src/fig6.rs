//! Figure 6 — selective direct-mapping schemes.
//!
//! Selective-DM sends the ~77 % of loads that are non-conflicting straight
//! to their direct-mapping way and handles the conflicting remainder with
//! parallel, way-predicted, or sequential access. The paper reports average
//! energy-delay reductions of 59 % (with parallel fallback), 69 % (with
//! way-prediction) and 73 % (with sequential access) at 2.0 %, 2.4 % and
//! 3.4 % performance degradation, against 63 % / 2.9 % for pure PC
//! way-prediction and 68 % / 11 % for a sequential cache.

use serde::{Deserialize, Serialize};
use wp_cache::{DCachePolicy, L1Config};

use crate::compare::DcacheFigure;
use crate::engine::{SimMatrix, SimPlan};
use crate::runner::RunOptions;

/// The regenerated Figure 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Result {
    /// The underlying comparison across the five schemes the figure plots.
    pub figure: DcacheFigure,
}

const TITLE: &str = "Figure 6: selective-DM schemes, relative to 1-cycle parallel access";
const POLICIES: [DCachePolicy; 5] = [
    DCachePolicy::SelDmParallel,
    DCachePolicy::SelDmWayPredict,
    DCachePolicy::SelDmSequential,
    DCachePolicy::WayPredictPc,
    DCachePolicy::Sequential,
];
const PAPER: [(&str, f64, f64); 5] = [
    ("seldm+parallel", 59.0, 2.0),
    ("seldm+waypred", 69.0, 2.4),
    ("seldm+sequential", 73.0, 3.4),
    ("waypred-pc", 63.0, 2.9),
    ("sequential", 68.0, 11.0),
];

/// The simulation points Figure 6 needs.
pub fn plan(options: &RunOptions) -> SimPlan {
    DcacheFigure::plan(&POLICIES, L1Config::paper_dcache(), options)
}

/// Renders Figure 6 from an executed matrix containing [`plan`]'s points.
pub fn from_matrix(matrix: &SimMatrix, options: &RunOptions) -> Fig6Result {
    Fig6Result {
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

impl Fig6Result {
    /// Renders the figure data as text.
    pub fn to_table(&self) -> String {
        self.figure.to_table()
    }

    /// The measured average fraction of loads correctly handled as
    /// direct-mapped (the paper reports ~77 %).
    pub fn average_dm_fraction(&self) -> f64 {
        self.figure
            .averages
            .iter()
            .find(|r| r.policy == DCachePolicy::SelDmWayPredict.label())
            .map(|r| r.seldm_dm_fraction)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seldm_orderings_match_the_paper() {
        let result = crate::run_standalone(plan, from_matrix, &RunOptions::quick());
        let f = &result.figure;
        let parallel = f
            .average_savings(DCachePolicy::SelDmParallel)
            .expect("present");
        let waypred = f
            .average_savings(DCachePolicy::SelDmWayPredict)
            .expect("present");
        let sequential = f
            .average_savings(DCachePolicy::SelDmSequential)
            .expect("present");
        // Energy ordering: parallel fallback < way-predicted < sequential.
        assert!(
            parallel < waypred + 0.02,
            "parallel {parallel} vs waypred {waypred}"
        );
        assert!(
            waypred < sequential + 0.02,
            "waypred {waypred} vs sequential {sequential}"
        );
        // Performance: all selective-DM schemes degrade far less than a
        // sequential cache.
        let seq_cache = f
            .average_degradation(DCachePolicy::Sequential)
            .expect("present");
        let seldm_seq = f
            .average_degradation(DCachePolicy::SelDmSequential)
            .expect("present");
        assert!(seldm_seq < seq_cache, "{seldm_seq} vs {seq_cache}");
    }

    #[test]
    fn most_loads_are_handled_direct_mapped() {
        let result = crate::run_standalone(plan, from_matrix, &RunOptions::quick());
        let dm = result.average_dm_fraction();
        assert!(dm > 0.55, "direct-mapped fraction {dm}");
    }
}
