//! Figure 7 — effect of cache size (16 KB vs 32 KB) on selective-DM plus
//! way-prediction.
//!
//! The opportunity is nearly size-independent: the paper measures 69 %
//! energy-delay savings at 16 KB and 63 % at 32 KB (the un-optimised tag,
//! decode, and routing energy grows slightly as a share of the total), with
//! ~2 % performance degradation at both sizes and no need to grow the
//! 1024-entry prediction table.

use serde::Serialize;
use wp_cache::{DCachePolicy, L1Config};

use crate::compare::DcacheFigure;
use crate::engine::{SimMatrix, SimPlan};
use crate::runner::RunOptions;

/// The regenerated Figure 7.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig7Result {
    /// Selective-DM + way-prediction on the 16 KB cache.
    pub size_16k: DcacheFigure,
    /// Selective-DM + way-prediction on the 32 KB cache (its own 32 KB
    /// parallel baseline).
    pub size_32k: DcacheFigure,
}

const POLICIES: [DCachePolicy; 1] = [DCachePolicy::SelDmWayPredict];

fn l1d_32k() -> L1Config {
    L1Config::paper_dcache().with_size(32 * 1024)
}

/// The simulation points Figure 7 needs.
pub fn plan(options: &RunOptions) -> SimPlan {
    let mut plan = DcacheFigure::plan(&POLICIES, L1Config::paper_dcache(), options);
    plan.merge(DcacheFigure::plan(&POLICIES, l1d_32k(), options));
    plan
}

/// Renders Figure 7 from an executed matrix containing [`plan`]'s points.
pub fn from_matrix(matrix: &SimMatrix, options: &RunOptions) -> Fig7Result {
    Fig7Result {
        size_16k: DcacheFigure::from_matrix(
            matrix,
            "Figure 7 (A): 16 KB selective-DM + way-prediction",
            &POLICIES,
            L1Config::paper_dcache(),
            options,
            &[("seldm+waypred", 69.0, 2.4)],
        ),
        size_32k: DcacheFigure::from_matrix(
            matrix,
            "Figure 7 (B): 32 KB selective-DM + way-prediction",
            &POLICIES,
            l1d_32k(),
            options,
            &[("seldm+waypred", 63.0, 2.1)],
        ),
    }
}

impl Fig7Result {
    /// Renders both halves of the figure.
    pub fn to_table(&self) -> String {
        format!("{}\n{}", self.size_16k.to_table(), self.size_32k.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_are_roughly_size_independent() {
        let result = crate::run_standalone(plan, from_matrix, &RunOptions::quick());
        let s16 = result
            .size_16k
            .average_savings(DCachePolicy::SelDmWayPredict)
            .expect("16K average");
        let s32 = result
            .size_32k
            .average_savings(DCachePolicy::SelDmWayPredict)
            .expect("32K average");
        assert!(s16 > 0.4 && s32 > 0.4, "savings {s16} / {s32}");
        // The paper's shape: 32 KB saves slightly *less* than 16 KB; allow a
        // little noise but rule out a large increase.
        assert!(
            s32 < s16 + 0.05,
            "32K ({s32}) should not exceed 16K ({s16}) by much"
        );
    }
}
