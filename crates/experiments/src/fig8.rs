//! Figure 8 — effect of associativity (2-, 4-, 8-way) on selective-DM plus
//! way-prediction.
//!
//! The energy a parallel read wastes grows with the number of ways, so the
//! opportunity grows with associativity: the paper measures 38 %, 69 % and
//! 82 % energy-delay savings for 2-, 4- and 8-way 16 KB caches, each against
//! a parallel baseline of the same associativity.

use serde::Serialize;
use wp_cache::{DCachePolicy, L1Config};

use crate::compare::DcacheFigure;
use crate::engine::{SimMatrix, SimPlan};
use crate::runner::RunOptions;

/// The regenerated Figure 8.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig8Result {
    /// One entry per associativity: (ways, figure).
    pub by_associativity: Vec<(usize, DcacheFigure)>,
}

/// The paper's average savings per associativity (percent).
const PAPER_SAVINGS: [(usize, f64); 3] = [(2, 38.0), (4, 69.0), (8, 82.0)];

const POLICIES: [DCachePolicy; 1] = [DCachePolicy::SelDmWayPredict];

/// The simulation points Figure 8 needs.
pub fn plan(options: &RunOptions) -> SimPlan {
    let mut plan = SimPlan::new();
    for &(ways, _) in PAPER_SAVINGS.iter() {
        plan.merge(DcacheFigure::plan(
            &POLICIES,
            L1Config::paper_dcache().with_associativity(ways),
            options,
        ));
    }
    plan
}

/// Renders Figure 8 from an executed matrix containing [`plan`]'s points.
pub fn from_matrix(matrix: &SimMatrix, options: &RunOptions) -> Fig8Result {
    let by_associativity = PAPER_SAVINGS
        .iter()
        .map(|&(ways, paper)| {
            let figure = DcacheFigure::from_matrix(
                matrix,
                &format!("Figure 8: {ways}-way selective-DM + way-prediction"),
                &POLICIES,
                L1Config::paper_dcache().with_associativity(ways),
                options,
                &[("seldm+waypred", paper, 0.0)],
            );
            (ways, figure)
        })
        .collect();
    Fig8Result { by_associativity }
}

impl Fig8Result {
    /// Renders all three associativities.
    pub fn to_table(&self) -> String {
        self.by_associativity
            .iter()
            .map(|(_, f)| f.to_table())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The measured average savings per associativity, as
    /// (ways, savings-fraction) pairs.
    pub fn savings_by_associativity(&self) -> Vec<(usize, f64)> {
        self.by_associativity
            .iter()
            .map(|(ways, f)| {
                (
                    *ways,
                    f.average_savings(DCachePolicy::SelDmWayPredict)
                        .unwrap_or(0.0),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_grow_with_associativity() {
        let result = crate::run_standalone(plan, from_matrix, &RunOptions::quick());
        let savings = result.savings_by_associativity();
        assert_eq!(savings.len(), 3);
        assert!(
            savings[0].1 < savings[1].1 && savings[1].1 < savings[2].1,
            "savings must grow with associativity: {savings:?}"
        );
        // 8-way savings should be deep, 2-way clearly shallower.
        assert!(savings[2].1 > 0.6, "{savings:?}");
        assert!(savings[0].1 < savings[2].1 - 0.15, "{savings:?}");
    }
}
