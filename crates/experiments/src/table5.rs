//! Table 5 — summary of all d-cache design options.
//!
//! The table condenses Figures 4–6 into average energy-delay savings and
//! performance loss per technique, and is the basis of the paper's
//! conclusion that selective-DM plus way-prediction or sequential access
//! dominates the alternatives.

use serde::{Deserialize, Serialize};
use wp_cache::{DCachePolicy, L1Config};

use crate::compare::{average_by_policy, compare_dcache_policies_in, dcache_policy_plan};
use crate::engine::{SimMatrix, SimPlan};
use crate::report::TextTable;
use crate::runner::RunOptions;

/// One row of Table 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table5Row {
    /// Technique label.
    pub technique: String,
    /// Measured average energy-delay savings (percent).
    pub energy_delay_savings: f64,
    /// Paper's average energy-delay savings (percent).
    pub paper_energy_delay_savings: f64,
    /// Measured average performance loss (percent).
    pub performance_loss: f64,
    /// Paper's average performance loss (percent).
    pub paper_performance_loss: f64,
    /// The problem the paper notes for this option, if any.
    pub problem: String,
}

/// The regenerated Table 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table5Result {
    /// One row per d-cache design option.
    pub rows: Vec<Table5Row>,
}

/// Paper reference data: (policy, savings %, perf loss %, problem).
const PAPER: [(DCachePolicy, f64, f64, &str); 6] = [
    (
        DCachePolicy::Sequential,
        68.0,
        11.0,
        "high perf. degradation",
    ),
    (DCachePolicy::WayPredictPc, 63.0, 2.9, "low e-savings"),
    (DCachePolicy::WayPredictXor, 64.0, 2.3, "timing"),
    (DCachePolicy::SelDmParallel, 59.0, 2.0, "low e-savings"),
    (DCachePolicy::SelDmWayPredict, 69.0, 2.4, ""),
    (DCachePolicy::SelDmSequential, 73.0, 3.4, ""),
];

/// The simulation points Table 5 needs.
pub fn plan(options: &RunOptions) -> SimPlan {
    let policies: Vec<DCachePolicy> = PAPER.iter().map(|&(p, ..)| p).collect();
    dcache_policy_plan(&policies, L1Config::paper_dcache(), options)
}

/// Renders Table 5 from an executed matrix containing [`plan`]'s points.
pub fn from_matrix(matrix: &SimMatrix, options: &RunOptions) -> Table5Result {
    let policies: Vec<DCachePolicy> = PAPER.iter().map(|&(p, ..)| p).collect();
    let rows = compare_dcache_policies_in(matrix, &policies, L1Config::paper_dcache(), options);
    let averages = average_by_policy(&rows);
    let rows = PAPER
        .iter()
        .map(|&(policy, paper_savings, paper_loss, problem)| {
            let avg = averages
                .iter()
                .find(|r| r.policy == policy.label())
                .cloned()
                .unwrap_or_else(|| panic!("average for {policy} must exist"));
            Table5Row {
                technique: policy.label().to_string(),
                energy_delay_savings: (1.0 - avg.relative_energy_delay) * 100.0,
                paper_energy_delay_savings: paper_savings,
                performance_loss: avg.performance_degradation * 100.0,
                paper_performance_loss: paper_loss,
                problem: problem.to_string(),
            }
        })
        .collect();
    Table5Result { rows }
}

impl Table5Result {
    /// Renders the table as text.
    pub fn to_table(&self) -> String {
        let mut table = TextTable::new(vec![
            "technique",
            "E*D savings %",
            "paper",
            "perf. loss %",
            "paper",
            "problem",
        ]);
        for row in &self.rows {
            table.add_row(vec![
                row.technique.clone(),
                format!("{:.0}", row.energy_delay_savings),
                format!("{:.0}", row.paper_energy_delay_savings),
                format!("{:.1}", row.performance_loss),
                format!("{:.1}", row.paper_performance_loss),
                row.problem.clone(),
            ]);
        }
        format!("Table 5: d-cache design-option summary\n{}", table.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selective_dm_options_dominate() {
        let result = crate::run_standalone(plan, from_matrix, &RunOptions::quick());
        let get = |name: &str| {
            result
                .rows
                .iter()
                .find(|r| r.technique == name)
                .expect("row present")
                .clone()
        };
        let sequential = get("sequential");
        let seldm_wp = get("seldm+waypred");
        let seldm_seq = get("seldm+sequential");
        // The recommended options keep most of sequential access's savings
        // at a fraction of its performance loss.
        assert!(seldm_wp.energy_delay_savings > 0.75 * sequential.energy_delay_savings);
        assert!(seldm_wp.performance_loss < 0.6 * sequential.performance_loss);
        assert!(seldm_seq.energy_delay_savings >= seldm_wp.energy_delay_savings - 2.0);
        assert_eq!(result.rows.len(), 6);
    }
}
