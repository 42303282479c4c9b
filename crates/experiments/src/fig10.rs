//! Figure 10 — way-prediction for i-caches at 2-, 4-, and 8-way
//! associativity.
//!
//! I-cache way-prediction rides on the fetch engine (BTB, SAWP, RAS), so it
//! is both timely and highly accurate (> 92 % for everything except fpppp,
//! whose code footprint thrashes the 16 KB i-cache). The paper measures
//! average energy-delay savings of 39 %, 64 % and 72 % for 2-, 4- and 8-way
//! i-caches with negligible performance degradation.

use serde::Serialize;
use wp_cache::{ICachePolicy, L1Config};
use wp_workloads::Benchmark;

use crate::engine::{SimMatrix, SimPlan};
use crate::report::TextTable;
use crate::runner::{MachineConfig, RunOptions};

/// One (benchmark, associativity) measurement.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig10Row {
    /// Benchmark name.
    pub benchmark: String,
    /// I-cache associativity.
    pub associativity: usize,
    /// I-cache energy-delay relative to the parallel baseline of the same
    /// associativity.
    pub relative_energy_delay: f64,
    /// Execution-time increase relative to the baseline (fraction).
    pub performance_degradation: f64,
    /// Way-prediction accuracy over predicted fetches.
    pub accuracy: f64,
    /// Figure 10 access breakdown: (SAWP correct, BTB/RAS correct, no
    /// prediction, mispredicted) fractions of fetches.
    pub breakdown: [f64; 4],
}

/// The regenerated Figure 10.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig10Result {
    /// Per-(benchmark, associativity) rows.
    pub rows: Vec<Fig10Row>,
    /// Paper reference: (ways, average energy-delay savings percent).
    pub paper_savings: Vec<(usize, f64)>,
}

/// The paper's average savings per associativity (percent).
const PAPER_SAVINGS: [(usize, f64); 3] = [(2, 39.0), (4, 64.0), (8, 72.0)];

/// The parallel baseline machine for one i-cache associativity.
fn baseline_machine(ways: usize) -> MachineConfig {
    MachineConfig::baseline().with_l1i(L1Config::paper_icache().with_associativity(ways))
}

/// The simulation points Figure 10 needs: for each associativity, the
/// parallel baseline and the way-predicted machine on every benchmark.
pub fn plan(options: &RunOptions) -> SimPlan {
    let mut plan = SimPlan::new();
    for &(ways, _) in PAPER_SAVINGS.iter() {
        let baseline = baseline_machine(ways);
        plan.add_all_benchmarks(baseline, *options);
        plan.add_all_benchmarks(baseline.with_ipolicy(ICachePolicy::WayPredict), *options);
    }
    plan
}

/// Renders Figure 10 from an executed matrix containing [`plan`]'s points.
pub fn from_matrix(matrix: &SimMatrix, options: &RunOptions) -> Fig10Result {
    let mut rows = Vec::new();
    for &(ways, _) in PAPER_SAVINGS.iter() {
        let baseline_machine = baseline_machine(ways);
        let machine = baseline_machine.with_ipolicy(ICachePolicy::WayPredict);
        for &benchmark in Benchmark::all().iter() {
            let baseline = matrix.require(benchmark, &baseline_machine, options);
            let result = matrix.require(benchmark, &machine, options);
            let metrics = result.icache_relative_to(baseline);
            rows.push(Fig10Row {
                benchmark: benchmark.name().to_string(),
                associativity: ways,
                relative_energy_delay: metrics.relative_energy_delay,
                performance_degradation: result.performance_degradation_vs(baseline),
                accuracy: result.icache.way_prediction_accuracy(),
                breakdown: result.icache.access_breakdown(),
            });
        }
    }
    Fig10Result {
        rows,
        paper_savings: PAPER_SAVINGS.to_vec(),
    }
}

impl Fig10Result {
    /// Average savings (fraction) for one associativity.
    pub fn average_savings(&self, associativity: usize) -> f64 {
        let group: Vec<&Fig10Row> = self
            .rows
            .iter()
            .filter(|r| r.associativity == associativity)
            .collect();
        if group.is_empty() {
            return 0.0;
        }
        1.0 - group.iter().map(|r| r.relative_energy_delay).sum::<f64>() / group.len() as f64
    }

    /// Average accuracy (fraction) for one associativity.
    pub fn average_accuracy(&self, associativity: usize) -> f64 {
        let group: Vec<&Fig10Row> = self
            .rows
            .iter()
            .filter(|r| r.associativity == associativity)
            .collect();
        if group.is_empty() {
            return 0.0;
        }
        group.iter().map(|r| r.accuracy).sum::<f64>() / group.len() as f64
    }

    /// Renders the figure data as text.
    pub fn to_table(&self) -> String {
        let mut table = TextTable::new(vec![
            "benchmark",
            "ways",
            "rel. E*D",
            "perf. degr. %",
            "accuracy %",
            "SAWP %",
            "BTB/RAS %",
            "no-pred %",
            "mispred %",
        ]);
        for row in &self.rows {
            table.add_row(vec![
                row.benchmark.clone(),
                row.associativity.to_string(),
                format!("{:.2}", row.relative_energy_delay),
                format!("{:.1}", row.performance_degradation * 100.0),
                format!("{:.0}", row.accuracy * 100.0),
                format!("{:.0}", row.breakdown[0] * 100.0),
                format!("{:.0}", row.breakdown[1] * 100.0),
                format!("{:.0}", row.breakdown[2] * 100.0),
                format!("{:.0}", row.breakdown[3] * 100.0),
            ]);
        }
        let mut out = format!("Figure 10: i-cache way-prediction\n{}", table.render());
        out.push_str("\nAverages (measured vs paper savings %):\n");
        for &(ways, paper) in &self.paper_savings {
            out.push_str(&format!(
                "  {ways}-way: {:.0} % vs {paper} % (accuracy {:.0} %)\n",
                self.average_savings(ways) * 100.0,
                self.average_accuracy(ways) * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_grow_with_associativity_and_accuracy_is_high() {
        let result = crate::run_standalone(plan, from_matrix, &RunOptions::quick());
        let s2 = result.average_savings(2);
        let s4 = result.average_savings(4);
        let s8 = result.average_savings(8);
        assert!(s2 < s4 && s4 < s8, "savings {s2} {s4} {s8}");
        assert!(s8 > 0.55, "8-way savings {s8}");
        assert!(result.average_accuracy(4) > 0.80);
        // fpppp is the accuracy outlier.
        let fpppp = result
            .rows
            .iter()
            .find(|r| r.benchmark == "fpppp" && r.associativity == 4)
            .expect("fpppp row");
        let others_min = result
            .rows
            .iter()
            .filter(|r| r.associativity == 4 && r.benchmark != "fpppp")
            .map(|r| r.accuracy)
            .fold(1.0_f64, f64::min);
        assert!(
            fpppp.accuracy <= others_min + 0.05,
            "fpppp ({}) should be the least accurate (others >= {others_min})",
            fpppp.accuracy
        );
    }
}
