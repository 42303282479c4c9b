//! Shared comparison machinery: run a set of d-cache policies against the
//! parallel-access baseline across all benchmarks and collect the metrics
//! the paper's figures plot.

use serde::{Deserialize, Serialize};
use wp_cache::{DCachePolicy, L1Config};
use wp_workloads::Benchmark;

use crate::engine::{SimMatrix, SimPlan};
use crate::runner::{MachineConfig, RunOptions};

/// The metrics the paper's d-cache figures plot for one (benchmark, policy)
/// pair, relative to the parallel-access baseline of the same cache
/// configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// Policy label.
    pub policy: String,
    /// D-cache energy-delay relative to the baseline (lower is better).
    pub relative_energy_delay: f64,
    /// D-cache energy relative to the baseline.
    pub relative_energy: f64,
    /// Execution-time increase relative to the baseline (fraction).
    pub performance_degradation: f64,
    /// Way-prediction accuracy over loads that consulted a way table.
    pub way_prediction_accuracy: f64,
    /// Fraction of loads correctly handled as direct-mapped by
    /// selective-DM.
    pub seldm_dm_fraction: f64,
    /// Figure 6 access breakdown: (direct-mapped, parallel, way-predicted,
    /// sequential, mispredicted) fractions of loads.
    pub breakdown: [f64; 5],
    /// Overall d-cache miss rate (percent).
    pub miss_rate_percent: f64,
}

/// The simulation points a `policies`-on-`l1d` comparison needs: the
/// parallel baseline plus one machine per policy, on every benchmark.
pub fn dcache_policy_plan(
    policies: &[DCachePolicy],
    l1d: L1Config,
    options: &RunOptions,
) -> SimPlan {
    let baseline_machine = MachineConfig::baseline().with_l1d(l1d);
    let mut plan = SimPlan::new();
    plan.add_all_benchmarks(baseline_machine, *options);
    for &policy in policies {
        plan.add_all_benchmarks(baseline_machine.with_dpolicy(policy), *options);
    }
    plan
}

/// Assembles the per-(benchmark, policy) rows from an executed matrix. The
/// matrix must contain [`dcache_policy_plan`]'s points.
pub fn compare_dcache_policies_in(
    matrix: &SimMatrix,
    policies: &[DCachePolicy],
    l1d: L1Config,
    options: &RunOptions,
) -> Vec<PolicyComparison> {
    let baseline_machine = MachineConfig::baseline().with_l1d(l1d);
    let mut rows = Vec::new();
    for &benchmark in Benchmark::all().iter() {
        let baseline = matrix.require(benchmark, &baseline_machine, options);
        for &policy in policies {
            let machine = baseline_machine.with_dpolicy(policy);
            let result = matrix.require(benchmark, &machine, options);
            let metrics = result.dcache_relative_to(baseline);
            rows.push(PolicyComparison {
                benchmark: benchmark.name().to_string(),
                policy: policy.label().to_string(),
                relative_energy_delay: metrics.relative_energy_delay,
                relative_energy: metrics.relative_energy,
                performance_degradation: result.performance_degradation_vs(baseline),
                way_prediction_accuracy: result.dcache.way_prediction_accuracy(),
                seldm_dm_fraction: result.dcache.seldm_dm_fraction(),
                breakdown: result.dcache.access_breakdown(),
                miss_rate_percent: result.dcache.miss_rate_percent(),
            });
        }
    }
    rows
}

/// Averages the per-benchmark rows of each policy (the paper reports
/// unweighted averages over its eleven benchmarks).
pub fn average_by_policy(rows: &[PolicyComparison]) -> Vec<PolicyComparison> {
    let mut policies: Vec<String> = Vec::new();
    for row in rows {
        if !policies.contains(&row.policy) {
            policies.push(row.policy.clone());
        }
    }
    policies
        .into_iter()
        .filter_map(|policy| {
            let group: Vec<&PolicyComparison> =
                rows.iter().filter(|r| r.policy == policy).collect();
            if group.is_empty() {
                return None;
            }
            let n = group.len() as f64;
            let mean =
                |f: &dyn Fn(&PolicyComparison) -> f64| group.iter().map(|r| f(r)).sum::<f64>() / n;
            let mut breakdown = [0.0; 5];
            for (i, slot) in breakdown.iter_mut().enumerate() {
                *slot = group.iter().map(|r| r.breakdown[i]).sum::<f64>() / n;
            }
            Some(PolicyComparison {
                benchmark: "average".to_string(),
                policy,
                relative_energy_delay: mean(&|r| r.relative_energy_delay),
                relative_energy: mean(&|r| r.relative_energy),
                performance_degradation: mean(&|r| r.performance_degradation),
                way_prediction_accuracy: mean(&|r| r.way_prediction_accuracy),
                seldm_dm_fraction: mean(&|r| r.seldm_dm_fraction),
                breakdown,
                miss_rate_percent: mean(&|r| r.miss_rate_percent),
            })
        })
        .collect()
}

/// Convenience: the average row for one policy, if present.
pub fn average_for(
    averages: &[PolicyComparison],
    policy: DCachePolicy,
) -> Option<&PolicyComparison> {
    averages.iter().find(|r| r.policy == policy.label())
}

/// A complete d-cache figure: per-benchmark rows, per-policy averages, and
/// the paper's reference averages for comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DcacheFigure {
    /// Title used when rendering.
    pub title: String,
    /// Per-(benchmark, policy) measurements.
    pub rows: Vec<PolicyComparison>,
    /// Per-policy averages over the eleven benchmarks.
    pub averages: Vec<PolicyComparison>,
    /// Paper reference averages: (policy label, energy-delay savings
    /// percent, performance degradation percent).
    pub paper_reference: Vec<(String, f64, f64)>,
}

impl DcacheFigure {
    /// The simulation points [`DcacheFigure::from_matrix`] will read.
    pub fn plan(policies: &[DCachePolicy], l1d: L1Config, options: &RunOptions) -> SimPlan {
        dcache_policy_plan(policies, l1d, options)
    }

    /// Assembles the figure from an executed matrix containing
    /// [`DcacheFigure::plan`]'s points.
    pub fn from_matrix(
        matrix: &SimMatrix,
        title: &str,
        policies: &[DCachePolicy],
        l1d: L1Config,
        options: &RunOptions,
        paper_reference: &[(&str, f64, f64)],
    ) -> Self {
        let rows = compare_dcache_policies_in(matrix, policies, l1d, options);
        let averages = average_by_policy(&rows);
        Self {
            title: title.to_string(),
            rows,
            averages,
            paper_reference: paper_reference
                .iter()
                .map(|&(label, savings, perf)| (label.to_string(), savings, perf))
                .collect(),
        }
    }

    /// Renders the per-benchmark relative energy-delay and degradation,
    /// followed by the averages and the paper's reference numbers.
    pub fn to_table(&self) -> String {
        let mut table = crate::report::TextTable::new(vec![
            "benchmark",
            "policy",
            "rel. E*D",
            "perf. degr. %",
            "waypred acc. %",
            "DM fraction %",
        ]);
        for row in self.rows.iter().chain(self.averages.iter()) {
            table.add_row(vec![
                row.benchmark.clone(),
                row.policy.clone(),
                format!("{:.2}", row.relative_energy_delay),
                format!("{:.1}", row.performance_degradation * 100.0),
                format!("{:.0}", row.way_prediction_accuracy * 100.0),
                format!("{:.0}", row.seldm_dm_fraction * 100.0),
            ]);
        }
        let mut out = format!("{}\n{}", self.title, table.render());
        if !self.paper_reference.is_empty() {
            out.push_str("\nPaper reference averages (E*D savings %, perf. degradation %):\n");
            for (label, savings, perf) in &self.paper_reference {
                let measured = self
                    .averages
                    .iter()
                    .find(|r| &r.policy == label)
                    .map(|r| {
                        format!(
                            " | measured: {:.0} %, {:.1} %",
                            (1.0 - r.relative_energy_delay) * 100.0,
                            r.performance_degradation * 100.0
                        )
                    })
                    .unwrap_or_default();
                out.push_str(&format!("  {label}: {savings} %, {perf} %{measured}\n"));
            }
        }
        out
    }

    /// The measured average energy-delay savings (as a fraction) for one
    /// policy, if it was part of the figure.
    pub fn average_savings(&self, policy: DCachePolicy) -> Option<f64> {
        average_for(&self.averages, policy).map(|r| 1.0 - r.relative_energy_delay)
    }

    /// The measured average performance degradation (as a fraction) for one
    /// policy, if it was part of the figure.
    pub fn average_degradation(&self, policy: DCachePolicy) -> Option<f64> {
        average_for(&self.averages, policy).map(|r| r.performance_degradation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(benchmark: &str, policy: &str, ed: f64) -> PolicyComparison {
        PolicyComparison {
            benchmark: benchmark.into(),
            policy: policy.into(),
            relative_energy_delay: ed,
            relative_energy: ed,
            performance_degradation: 0.01,
            way_prediction_accuracy: 0.6,
            seldm_dm_fraction: 0.7,
            breakdown: [0.7, 0.1, 0.1, 0.05, 0.05],
            miss_rate_percent: 3.0,
        }
    }

    #[test]
    fn averages_are_grouped_by_policy() {
        let rows = vec![
            row("gcc", "sequential", 0.30),
            row("go", "sequential", 0.40),
            row("gcc", "seldm+waypred", 0.30),
        ];
        let averages = average_by_policy(&rows);
        assert_eq!(averages.len(), 2);
        let seq = averages
            .iter()
            .find(|r| r.policy == "sequential")
            .expect("sequential average");
        assert!((seq.relative_energy_delay - 0.35).abs() < 1e-12);
        assert_eq!(seq.benchmark, "average");
        assert!(average_for(&averages, DCachePolicy::SelDmWayPredict).is_some());
        assert!(average_for(&averages, DCachePolicy::WayPredictXor).is_none());
    }

    #[test]
    fn empty_input_yields_empty_averages() {
        assert!(average_by_policy(&[]).is_empty());
    }
}
