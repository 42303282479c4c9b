//! Figure 11 — overall processor energy and energy-delay.
//!
//! Combining selective-DM + way-prediction for the d-cache with
//! way-prediction for the i-cache cuts most of the L1 energy, but the L1s
//! are only 10–16 % of overall processor energy, so the paper reports ~9 %
//! overall energy savings and 8 % energy-delay savings, against a 10 % bound
//! for perfect way-prediction with no performance degradation.

use serde::Serialize;
use wp_cache::{DCachePolicy, ICachePolicy};
use wp_energy::{EnergyDelay, ProcessorEnergyBreakdown};
use wp_workloads::Benchmark;

use crate::engine::{SimMatrix, SimPlan};
use crate::report::TextTable;
use crate::runner::{MachineConfig, RunOptions};

/// One benchmark's overall-processor measurements.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig11Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Overall processor energy relative to the baseline machine.
    pub relative_energy: f64,
    /// Overall processor energy-delay relative to the baseline machine.
    pub relative_energy_delay: f64,
    /// Performance degradation relative to the baseline (fraction).
    pub performance_degradation: f64,
    /// Energy-delay bound with perfect way-prediction (single-way access on
    /// every L1 read, no performance loss).
    pub perfect_relative_energy_delay: f64,
    /// Fraction of baseline processor energy dissipated in the two L1s.
    pub baseline_l1_fraction: f64,
}

/// The regenerated Figure 11.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig11Result {
    /// Per-benchmark rows.
    pub rows: Vec<Fig11Row>,
    /// Paper reference: average energy-delay savings (percent) of the real
    /// techniques and of the perfect-prediction bound.
    pub paper_average_savings: f64,
    /// Paper reference for the perfect-way-prediction bound (percent).
    pub paper_perfect_savings: f64,
}

/// The combined-technique machine the figure measures.
fn technique_machine() -> MachineConfig {
    MachineConfig::baseline()
        .with_dpolicy(DCachePolicy::SelDmWayPredict)
        .with_ipolicy(ICachePolicy::WayPredict)
}

/// The simulation points Figure 11 needs: the baseline machine and the
/// combined d+i technique on every benchmark.
pub fn plan(options: &RunOptions) -> SimPlan {
    let mut plan = SimPlan::new();
    plan.add_all_benchmarks(MachineConfig::baseline(), *options);
    plan.add_all_benchmarks(technique_machine(), *options);
    plan
}

/// Renders Figure 11 from an executed matrix containing [`plan`]'s points.
pub fn from_matrix(matrix: &SimMatrix, options: &RunOptions) -> Fig11Result {
    let baseline_machine = MachineConfig::baseline();
    let technique_machine = technique_machine();

    let rows = Benchmark::all()
        .iter()
        .map(|&benchmark| {
            let baseline = matrix.require(benchmark, &baseline_machine, options);
            let technique = matrix.require(benchmark, &technique_machine, options);

            let metrics = technique.processor_relative_to(baseline);

            // Perfect way-prediction bound: every L1 read costs a single-way
            // probe, stores and refills are unchanged, and performance is
            // identical to the baseline.
            let base = baseline;
            let d_model = wp_energy::CacheEnergyModel::new(
                baseline_machine.l1d.geometry().expect("valid geometry"),
            );
            let i_model = wp_energy::CacheEnergyModel::new(
                baseline_machine.l1i.geometry().expect("valid geometry"),
            );
            let perfect_d = base.dcache.loads as f64 * d_model.single_way_read_energy()
                + base.dcache.stores as f64 * d_model.write_energy()
                + base.dcache.misses() as f64 * d_model.data_way_write_energy();
            let perfect_i = base.icache.fetches as f64 * i_model.single_way_read_energy()
                + base.icache.fetch_misses as f64 * i_model.data_way_write_energy();
            let perfect_energy =
                ProcessorEnergyBreakdown::new(&base.activity, perfect_i, perfect_d).total();
            let perfect = EnergyDelay::new(perfect_energy, base.cycles)
                .relative_to(&base.processor_energy_delay());

            Fig11Row {
                benchmark: benchmark.name().to_string(),
                relative_energy: metrics.relative_energy,
                relative_energy_delay: metrics.relative_energy_delay,
                performance_degradation: technique.performance_degradation_vs(baseline),
                perfect_relative_energy_delay: perfect.relative_energy_delay,
                baseline_l1_fraction: base.l1_energy_fraction(),
            }
        })
        .collect();

    Fig11Result {
        rows,
        paper_average_savings: 8.0,
        paper_perfect_savings: 10.0,
    }
}

impl Fig11Result {
    /// Average measured energy-delay savings (fraction).
    pub fn average_savings(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        1.0 - self
            .rows
            .iter()
            .map(|r| r.relative_energy_delay)
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Average perfect-prediction bound savings (fraction).
    pub fn average_perfect_savings(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        1.0 - self
            .rows
            .iter()
            .map(|r| r.perfect_relative_energy_delay)
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Average baseline L1 energy fraction.
    pub fn average_l1_fraction(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(|r| r.baseline_l1_fraction)
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Renders the figure data as text.
    pub fn to_table(&self) -> String {
        let mut table = TextTable::new(vec![
            "benchmark",
            "rel. energy",
            "rel. E*D",
            "perf. degr. %",
            "perfect E*D",
            "L1 fraction %",
        ]);
        for row in &self.rows {
            table.add_row(vec![
                row.benchmark.clone(),
                format!("{:.3}", row.relative_energy),
                format!("{:.3}", row.relative_energy_delay),
                format!("{:.1}", row.performance_degradation * 100.0),
                format!("{:.3}", row.perfect_relative_energy_delay),
                format!("{:.1}", row.baseline_l1_fraction * 100.0),
            ]);
        }
        format!(
            "Figure 11: overall processor energy-delay\n{}\nAverage savings: {:.1} % (paper {:.0} %); \
             perfect bound {:.1} % (paper {:.0} %); L1 fraction {:.1} %\n",
            table.render(),
            self.average_savings() * 100.0,
            self.paper_average_savings,
            self.average_perfect_savings() * 100.0,
            self.paper_perfect_savings,
            self.average_l1_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overall_savings_are_bounded_by_the_perfect_case() {
        let result = crate::run_standalone(plan, from_matrix, &RunOptions::quick());
        let savings = result.average_savings();
        let perfect = result.average_perfect_savings();
        assert!(savings > 0.02, "savings {savings}");
        assert!(
            perfect >= savings - 0.01,
            "perfect {perfect} vs real {savings}"
        );
        assert!(perfect < 0.25, "perfect bound {perfect} should be modest");
        // The L1s are a minority of processor energy (the 10-16 % band, with
        // slack for workload variation).
        let fraction = result.average_l1_fraction();
        assert!(fraction > 0.05 && fraction < 0.25, "L1 fraction {fraction}");
    }
}
