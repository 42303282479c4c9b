//! Table 4 — d-cache miss rates under direct-mapped and 4-way
//! set-associative organisations.
//!
//! These miss rates motivate selective direct-mapping: the gap between the
//! direct-mapped and 4-way columns is what conflicting accesses cost, and it
//! is small for most benchmarks (swim even inverts it), which is why most
//! accesses can safely use direct mapping.
//!
//! Both columns come from the simulation matrix: the processor's d-cache
//! sees every load and store in program order, and a parallel-access
//! cache's contents never depend on timing, so the baseline machine with a
//! 1-way or 4-way L1d measures exactly the miss rate of a bare replay. The
//! 4-way column is the baseline that Figures 4–6 and Table 5 already
//! declare.

use serde::{Deserialize, Serialize};
use wp_cache::L1Config;
use wp_workloads::Benchmark;

use crate::engine::{SimEngine, SimMatrix, SimPlan};
use crate::report::TextTable;
use crate::runner::{MachineConfig, RunOptions};

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Measured direct-mapped miss rate (percent).
    pub direct_mapped: f64,
    /// The paper's direct-mapped miss rate (percent).
    pub paper_direct_mapped: f64,
    /// Measured 4-way set-associative miss rate (percent).
    pub set_associative: f64,
    /// The paper's 4-way miss rate (percent).
    pub paper_set_associative: f64,
}

/// The regenerated Table 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Result {
    /// One row per benchmark.
    pub rows: Vec<Table4Row>,
}

/// The baseline machine with a 16 KB parallel-access L1d of the given
/// associativity.
fn machine(associativity: usize) -> MachineConfig {
    MachineConfig::baseline().with_l1d(L1Config::paper_dcache().with_associativity(associativity))
}

/// The simulation points Table 4 needs: the baseline machine with a 1-way
/// and a 4-way L1d on every benchmark.
pub fn plan(options: &RunOptions) -> SimPlan {
    let mut plan = SimPlan::new();
    for associativity in [1, 4] {
        plan.add_all_benchmarks(machine(associativity), *options);
    }
    plan
}

/// Renders Table 4 from an executed matrix containing [`plan`]'s points.
pub fn from_matrix(matrix: &SimMatrix, options: &RunOptions) -> Table4Result {
    let miss_rate = |benchmark, associativity| {
        matrix
            .require(benchmark, &machine(associativity), options)
            .dcache
            .miss_rate_percent()
    };
    let rows = Benchmark::all()
        .iter()
        .map(|&b| {
            let profile = b.profile();
            Table4Row {
                benchmark: b.name().to_string(),
                direct_mapped: miss_rate(b, 1),
                paper_direct_mapped: profile.paper_dm_miss_rate,
                set_associative: miss_rate(b, 4),
                paper_set_associative: profile.paper_sa_miss_rate,
            }
        })
        .collect();
    Table4Result { rows }
}

/// Regenerates Table 4 standalone (plans, executes, renders) on `threads`
/// workers: the one standalone entry left, because the benchmark ledger
/// times this pass on its own.
pub fn run_threaded(options: &RunOptions, threads: usize) -> Table4Result {
    from_matrix(&SimEngine::new(threads).run(&plan(options)), options)
}

impl Table4Result {
    /// Renders the table as text.
    pub fn to_table(&self) -> String {
        let mut table = TextTable::new(vec![
            "benchmark",
            "direct-mapped %",
            "paper",
            "4-way %",
            "paper",
        ]);
        for row in &self.rows {
            table.add_row(vec![
                row.benchmark.clone(),
                format!("{:.1}", row.direct_mapped),
                format!("{:.1}", row.paper_direct_mapped),
                format!("{:.1}", row.set_associative),
                format!("{:.1}", row.paper_set_associative),
            ]);
        }
        format!("Table 4: d-cache miss rates\n{}", table.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_misses_more_except_swim() {
        let options = RunOptions::quick().with_ops(120_000);
        let result = crate::run_standalone(plan, from_matrix, &options);
        assert_eq!(result.rows.len(), 11);
        for row in &result.rows {
            if row.benchmark == "swim" {
                assert!(
                    row.set_associative > row.direct_mapped,
                    "swim must show the LRU pathology: {row:?}"
                );
            } else {
                assert!(
                    row.direct_mapped >= row.set_associative - 0.3,
                    "direct-mapped should miss at least as much: {row:?}"
                );
            }
        }
    }

    #[test]
    fn renders_every_benchmark() {
        let result =
            crate::run_standalone(plan, from_matrix, &RunOptions::quick().with_ops(30_000));
        let text = result.to_table();
        for b in Benchmark::all() {
            assert!(text.contains(b.name()));
        }
    }

    #[test]
    fn rendering_from_a_matrix_without_the_plan_points_panics() {
        let panic = std::panic::catch_unwind(|| {
            from_matrix(&SimMatrix::new(), &RunOptions::quick().with_ops(2_000))
        })
        .expect_err("a matrix without Table 4's points cannot render it");
        let message = panic
            .downcast_ref::<String>()
            .expect("the panic carries a formatted message");
        assert!(
            message.contains("plan/renderer mismatch"),
            "unexpected panic: {message}"
        );
    }
}
