//! Integration tests for the simulation engine: determinism across
//! execution schedules, cross-figure dedup, the run_all
//! execute-each-point-exactly-once invariant, and Table 4's matrix-derived
//! miss rates against a bare d-cache replay.

use proptest::prelude::*;
use wpsdm::cache::{DCacheController, DCachePolicy, L1Config};
use wpsdm::experiments::engine::{SimEngine, SimPlan};
use wpsdm::experiments::{fig11, fig6, run_all_plan, table4};
use wpsdm::experiments::{MachineConfig, RunOptions, SimPoint};
use wpsdm::workloads::{Benchmark, OpKind, TraceConfig, TraceGenerator};

/// A trace length small enough to sweep the full run_all plan in a test.
fn tiny() -> RunOptions {
    RunOptions::quick().with_ops(2_000)
}

#[test]
fn run_all_plan_shares_points_across_figures() {
    let options = tiny();
    let plan = run_all_plan(&options);
    let unique = plan.unique_points();

    // The figures genuinely overlap: Figures 4-6, Table 5, Figure 10 (4-way)
    // and Figure 11 all reuse the parallel baseline, Figures 6/7/8 and
    // Table 5 share the selective-DM machine, and so on.
    assert!(
        unique.len() < plan.len(),
        "the union plan must contain cross-figure duplicates \
         ({} requested, {} unique)",
        plan.len(),
        unique.len()
    );

    // And the deduplicated plan must contain no duplicate points.
    for (i, a) in unique.iter().enumerate() {
        for b in unique.iter().skip(i + 1) {
            assert_ne!(a, b, "unique_points must not repeat a point");
        }
    }

    // The shared baseline is requested by six artefacts but appears once.
    let baseline_requests = plan
        .points()
        .iter()
        .filter(|p| p.benchmark() == Some(Benchmark::Gcc) && p.machine == MachineConfig::baseline())
        .count();
    assert!(
        baseline_requests >= 6,
        "expected at least six consumers of the baseline, got {baseline_requests}"
    );
}

#[test]
fn run_all_executes_each_unique_point_exactly_once() {
    let options = tiny();
    let plan = run_all_plan(&options);
    let unique = plan.unique_points().len();

    let engine = SimEngine::default();
    let mut matrix = engine.run(&plan);
    assert_eq!(
        matrix.executed_points(),
        unique,
        "the engine must execute each unique (benchmark, machine, options) \
         point exactly once across all 11 tables/figures"
    );
    assert_eq!(matrix.len(), unique);

    // Feeding the same plan again performs zero additional simulations.
    engine.run_into(&mut matrix, &plan);
    assert_eq!(matrix.executed_points(), unique);

    // Every renderer can produce its artefact from the shared matrix.
    assert!(!fig6::from_matrix(&matrix, &options).to_table().is_empty());
    assert!(!fig11::from_matrix(&matrix, &options).to_table().is_empty());
}

#[test]
fn serial_and_parallel_runs_are_identical() {
    let options = tiny();
    // A representative slice of the run_all plan (keeps the double
    // execution cheap).
    let mut plan = SimPlan::new();
    let baseline = MachineConfig::baseline();
    for benchmark in [Benchmark::Gcc, Benchmark::Swim, Benchmark::Fpppp] {
        plan.add(SimPoint::new(benchmark, baseline, options));
        plan.add(SimPoint::new(
            benchmark,
            baseline.with_dpolicy(DCachePolicy::SelDmWayPredict),
            options,
        ));
        plan.add(SimPoint::new(
            benchmark,
            baseline.with_dpolicy(DCachePolicy::Sequential),
            options,
        ));
    }

    let serial = SimEngine::serial().run(&plan);
    let parallel = SimEngine::new(8).run(&plan);

    for point in plan.unique_points() {
        let a = serial.require_workload(&point.workload, &point.machine, &point.options);
        let b = parallel.require_workload(&point.workload, &point.machine, &point.options);
        assert_eq!(
            a, b,
            "{}: serial and parallel results must be identical for the same seed",
            point.workload
        );
    }
}

/// The miss rate of a bare 16 KB parallel-access d-cache replaying the
/// benchmark's loads and stores in program order, with no processor around
/// it.
fn bare_replay_miss_rate(benchmark: Benchmark, associativity: usize, options: &RunOptions) -> f64 {
    let config = L1Config::paper_dcache().with_associativity(associativity);
    let mut cache = DCacheController::new(config, DCachePolicy::Parallel).expect("valid config");
    let trace = TraceGenerator::new(
        TraceConfig::new(benchmark)
            .with_ops(options.ops)
            .with_seed(options.seed),
    );
    for op in trace {
        match op.kind {
            OpKind::Load { addr, approx_addr } => {
                cache.load(op.pc, addr, approx_addr);
            }
            OpKind::Store { addr } => {
                cache.store(op.pc, addr);
            }
            _ => {}
        }
    }
    cache.miss_rate_percent()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The processor's d-cache sees the replay's exact access sequence and
    /// a parallel-access cache's contents never depend on timing, so the
    /// miss rates Table 4 reads from full-machine simulations equal a bare
    /// controller replay, bit for bit, at both associativities, on every
    /// benchmark.
    #[test]
    fn table4_matrix_miss_rates_equal_a_bare_controller_replay(
        seed in 0u64..1_000,
        ops in 1_000usize..8_001,
    ) {
        let options = RunOptions::quick().with_ops(ops).with_seed(seed);
        let matrix = SimEngine::new(2).run(&table4::plan(&options));
        let table = table4::from_matrix(&matrix, &options);
        for (row, &benchmark) in table.rows.iter().zip(Benchmark::all().iter()) {
            prop_assert_eq!(&row.benchmark, benchmark.name());
            prop_assert_eq!(
                row.direct_mapped.to_bits(),
                bare_replay_miss_rate(benchmark, 1, &options).to_bits()
            );
            prop_assert_eq!(
                row.set_associative.to_bits(),
                bare_replay_miss_rate(benchmark, 4, &options).to_bits()
            );
        }
    }
}
