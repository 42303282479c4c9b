//! Integration tests for gang-scheduled sweep execution: results
//! bit-identical to per-point [`simulate_workload`] (which streams from the
//! generator and never materializes a stream) and to a single-threaded
//! engine; the materialize-each-stream-exactly-once invariant over the full
//! `run_all` plan; and spill-path equivalence under a tiny stream memory
//! cap.

use proptest::prelude::*;
use wpsdm::cache::{DCachePolicy, ICachePolicy};
use wpsdm::experiments::engine::{SimEngine, SimPlan};
use wpsdm::experiments::{run_all_plan, simulate_workload, MachineConfig, RunOptions, SimPoint};
use wpsdm::workloads::{Benchmark, Scenario, WorkloadSpec};

fn tiny() -> RunOptions {
    RunOptions::quick().with_ops(2_000)
}

/// A mixed plan: several workload kinds, several machines per workload, a
/// couple of stream identities — the shape gang scheduling reorganizes.
fn mixed_plan(options: RunOptions) -> SimPlan {
    let baseline = MachineConfig::baseline();
    let mut plan = SimPlan::new();
    for workload in [
        WorkloadSpec::Benchmark(Benchmark::Gcc),
        WorkloadSpec::Benchmark(Benchmark::Swim),
        WorkloadSpec::Scenario(Scenario::pointer_chase()),
    ] {
        for dpolicy in [
            DCachePolicy::Parallel,
            DCachePolicy::Sequential,
            DCachePolicy::SelDmWayPredict,
        ] {
            plan.add(SimPoint::with_workload(
                workload.clone(),
                baseline.with_dpolicy(dpolicy),
                options,
            ));
        }
        plan.add(SimPoint::with_workload(
            workload.clone(),
            baseline.with_ipolicy(ICachePolicy::WayPredict),
            options,
        ));
    }
    // One point at a different stream length: its gang must not merge with
    // the same workload at the base length.
    plan.add(SimPoint::with_workload(
        WorkloadSpec::Benchmark(Benchmark::Gcc),
        baseline,
        options.with_ops(options.ops / 2),
    ));
    plan
}

/// Every result in `a` must be bit-identical in `b`.
fn assert_matrices_identical(
    plan: &SimPlan,
    a: &wpsdm::experiments::SimMatrix,
    b: &wpsdm::experiments::SimMatrix,
    what: &str,
) {
    assert_eq!(a.len(), b.len());
    for point in plan.unique_points() {
        let ra = a.require_workload(&point.workload, &point.machine, &point.options);
        let rb = b.require_workload(&point.workload, &point.machine, &point.options);
        assert_eq!(ra, rb, "{what}: results diverged at {}", point.workload);
    }
}

#[test]
fn gang_results_are_bit_identical_to_point_at_a_time() {
    let plan = mixed_plan(tiny());
    let gang = SimEngine::new(2).run(&plan);
    let serial_gang = SimEngine::serial().run(&plan);
    for point in plan.unique_points() {
        let point_at_a_time = simulate_workload(&point.workload, &point.machine, &point.options);
        assert_eq!(
            gang.require_workload(&point.workload, &point.machine, &point.options),
            &point_at_a_time,
            "gang vs point-at-a-time: results diverged at {}",
            point.workload
        );
    }
    assert_matrices_identical(&plan, &gang, &serial_gang, "threads vs serial");
    // The gang engine groups the four stream identities (three workloads at
    // the base length, one at the halved length).
    assert_eq!(gang.streams_materialized(), 4);
    assert_eq!(gang.gangs(), 4);
}

#[test]
fn cold_run_all_materializes_each_unique_stream_exactly_once() {
    // The acceptance invariant: a cold full-plan sweep (no matrix cache)
    // produces each unique workload stream exactly once — the
    // stream-production counter equals the number of distinct
    // (workload, ops, seed) identities, never the point count.
    let options = tiny();
    let plan = run_all_plan(&options);
    let unique_streams: std::collections::HashSet<_> = plan
        .unique_points()
        .iter()
        .map(|p| (p.workload.clone(), p.options.ops, p.options.seed))
        .collect();

    let matrix = SimEngine::new(2).run(&plan);
    assert_eq!(matrix.executed_points(), plan.unique_points().len());
    assert_eq!(matrix.streams_materialized(), unique_streams.len());
    assert_eq!(matrix.gangs(), unique_streams.len());
    // run_all sweeps many configurations per workload, so the dedup factor
    // is large: far more ops consumed than generated.
    assert!(matrix.ops_generated() > 0);
    assert!(
        matrix.ops_consumed() >= 10 * matrix.ops_generated(),
        "expected a large gang dedup factor, got {} generated / {} consumed",
        matrix.ops_generated(),
        matrix.ops_consumed()
    );

    // Re-running the same plan executes nothing and materializes nothing.
    let mut matrix = matrix;
    SimEngine::new(2).run_into(&mut matrix, &plan);
    assert_eq!(matrix.streams_materialized(), unique_streams.len());
}

#[test]
fn spilled_streams_produce_identical_results() {
    // A 1-byte stream memory cap forces every gang stream through the WPTR
    // spill path; results must not change.
    let plan = mixed_plan(tiny());
    let in_memory = SimEngine::new(2).run(&plan);
    let spilled = SimEngine::new(2).with_stream_memory_cap(1).run(&plan);
    assert_matrices_identical(&plan, &in_memory, &spilled, "in-memory vs spilled");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Gang-scheduled and point-at-a-time execution agree bit-for-bit over
    /// arbitrary small plans: random workloads, policies, lengths, seeds.
    #[test]
    fn gang_matches_point_at_a_time_over_arbitrary_plans(
        selections in prop::collection::vec(
            (0usize..4, 0usize..7, 1usize..3, 0u64..2),
            1..10,
        ),
    ) {
        let workloads = [
            WorkloadSpec::Benchmark(Benchmark::Gcc),
            WorkloadSpec::Benchmark(Benchmark::Li),
            WorkloadSpec::Scenario(Scenario::strided_stream()),
            WorkloadSpec::Scenario(Scenario::phase_mix()),
        ];
        let mut plan = SimPlan::new();
        for (w, p, ops_k, seed) in selections {
            plan.add(SimPoint::with_workload(
                workloads[w].clone(),
                MachineConfig::baseline().with_dpolicy(DCachePolicy::all()[p]),
                RunOptions::quick().with_ops(ops_k * 1_000).with_seed(seed),
            ));
        }
        let gang = SimEngine::new(2).run(&plan);
        for point in plan.unique_points() {
            let a = gang.require_workload(&point.workload, &point.machine, &point.options);
            let b = simulate_workload(&point.workload, &point.machine, &point.options);
            prop_assert_eq!(a, &b);
        }
    }
}
