//! Integration tests for config-parallel lane batching: lane-batched
//! simulation is bit-identical to scalar monomorphized runs over arbitrary
//! gangs (every d-cache policy, partial widths 1..MAX_LANES, heterogeneous
//! free parameters), the engine's lane partition is exhaustive and
//! exclusive (every gang-executed point lands in exactly one of
//! {lane batch, scalar fallback}), and lane batching changes no engine
//! result against per-point [`simulate_workload`].

use proptest::prelude::*;
use wpsdm::cache::{DCachePolicy, ICachePolicy, L1Config};
use wpsdm::cpu::{run_lane_batch, CpuConfig, LaneMember, Processor, MAX_LANES};
use wpsdm::experiments::{
    run_all_plan, simulate_workload, MachineConfig, RunOptions, SimEngine, SimPlan, SimPoint,
};
use wpsdm::workloads::{Benchmark, IterBlockSource, TraceConfig, TraceGenerator, WorkloadSpec};

/// The lane-free parameters of one member, drawn as indices into small
/// palettes: (d base latency, prediction-table size, i-assoc, i-policy,
/// issue width). The shared d-cache tag geometry — the batch key — is
/// applied when the member is built, so every member of a batch agrees.
type MemberDraw = ((u64, usize), (usize, usize, usize));

fn arb_member() -> impl Strategy<Value = MemberDraw> {
    (
        (1u64..=3, 0usize..3),
        (0usize..4, 0usize..ICachePolicy::all().len(), 0usize..2),
    )
}

fn build_member(d_assoc: usize, draw: MemberDraw) -> LaneMember {
    let ((d_latency, pt), (i_assoc, ipolicy, wide)) = draw;
    LaneMember {
        cpu: CpuConfig {
            issue_width: [4, 8][wide],
            ..CpuConfig::default()
        },
        l1d: L1Config::paper_dcache()
            .with_associativity(d_assoc)
            .with_base_latency(d_latency)
            .with_prediction_table_entries([64, 256, 1024][pt]),
        l1i: L1Config::paper_icache().with_associativity([1, 2, 4, 8][i_assoc]),
        ipolicy: ICachePolicy::all()[ipolicy],
    }
}

/// An arbitrary lane batch: a policy from the full set, a shared geometry,
/// and 1..=MAX_LANES members (so partial widths and the width-1 degenerate
/// batch are exercised alongside full batches).
fn arb_batch() -> impl Strategy<Value = (DCachePolicy, Vec<LaneMember>)> {
    (
        0usize..DCachePolicy::all().len(),
        0usize..2,
        prop::collection::vec(arb_member(), 1..MAX_LANES + 1),
    )
        .prop_map(|(policy, geometry, draws)| {
            let d_assoc = [2, 4][geometry];
            (
                DCachePolicy::all()[policy],
                draws
                    .into_iter()
                    .map(|draw| build_member(d_assoc, draw))
                    .collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole safety property: a lane batch of any shape produces,
    /// lane for lane, exactly the result a scalar run of that
    /// configuration produces over the same op stream.
    #[test]
    fn lane_batches_match_scalar_runs(batch in arb_batch(), seed in 0u64..4) {
        let (policy, members) = batch;
        let config = TraceConfig::new(Benchmark::Gcc)
            .with_ops(3_000)
            .with_seed(seed);
        let batched = run_lane_batch(
            policy,
            &members,
            &mut IterBlockSource(TraceGenerator::new(config)),
        )
        .expect("members share a valid geometry");
        prop_assert_eq!(batched.len(), members.len());
        for (lane, member) in members.iter().enumerate() {
            let scalar = Processor::with_l1(
                member.cpu,
                member.l1d,
                policy,
                member.l1i,
                member.ipolicy,
            )
            .expect("valid configuration")
            .run(TraceGenerator::new(config));
            prop_assert!(
                batched[lane].exact_eq(&scalar),
                "{:?} lane {} of {} diverged: {:?}",
                policy,
                lane,
                members.len(),
                batched[lane].diff(&scalar)
            );
        }
    }
}

/// A plan whose gangs contain both lane-batchable groups (three members
/// sharing the baseline d-geometry) and structurally divergent members
/// that must fall back to the scalar path (a different associativity and a
/// different policy-singleton).
fn mixed_shape_plan(options: RunOptions) -> SimPlan {
    let baseline = MachineConfig::baseline();
    let mut plan = SimPlan::new();
    for workload in [
        WorkloadSpec::Benchmark(Benchmark::Gcc),
        WorkloadSpec::Benchmark(Benchmark::Swim),
    ] {
        // Three members sharing (policy, geometry): one width-3 lane batch.
        plan.add(SimPoint::with_workload(workload.clone(), baseline, options));
        plan.add(SimPoint::with_workload(
            workload.clone(),
            baseline.with_l1d(L1Config::paper_dcache().with_base_latency(2)),
            options,
        ));
        plan.add(SimPoint::with_workload(
            workload.clone(),
            baseline.with_ipolicy(ICachePolicy::WayPredict),
            options,
        ));
        // Divergent tag geometry: same policy, not batchable with the
        // group above.
        plan.add(SimPoint::with_workload(
            workload.clone(),
            baseline.with_l1d(L1Config::paper_dcache().with_associativity(2)),
            options,
        ));
        // A policy singleton: nothing to batch with.
        plan.add(SimPoint::with_workload(
            workload.clone(),
            baseline.with_dpolicy(DCachePolicy::Sequential),
            options,
        ));
    }
    plan
}

#[test]
fn lane_partition_is_exhaustive_and_exclusive() {
    let options = RunOptions::quick().with_ops(2_000);
    let plan = mixed_shape_plan(options);
    let unique = plan.unique_points().len();
    let matrix = SimEngine::new(2).run(&plan);

    // Every gang-executed point lands in exactly one of {lane batch,
    // scalar fallback}: the two counters partition the executed points.
    assert_eq!(matrix.executed_points(), unique);
    assert_eq!(
        matrix.lane_points() + matrix.lane_scalar_fallback(),
        unique,
        "lane partition must cover every executed point exactly once"
    );
    // Two workloads, each with one width-3 batch and two fallbacks.
    assert_eq!(matrix.lane_batches(), 2);
    assert_eq!(matrix.lane_points(), 6);
    assert_eq!(matrix.lane_scalar_fallback(), 4);

    // The histogram is consistent with both counters: no width-0/1
    // "batches", batch count and width-weighted point count both match.
    let histogram = matrix.lane_width_histogram();
    assert_eq!(histogram[0], 0);
    assert_eq!(histogram[1], 0);
    assert_eq!(histogram.iter().sum::<usize>(), matrix.lane_batches());
    assert_eq!(
        histogram
            .iter()
            .enumerate()
            .map(|(width, batches)| width * batches)
            .sum::<usize>(),
        matrix.lane_points()
    );
}

#[test]
fn full_run_all_plan_partitions_under_lanes() {
    let options = RunOptions::quick().with_ops(1_000);
    let plan = run_all_plan(&options);
    let unique = plan.unique_points().len();
    let matrix = SimEngine::new(2).run(&plan);
    assert_eq!(matrix.executed_points(), unique);
    assert_eq!(matrix.lane_points() + matrix.lane_scalar_fallback(), unique);
    assert!(
        matrix.lane_batches() > 0,
        "the run_all plan must produce at least one lane batch"
    );
}

#[test]
fn lane_batching_changes_no_engine_result() {
    let options = RunOptions::quick().with_ops(2_000);
    let plan = mixed_shape_plan(options);
    let laned = SimEngine::new(2).run(&plan);
    let serial = SimEngine::serial().run(&plan);

    for point in plan.unique_points() {
        let on = laned.require_workload(&point.workload, &point.machine, &point.options);
        let scalar = simulate_workload(&point.workload, &point.machine, &point.options);
        let ser = serial.require_workload(&point.workload, &point.machine, &point.options);
        assert_eq!(
            on, &scalar,
            "lanes vs point-at-a-time diverged at {}",
            point.workload
        );
        assert_eq!(on, ser, "lanes vs serial diverged at {}", point.workload);
    }
}
