//! Integration tests for config-parallel lane batching: every lane of a
//! batch is bit-identical to a one-lane `Processor` run and to the
//! `wp-oracle` reference simulator over arbitrary batches (every d-cache
//! policy, partial widths 1..MAX_LANES, heterogeneous free parameters), a
//! batch that mixes d-policies is refused, the engine's lane partition is
//! exhaustive and exclusive (every gang-executed point lands in exactly one
//! of {lane batch, width-1 unit}), and lane batching changes no engine
//! result against per-point [`simulate_workload`].

use proptest::prelude::*;
use wpsdm::cache::{DCachePolicy, ICachePolicy, L1Config};
use wpsdm::cpu::{run_lane_batch, CpuConfig, LaneMember, Processor, MAX_LANES};
use wpsdm::experiments::runner::simulate_workload_shared_lanes;
use wpsdm::experiments::{
    run_all_plan, simulate_workload, MachineConfig, RunOptions, SimEngine, SimPlan, SimPoint,
};
use wpsdm::oracle::OracleProcessor;
use wpsdm::workloads::{
    Benchmark, IterBlockSource, SharedStream, StreamKey, TraceConfig, TraceGenerator, WorkloadSpec,
};

/// The lane-free parameters of one member, drawn as indices into small
/// palettes: (d base latency, d extra probe latency, prediction-table size,
/// i-assoc, i-policy, issue width). The shared d-cache tag geometry — the
/// batch key — is applied when the member is built, so every member of a
/// batch agrees. Members that differ only in base latency share one d-cache
/// controller; a different extra probe latency must not.
type MemberDraw = ((u64, u64, usize), (usize, usize, usize));

fn arb_member() -> impl Strategy<Value = MemberDraw> {
    (
        (1u64..=3, 1u64..=2, 0usize..3),
        (0usize..4, 0usize..ICachePolicy::all().len(), 0usize..2),
    )
}

fn build_member(d_assoc: usize, draw: MemberDraw) -> LaneMember {
    let ((d_latency, d_extra, pt), (i_assoc, ipolicy, wide)) = draw;
    LaneMember {
        cpu: CpuConfig {
            issue_width: [4, 8][wide],
            ..CpuConfig::default()
        },
        l1d: L1Config {
            extra_probe_latency: d_extra,
            ..L1Config::paper_dcache()
                .with_associativity(d_assoc)
                .with_base_latency(d_latency)
                .with_prediction_table_entries([64, 256, 1024][pt])
        },
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

    /// The lane safety property: a lane batch of any shape produces, lane
    /// for lane, exactly the result a one-lane `Processor` run of that
    /// configuration produces over the same op stream. Both run the same
    /// walker, so every lane is also held to the oracle, which shares no
    /// code with it.
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
            let single = Processor::with_l1(
                member.cpu,
                member.l1d,
                policy,
                member.l1i,
                member.ipolicy,
            )
            .expect("valid configuration")
            .run(TraceGenerator::new(config));
            prop_assert!(
                batched[lane].exact_eq(&single),
                "{:?} lane {} of {} diverged from its one-lane run: {:?}",
                policy,
                lane,
                members.len(),
                batched[lane].diff(&single)
            );
            let oracle = OracleProcessor::with_l1(
                member.cpu,
                member.l1d,
                policy,
                member.l1i,
                member.ipolicy,
            )
            .expect("valid configuration")
            .run(TraceGenerator::new(config));
            prop_assert!(
                batched[lane].exact_eq(&oracle),
                "{:?} lane {} of {} diverged from the oracle: {:?}",
                policy,
                lane,
                members.len(),
                batched[lane].diff(&oracle)
            );
        }
    }
}

/// The engine's executor checks the batch key's policy half in every build:
/// a batch that mixes d-policies would otherwise run every machine under
/// the first one's policy.
#[test]
#[should_panic(expected = "one d-cache policy")]
fn a_mixed_policy_batch_is_refused() {
    let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Gcc), 2_000, 1);
    let stream = SharedStream::materialize_capped(&key, usize::MAX).expect("fits");
    let machine = MachineConfig::baseline();
    simulate_workload_shared_lanes(
        &stream,
        &[machine, machine.with_dpolicy(DCachePolicy::Sequential)],
    );
}

/// A plan whose gangs contain both lane-batchable groups (three members
/// sharing the baseline d-geometry) and structurally divergent members
/// that run as width-1 units (a different associativity and a different
/// policy-singleton).
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
    // width-1 unit}: the two counters partition the executed points.
    assert_eq!(matrix.executed_points(), unique);
    assert_eq!(
        matrix.lane_points() + matrix.lane_scalar_fallback(),
        unique,
        "lane partition must cover every executed point exactly once"
    );
    // Two workloads, each with one width-3 batch and two width-1 units.
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
