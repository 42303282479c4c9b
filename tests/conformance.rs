//! Differential conformance: the optimized stack vs. the `wp-oracle`
//! reference simulator, asserted bit for bit ([`SimResult::exact_eq`]).
//!
//! The binary `conformance` drives the full 264-point `run_all` sweep and
//! a 200-pair random matrix in CI; these tests keep a fast always-on
//! slice of the same contract inside `cargo test`:
//!
//! * proptest strategies over associativity, sets, block size, latency,
//!   policies, core widths, and every workload family (benchmarks,
//!   parameterised scenarios);
//! * trace capture → replay through both backends;
//! * the shared-stream fan-out, including the spill path under a tiny cap.

use proptest::prelude::*;
use wpsdm::cache::{DCachePolicy, ICachePolicy, L1Config};
use wpsdm::cpu::CpuConfig;
use wpsdm::experiments::conformance::{
    check_point, oracle_simulate_shared, oracle_simulate_workload, random_points,
};
use wpsdm::experiments::{
    simulate_workload, MachineConfig, RunOptions, SimEngine, SimPlan, SimPoint,
};
use wpsdm::workloads::{Benchmark, Scenario, SharedStream, StreamKey, WorkloadSpec};

fn machine(
    l1: L1Config,
    dpolicy: DCachePolicy,
    ipolicy: ICachePolicy,
    cpu: CpuConfig,
) -> MachineConfig {
    MachineConfig {
        l1d: l1,
        l1i: l1,
        dpolicy,
        ipolicy,
        cpu,
    }
}

/// One exact-equality check, with a readable panic on divergence.
fn assert_conforms(workload: WorkloadSpec, machine: MachineConfig, options: RunOptions) {
    let optimized = simulate_workload(&workload, &machine, &options);
    let oracle = oracle_simulate_workload(&workload, &machine, &options);
    assert!(
        oracle.exact_eq(&optimized),
        "oracle and optimized stacks diverged on {workload} / {:?} / {:?}: fields {:?}",
        machine.dpolicy,
        options,
        oracle.diff(&optimized)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random geometry × policy × workload points conform exactly.
    #[test]
    fn random_configurations_conform(
        sets_pow in 4u32..8,           // 16..=128 sets
        block_pow in 4u32..7,          // 16..=64-byte blocks
        assoc_pow in 0u32..4,          // direct-mapped..=8-way
        base_latency in 1u64..=2,
        dpolicy_index in 0usize..8,
        ipolicy_index in 0usize..2,
        workload_index in 0usize..14,
        ops in 1_200usize..3_000,
        seed in 0u64..1_000,
    ) {
        let sets = 1usize << sets_pow;
        let block = 1usize << block_pow;
        let assoc = 1usize << assoc_pow;
        let l1 = L1Config {
            size_bytes: sets * block * assoc,
            block_bytes: block,
            associativity: assoc,
            base_latency,
            extra_probe_latency: 1,
            prediction_table_entries: 256,
            victim_list_entries: 8,
        };
        let dpolicy = [
            DCachePolicy::Parallel,
            DCachePolicy::Sequential,
            DCachePolicy::WayPredictPc,
            DCachePolicy::WayPredictXor,
            DCachePolicy::SelDmParallel,
            DCachePolicy::SelDmWayPredict,
            DCachePolicy::SelDmSequential,
            DCachePolicy::PerfectWayPredict,
        ][dpolicy_index];
        let ipolicy = [ICachePolicy::Parallel, ICachePolicy::WayPredict][ipolicy_index];
        let workload = match workload_index {
            i if i < 11 => WorkloadSpec::Benchmark(Benchmark::all()[i]),
            11 => WorkloadSpec::Scenario(Scenario::pointer_chase()),
            12 => WorkloadSpec::Scenario(Scenario::strided_stream()),
            _ => WorkloadSpec::Scenario(Scenario::phase_mix()),
        };
        assert_conforms(
            workload,
            machine(l1, dpolicy, ipolicy, CpuConfig::default()),
            RunOptions { ops, seed },
        );
    }

    /// Narrow core windows and widths conform too (the scheduling loop's
    /// structural-gating paths, not just the cache model).
    #[test]
    fn random_core_shapes_conform(
        fetch_width in 1usize..=8,
        rob_entries in 8usize..=64,
        lsq_entries in 4usize..=32,
        seed in 0u64..1_000,
    ) {
        let cpu = CpuConfig {
            fetch_width,
            rob_entries,
            lsq_entries,
            ..CpuConfig::default()
        };
        assert_conforms(
            WorkloadSpec::Benchmark(Benchmark::Gcc),
            machine(
                L1Config::paper_dcache(),
                DCachePolicy::SelDmWayPredict,
                ICachePolicy::WayPredict,
                cpu,
            ),
            RunOptions { ops: 2_000, seed },
        );
    }

    /// Parameterised scenario knobs (ring sizes, strides, conflict
    /// pressure, phase lengths) conform.
    #[test]
    fn random_scenario_parameters_conform(
        nodes in 2u32..512,
        node_stride in 1u32..256,
        stride in 1u32..128,
        conflict_permille in 0u16..=1000,
        phase_ops in 1u32..4_000,
        which in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let scenario = match which {
            0 => Scenario::PointerChase { nodes, node_stride },
            1 => Scenario::StridedStream { stride, conflict_permille },
            _ => Scenario::PhaseMix { phase_ops },
        };
        assert_conforms(
            WorkloadSpec::Scenario(scenario),
            MachineConfig::baseline().with_dpolicy(DCachePolicy::SelDmSequential),
            RunOptions { ops: 1_500, seed },
        );
    }
}

/// The seeded sampler the `conformance` binary uses feeds the same
/// exact-equality contract (a fast slice of the binary's `--random 200`).
#[test]
fn sampled_random_points_conform() {
    for point in random_points(8, 2026, &[]) {
        let report = check_point(&point);
        assert!(
            report.matches(),
            "random point diverged: {} / {:?}: fields {:?}",
            point.workload,
            point.machine,
            report.diff
        );
    }
}

/// A captured trace replays identically through both backends — the trace
/// identity (content digest) and decoder feed the same stream to each.
#[test]
fn trace_replay_conforms() {
    let dir = std::env::temp_dir().join(format!("wpsdm-conformance-test-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("replay.wptr");
    let source = WorkloadSpec::Benchmark(Benchmark::Vortex)
        .stream(3_000, 5)
        .expect("generated");
    wpsdm::workloads::capture_to_file(source, &path, "conformance test").expect("capture");
    let spec = WorkloadSpec::from_trace_file(&path).expect("opens");
    for dpolicy in [DCachePolicy::Parallel, DCachePolicy::SelDmWayPredict] {
        assert_conforms(
            spec.clone(),
            MachineConfig::baseline().with_dpolicy(dpolicy),
            RunOptions {
                ops: 3_000,
                seed: 0,
            },
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One materialized stream fans out to both backends — in memory and
/// through the spill codec under a 1-byte cap — and the four results
/// (optimized/oracle × resident/spilled) are all bit-identical.
#[test]
fn shared_stream_fan_out_conforms_resident_and_spilled() {
    let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Swim), 2_500, 9);
    let machine = MachineConfig::baseline().with_dpolicy(DCachePolicy::WayPredictPc);
    let options = RunOptions {
        ops: 2_500,
        seed: 9,
    };

    let resident = SharedStream::materialize_capped(&key, usize::MAX).expect("fits");
    assert!(!resident.is_spilled());
    let spilled = SharedStream::materialize_capped(&key, 1).expect("spills");
    assert!(spilled.is_spilled());

    let live = simulate_workload(&key.spec, &machine, &options);
    for stream in [&resident, &spilled] {
        let optimized =
            wpsdm::experiments::runner::simulate_workload_shared_lanes(stream, &[machine])
                .remove(0);
        let oracle = oracle_simulate_shared(stream, &machine);
        assert!(optimized.exact_eq(&live), "shared optimized != live");
        assert!(oracle.exact_eq(&live), "oracle over shared stream != live");
    }
}

/// The engine honours a tiny stream cap end to end: every gang stream
/// spills, and the matrix is bit-identical to the uncapped engine's.
#[test]
fn engine_stream_cap_preserves_results() {
    let options = RunOptions::quick().with_ops(2_000);
    let mut plan = SimPlan::new();
    for benchmark in [Benchmark::Gcc, Benchmark::Li] {
        for dpolicy in [DCachePolicy::Parallel, DCachePolicy::SelDmWayPredict] {
            plan.add(SimPoint::new(
                benchmark,
                MachineConfig::baseline().with_dpolicy(dpolicy),
                options,
            ));
        }
    }
    let uncapped = SimEngine::new(2).run(&plan);
    let capped = SimEngine::new(2).with_stream_memory_cap(1).run(&plan);
    for point in plan.unique_points() {
        assert_eq!(
            uncapped.require_workload(&point.workload, &point.machine, &point.options),
            capped.require_workload(&point.workload, &point.machine, &point.options),
            "a spilled gang stream changed a result"
        );
    }
}
