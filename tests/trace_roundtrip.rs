//! Integration tests for the trace capture/replay subsystem: a captured
//! trace must replay the *bit-identical* reference stream, and a simulation
//! driven by the replay must produce exactly the statistics of a simulation
//! driven by the live generator — over benchmarks and scenarios, through
//! both the direct runner and the deduplicating engine.

use std::io::Cursor;
use std::path::PathBuf;

use proptest::prelude::*;
use wpsdm::experiments::engine::{SimEngine, SimPlan, SimPoint};
use wpsdm::experiments::runner::simulate_workload;
use wpsdm::experiments::{MachineConfig, RunOptions};
use wpsdm::workloads::{
    capture_to_file, Benchmark, BranchClass, MicroOp, OpKind, Scenario, TextTraceWriter,
    TraceHandle, TraceReader, TraceWriter, WorkloadSpec,
};

/// A fresh path under the test-scoped temp dir.
fn temp_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// The capture→replay sources the acceptance criterion sweeps: two paper
/// benchmarks (one of them swim's pathological profile) and the three new
/// scenarios.
fn workloads_under_test() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::Benchmark(Benchmark::Gcc),
        WorkloadSpec::Benchmark(Benchmark::Swim),
        WorkloadSpec::Scenario(Scenario::pointer_chase()),
        WorkloadSpec::Scenario(Scenario::strided_stream()),
        WorkloadSpec::Scenario(Scenario::phase_mix()),
    ]
}

#[test]
fn captured_traces_replay_bit_identical_streams() {
    let options = RunOptions::quick().with_ops(8_000);
    for (index, workload) in workloads_under_test().into_iter().enumerate() {
        let live: Vec<_> = workload
            .stream(options.ops, options.seed)
            .expect("generated workload")
            .collect();
        let path = temp_path(&format!("stream_{index}.wpt"));
        capture_to_file(live.iter().copied(), &path, &workload.label()).expect("capture");

        let handle = TraceHandle::open(&path).expect("open");
        assert_eq!(handle.records(), live.len() as u64);
        assert_eq!(handle.source(), workload.label());
        let replayed: Vec<_> = handle.replay().expect("replay").collect();
        assert_eq!(replayed, live, "{workload}: replay must be bit-identical");
    }
}

#[test]
fn replayed_simulations_reproduce_live_statistics_exactly() {
    // The acceptance criterion: trace_capture of any built-in workload
    // followed by trace_replay reproduces the exact same simulation
    // statistics as running the generator live.
    let options = RunOptions::quick().with_ops(8_000);
    let machine = MachineConfig::baseline();
    for (index, workload) in workloads_under_test().into_iter().enumerate() {
        let path = temp_path(&format!("sim_{index}.wpt"));
        let stream = workload
            .stream(options.ops, options.seed)
            .expect("generated workload");
        capture_to_file(stream, &path, &workload.label()).expect("capture");

        let live = simulate_workload(&workload, &machine, &options);
        let trace_workload = WorkloadSpec::from_trace_file(&path).expect("open");
        let replayed = simulate_workload(&trace_workload, &machine, &options);
        assert_eq!(
            live, replayed,
            "{workload}: replayed simulation must match the live generator exactly"
        );
    }
}

#[test]
fn trace_points_dedup_by_content_identity_in_the_engine() {
    let options = RunOptions::quick().with_ops(6_000);
    let machine = MachineConfig::baseline();
    let workload = WorkloadSpec::Scenario(Scenario::strided_stream());

    let original = temp_path("dedup_original.wpt");
    let stream = workload
        .stream(options.ops, options.seed)
        .expect("generated workload");
    capture_to_file(stream, &original, "dedup test").expect("capture");
    // The same capture at a different path is the same workload identity.
    let copy = temp_path("dedup_copy.wpt");
    std::fs::copy(&original, &copy).expect("copy");

    let via_original = WorkloadSpec::from_trace_file(&original).expect("open original");
    let via_copy = WorkloadSpec::from_trace_file(&copy).expect("open copy");
    assert_eq!(via_original, via_copy, "identity is content, not path");

    let mut plan = SimPlan::new();
    plan.add(SimPoint::with_workload(
        via_original.clone(),
        machine,
        options,
    ));
    plan.add(SimPoint::with_workload(via_copy, machine, options));
    plan.add(SimPoint::with_workload(workload.clone(), machine, options));
    assert_eq!(
        plan.unique_points().len(),
        2,
        "two paths to one capture must dedup; the live generator stays distinct"
    );

    let matrix = SimEngine::new(2).run(&plan);
    assert_eq!(matrix.executed_points(), 2);
    // And the trace-backed matrix entry equals the live-generator entry.
    let from_trace = matrix.require_workload(&via_original, &machine, &options);
    let from_live = matrix.require_workload(&workload, &machine, &options);
    assert_eq!(from_trace, from_live);
}

/// The text twin, op kind by op kind: one fixed op list covering every
/// kind and all four branch classes writes exactly the listing
/// `docs/TRACE_FORMAT.md` documents, header and source comment included.
#[test]
fn text_twin_writes_the_documented_lines() {
    let op = |pc, kind, src_deps| MicroOp { pc, kind, src_deps };
    let branch = |taken, target, class| OpKind::Branch {
        taken,
        target,
        class,
    };
    let load = OpKind::Load {
        addr: 0x8000_0000,
        approx_addr: 0x8000_0040,
    };
    let ops = [
        op(0x401000, load, [0, 0]),
        op(0x401004, OpKind::IntAlu, [1, 0]),
        op(0x401008, OpKind::FpAlu, [2, 1]),
        op(0x40100c, OpKind::Store { addr: 0x8000_0008 }, [3, 0]),
        op(
            0x401010,
            branch(false, 0x401000, BranchClass::Conditional),
            [1, 0],
        ),
        op(0x401014, branch(true, 0x402000, BranchClass::Call), [0, 0]),
        op(
            0x402000,
            branch(true, 0x401018, BranchClass::Return),
            [0, 0],
        ),
        op(0x401018, branch(true, 0x401400, BranchClass::Jump), [0, 0]),
    ];
    let expected = "\
wptrace v1
# source: gcc ops=8 seed=42
L 0x401000 0x80000000 0x80000040 0 0
I 0x401004 1 0
F 0x401008 2 1
S 0x40100c 0x80000008 3 0
B 0x401010 0x401000 N c 1 0
B 0x401014 0x402000 T C 0 0
B 0x402000 0x401018 T R 0 0
B 0x401018 0x401400 T J 0 0
";
    let mut writer = TextTraceWriter::new(Vec::new(), "gcc ops=8 seed=42").expect("header");
    for op in &ops {
        writer.write_op(op).expect("record");
    }
    assert_eq!(writer.records(), 8);
    let text = String::from_utf8(writer.finish().expect("finish")).expect("UTF-8");
    assert_eq!(text, expected);
    assert!(
        include_str!("../docs/TRACE_FORMAT.md").contains(expected),
        "docs/TRACE_FORMAT.md must show this listing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (workload, ops, seed) round-trips bit-identically through the
    /// in-memory binary codec.
    #[test]
    fn any_stream_round_trips_bit_identically(
        workload_index in 0usize..5,
        ops in 1usize..3_000,
        seed in 0u64..1_000,
    ) {
        let workload = workloads_under_test()[workload_index].clone();
        let live: Vec<_> = workload.stream(ops, seed).expect("generated").collect();
        prop_assert_eq!(live.len(), ops);

        let mut writer = TraceWriter::new(Cursor::new(Vec::new()), "prop").expect("header");
        for op in &live {
            writer.write_op(op).expect("record");
        }
        let bytes = writer.finish().expect("finish").into_inner();
        let replayed: Vec<_> = TraceReader::new(Cursor::new(bytes))
            .expect("header")
            .collect::<Result<_, _>>()
            .expect("decode");
        prop_assert_eq!(&replayed, &live);
    }

    /// A captured trace produces a SimMatrix entry identical to the live
    /// generator's, whatever the workload, length, or seed.
    #[test]
    fn any_capture_matches_the_live_matrix_entry(
        case in 0u64..1_000_000,
        workload_index in 0usize..5,
        ops in 500usize..2_500,
        seed in 0u64..1_000,
    ) {
        let workload = workloads_under_test()[workload_index].clone();
        let options = RunOptions::default().with_ops(ops).with_seed(seed);
        let machine = MachineConfig::baseline();

        let path = temp_path(&format!("prop_{case}_{workload_index}_{ops}_{seed}.wpt"));
        let stream = workload.stream(ops, seed).expect("generated");
        capture_to_file(stream, &path, "prop").expect("capture");
        let trace_workload = WorkloadSpec::from_trace_file(&path).expect("open");

        let mut plan = SimPlan::new();
        plan.add(SimPoint::with_workload(workload.clone(), machine, options));
        plan.add(SimPoint::with_workload(trace_workload.clone(), machine, options));
        let matrix = SimEngine::serial().run(&plan);
        prop_assert_eq!(matrix.executed_points(), 2);
        prop_assert_eq!(
            matrix.require_workload(&workload, &machine, &options),
            matrix.require_workload(&trace_workload, &machine, &options)
        );
        std::fs::remove_file(&path).ok();
    }
}
