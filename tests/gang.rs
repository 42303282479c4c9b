//! Integration tests for gang-scheduled sweep execution: results
//! bit-identical to per-point [`simulate_workload`] (which streams from the
//! generator and never materializes a stream) and to a single-threaded
//! engine; the materialize-each-stream-exactly-once invariant over the full
//! `run_all` plan; spill-path equivalence under a tiny stream memory cap;
//! the pipelined claim queue's counters and cache stores, whole and
//! cancelled; and a claimed unit that stops when its token fires.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use wpsdm::cache::{DCachePolicy, ICachePolicy, L1Config};
use wpsdm::cpu::CpuConfig;
use wpsdm::cpu::MAX_LANES;
use wpsdm::experiments::engine::{SimEngine, SimPlan};
use wpsdm::experiments::matrix_cache::MatrixCache;
use wpsdm::experiments::storage::{CacheIo, DirEntry, FsIo};
use wpsdm::experiments::{
    run_all_plan, simulate_workload, CancelToken, MachineConfig, RunOptions, SimMatrix, SimPoint,
};
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

/// The real filesystem, counting each record a store renames into place.
#[derive(Debug, Default)]
struct CountingIo {
    stored: Mutex<HashMap<String, usize>>,
}

impl CountingIo {
    /// Stores per record file name so far.
    fn stored(&self) -> HashMap<String, usize> {
        self.stored.lock().expect("store counts").clone()
    }
}

impl CacheIo for CountingIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        FsIo.create_dir_all(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        FsIo.read(path)
    }
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        FsIo.write_file(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        FsIo.rename(from, to)?;
        let name = to.file_name().expect("a record file").to_string_lossy();
        *self
            .stored
            .lock()
            .expect("store counts")
            .entry(name.into_owned())
            .or_default() += 1;
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        FsIo.remove_file(path)
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<DirEntry>> {
        FsIo.list_dir(path)
    }
    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        FsIo.create_exclusive(path, bytes)
    }
}

/// A fresh cache over [`CountingIo`] in its own directory.
fn counting_cache(tag: &str) -> (MatrixCache, Arc<CountingIo>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("wpsdm-gang-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let io = Arc::new(CountingIo::default());
    let cache = MatrixCache::with_io(&dir, Arc::clone(&io) as Arc<dyn CacheIo>);
    (cache, io, dir)
}

/// The record file a store of `point` renames into place.
fn record_name(point: &SimPoint) -> String {
    format!("{:016x}.wpsim", MatrixCache::digest(point))
}

/// What a lane batch shares: the gang, the d-cache policy and the d-cache
/// geometry (size, block, ways).
type BatchKey = (usize, DCachePolicy, usize, usize, usize);

/// The counters a whole (uncancelled) cold pass over `plan` must report:
/// one gang and one build per stream identity, each stream's ops generated
/// once, and each gang's points split by `(d-policy, d-geometry)` into
/// work units of up to `MAX_LANES`; a width-1 unit is no lane batch.
fn expected_counters(plan: &SimPlan) -> Counters {
    let points = plan.unique_points();
    let mut gangs: Vec<(WorkloadSpec, usize, u64)> = Vec::new();
    let mut groups: HashMap<BatchKey, usize> = HashMap::new();
    for point in &points {
        let stream = (
            point.workload.clone(),
            point.options.ops,
            point.options.seed,
        );
        let gang = gangs.iter().position(|g| *g == stream).unwrap_or_else(|| {
            gangs.push(stream);
            gangs.len() - 1
        });
        let l1d = point.machine.l1d;
        let key = (
            gang,
            point.machine.dpolicy,
            l1d.size_bytes,
            l1d.block_bytes,
            l1d.associativity,
        );
        *groups.entry(key).or_default() += 1;
    }
    let mut histogram = [0usize; MAX_LANES + 1];
    let mut scalar = 0;
    for members in groups.into_values() {
        for chunk in 0..members.div_ceil(MAX_LANES) {
            let width = (members - chunk * MAX_LANES).min(MAX_LANES);
            if width >= 2 {
                histogram[width] += 1;
            } else {
                scalar += 1;
            }
        }
    }
    Counters {
        executed: points.len(),
        cache_hits: 0,
        gangs: gangs.len(),
        streams_materialized: gangs.len(),
        ops_generated: gangs.iter().map(|(_, ops, _)| *ops as u64).sum(),
        ops_consumed: points.iter().map(|p| p.options.ops as u64).sum(),
        lane_batches: histogram.iter().sum(),
        lane_scalar_fallback: scalar,
        lane_width_histogram: histogram,
    }
}

/// Every counter a [`SimMatrix`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    executed: usize,
    cache_hits: usize,
    gangs: usize,
    streams_materialized: usize,
    ops_generated: u64,
    ops_consumed: u64,
    lane_batches: usize,
    lane_scalar_fallback: usize,
    lane_width_histogram: [usize; MAX_LANES + 1],
}

impl Counters {
    fn of(matrix: &SimMatrix) -> Self {
        Self {
            executed: matrix.executed_points(),
            cache_hits: matrix.cache_hits(),
            gangs: matrix.gangs(),
            streams_materialized: matrix.streams_materialized(),
            ops_generated: matrix.ops_generated(),
            ops_consumed: matrix.ops_consumed(),
            lane_batches: matrix.lane_batches(),
            lane_scalar_fallback: matrix.lane_scalar_fallback(),
            lane_width_histogram: *matrix.lane_width_histogram(),
        }
    }
}

#[test]
fn a_cancelled_pass_stores_exactly_the_points_its_observer_saw() {
    let options = tiny();
    let mut plan = SimPlan::new();
    for benchmark in [Benchmark::Gcc, Benchmark::Li, Benchmark::Swim] {
        for dpolicy in [DCachePolicy::Parallel, DCachePolicy::Sequential] {
            plan.add(SimPoint::new(
                benchmark,
                MachineConfig::baseline().with_dpolicy(dpolicy),
                options,
            ));
        }
    }
    for threads in 1..=2 {
        let (cache, io, dir) = counting_cache(&format!("cancelled-{threads}"));
        let engine = SimEngine::new(threads).with_matrix_cache(cache);
        // The first observed result cancels the pass.
        let flag = Arc::new(AtomicBool::new(false));
        let token = CancelToken::never().with_flag(Arc::clone(&flag));
        let observed = Mutex::new(HashSet::new());
        let mut matrix = SimMatrix::new();
        let complete = engine.run_streaming(&mut matrix, &plan, &token, &|point, _| {
            observed
                .lock()
                .expect("observed")
                .insert(record_name(point));
            flag.store(true, Ordering::SeqCst);
        });
        let observed = observed.into_inner().expect("observed");
        assert!(!complete, "{threads} threads: the pass was cancelled");
        assert!(!observed.is_empty() && observed.len() < plan.len());
        assert_eq!(matrix.executed_points(), observed.len());
        let stored = io.stored();
        assert!(
            stored.values().all(|&n| n == 1),
            "{threads} threads: {stored:?}"
        );
        assert_eq!(
            stored.into_keys().collect::<HashSet<_>>(),
            observed,
            "{threads} threads: the stores are the observed points"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A unit stops within one op block once the token fires, even after it
/// was claimed. The gang's width-8 batch is claimed first, and while it
/// runs on one thread, a width-1 unit finishes on the other and its
/// observer fires the token: the batch must stop, and none of its points
/// may be observed, stored or counted.
#[test]
fn a_claimed_unit_stops_when_the_token_fires() {
    let options = RunOptions::quick().with_ops(200_000);
    let baseline = MachineConfig::baseline();
    let mut plan = SimPlan::new();
    // Eight machines that differ only outside the lane batch key.
    for issue_width in [4, 8] {
        for base_latency in [1, 2] {
            for ipolicy in [ICachePolicy::Parallel, ICachePolicy::WayPredict] {
                let machine = MachineConfig {
                    cpu: CpuConfig {
                        issue_width,
                        ..CpuConfig::default()
                    },
                    ..baseline
                        .with_l1d(L1Config::paper_dcache().with_base_latency(base_latency))
                        .with_ipolicy(ipolicy)
                };
                plan.add(SimPoint::new(Benchmark::Gcc, machine, options));
            }
        }
    }
    let single = SimPoint::new(
        Benchmark::Gcc,
        baseline.with_dpolicy(DCachePolicy::Sequential),
        options,
    );
    plan.add(single.clone());

    let (cache, io, dir) = counting_cache("claimed-unit");
    let engine = SimEngine::new(2).with_matrix_cache(cache);
    let flag = Arc::new(AtomicBool::new(false));
    let token = CancelToken::never().with_flag(Arc::clone(&flag));
    let observed = Mutex::new(HashSet::new());
    let mut matrix = SimMatrix::new();
    let complete = engine.run_streaming(&mut matrix, &plan, &token, &|point, _| {
        observed
            .lock()
            .expect("observed")
            .insert(record_name(point));
        if *point == single {
            flag.store(true, Ordering::SeqCst);
        }
    });
    let _ = std::fs::remove_dir_all(&dir);

    assert!(!complete, "the batch stopped, so the pass is incomplete");
    let only_single = HashSet::from([record_name(&single)]);
    assert_eq!(observed.into_inner().expect("observed"), only_single);
    assert_eq!(io.stored().into_keys().collect::<HashSet<_>>(), only_single);
    assert_eq!(matrix.len(), 1);
    assert_eq!(matrix.executed_points(), 1);
    assert_eq!(matrix.lane_scalar_fallback(), 1);
    assert_eq!(matrix.lane_batches(), 0);
    assert_eq!(matrix.ops_consumed(), options.ops as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Gang-scheduled and point-at-a-time execution agree bit-for-bit over
    /// arbitrary small plans (random workloads, policies, lengths, seeds,
    /// and 1–4 machines per draw that differ only outside the lane batch
    /// key, so lane batches form), on 1–4 threads, with resident and with
    /// spilled streams. Each pass reports the counters the plan implies,
    /// and stores every executed point exactly once before `run_streaming`
    /// returns.
    #[test]
    fn gang_matches_point_at_a_time_over_arbitrary_plans(
        selections in prop::collection::vec(
            ((0usize..4, 0usize..7), 1usize..5, 1usize..3, 0u64..2),
            1..6,
        ),
    ) {
        let workloads = [
            WorkloadSpec::Benchmark(Benchmark::Gcc),
            WorkloadSpec::Benchmark(Benchmark::Li),
            WorkloadSpec::Scenario(Scenario::strided_stream()),
            WorkloadSpec::Scenario(Scenario::phase_mix()),
        ];
        let mut plan = SimPlan::new();
        for ((w, p), members, ops_k, seed) in selections {
            let machine = MachineConfig::baseline().with_dpolicy(DCachePolicy::all()[p]);
            let slower = machine.with_l1d(machine.l1d.with_base_latency(2));
            let variants = [
                machine,
                machine.with_ipolicy(ICachePolicy::WayPredict),
                slower,
                slower.with_ipolicy(ICachePolicy::WayPredict),
            ];
            for machine in &variants[..members] {
                plan.add(SimPoint::with_workload(
                    workloads[w].clone(),
                    *machine,
                    RunOptions::quick().with_ops(ops_k * 1_000).with_seed(seed),
                ));
            }
        }
        let reference: Vec<_> = plan
            .unique_points()
            .into_iter()
            .map(|point| {
                let result = simulate_workload(&point.workload, &point.machine, &point.options);
                (point, result)
            })
            .collect();
        let expected = expected_counters(&plan);
        for threads in 1..=4 {
            for spilled in [false, true] {
                let (cache, io, dir) = counting_cache(&format!("prop-{threads}-{spilled}"));
                let mut engine = SimEngine::new(threads).with_matrix_cache(cache);
                if spilled {
                    engine = engine.with_stream_memory_cap(1);
                }
                let mut gang = SimMatrix::new();
                let complete = engine.run_streaming(
                    &mut gang,
                    &plan,
                    &CancelToken::never(),
                    &|_, _| {},
                );
                let stored = io.stored();
                prop_assert!(complete);
                for (point, result) in &reference {
                    let a = gang.require_workload(&point.workload, &point.machine, &point.options);
                    prop_assert_eq!(a, result);
                    prop_assert_eq!(stored.get(&record_name(point)), Some(&1));
                }
                prop_assert_eq!(stored.len(), reference.len());
                prop_assert_eq!(Counters::of(&gang), expected);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
