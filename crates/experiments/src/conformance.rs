//! Differential conformance: the optimized stack pinned to the `wp-oracle`
//! reference simulator, point by point, bit for bit.
//!
//! Every simulation point a consumer can ask for — any
//! ([`WorkloadSpec`], [`MachineConfig`], [`RunOptions`]) triple — must
//! produce the *same* [`SimResult`] from two independent implementations:
//!
//! * the **optimized** stack ([`crate::runner::simulate_workload`] /
//!   [`SimEngine`]): a structure-of-arrays tag store, monomorphized policy
//!   kernels, gang-scheduled shared streams, config-parallel lane batches;
//! * the **oracle** ([`wp_oracle::OracleProcessor`]): nested-`Vec` LRU
//!   sets, per-access policy `match`es, per-access energy-model
//!   evaluation, one micro-op at a time.
//!
//! "Same" means [`SimResult::exact_eq`] — every counter equal and every
//! energy/accuracy field identical down to the IEEE-754 bit pattern. The
//! oracle walks every point's workload from its source
//! ([`WorkloadSpec::stream`]), while the engine replays each gang's stream
//! as it stored it (resident, spilled to a `WPTR` file, or walked live), so
//! a mismatch is a modelling divergence or a stream-storage fault. Streams
//! are deterministic in `(workload, ops, seed)`, so it is never
//! workload-generation noise.
//!
//! Three checking surfaces (see `docs/VALIDATION.md`):
//!
//! 1. [`check_plan`] — a whole [`SimPlan`] through a caller-configured
//!    [`SimEngine`] (the `conformance` binary runs the full `run_all` union
//!    plan: all 264 unique sweep points);
//! 2. [`random_points`] — a seeded random matrix over cache geometries,
//!    latencies, policies, core widths, and workloads (benchmarks,
//!    parameterised scenarios, recorded traces);
//! 3. golden snapshots — `tests/golden/*.json` holds every figure/table
//!    artefact rendered at [`GOLDEN_OPTIONS`]; [`check_goldens`] fails on
//!    any byte of drift and [`bless_goldens`] regenerates the files after
//!    an intentional change.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wp_cache::{DCachePolicy, ICachePolicy, L1Config};
use wp_cpu::{CpuConfig, SimResult};
use wp_oracle::OracleProcessor;
use wp_workloads::{Benchmark, Scenario, WorkloadSpec};

use crate::engine::{parallel_map, SimEngine, SimPlan, SimPoint};
use crate::report::{to_json, to_json_with};
use crate::runner::{MachineConfig, RunOptions};
use crate::ARTEFACTS;

/// Simulates one point on the oracle backend, from a live workload stream —
/// the reference twin of [`crate::runner::simulate_workload`].
///
/// # Panics
///
/// Panics if `machine` contains an invalid cache configuration or a
/// trace-file workload cannot be re-opened, like the optimized twin.
pub fn oracle_simulate_workload(
    workload: &WorkloadSpec,
    machine: &MachineConfig,
    options: &RunOptions,
) -> SimResult {
    let mut cpu = oracle_processor(machine);
    let stream = workload
        .stream(options.ops, options.seed)
        .unwrap_or_else(|e| panic!("workload {workload} failed to open: {e}"));
    cpu.run(stream)
}

fn oracle_processor(machine: &MachineConfig) -> OracleProcessor {
    OracleProcessor::with_l1(
        machine.cpu,
        machine.l1d,
        machine.dpolicy,
        machine.l1i,
        machine.ipolicy,
    )
    .expect("experiment cache configurations must be valid")
}

/// The verdict for one checked point.
#[derive(Debug, Clone)]
pub struct PointReport {
    /// The point checked.
    pub point: SimPoint,
    /// The optimized stack's result.
    pub optimized: SimResult,
    /// The oracle's result.
    pub oracle: SimResult,
    /// Names of the fields whose bits differ (empty means conforming).
    pub diff: Vec<&'static str>,
}

impl PointReport {
    fn new(point: SimPoint, optimized: SimResult, oracle: SimResult) -> Self {
        let diff = oracle.diff(&optimized);
        Self {
            point,
            optimized,
            oracle,
            diff,
        }
    }

    /// True if the two backends agreed bit for bit.
    pub fn matches(&self) -> bool {
        self.diff.is_empty()
    }
}

/// Checks every unique point of `plan`: the optimized side runs `engine`
/// exactly as the caller configured it (threads, stream cap, and any
/// attached [`crate::MatrixCache`], which the fault-schedule section
/// batters), while the oracle walks each point's workload from its source
/// ([`oracle_simulate_workload`]) on the engine's thread count. Returns one
/// report per unique point, in plan order.
///
/// The two sides share no stream: the engine's gangs replay materialized
/// (resident or spilled) streams, the oracle regenerates every point's
/// stream, so a fault in stream storage shows as a mismatch.
pub fn check_plan(engine: &SimEngine, plan: &SimPlan) -> Vec<PointReport> {
    let points = plan.unique_points();
    let matrix = engine.run(plan);
    let oracle_results = parallel_map(engine.threads(), &points, |point| {
        oracle_simulate_workload(&point.workload, &point.machine, &point.options)
    });
    points
        .into_iter()
        .zip(oracle_results)
        .map(|(point, oracle)| {
            let optimized = matrix
                .require_workload(&point.workload, &point.machine, &point.options)
                .clone();
            PointReport::new(point, optimized, oracle)
        })
        .collect()
}

/// Checks a single point end to end (both backends generate their own
/// stream) — the entry the property tests drive.
pub fn check_point(point: &SimPoint) -> PointReport {
    let optimized =
        crate::runner::simulate_workload(&point.workload, &point.machine, &point.options);
    let oracle = oracle_simulate_workload(&point.workload, &point.machine, &point.options);
    PointReport::new(point.clone(), optimized, oracle)
}

/// Draws `count` random (configuration, workload) points from `seed`.
///
/// The matrix spans cache geometry (sets × block size × associativity,
/// including direct-mapped), base latency, prediction-table and victim-list
/// sizing, all eight d-cache policies, both i-cache policies, core widths
/// and window sizes, and every workload family; pass `extra_workloads`
/// (e.g. trace-file specs captured beforehand) to mix recorded traces into
/// the rotation. The same `(count, seed)` always draws the same points.
pub fn random_points(count: usize, seed: u64, extra_workloads: &[WorkloadSpec]) -> Vec<SimPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let l1 = |rng: &mut StdRng| {
                let sets = [16usize, 32, 64, 128][rng.gen_range(0usize..4)];
                let block = [16usize, 32, 64][rng.gen_range(0usize..3)];
                let assoc = [1usize, 2, 4, 8][rng.gen_range(0usize..4)];
                L1Config {
                    size_bytes: sets * block * assoc,
                    block_bytes: block,
                    associativity: assoc,
                    base_latency: rng.gen_range(1u64..=2),
                    extra_probe_latency: 1,
                    prediction_table_entries: [256usize, 1024][rng.gen_range(0usize..2)],
                    victim_list_entries: [4usize, 16][rng.gen_range(0usize..2)],
                }
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
            ][rng.gen_range(0usize..8)];
            let ipolicy =
                [ICachePolicy::Parallel, ICachePolicy::WayPredict][rng.gen_range(0usize..2)];
            let cpu = CpuConfig {
                fetch_width: [4usize, 8][rng.gen_range(0usize..2)],
                issue_width: [4usize, 8][rng.gen_range(0usize..2)],
                commit_width: [4usize, 8][rng.gen_range(0usize..2)],
                rob_entries: [32usize, 64][rng.gen_range(0usize..2)],
                lsq_entries: [16usize, 32][rng.gen_range(0usize..2)],
                ..CpuConfig::default()
            };
            let machine = MachineConfig {
                l1d: l1(&mut rng),
                l1i: l1(&mut rng),
                dpolicy,
                ipolicy,
                cpu,
            };
            // Workload rotation: every benchmark, then the six scenario
            // families (three steady, three adversarial), then any
            // caller-supplied specs — offsets derived from the benchmark
            // list so a new benchmark joins the draw automatically.
            let benchmarks = Benchmark::all();
            let scenario_base = benchmarks.len();
            let extra_base = scenario_base + 6;
            let workload = match rng.gen_range(0usize..extra_base + extra_workloads.len()) {
                i if i < scenario_base => WorkloadSpec::Benchmark(benchmarks[i]),
                i if i == scenario_base => WorkloadSpec::Scenario(Scenario::PointerChase {
                    nodes: [64u32, 512, 4096][rng.gen_range(0usize..3)],
                    node_stride: [32u32, 64, 160][rng.gen_range(0usize..3)],
                }),
                i if i == scenario_base + 1 => WorkloadSpec::Scenario(Scenario::StridedStream {
                    stride: [32u32, 64, 96][rng.gen_range(0usize..3)],
                    conflict_permille: [0u16, 50, 500][rng.gen_range(0usize..3)],
                }),
                i if i == scenario_base + 2 => WorkloadSpec::Scenario(Scenario::PhaseMix {
                    phase_ops: [500u32, 2000][rng.gen_range(0usize..2)],
                }),
                i if i == scenario_base + 3 => WorkloadSpec::Scenario(Scenario::WayAliasThrash {
                    table_entries: [256u32, 1024][rng.gen_range(0usize..2)],
                    group: [2u32, 4, 8][rng.gen_range(0usize..3)],
                }),
                i if i == scenario_base + 4 => WorkloadSpec::Scenario(Scenario::PhaseFlip {
                    period_ops: [256u32, 1024, 4096][rng.gen_range(0usize..3)],
                    conflict_ways: [2u32, 6, 8][rng.gen_range(0usize..3)],
                }),
                i if i == scenario_base + 5 => WorkloadSpec::Scenario(Scenario::ConflictChase {
                    blocks: [3u32, 4, 5][rng.gen_range(0usize..3)],
                }),
                i => extra_workloads[i - extra_base].clone(),
            };
            let options = RunOptions {
                ops: rng.gen_range(1_000usize..6_000),
                seed: rng.gen_range(0u64..1 << 32),
            };
            SimPoint::with_workload(workload, machine, options)
        })
        .collect()
}

/// The pinned run options every golden snapshot is rendered at. Small
/// enough that regenerating all eleven artefacts is a CI-speed operation,
/// long enough that every predictor and breakdown class is exercised.
pub const GOLDEN_OPTIONS: RunOptions = RunOptions {
    ops: 4_000,
    seed: 42,
};

/// The golden snapshot names, `tests/golden/<name>.json`: the
/// [`ARTEFACTS`] rows, in the paper's presentation order, then the
/// coverage matrix.
pub fn golden_names() -> impl Iterator<Item = &'static str> {
    ARTEFACTS
        .iter()
        .map(|artefact| artefact.name)
        .chain(["coverage"])
}

/// Renders every golden snapshot at [`GOLDEN_OPTIONS`] as pretty JSON, in
/// [`golden_names`] order: the eleven paper artefacts plus the
/// (policy × config-axis × outcome-class) coverage matrix over the
/// adversarial profile tiers. Always simulates fresh (no persistent
/// cache), on `threads` workers.
pub fn render_golden_artefacts(threads: usize) -> Vec<(&'static str, String)> {
    let options = GOLDEN_OPTIONS;
    let engine = SimEngine::new(threads);
    let matrix = engine.run(&crate::run_all_plan(&options));
    let coverage = to_json(&crate::coverage::run_artefact(&engine, &options));
    ARTEFACTS
        .iter()
        .map(|artefact| {
            let json = to_json_with(|| (artefact.json)(&matrix, &options));
            (artefact.name, json)
        })
        .chain([("coverage", coverage)])
        .collect()
}

/// The repository's committed golden directory (`tests/golden/` at the
/// workspace root).
pub fn default_golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// One golden file that disagrees with the freshly rendered artefact.
#[derive(Debug, Clone)]
pub enum GoldenDrift {
    /// The golden file is missing (run `conformance --bless`).
    Missing(&'static str),
    /// The golden file's bytes differ from the fresh render.
    Differs(&'static str),
}

/// Compares every committed golden snapshot in `dir` against a fresh
/// render; returns the drifting artefacts (empty means no drift).
pub fn check_goldens(dir: &Path, threads: usize) -> Vec<GoldenDrift> {
    render_golden_artefacts(threads)
        .into_iter()
        .filter_map(|(name, fresh)| {
            match std::fs::read_to_string(dir.join(format!("{name}.json"))) {
                Err(_) => Some(GoldenDrift::Missing(name)),
                Ok(stored) if stored != fresh => Some(GoldenDrift::Differs(name)),
                Ok(_) => None,
            }
        })
        .collect()
}

/// Regenerates every golden snapshot in `dir` from a fresh render.
///
/// # Errors
///
/// Returns the first I/O error encountered while writing.
pub fn bless_goldens(dir: &Path, threads: usize) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, fresh) in render_golden_artefacts(threads) {
        std::fs::write(dir.join(format!("{name}.json")), fresh)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_points_are_deterministic_and_valid() {
        let a = random_points(50, 7, &[]);
        let b = random_points(50, 7, &[]);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y, "same (count, seed) must draw the same points");
        }
        // Every drawn machine must be constructible.
        for point in &a {
            assert!(point.machine.l1d.geometry().is_ok());
            assert!(point.machine.l1i.geometry().is_ok());
        }
        // Different seeds draw different matrices.
        assert_ne!(a, random_points(50, 8, &[]));
    }

    #[test]
    fn check_point_conforms_on_a_baseline_point() {
        let report = check_point(&SimPoint::new(
            Benchmark::Li,
            MachineConfig::baseline(),
            RunOptions::quick().with_ops(3_000),
        ));
        assert!(report.matches(), "diff: {:?}", report.diff);
        assert!(report.oracle.exact_eq(&report.optimized));
    }

    #[test]
    fn check_plan_conforms_on_a_two_unit_gang_resident_and_spilled() {
        let options = RunOptions::quick().with_ops(2_500);
        let mut plan = SimPlan::new();
        for dpolicy in [DCachePolicy::Parallel, DCachePolicy::SelDmWayPredict] {
            plan.add(SimPoint::new(
                Benchmark::Gcc,
                MachineConfig::baseline().with_dpolicy(dpolicy),
                options,
            ));
        }
        // Under a 1-byte cap the gang's one stream spills, and both of its
        // width-1 units replay the spill file.
        for engine in [
            SimEngine::new(2),
            SimEngine::new(2).with_stream_memory_cap(1),
        ] {
            let matrix = engine.run(&plan);
            assert_eq!((matrix.gangs(), matrix.streams_materialized()), (1, 1));
            assert_eq!(matrix.lane_scalar_fallback(), 2);
            let reports = check_plan(&engine, &plan);
            assert_eq!(reports.len(), 2);
            for report in reports {
                assert!(report.matches(), "diff: {:?}", report.diff);
            }
        }
    }
}
