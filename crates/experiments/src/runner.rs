//! Shared simulation driver: build a processor for a (workload, machine)
//! pair, run the stream, and return the results.
//!
//! The experiment modules do not call these executors directly — they
//! declare [`crate::engine::SimPlan`]s and render from the deduplicated
//! [`crate::engine::SimMatrix`]; this module supplies the executors the
//! engine schedules, the per-point [`simulate_workload`] reference, and the
//! [`MachineConfig`] key type.

use core::fmt;

use serde::{Deserialize, Serialize};
use wp_cache::{DCachePolicy, ICachePolicy, L1Config};
use wp_cpu::{run_lane_batch, CpuConfig, LaneMember, Processor, SimResult};
use wp_workloads::{SharedStream, WorkloadSpec};

use crate::engine::SimEngine;
use crate::matrix_cache::MatrixCache;

/// Options shared by every experiment runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RunOptions {
    /// Micro-ops simulated per benchmark per configuration.
    pub ops: usize,
    /// Trace seed (fixed so results are reproducible run-to-run).
    pub seed: u64,
}

impl RunOptions {
    /// The default experiment length used by the binaries (large enough for
    /// stable rates on every benchmark).
    pub fn default_ops() -> usize {
        400_000
    }

    /// Sets the trace length.
    pub fn with_ops(mut self, ops: usize) -> Self {
        self.ops = ops;
        self
    }

    /// Sets the trace seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A small configuration for quick runs (benchmarks and CI tests).
    pub fn quick() -> Self {
        Self {
            ops: 60_000,
            seed: 42,
        }
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            ops: Self::default_ops(),
            seed: 42,
        }
    }
}

/// The complete hardware configuration of one simulation. `Hash`/`Eq` make
/// it usable as (part of) the [`crate::engine::SimMatrix`] key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MachineConfig {
    /// L1 d-cache configuration.
    pub l1d: L1Config,
    /// L1 i-cache configuration.
    pub l1i: L1Config,
    /// D-cache access policy.
    pub dpolicy: DCachePolicy,
    /// I-cache access policy.
    pub ipolicy: ICachePolicy,
    /// Core parameters.
    pub cpu: CpuConfig,
}

impl MachineConfig {
    /// The paper's baseline machine: 1-cycle, 4-way, parallel-access L1s on
    /// the Table 1 core.
    pub fn baseline() -> Self {
        Self {
            l1d: L1Config::paper_dcache(),
            l1i: L1Config::paper_icache(),
            dpolicy: DCachePolicy::Parallel,
            ipolicy: ICachePolicy::Parallel,
            cpu: CpuConfig::default(),
        }
    }

    /// Returns a copy with a different d-cache policy.
    pub fn with_dpolicy(mut self, dpolicy: DCachePolicy) -> Self {
        self.dpolicy = dpolicy;
        self
    }

    /// Returns a copy with a different i-cache policy.
    pub fn with_ipolicy(mut self, ipolicy: ICachePolicy) -> Self {
        self.ipolicy = ipolicy;
        self
    }

    /// Returns a copy with a different d-cache configuration.
    pub fn with_l1d(mut self, l1d: L1Config) -> Self {
        self.l1d = l1d;
        self
    }

    /// Returns a copy with a different i-cache configuration.
    pub fn with_l1i(mut self, l1i: L1Config) -> Self {
        self.l1i = l1i;
        self
    }
}

/// Builds and runs one simulation over any workload source: a synthetic
/// benchmark, a stress scenario, or a recorded trace replayed off disk. The
/// stream never materializes in memory; the processor consumes it the same
/// way in all three cases.
///
/// # Panics
///
/// Panics if `machine` contains an invalid cache configuration, or if a
/// trace-file workload cannot be re-opened (its header was validated when
/// the [`WorkloadSpec`] was built, so a failure here means the file changed
/// underneath the experiment).
pub fn simulate_workload(
    workload: &WorkloadSpec,
    machine: &MachineConfig,
    options: &RunOptions,
) -> SimResult {
    simulate_workload_cancellable(workload, machine, options, &CancelToken::never())
        .expect("a token that never fires cannot cancel")
}

/// The processor `machine` describes.
///
/// # Panics
///
/// Panics if `machine` contains an invalid cache configuration.
fn processor(machine: &MachineConfig) -> Processor {
    Processor::with_l1(
        machine.cpu,
        machine.l1d,
        machine.dpolicy,
        machine.l1i,
        machine.ipolicy,
    )
    .expect("experiment cache configurations must be valid")
}

/// A cooperative cancellation token for [`simulate_workload_cancellable`]:
/// a wall-clock deadline, a shared cancel flag, or both. The simulation
/// polls it once per op block ([`wp_workloads::DEFAULT_OP_BLOCK`] ops), so
/// cancellation latency is bounded by one block of simulation, not by the
/// whole run — the property the service's deadline layer is built on.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    deadline: Option<std::time::Instant>,
    flag: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl CancelToken {
    /// A token that never fires: the cancellable executor behaves exactly
    /// like [`simulate_workload`].
    pub fn never() -> Self {
        Self::default()
    }

    /// Returns a copy that fires once the wall clock passes `deadline`.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns a copy that fires once `flag` is set (the service sets it on
    /// explicit client cancellation and shutdown).
    pub fn with_flag(mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.flag = Some(flag);
        self
    }

    /// The wall-clock instant the deadline component fires at, if any —
    /// the service's follower re-lead path compares its own budget against
    /// the leader's.
    pub fn deadline(&self) -> Option<std::time::Instant> {
        self.deadline
    }

    /// True once the deadline has passed or the flag is set.
    pub fn is_cancelled(&self) -> bool {
        if let Some(flag) = &self.flag {
            if flag.load(std::sync::atomic::Ordering::Relaxed) {
                return true;
            }
        }
        match self.deadline {
            Some(deadline) => std::time::Instant::now() >= deadline,
            None => false,
        }
    }
}

/// A simulation stopped by its [`CancelToken`] before completing, with the
/// partial-progress counters the service reports in `DeadlineExceeded`
/// errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// Ops the processor consumed before the token fired.
    pub ops_completed: u64,
    /// Ops the run would have simulated ([`RunOptions::ops`]).
    pub ops_requested: u64,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation cancelled after {} of {} ops",
            self.ops_completed, self.ops_requested
        )
    }
}

impl std::error::Error for Cancelled {}

/// Wraps a block source, polling a [`CancelToken`] once per refill: when
/// the token fires while ops remain, the refilled block is discarded and
/// the source reports exhaustion, recording how far the run got. The token
/// is checked only while the inner source still produces, so a run whose
/// last block was consumed before the deadline completes normally — a
/// finished simulation is never misreported as cancelled. The op sequence
/// up to the cut is untouched, so an uncancelled run is bit-identical to
/// the unwrapped source.
struct CancelSource<'a, S> {
    inner: S,
    token: &'a CancelToken,
    ops_completed: u64,
    cancelled: bool,
}

impl<S: wp_workloads::OpBlockSource> wp_workloads::OpBlockSource for CancelSource<'_, S> {
    fn fill(&mut self, buf: &mut wp_workloads::OpBuffer) -> usize {
        let produced = self.inner.fill(buf);
        if produced == 0 {
            return 0;
        }
        if self.token.is_cancelled() {
            self.cancelled = true;
            buf.clear();
            return 0;
        }
        self.ops_completed += produced as u64;
        produced
    }
}

/// [`simulate_workload`] with cooperative cancellation: the run checks
/// `token` at op-block granularity and stops early once it fires, returning
/// [`Cancelled`] with partial-progress counters instead of a result. A run
/// whose token never fires returns a result bit-identical to an unwrapped
/// [`Processor::run`] of the stream — the cancel seam adds no observable
/// behaviour (asserted by the runner tests), so [`simulate_workload`] and
/// the service's point path share this one executor.
///
/// # Errors
///
/// Returns [`Cancelled`] if the token fired before the workload was fully
/// consumed; the partial [`SimResult`] is discarded (it is not a valid
/// measurement of the point).
///
/// # Panics
///
/// Panics exactly where [`simulate_workload`] does: invalid cache
/// configuration or a workload that fails to open.
pub fn simulate_workload_cancellable(
    workload: &WorkloadSpec,
    machine: &MachineConfig,
    options: &RunOptions,
    token: &CancelToken,
) -> Result<SimResult, Cancelled> {
    let mut cpu = processor(machine);
    let stream = workload
        .stream(options.ops, options.seed)
        .unwrap_or_else(|e| panic!("workload {workload} failed to open: {e}"));
    let mut source = CancelSource {
        inner: wp_workloads::IterBlockSource(stream),
        token,
        ops_completed: 0,
        cancelled: false,
    };
    let result = cpu.run_blocks(&mut source);
    if source.cancelled {
        Err(Cancelled {
            ops_completed: source.ops_completed,
            ops_requested: options.ops as u64,
        })
    } else {
        Ok(result)
    }
}

/// Builds and runs one simulation over an already-materialized shared
/// workload stream — the gang-scheduled executor: the stream was produced
/// once by [`wp_workloads::SharedStream::materialize`] and any number of
/// machine configurations replay it through independent readers, so the
/// op-generation cost is paid once per gang instead of once per point.
/// Results are bit-identical to [`simulate_workload`] over the same
/// `(workload, ops, seed)` triple.
///
/// # Panics
///
/// Panics if `machine` contains an invalid cache configuration or a spilled
/// stream's temp file cannot be re-opened.
pub fn simulate_workload_shared(stream: &SharedStream, machine: &MachineConfig) -> SimResult {
    let mut cpu = processor(machine);
    let mut reader = stream
        .reader()
        .unwrap_or_else(|e| panic!("shared workload stream failed to re-open: {e}"));
    cpu.run_blocks(&mut reader)
}

/// Runs a whole lane batch — up to [`wp_cpu::MAX_LANES`] machine
/// configurations sharing a d-cache policy and tag geometry — over **one**
/// walk of an already-materialized shared stream, returning one result per
/// machine in input order. Each result is bit-identical to
/// [`simulate_workload_shared`] of the same machine (the conformance
/// harness and `tests/lanes.rs` hold the engine to this); the engine's gang
/// scheduler calls this for the batchable subsets of a gang and falls back
/// to the scalar executor for the rest.
///
/// # Panics
///
/// Panics if `machines` is empty, disagrees on d-cache policy or geometry
/// (the engine groups by the batch key before calling), contains an invalid
/// cache configuration, or a spilled stream's temp file cannot be
/// re-opened.
pub fn simulate_workload_shared_lanes(
    stream: &SharedStream,
    machines: &[MachineConfig],
) -> Vec<SimResult> {
    let dpolicy = machines
        .first()
        .expect("lane batches are never empty")
        .dpolicy;
    debug_assert!(machines.iter().all(|m| m.dpolicy == dpolicy));
    let members: Vec<LaneMember> = machines
        .iter()
        .map(|m| LaneMember {
            cpu: m.cpu,
            l1d: m.l1d,
            l1i: m.l1i,
            ipolicy: m.ipolicy,
        })
        .collect();
    let mut reader = stream
        .reader()
        .unwrap_or_else(|e| panic!("shared workload stream failed to re-open: {e}"));
    run_lane_batch(dpolicy, &members, &mut reader)
        .expect("experiment cache configurations must be valid")
}

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CliOptions {
    /// Simulation length and seed.
    pub run: RunOptions,
    /// Print machine-readable JSON instead of text tables.
    pub json: bool,
    /// Worker threads for the engine (`None` = all available cores).
    pub threads: Option<usize>,
    /// Disable the persistent on-disk matrix cache (`--no-matrix-cache`):
    /// every point simulates, and nothing is written back.
    pub no_matrix_cache: bool,
    /// Root the matrix cache at this directory instead of
    /// [`MatrixCache::default_dir`] (`--matrix-cache-dir PATH`).
    pub matrix_cache_dir: Option<std::path::PathBuf>,
    /// Cap the matrix cache directory at this many bytes
    /// (`--matrix-cache-cap BYTES`): stores beyond the cap evict
    /// oldest-mtime records first (see `docs/RELIABILITY.md`). Defaults to
    /// the `WPSDM_MATRIX_CACHE_CAP` environment override, else unbounded.
    /// Zero is rejected at parse time — a cache that can hold nothing is a
    /// misconfiguration, not a policy.
    pub matrix_cache_cap: Option<u64>,
    /// Path of a workload-profile file (`--profile FILE`): a versioned
    /// JSON description of an adversarial scenario mix (see
    /// `docs/WORKLOADS.md`). Parsed here, loaded and validated by
    /// [`CliOptions::load_profile`]; the binaries that honour it are
    /// `run_all`, `conformance`, `trace_capture`, and `coverage_report` —
    /// the single-artefact binaries reject it.
    pub profile: Option<std::path::PathBuf>,
    /// Cap the resident bytes of one materialized gang stream
    /// (`--stream-cap BYTES`); longer streams spill to the `WPTR` codec on
    /// disk. Results are bit-identical at any cap — this is a memory knob
    /// and the tests' lever for exercising the spill path — so it lives
    /// here rather than in [`RunOptions`], which is the simulation *dedup
    /// key*: a field there would split identical results into distinct
    /// matrix/cache entries. Defaults to the `WPSDM_STREAM_MEMORY_CAP`
    /// environment override, else 64 MiB.
    pub stream_cap: Option<usize>,
    /// Write the cache-health counters ([`crate::CacheHealth`]) as JSON to
    /// this path after the run (`--health-json PATH`) — the machine-readable
    /// twin of the stderr health line, and the same struct the `wp-serve`
    /// daemon returns for a `health` request. Honoured by `run_all`;
    /// rejected by `conformance` (which compares executors, not caches).
    pub health_json: Option<std::path::PathBuf>,
}

impl CliOptions {
    /// Parses `std::env::args()`, printing the error and usage to stderr and
    /// exiting with status 2 on a bad command line.
    pub fn from_env_or_exit() -> Self {
        match options_from_args(std::env::args().skip(1)) {
            Ok(options) => options,
            Err(error) => {
                eprintln!("error: {error}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Loads and validates the `--profile` file, if one was given.
    ///
    /// # Errors
    ///
    /// Returns the [`wp_workloads::ProfileError`] naming the file on any
    /// read, parse, version, or field problem.
    pub fn load_profile(
        &self,
    ) -> Result<Option<wp_workloads::ProfileSpec>, wp_workloads::ProfileError> {
        self.profile
            .as_deref()
            .map(wp_workloads::ProfileSpec::load)
            .transpose()
    }

    /// [`CliOptions::load_profile`], printing the error plus usage to
    /// stderr and exiting with status 2 on a bad profile file — the same
    /// contract as a bad command line ([`CliOptions::from_env_or_exit`]).
    pub fn profile_or_exit(&self) -> Option<wp_workloads::ProfileSpec> {
        match self.load_profile() {
            Ok(profile) => profile,
            Err(error) => {
                eprintln!("error: {error}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The engine the options ask for: the requested thread count, with the
    /// persistent matrix cache attached unless `--no-matrix-cache` was
    /// given (results served from the cache are bit-identical to
    /// simulating, so the flag exists for determinism auditing and CI,
    /// not correctness).
    pub fn engine(&self) -> SimEngine {
        let mut engine = match self.threads {
            Some(threads) => SimEngine::new(threads),
            None => SimEngine::default(),
        };
        if let Some(cap) = self.stream_cap {
            engine = engine.with_stream_memory_cap(cap);
        }
        if self.no_matrix_cache {
            return engine;
        }
        let mut cache = match &self.matrix_cache_dir {
            Some(dir) => MatrixCache::new(dir),
            None => MatrixCache::at_default_dir(),
        };
        if self.matrix_cache_cap.is_some() {
            cache = cache.with_cap(self.matrix_cache_cap);
        }
        if let Some(io) = crate::storage::FaultyIo::from_env() {
            // The fault-injection knob (`WPSDM_MATRIX_CACHE_FAULT_SEED`):
            // CI's reliability job runs the real binaries over a faulty
            // cache and asserts byte-identical output.
            cache = cache.with_io_backend(io);
        }
        engine.with_matrix_cache(cache)
    }
}

/// Usage text shared by the binaries.
pub const USAGE: &str = "usage: <experiment> [--quick] [--ops N] [--seed N] [--threads N] \
                         [--json] [--profile FILE] [--stream-cap BYTES] [--no-matrix-cache] \
                         [--matrix-cache-dir PATH] [--matrix-cache-cap BYTES] \
                         [--health-json PATH]";

/// Shared body of the single-artefact binaries: parse the command line,
/// execute the plan of the [`crate::ARTEFACTS`] row called `name` on the
/// engine, and print the artefact as a text table or (`--json`)
/// machine-readable JSON.
///
/// # Panics
///
/// Panics if no row is called `name`.
pub fn artefact_main(name: &str) {
    let artefact = crate::ARTEFACTS
        .iter()
        .find(|artefact| artefact.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a paper artefact"));
    let cli = CliOptions::from_env_or_exit();
    if cli.profile.is_some() {
        // Profiles describe whole workload mixes; the single-artefact
        // binaries render fixed paper figures and must not silently ignore
        // a request to run something else.
        eprintln!("error: flag `--profile` is not supported by single-artefact binaries");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let matrix = cli.engine().run(&(artefact.plan)(&cli.run));
    if matrix.cache_hits() > 0 {
        // Make cached sweeps impossible to mistake for fresh ones: the
        // cache is keyed by configuration, not by code, so after a
        // simulator change the stored results must be dropped (bump
        // `matrix_cache::CACHE_FORMAT_VERSION`) or bypassed.
        eprintln!(
            "note: {} of {} points served from the on-disk matrix cache; \
             pass --no-matrix-cache to re-simulate everything",
            matrix.cache_hits(),
            matrix.cache_hits() + matrix.executed_points()
        );
    }
    if cli.json {
        let json = crate::report::to_json_with(|| (artefact.json)(&matrix, &cli.run));
        println!("{json}");
    } else {
        println!("{}", (artefact.table)(&matrix, &cli.run));
    }
}

/// A command-line parsing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag the experiment binaries do not understand.
    UnknownFlag(String),
    /// A flag that takes a value appeared without one.
    MissingValue(&'static str),
    /// A flag value that did not parse.
    InvalidValue(&'static str, String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` requires a value"),
            CliError::InvalidValue(flag, value) => {
                write!(f, "invalid value `{value}` for flag `{flag}`")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Parses the command-line arguments shared by every experiment binary:
/// `--quick` for the short configuration, `--ops N` and `--seed N` for the
/// trace, `--threads N` for the engine's worker count, `--json` for
/// machine-readable output, and `--no-matrix-cache` /
/// `--matrix-cache-dir PATH` to control the persistent result cache (CI
/// and trace_replay use `--no-matrix-cache` to force every point to
/// simulate).
/// Unknown flags are reported as errors rather than silently
/// ignored, and explicit `--ops`/`--seed` always override `--quick`
/// regardless of flag order.
pub fn options_from_args(args: impl Iterator<Item = String>) -> Result<CliOptions, CliError> {
    let mut options = CliOptions::default();
    let mut quick = false;
    let mut ops: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => options.json = true,
            "--quick" => quick = true,
            "--ops" => ops = Some(parse_value("--ops", args.next())?),
            "--seed" => seed = Some(parse_value("--seed", args.next())?),
            "--threads" => {
                let threads: usize = parse_value("--threads", args.next())?;
                if threads == 0 {
                    return Err(CliError::InvalidValue("--threads", "0".to_string()));
                }
                options.threads = Some(threads);
            }
            "--stream-cap" => {
                options.stream_cap = Some(parse_value("--stream-cap", args.next())?);
            }
            "--profile" => {
                let file = args.next().ok_or(CliError::MissingValue("--profile"))?;
                options.profile = Some(file.into());
            }
            "--no-matrix-cache" => options.no_matrix_cache = true,
            "--matrix-cache-dir" => {
                let dir = args
                    .next()
                    .ok_or(CliError::MissingValue("--matrix-cache-dir"))?;
                options.matrix_cache_dir = Some(dir.into());
            }
            "--health-json" => {
                let path = args.next().ok_or(CliError::MissingValue("--health-json"))?;
                options.health_json = Some(path.into());
            }
            "--matrix-cache-cap" => {
                let cap: u64 = parse_value("--matrix-cache-cap", args.next())?;
                if cap == 0 {
                    return Err(CliError::InvalidValue(
                        "--matrix-cache-cap",
                        "0".to_string(),
                    ));
                }
                options.matrix_cache_cap = Some(cap);
            }
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }
    if quick {
        options.run = RunOptions::quick();
    }
    if let Some(ops) = ops {
        options.run.ops = ops;
    }
    if let Some(seed) = seed {
        options.run.seed = seed;
    }
    Ok(options)
}

/// Parses `flag`'s value, reporting a missing one as
/// [`CliError::MissingValue`] and an unparsable one as
/// [`CliError::InvalidValue`]: the error vocabulary every binary prints.
///
/// # Errors
///
/// Returns the [`CliError`] for a missing or unparsable value.
pub fn parse_value<T: std::str::FromStr>(
    flag: &'static str,
    value: Option<String>,
) -> Result<T, CliError> {
    let value = value.ok_or(CliError::MissingValue(flag))?;
    value
        .parse()
        .map_err(|_| CliError::InvalidValue(flag, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wp_workloads::Benchmark;

    fn parse(args: &[&str]) -> Result<CliOptions, CliError> {
        options_from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn options_builders_compose() {
        let o = RunOptions::default().with_ops(123).with_seed(7);
        assert_eq!(o.ops, 123);
        assert_eq!(o.seed, 7);
        assert!(RunOptions::quick().ops < RunOptions::default().ops);
    }

    #[test]
    fn machine_builders_compose() {
        let m = MachineConfig::baseline()
            .with_dpolicy(DCachePolicy::Sequential)
            .with_ipolicy(ICachePolicy::WayPredict)
            .with_l1d(L1Config::paper_dcache().with_associativity(8));
        assert_eq!(m.dpolicy, DCachePolicy::Sequential);
        assert_eq!(m.ipolicy, ICachePolicy::WayPredict);
        assert_eq!(m.l1d.associativity, 8);
    }

    #[test]
    fn simulate_produces_consistent_counts() {
        let result = simulate_workload(
            &WorkloadSpec::Benchmark(Benchmark::Troff),
            &MachineConfig::baseline(),
            &RunOptions::quick().with_ops(20_000),
        );
        assert_eq!(result.activity.instructions, 20_000);
        assert!(result.cycles > 0);
    }

    #[test]
    fn identical_options_give_identical_results() {
        let workload = WorkloadSpec::Benchmark(Benchmark::Li);
        let machine = MachineConfig::baseline().with_dpolicy(DCachePolicy::SelDmWayPredict);
        let options = RunOptions::quick().with_ops(15_000);
        let a = simulate_workload(&workload, &machine, &options);
        let b = simulate_workload(&workload, &machine, &options);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.dcache, b.dcache);
    }

    #[test]
    fn known_flags_parse() {
        let options = parse(&[
            "--quick",
            "--ops",
            "1234",
            "--seed",
            "9",
            "--threads",
            "3",
            "--json",
        ])
        .expect("valid command line");
        assert_eq!(options.run.ops, 1234);
        assert_eq!(options.run.seed, 9);
        assert_eq!(options.threads, Some(3));
        assert!(options.json);
        assert_eq!(options.engine().threads(), 3);
    }

    #[test]
    fn explicit_ops_and_seed_override_quick_in_any_order() {
        let before = parse(&["--ops", "200000", "--quick"]).expect("valid");
        let after = parse(&["--quick", "--ops", "200000"]).expect("valid");
        assert_eq!(before.run.ops, 200_000);
        assert_eq!(before.run, after.run);
        // --quick still applies to whatever was not explicitly set.
        assert_eq!(before.run.seed, RunOptions::quick().seed);
    }

    #[test]
    fn matrix_cache_flags_parse() {
        // Default: the persistent cache is attached at the default root.
        let default = parse(&[]).expect("valid");
        assert!(!default.no_matrix_cache);
        assert!(default.engine().matrix_cache().is_some());
        // --no-matrix-cache detaches it.
        let off = parse(&["--no-matrix-cache"]).expect("valid");
        assert!(off.no_matrix_cache);
        assert!(off.engine().matrix_cache().is_none());
        // --matrix-cache-dir moves it.
        let moved = parse(&["--matrix-cache-dir", "/tmp/wpsdm-cache-test"]).expect("valid");
        assert_eq!(
            moved
                .engine()
                .matrix_cache()
                .map(|cache| cache.dir().to_path_buf()),
            Some(std::path::PathBuf::from("/tmp/wpsdm-cache-test"))
        );
        assert_eq!(
            parse(&["--matrix-cache-dir"]),
            Err(CliError::MissingValue("--matrix-cache-dir"))
        );
    }

    #[test]
    fn matrix_cache_cap_flag_parses_and_reaches_the_cache() {
        let default = parse(&[]).expect("valid");
        assert_eq!(default.matrix_cache_cap, None);
        let capped = parse(&["--matrix-cache-cap", "4096"]).expect("valid");
        assert_eq!(capped.matrix_cache_cap, Some(4096));
        assert_eq!(
            capped.engine().matrix_cache().and_then(|cache| cache.cap()),
            Some(4096)
        );
        assert_eq!(
            parse(&["--matrix-cache-cap"]),
            Err(CliError::MissingValue("--matrix-cache-cap"))
        );
        assert_eq!(
            parse(&["--matrix-cache-cap", "lots"]),
            Err(CliError::InvalidValue(
                "--matrix-cache-cap",
                "lots".to_string()
            ))
        );
        assert_eq!(
            parse(&["--matrix-cache-cap", "0"]),
            Err(CliError::InvalidValue(
                "--matrix-cache-cap",
                "0".to_string()
            ))
        );
    }

    #[test]
    fn stream_cap_flag_reaches_the_engine() {
        let default = parse(&[]).expect("valid");
        assert_eq!(default.stream_cap, None);
        let capped = parse(&["--stream-cap", "1234"]).expect("valid");
        assert_eq!(capped.stream_cap, Some(1234));
        assert_eq!(capped.engine().stream_memory_cap(), 1234);
        assert_eq!(
            parse(&["--stream-cap"]),
            Err(CliError::MissingValue("--stream-cap"))
        );
        assert_eq!(
            parse(&["--stream-cap", "lots"]),
            Err(CliError::InvalidValue("--stream-cap", "lots".to_string()))
        );
    }

    #[test]
    fn profile_flag_parses_and_loads_lazily() {
        let none = parse(&[]).expect("valid");
        assert_eq!(none.profile, None);
        assert!(none.load_profile().expect("no profile is fine").is_none());
        let with = parse(&["--profile", "/tmp/p.json"]).expect("valid");
        assert_eq!(with.profile, Some(std::path::PathBuf::from("/tmp/p.json")));
        assert_eq!(
            parse(&["--profile"]),
            Err(CliError::MissingValue("--profile"))
        );
        // A missing file surfaces the profile error verbatim.
        let missing = parse(&["--profile", "/nonexistent/p.json"]).expect("parses");
        let err = missing.load_profile().unwrap_err();
        assert_eq!(
            err.to_string(),
            "cannot read profile `/nonexistent/p.json`: file not found"
        );
    }

    #[test]
    fn unknown_flags_are_reported() {
        assert_eq!(
            parse(&["--frobnicate"]),
            Err(CliError::UnknownFlag("--frobnicate".to_string()))
        );
    }

    #[test]
    fn missing_and_invalid_values_are_reported() {
        assert_eq!(parse(&["--ops"]), Err(CliError::MissingValue("--ops")));
        assert_eq!(
            parse(&["--seed", "abc"]),
            Err(CliError::InvalidValue("--seed", "abc".to_string()))
        );
        assert_eq!(
            parse(&["--threads", "0"]),
            Err(CliError::InvalidValue("--threads", "0".to_string()))
        );
        let error = parse(&["--threads", "x"]).unwrap_err();
        assert!(error.to_string().contains("--threads"));
    }

    #[test]
    fn uncancelled_runs_are_bit_identical_to_the_plain_executor() {
        let workload = WorkloadSpec::Benchmark(Benchmark::Gcc);
        let machine = MachineConfig::baseline().with_dpolicy(DCachePolicy::SelDmWayPredict);
        let options = RunOptions::quick().with_ops(12_000);
        let plain = processor(&machine).run(
            workload
                .stream(options.ops, options.seed)
                .expect("generated workloads always open"),
        );
        let cancellable =
            simulate_workload_cancellable(&workload, &machine, &options, &CancelToken::never())
                .expect("a token that never fires must not cancel");
        assert!(
            plain.exact_eq(&cancellable),
            "the cancel seam must add no observable behaviour"
        );
    }

    #[test]
    fn fired_tokens_cancel_with_partial_progress() {
        let workload = WorkloadSpec::Benchmark(Benchmark::Li);
        let machine = MachineConfig::baseline();
        let options = RunOptions::quick().with_ops(10_000);
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let token = CancelToken::never().with_flag(flag);
        let error = simulate_workload_cancellable(&workload, &machine, &options, &token)
            .expect_err("a pre-fired token must cancel");
        assert_eq!(error.ops_requested, 10_000);
        assert!(
            error.ops_completed < error.ops_requested,
            "a cancelled run never consumed the whole workload"
        );
        assert_eq!(
            error.to_string(),
            format!(
                "simulation cancelled after {} of 10000 ops",
                error.ops_completed
            )
        );
    }

    #[test]
    fn expired_deadlines_cancel() {
        let token =
            CancelToken::never().with_deadline(std::time::Instant::now() - Duration::from_secs(1));
        assert!(token.is_cancelled());
        assert!(!CancelToken::never().is_cancelled());
        let error = simulate_workload_cancellable(
            &WorkloadSpec::Benchmark(Benchmark::Li),
            &MachineConfig::baseline(),
            &RunOptions::quick().with_ops(8_000),
            &token,
        )
        .expect_err("an expired deadline must cancel");
        assert!(error.ops_completed < 8_000);
    }

    #[test]
    fn health_json_flag_parses() {
        let default = parse(&[]).expect("valid");
        assert_eq!(default.health_json, None);
        let with = parse(&["--health-json", "/tmp/health.json"]).expect("valid");
        assert_eq!(
            with.health_json,
            Some(std::path::PathBuf::from("/tmp/health.json"))
        );
        assert_eq!(
            parse(&["--health-json"]),
            Err(CliError::MissingValue("--health-json"))
        );
    }

    #[test]
    fn machine_config_hashes_by_value() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        assert!(set.insert(MachineConfig::baseline()));
        assert!(!set.insert(MachineConfig::baseline()));
        assert!(set.insert(MachineConfig::baseline().with_dpolicy(DCachePolicy::Sequential)));
    }
}
