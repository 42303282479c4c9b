//! Shared simulation driver: build a processor for a (workload, machine)
//! pair, run the stream, and return the results.
//!
//! The experiment modules do not call these executors directly — they
//! declare [`crate::engine::SimPlan`]s and render from the deduplicated
//! [`crate::engine::SimMatrix`]. This module supplies the one executor the
//! engine schedules ([`simulate_workload_shared_lanes`]), the per-point
//! [`simulate_workload`] reference (that executor over a live stream), the
//! [`MachineConfig`] key type, the [`CancelToken`], and the command line
//! the binaries share: [`CliOptions`], which parses each shared flag in one
//! place ([`CliOptions::parse_flag`]) and builds the engine of the batch
//! binaries and the `wp-serve` daemon ([`CliOptions::engine`]), and
//! [`exit_usage`], how every binary refuses a bad command line.

use core::fmt;

use serde::Serialize;
use wp_cache::{DCachePolicy, ICachePolicy, L1Config};
use wp_cpu::{run_lane_batch, CpuConfig, LaneMember, Processor, SimResult};
use wp_workloads::{MicroOp, OpBlockSource, OpBuffer, SharedStream, StreamKey, WorkloadSpec};

use crate::engine::SimEngine;
use crate::matrix_cache::MatrixCache;

/// Options shared by every experiment runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
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
/// stream never materializes: the processor walks it live
/// ([`SharedStream::live`]), the walk the engine gives a stream that one
/// work unit reads.
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
    let stream = SharedStream::live(&StreamKey::new(workload.clone(), options.ops, options.seed));
    simulate_workload_shared_lanes(&stream, std::slice::from_ref(machine))
        .pop()
        .expect("one machine, one result")
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

/// A cooperative cancellation token for
/// [`crate::SimEngine::run_streaming`]: a wall-clock deadline, a shared
/// cancel flag, or both. A simulation polls it once per op block
/// ([`wp_workloads::DEFAULT_OP_BLOCK`] ops), so cancellation latency is
/// bounded by one block of simulation, not by the whole run — the property
/// the service's deadline layer is built on.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    deadline: Option<std::time::Instant>,
    flag: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl CancelToken {
    /// A token that never fires: a run under it always completes.
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

/// A walk its [`CancelToken`] stopped before the end of its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cancelled {
    /// Ops the walk consumed before the token fired.
    pub(crate) ops_completed: u64,
}

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

impl<S: OpBlockSource> OpBlockSource for CancelSource<'_, S> {
    fn fill(&mut self, buf: &mut OpBuffer) -> usize {
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

    fn next_block<'b>(&'b mut self, buf: &'b mut OpBuffer) -> &'b [MicroOp] {
        let ops = self.inner.next_block(buf);
        if ops.is_empty() {
            return ops;
        }
        if self.token.is_cancelled() {
            self.cancelled = true;
            return &[];
        }
        self.ops_completed += ops.len() as u64;
        ops
    }
}

/// Runs 1..=[`wp_cpu::MAX_LANES`] machine configurations sharing a d-cache
/// policy and geometry over **one** walk of a shared stream, returning one
/// result per machine in input order — the engine's executor. A stream
/// that several walks read was produced once by
/// [`wp_workloads::SharedStream::materialize`], and each walk replays it
/// through an independent reader, so the op-generation cost is paid once
/// per gang instead of once per point; a stream that one walk reads is
/// [`wp_workloads::SharedStream::live`]. A single machine walks one lane
/// over a bare d-cache controller ([`Processor::run_blocks`]); a batch walks
/// its lanes through [`run_lane_batch`]. Each result is bit-identical to
/// [`simulate_workload`] of the same machine over the same
/// `(workload, ops, seed)` triple (the conformance harness and
/// `tests/lanes.rs` hold the engine to this).
///
/// # Panics
///
/// Panics if `machines` is empty, wider than [`wp_cpu::MAX_LANES`], or
/// disagrees on d-cache policy or geometry (the engine groups by the batch
/// key before calling), contains an invalid cache configuration, or the
/// stream cannot be re-opened (a spill file or trace file that vanished).
pub fn simulate_workload_shared_lanes(
    stream: &SharedStream,
    machines: &[MachineConfig],
) -> Vec<SimResult> {
    simulate_workload_shared_lanes_cancellable(stream, machines, &CancelToken::never())
        .expect("a token that never fires cancels nothing")
}

/// [`simulate_workload_shared_lanes`] with cooperative cancellation: the
/// walk checks `token` once per op block and stops once it fires,
/// discarding every lane's partial result (it is not a valid measurement
/// of the point). A walk whose token never fires is bit-identical to an
/// unwrapped one — the cancel seam adds no observable behaviour.
///
/// # Errors
///
/// Returns [`Cancelled`], with the ops walked before the token fired, if
/// it fired before the stream was fully consumed.
///
/// # Panics
///
/// Panics like [`simulate_workload_shared_lanes`].
pub(crate) fn simulate_workload_shared_lanes_cancellable(
    stream: &SharedStream,
    machines: &[MachineConfig],
    token: &CancelToken,
) -> Result<Vec<SimResult>, Cancelled> {
    let dpolicy = machines
        .first()
        .expect("lane batches are never empty")
        .dpolicy;
    assert!(
        machines.iter().all(|m| m.dpolicy == dpolicy),
        "a lane batch requires one d-cache policy"
    );
    // A single machine's processor is built before the stream opens: with
    // a live stream the other order left a cold 2k-op daemon point about
    // 70 µs slower on the allocator's page traffic.
    let cpu = match machines {
        [machine] => Some(processor(machine)),
        _ => None,
    };
    let reader = stream
        .reader()
        .unwrap_or_else(|e| panic!("workload stream failed to open: {e}"));
    let mut source = CancelSource {
        inner: reader,
        token,
        ops_completed: 0,
        cancelled: false,
    };
    let results = match cpu {
        Some(mut cpu) => vec![cpu.run_blocks(&mut source)],
        None => {
            let members: Vec<LaneMember> = machines
                .iter()
                .map(|m| LaneMember {
                    cpu: m.cpu,
                    l1d: m.l1d,
                    l1i: m.l1i,
                    ipolicy: m.ipolicy,
                })
                .collect();
            run_lane_batch(dpolicy, &members, &mut source)
                .expect("experiment cache configurations must be valid")
        }
    };
    if source.cancelled {
        return Err(Cancelled {
            ops_completed: source.ops_completed,
        });
    }
    Ok(results)
}

/// The flags the experiment binaries and the `wp-serve` daemon share, as
/// the command line gave them. Each binary hands [`CliOptions::parse_flag`]
/// only the shared flags it honours.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CliOptions {
    /// `--quick`: the short configuration ([`RunOptions::quick`]) for
    /// whatever `--ops` and `--seed` leave unset.
    pub quick: bool,
    /// Micro-ops per simulation (`--ops N`), if given.
    pub ops: Option<usize>,
    /// Trace seed (`--seed N`), if given.
    pub seed: Option<u64>,
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
    /// Parses `std::env::args()` with [`options_from_args`], exiting through
    /// [`exit_usage`] on a bad command line.
    pub fn from_env_or_exit() -> Self {
        options_from_args(std::env::args().skip(1)).unwrap_or_else(|error| exit_usage(USAGE, error))
    }

    /// Applies the shared flag `flag`, taking its value (for a flag that
    /// has one) from `args`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::UnknownFlag`] if `flag` is not a shared flag,
    /// and the [`CliError`] for a missing, unparsable or (for `--ops`,
    /// `--threads` and `--matrix-cache-cap`) zero value.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<(), CliError> {
        match flag {
            "--quick" => self.quick = true,
            "--ops" => self.ops = Some(parse_positive("--ops", args.next())?),
            "--seed" => self.seed = Some(parse_value("--seed", args.next())?),
            "--json" => self.json = true,
            "--threads" => self.threads = Some(parse_positive("--threads", args.next())?),
            "--stream-cap" => self.stream_cap = Some(parse_value("--stream-cap", args.next())?),
            "--profile" => self.profile = Some(parse_value("--profile", args.next())?),
            "--no-matrix-cache" => self.no_matrix_cache = true,
            "--matrix-cache-dir" => {
                self.matrix_cache_dir = Some(parse_value("--matrix-cache-dir", args.next())?);
            }
            "--matrix-cache-cap" => {
                self.matrix_cache_cap = Some(parse_positive("--matrix-cache-cap", args.next())?);
            }
            "--health-json" => self.health_json = Some(parse_value("--health-json", args.next())?),
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
        Ok(())
    }

    /// The run the flags ask for: [`RunOptions::quick`] with `--quick`,
    /// else the defaults, with an explicit `--ops` or `--seed` applied on
    /// top whatever the flag order.
    pub fn run(&self) -> RunOptions {
        let base = if self.quick {
            RunOptions::quick()
        } else {
            RunOptions::default()
        };
        RunOptions {
            ops: self.ops.unwrap_or(base.ops),
            seed: self.seed.unwrap_or(base.seed),
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

    /// [`CliOptions::load_profile`], exiting through [`exit_usage`] on a
    /// bad profile file — the same contract as a bad command line.
    pub fn profile_or_exit(&self) -> Option<wp_workloads::ProfileSpec> {
        self.load_profile()
            .unwrap_or_else(|error| exit_usage(USAGE, error))
    }

    /// The engine the options ask for, built the same way for the batch
    /// binaries and the `wp-serve` daemon, so both share one on-disk cache
    /// and one fault seed: `--threads` workers (every core if unset), the
    /// `--stream-cap`, and, unless `--no-matrix-cache`, the persistent
    /// matrix cache rooted at `--matrix-cache-dir` (else
    /// [`MatrixCache::default_dir`]) and capped at `--matrix-cache-cap`
    /// (else the `WPSDM_MATRIX_CACHE_CAP` override, else unbounded).
    /// Results served from the cache are bit-identical to simulating, so
    /// the cache flags exist for determinism auditing and CI, not
    /// correctness.
    pub fn engine(&self) -> SimEngine {
        let mut engine = SimEngine::new(
            self.threads
                .unwrap_or_else(crate::engine::available_threads),
        );
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

/// Prints `error: {error}` and then `usage` to stderr and exits with
/// status 2: how every binary refuses a bad command line.
pub fn exit_usage(usage: &str, error: impl fmt::Display) -> ! {
    eprintln!("error: {error}");
    eprintln!("{usage}");
    std::process::exit(2);
}

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
        exit_usage(
            USAGE,
            "flag `--profile` is not supported by single-artefact binaries",
        );
    }
    let run = cli.run();
    let matrix = cli.engine().run(&(artefact.plan)(&run));
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
        let json = crate::report::to_json_with(|| (artefact.json)(&matrix, &run));
        println!("{json}");
    } else {
        println!("{}", (artefact.table)(&matrix, &run));
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

/// The message a binary whose parser reports plain strings prints.
impl From<CliError> for String {
    fn from(error: CliError) -> String {
        error.to_string()
    }
}

/// Parses a command line of shared flags only (see
/// [`CliOptions::parse_flag`]): unknown flags are errors rather than
/// silently ignored.
///
/// # Errors
///
/// Returns the first flag's [`CliError`].
pub fn options_from_args(mut args: impl Iterator<Item = String>) -> Result<CliOptions, CliError> {
    let mut options = CliOptions::default();
    while let Some(flag) = args.next() {
        options.parse_flag(&flag, &mut args)?;
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

/// [`parse_value`] for a count that must be positive: a zero value is a
/// [`CliError::InvalidValue`] too.
///
/// # Errors
///
/// Returns the [`CliError`] for a missing, unparsable, or zero value.
pub fn parse_positive<T: std::str::FromStr + PartialEq + From<u8>>(
    flag: &'static str,
    value: Option<String>,
) -> Result<T, CliError> {
    let value = value.ok_or(CliError::MissingValue(flag))?;
    match value.parse::<T>() {
        Ok(parsed) if parsed != T::from(0) => Ok(parsed),
        _ => Err(CliError::InvalidValue(flag, value)),
    }
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
        assert_eq!(options.run().ops, 1234);
        assert_eq!(options.run().seed, 9);
        assert_eq!(options.threads, Some(3));
        assert!(options.json);
        assert_eq!(options.engine().threads(), 3);
    }

    #[test]
    fn explicit_ops_and_seed_override_quick_in_any_order() {
        let before = parse(&["--ops", "200000", "--quick"]).expect("valid");
        let after = parse(&["--quick", "--ops", "200000"]).expect("valid");
        assert_eq!(before.run().ops, 200_000);
        assert_eq!(before.run(), after.run());
        // --quick still applies to whatever was not explicitly set.
        assert_eq!(before.run().seed, RunOptions::quick().seed);
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
        let walked = simulate_workload(&workload, &machine, &options);
        assert!(
            plain.exact_eq(&walked),
            "the live walk and the cancel seam must add no observable behaviour"
        );
    }

    #[test]
    fn fired_tokens_cancel_with_partial_progress() {
        assert!(!CancelToken::never().is_cancelled());
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let expired =
            CancelToken::never().with_deadline(std::time::Instant::now() - Duration::from_secs(1));
        let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Li), 10_000, 42);
        for token in [CancelToken::never().with_flag(flag), expired] {
            assert!(token.is_cancelled());
            let machines = [MachineConfig::baseline()];
            let error = simulate_workload_shared_lanes_cancellable(
                &SharedStream::live(&key),
                &machines,
                &token,
            )
            .expect_err("a fired token must cancel");
            assert!(
                error.ops_completed < 10_000,
                "a cancelled walk never consumed the whole stream"
            );
        }
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
