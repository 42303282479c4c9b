//! The simulation engine: a deduplicated, parallel experiment matrix.
//!
//! The paper's evaluation sweeps a small set of (benchmark, machine) points
//! from many angles — Figures 4–9 and Table 5 all re-measure the same
//! baseline, Figure 7/8 share the selective-DM configuration, Figure 11
//! reuses the baseline yet again. Instead of every figure re-simulating its
//! points from scratch, figure modules *declare* the points they need as a
//! [`SimPlan`]; the [`SimEngine`] dedups identical points across all
//! consumers, executes the unique set in parallel on scoped threads, and
//! memoizes the results in a [`SimMatrix`] keyed by the full
//! (benchmark, machine, options) configuration. Each figure then renders
//! from its slice of the matrix.
//!
//! Execution has one path: points are gang-scheduled by workload stream
//! (each stream is materialized once and replayed by every configuration
//! that needs it), and within a gang, members sharing a d-cache policy and
//! geometry run as work units of up to [`MAX_LANES`] points through one
//! walk of the stream. A stream that only one work unit reads is not
//! materialized: that unit walks the live source
//! ([`SharedStream::live`]), so a one-point pass is point-at-a-time
//! execution.
//!
//! Simulations are deterministic in their key — the trace seed is part of
//! [`RunOptions`] — so a matrix produced serially and one produced in
//! parallel contain identical results, and a point is never executed twice.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

use wp_cpu::{SimResult, MAX_LANES};
use wp_workloads::{Benchmark, SharedStream, StreamKey, WorkloadSpec};

use crate::matrix_cache::{CacheHealth, MatrixCache};
use crate::runner::{
    simulate_workload_shared_lanes_cancellable, CancelToken, MachineConfig, RunOptions,
};

/// A streaming-run callback: invoked with each completed point and its
/// result as the result lands, from whichever worker thread finished it.
pub type PointObserver<'a> = &'a (dyn Fn(&SimPoint, &SimResult) + Sync);

/// One simulation point: the full configuration that determines a
/// [`SimResult`].
///
/// The workload component is a [`WorkloadSpec`], so a point can be backed by
/// a synthetic benchmark, a stress scenario, or a recorded trace file — for
/// traces the *content identity* (digest, not path) participates in the
/// dedup key, so the same capture referenced twice simulates once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimPoint {
    /// The workload simulated.
    pub workload: WorkloadSpec,
    /// The machine configuration simulated.
    pub machine: MachineConfig,
    /// Trace length and seed.
    pub options: RunOptions,
}

impl SimPoint {
    /// Builds a point over one of the paper's synthetic benchmarks.
    pub fn new(benchmark: Benchmark, machine: MachineConfig, options: RunOptions) -> Self {
        Self::with_workload(WorkloadSpec::Benchmark(benchmark), machine, options)
    }

    /// Builds a point over any workload source (benchmark, scenario, or
    /// trace file).
    pub fn with_workload(
        workload: WorkloadSpec,
        machine: MachineConfig,
        options: RunOptions,
    ) -> Self {
        Self {
            workload,
            machine,
            options,
        }
    }

    /// The paper benchmark behind this point, if it is benchmark-backed.
    pub fn benchmark(&self) -> Option<Benchmark> {
        self.workload.benchmark()
    }
}

/// The simulation points one or more consumers need, possibly with
/// duplicates across consumers — the engine executes each unique point once.
///
/// # Example
///
/// ```
/// use wp_experiments::{MachineConfig, RunOptions, SimEngine, SimPlan, SimPoint};
/// use wp_workloads::{Benchmark, Scenario, WorkloadSpec};
///
/// let options = RunOptions::quick().with_ops(2_000);
/// let machine = MachineConfig::baseline();
///
/// let mut plan = SimPlan::new();
/// plan.add(SimPoint::new(Benchmark::Gcc, machine, options));
/// plan.add(SimPoint::new(Benchmark::Gcc, machine, options)); // duplicate
/// plan.add(SimPoint::with_workload(
///     WorkloadSpec::Scenario(Scenario::pointer_chase()),
///     machine,
///     options,
/// ));
/// assert_eq!(plan.len(), 3);
/// assert_eq!(plan.unique_points().len(), 2);
///
/// let matrix = SimEngine::serial().run(&plan);
/// assert_eq!(matrix.executed_points(), 2); // the duplicate was free
/// assert!(matrix.get(Benchmark::Gcc, &machine, &options).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimPlan {
    points: Vec<SimPoint>,
}

impl SimPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one point.
    pub fn add(&mut self, point: SimPoint) {
        self.points.push(point);
    }

    /// Adds one machine on every benchmark (the shape almost every figure
    /// uses).
    pub fn add_all_benchmarks(&mut self, machine: MachineConfig, options: RunOptions) {
        for &benchmark in Benchmark::all().iter() {
            self.add(SimPoint::new(benchmark, machine, options));
        }
    }

    /// Merges another consumer's plan into this one.
    pub fn merge(&mut self, other: SimPlan) {
        self.points.extend(other.points);
    }

    /// All requested points, duplicates included.
    pub fn points(&self) -> &[SimPoint] {
        &self.points
    }

    /// Number of requested points, duplicates included.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were requested.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The unique points, in first-seen order.
    pub fn unique_points(&self) -> Vec<SimPoint> {
        let mut seen = std::collections::HashSet::new();
        self.points
            .iter()
            .filter(|p| seen.insert(*p))
            .cloned()
            .collect()
    }
}

/// Memoized simulation results, keyed by the full point configuration.
#[derive(Debug, Default)]
pub struct SimMatrix {
    results: HashMap<SimPoint, SimResult>,
    executed: usize,
    cache_hits: usize,
    gangs: usize,
    streams_materialized: usize,
    ops_generated: u64,
    ops_consumed: u64,
    ops_stopped: u64,
    lane_batches: usize,
    lane_scalar_fallback: usize,
    lane_width_histogram: [usize; MAX_LANES + 1],
    cache_health: CacheHealth,
}

impl SimMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// The result for a benchmark-backed point, if it has been simulated.
    pub fn get(
        &self,
        benchmark: Benchmark,
        machine: &MachineConfig,
        options: &RunOptions,
    ) -> Option<&SimResult> {
        self.results
            .get(&SimPoint::new(benchmark, *machine, *options))
    }

    /// The result for a point over any workload source, if it has been
    /// simulated.
    pub fn get_workload(
        &self,
        workload: &WorkloadSpec,
        machine: &MachineConfig,
        options: &RunOptions,
    ) -> Option<&SimResult> {
        self.results.get(&SimPoint::with_workload(
            workload.clone(),
            *machine,
            *options,
        ))
    }

    /// The result for a workload-backed point a consumer's plan declared.
    ///
    /// # Panics
    ///
    /// Panics if the point is missing from the matrix, like
    /// [`SimMatrix::require`].
    pub fn require_workload(
        &self,
        workload: &WorkloadSpec,
        machine: &MachineConfig,
        options: &RunOptions,
    ) -> &SimResult {
        self.get_workload(workload, machine, options)
            .unwrap_or_else(|| {
                panic!(
                    "simulation point missing from the matrix (plan/renderer mismatch): \
                     {workload} on {machine:?} with {options:?}"
                )
            })
    }

    /// The result for a point a consumer's plan declared.
    ///
    /// # Panics
    ///
    /// Panics if the point is missing — a figure rendering from the matrix
    /// must have declared the point in its plan, so a miss is a
    /// plan/renderer mismatch, not a runtime condition.
    pub fn require(
        &self,
        benchmark: Benchmark,
        machine: &MachineConfig,
        options: &RunOptions,
    ) -> &SimResult {
        self.get(benchmark, machine, options).unwrap_or_else(|| {
            panic!(
                "simulation point missing from the matrix (plan/renderer mismatch): \
                 {benchmark} on {machine:?} with {options:?}"
            )
        })
    }

    /// True if the point has been simulated.
    pub fn contains(&self, point: &SimPoint) -> bool {
        self.results.contains_key(point)
    }

    /// Number of distinct points in the matrix.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True if nothing has been simulated.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// How many simulations the engine actually executed into this matrix —
    /// the dedup/memoization invariant: at most one per unique point, ever.
    /// Points served from the on-disk [`MatrixCache`] do not count.
    pub fn executed_points(&self) -> usize {
        self.executed
    }

    /// How many points were served from the on-disk [`MatrixCache`] instead
    /// of being simulated.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// How many gangs (groups of executed points sharing one workload
    /// stream) the engine scheduled into this matrix. Zero when nothing
    /// simulated.
    pub fn gangs(&self) -> usize {
        self.gangs
    }

    /// How many workload streams were materialized for gang-scheduled
    /// execution — the stream-production counter: it equals the number of
    /// distinct [`StreamKey`]s simulated, never the point count.
    pub fn streams_materialized(&self) -> usize {
        self.streams_materialized
    }

    /// Total micro-ops *produced* by workload sources for this matrix: each
    /// shared stream is produced once, however many points replay it.
    pub fn ops_generated(&self) -> u64 {
        self.ops_generated
    }

    /// Total micro-ops *consumed* by simulations into this matrix. The
    /// ratio against [`SimMatrix::ops_generated`] is the gang dedup factor.
    pub fn ops_consumed(&self) -> u64 {
        self.ops_consumed
    }

    /// Total micro-ops walked by work units that `run_streaming`'s token
    /// stopped before the end of their stream (counted once per unit,
    /// whatever its width). Their points have no result, so this is the
    /// progress a cancelled point reports; zero for an uncancelled pass.
    pub fn ops_stopped(&self) -> u64 {
        self.ops_stopped
    }

    /// How many config-parallel lane batches (work units of width ≥ 2) the
    /// engine ran into this matrix.
    pub fn lane_batches(&self) -> usize {
        self.lane_batches
    }

    /// How many width-1 work units the engine ran into this matrix — points
    /// whose `(d-policy, d-geometry)` batch key matched no other gang
    /// member, plus width-1 chunk remainders. They run the same walker as
    /// a lane batch, over one lane that probes a bare d-cache controller.
    /// Together with the lane-batched points this partitions the executed
    /// set: `lane_points() + lane_scalar_fallback()` equals the number of
    /// executed points (asserted by `tests/lanes.rs`).
    pub fn lane_scalar_fallback(&self) -> usize {
        self.lane_scalar_fallback
    }

    /// Lane-batch width histogram: entry `w` counts the batches that ran at
    /// width `w` (entries 0 and 1 are always zero — width-1 units count in
    /// [`SimMatrix::lane_scalar_fallback`]).
    pub fn lane_width_histogram(&self) -> &[usize; MAX_LANES + 1] {
        &self.lane_width_histogram
    }

    /// How many executed points were simulated inside a lane batch — the
    /// width-weighted sum of [`SimMatrix::lane_width_histogram`].
    pub fn lane_points(&self) -> usize {
        self.lane_width_histogram
            .iter()
            .enumerate()
            .map(|(width, count)| width * count)
            .sum()
    }

    /// The attached [`MatrixCache`]'s health counters as observed after
    /// filling this matrix. All-zero (and not degraded) without a cache.
    pub fn cache_health(&self) -> CacheHealth {
        self.cache_health
    }
}

/// Executes [`SimPlan`]s into [`SimMatrix`]es, in parallel.
///
/// Results are deterministic in the point key, so a serial engine and a
/// parallel one produce identical matrices:
///
/// ```
/// use wp_experiments::{MachineConfig, RunOptions, SimEngine, SimPlan, SimPoint};
/// use wp_workloads::Benchmark;
///
/// let options = RunOptions::quick().with_ops(2_000);
/// let mut plan = SimPlan::new();
/// plan.add(SimPoint::new(Benchmark::Li, MachineConfig::baseline(), options));
///
/// let serial = SimEngine::serial().run(&plan);
/// let parallel = SimEngine::new(4).run(&plan);
/// for point in plan.unique_points() {
///     assert_eq!(
///         serial.require_workload(&point.workload, &point.machine, &point.options),
///         parallel.require_workload(&point.workload, &point.machine, &point.options),
///     );
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SimEngine {
    threads: usize,
    cache: Option<MatrixCache>,
    stream_memory_cap: usize,
}

impl SimEngine {
    /// An engine running on `threads` worker threads (clamped to at least
    /// one; the thread calling a run is one of them), with no persistent
    /// cache and the default spill cap
    /// ([`wp_workloads::stream_memory_cap`]: the `WPSDM_STREAM_MEMORY_CAP`
    /// environment override if set).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            cache: None,
            stream_memory_cap: wp_workloads::stream_memory_cap(),
        }
    }

    /// A single-threaded engine (useful as a determinism reference).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Attaches a persistent on-disk result cache: points whose results are
    /// already stored are loaded instead of simulated, and freshly
    /// simulated results are stored back. Results served from the cache are
    /// bit-identical to simulating (see [`MatrixCache`]).
    pub fn with_matrix_cache(mut self, cache: MatrixCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Detaches any persistent cache (every missing point simulates).
    pub fn without_matrix_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// The attached persistent cache, if any.
    pub fn matrix_cache(&self) -> Option<&MatrixCache> {
        self.cache.as_ref()
    }

    /// Caps the resident bytes of one materialized gang stream; longer
    /// streams spill to the `WPTR` codec on disk (see
    /// [`SharedStream::materialize_capped`]).
    pub fn with_stream_memory_cap(mut self, cap_bytes: usize) -> Self {
        self.stream_memory_cap = cap_bytes;
        self
    }

    /// The configured per-stream memory cap in bytes.
    pub fn stream_memory_cap(&self) -> usize {
        self.stream_memory_cap
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a plan into a fresh matrix.
    pub fn run(&self, plan: &SimPlan) -> SimMatrix {
        let mut matrix = SimMatrix::new();
        self.run_into(&mut matrix, plan);
        matrix
    }

    /// Runs the not-yet-simulated points of `plan` into `matrix`. Points
    /// already present are reused, points stored in the attached
    /// [`MatrixCache`] are loaded from disk, and only the remainder
    /// simulates; repeated calls never re-execute work.
    pub fn run_into(&self, matrix: &mut SimMatrix, plan: &SimPlan) {
        let complete = self.run_streaming(matrix, plan, &CancelToken::never(), &|_, _| {});
        assert!(complete, "an uncancelled run completes every point");
    }

    /// Runs the not-yet-simulated points of `plan` into `matrix` like
    /// [`run_into`](Self::run_into), but *streams*: `observer` fires with
    /// each completed point as its result lands — cache hits immediately,
    /// simulated points from whichever worker thread finishes them — and
    /// the run stops claiming new work once `token` fires. Cancellation
    /// granularity is one op block: a work unit in flight when the token
    /// fires stops within one op block of its stream, and its partial
    /// results are not observed, stored, or counted (only the ops it
    /// walked are, in [`SimMatrix::ops_stopped`]); a build in flight
    /// stops, deletes any partial spill file, and skips its gang's units.
    /// Each simulated result is stored in the attached
    /// [`MatrixCache`] while the run goes on, and the call returns only
    /// after the last store has landed. Returns true if every point of the
    /// plan completed. [`run_into`](Self::run_into) is this call with a
    /// token that never fires and no observer.
    pub fn run_streaming(
        &self,
        matrix: &mut SimMatrix,
        plan: &SimPlan,
        token: &CancelToken,
        observer: PointObserver<'_>,
    ) -> bool {
        let missing: Vec<SimPoint> = plan
            .unique_points()
            .into_iter()
            .filter(|p| !matrix.contains(p))
            .collect();
        let mut to_simulate = Vec::with_capacity(missing.len());
        let mut cancelled = false;
        for point in missing {
            if cancelled || token.is_cancelled() {
                cancelled = true;
                break;
            }
            match self.cache.as_ref().and_then(|cache| cache.load(&point)) {
                Some(result) => {
                    matrix.cache_hits += 1;
                    observer(&point, &result);
                    matrix.results.insert(point, result);
                }
                None => to_simulate.push(point),
            }
        }
        let results: Vec<Option<SimResult>> = if cancelled {
            vec![None; to_simulate.len()]
        } else {
            self.run_gangs(matrix, &to_simulate, token, observer)
        };
        let mut complete = !cancelled;
        for (point, result) in to_simulate.into_iter().zip(results) {
            match result {
                Some(result) => {
                    matrix.executed += 1;
                    matrix.results.insert(point, result);
                }
                None => complete = false,
            }
        }
        if let Some(cache) = &self.cache {
            matrix.cache_health = cache.health();
        }
        complete
    }

    /// Gang-scheduled execution of `points`: group by [`StreamKey`], then
    /// run one claim queue in which each gang's stream build is queued one
    /// gang ahead of the gang's work units. A unit starts as soon as its
    /// own stream exists, and the stream (with any spill file) is released
    /// when the gang's last unit finishes; a gang of one unit walks its
    /// stream live. The calling thread is one of the workers. With a cache
    /// attached, every completed unit goes to one writer thread, which
    /// stores its results while simulation goes on; this returns after the
    /// writer has drained.
    /// Returns the results in `points` order; a `None` slot is a point
    /// whose unit was never claimed or stopped mid-stream, or whose stream
    /// build stopped, because `token` fired. `observer` hears each
    /// completed point from its worker thread as its unit finishes.
    fn run_gangs(
        &self,
        matrix: &mut SimMatrix,
        points: &[SimPoint],
        token: &CancelToken,
        observer: PointObserver<'_>,
    ) -> Vec<Option<SimResult>> {
        if points.is_empty() {
            return Vec::new();
        }
        if token.is_cancelled() {
            return vec![None; points.len()];
        }
        // Group by stream identity, first-seen order.
        let mut keys: Vec<StreamKey> = Vec::new();
        let mut key_index: HashMap<StreamKey, usize> = HashMap::new();
        let jobs: Vec<(usize, usize)> = points
            .iter()
            .enumerate()
            .map(|(point_index, point)| {
                let key = StreamKey::new(
                    point.workload.clone(),
                    point.options.ops,
                    point.options.seed,
                );
                let stream_index = match key_index.get(&key) {
                    Some(&index) => index,
                    None => {
                        let index = keys.len();
                        keys.push(key.clone());
                        key_index.insert(key, index);
                        index
                    }
                };
                (point_index, stream_index)
            })
            .collect();

        // Split each gang into work units of up to MAX_LANES points sharing
        // a (d-policy, d-geometry) batch key. The partition is computed
        // deterministically here (first-seen order) before any parallel
        // execution, so the results are independent of worker scheduling;
        // the lane counters are accumulated per *completed* unit below —
        // identical totals when nothing cancels, and only work actually
        // done when the token fires.
        let units = Self::lane_partition(points, &jobs, keys.len());
        let mut units_per_gang = vec![0; keys.len()];
        for unit in &units {
            units_per_gang[unit.gang] += 1;
        }
        let gangs: Vec<GangStream> = keys
            .iter()
            .zip(units_per_gang)
            .map(|(key, units)| GangStream::new(key, units))
            .collect();
        let tasks = claim_queue(&units, gangs.len());
        let cap = self.stream_memory_cap;
        let ops_stopped = AtomicU64::new(0);
        // An atomic-cursor claim loop (the shape of [`parallel_map`], with
        // a cancellation check before every claim): workers stop claiming
        // tasks once the token fires, and a claimed unit stops within one
        // op block, counting the ops it walked in `ops_stopped`.
        let threads = self.threads.min(units.len());
        let cursor = AtomicUsize::new(0);
        // One completed unit: (unit index, that unit's (point, result) list).
        type Completed = (usize, Vec<(usize, SimResult)>);
        let (sender, receiver) = mpsc::channel::<Completed>();
        let work = |sender: mpsc::Sender<Completed>| loop {
            if token.is_cancelled() {
                return;
            }
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            match tasks.get(index) {
                None => return,
                Some(Task::Build(gang)) => gangs[*gang].build(cap, token),
                Some(Task::Unit(unit_index)) => {
                    let unit = &units[*unit_index];
                    let gang = &gangs[unit.gang];
                    let Some(stream) = gang.acquire(cap, token) else {
                        continue;
                    };
                    let machines: Vec<MachineConfig> =
                        unit.points.iter().map(|&pi| points[pi].machine).collect();
                    let walked =
                        simulate_workload_shared_lanes_cancellable(&stream, &machines, token);
                    drop(stream);
                    gang.release();
                    let results = match walked {
                        Ok(results) => results,
                        Err(stopped) => {
                            ops_stopped.fetch_add(stopped.ops_completed, Ordering::Relaxed);
                            continue;
                        }
                    };
                    let unit_results: Vec<(usize, SimResult)> =
                        unit.points.iter().copied().zip(results).collect();
                    for (point_index, result) in &unit_results {
                        observer(&points[*point_index], result);
                    }
                    sender
                        .send((*unit_index, unit_results))
                        .expect("the receiver outlives every worker");
                }
            }
        };
        let collect = |receiver: mpsc::Receiver<Completed>| {
            let mut completed = Vec::new();
            for (unit_index, unit_results) in receiver {
                if let Some(cache) = &self.cache {
                    for (point_index, result) in &unit_results {
                        cache.store(&points[*point_index], result);
                    }
                }
                completed.push((unit_index, unit_results));
            }
            completed
        };
        // With a cache, one writer thread stores each completed unit while
        // the workers go on. Without one there is nothing to store, and the
        // calling thread collects the units once its own work is done.
        let completed: Vec<Completed> = std::thread::scope(|scope| {
            let work = &work;
            for _ in 1..threads {
                let sender = sender.clone();
                scope.spawn(move || work(sender));
            }
            if self.cache.is_none() {
                work(sender);
                return collect(receiver);
            }
            let writer = scope.spawn(|| collect(receiver));
            work(sender);
            writer.join().expect("store writer panicked")
        });
        let mut slots: Vec<Option<SimResult>> = vec![None; points.len()];
        for (unit_index, unit_results) in completed {
            match units[unit_index].points.len() {
                1 => matrix.lane_scalar_fallback += 1,
                width => {
                    matrix.lane_batches += 1;
                    matrix.lane_width_histogram[width] += 1;
                }
            }
            for (point_index, result) in unit_results {
                slots[point_index] = Some(result);
            }
        }

        let generated: Vec<usize> = gangs.iter().filter_map(GangStream::generated).collect();
        matrix.gangs += keys.len();
        matrix.streams_materialized += generated.len();
        matrix.ops_generated += generated.iter().map(|&ops| ops as u64).sum::<u64>();
        matrix.ops_consumed += slots
            .iter()
            .flatten()
            .map(|r| r.activity.instructions)
            .sum::<u64>();
        matrix.ops_stopped += ops_stopped.into_inner();
        slots
    }

    /// Partitions gang-scheduled points into [`WorkUnit`]s: within each
    /// gang, points sharing a `(d-policy, d-geometry)` batch key are
    /// chunked into units of up to [`MAX_LANES`] points. Every point lands
    /// in exactly one unit.
    fn lane_partition(
        points: &[SimPoint],
        jobs: &[(usize, usize)],
        stream_count: usize,
    ) -> Vec<WorkUnit> {
        // Gang members in point order, per stream.
        let mut per_stream: Vec<Vec<usize>> = vec![Vec::new(); stream_count];
        for &(point_index, stream_index) in jobs {
            per_stream[stream_index].push(point_index);
        }
        let mut units = Vec::new();
        for (stream_index, members) in per_stream.iter().enumerate() {
            // Group the gang by lane batch key, first-seen order. Everything
            // outside the key — latencies, table sizes, the whole i-side,
            // the core — is free to vary within a batch.
            let mut groups: Vec<Vec<usize>> = Vec::new();
            let mut group_index: HashMap<LaneBatchKey, usize> = HashMap::new();
            for &point_index in members {
                let machine = &points[point_index].machine;
                let key = LaneBatchKey {
                    dpolicy: machine.dpolicy,
                    size_bytes: machine.l1d.size_bytes,
                    block_bytes: machine.l1d.block_bytes,
                    associativity: machine.l1d.associativity,
                };
                let index = *group_index.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[index].push(point_index);
            }
            for group in groups {
                for chunk in group.chunks(MAX_LANES) {
                    units.push(WorkUnit {
                        points: chunk.to_vec(),
                        gang: stream_index,
                    });
                }
            }
        }
        units
    }
}

impl Default for SimEngine {
    /// An engine using every available core.
    fn default() -> Self {
        Self::new(available_threads())
    }
}

/// One schedulable unit of gang-scheduled work: 1..=[`MAX_LANES`] points of
/// one gang that share a [`LaneBatchKey`], run through one walk of the
/// gang's stream by [`simulate_workload_shared_lanes_cancellable`].
#[derive(Debug)]
struct WorkUnit {
    /// Point indices, in lane order.
    points: Vec<usize>,
    /// The gang (stream index) the unit belongs to.
    gang: usize,
}

/// One entry of the engine's claim queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    /// Build gang `n`'s stream, unless one of its units already has.
    Build(usize),
    /// Run work unit `n`.
    Unit(usize),
}

/// The claim queue: each gang's build task goes one gang ahead of the
/// gang's units (`units` are in gang order), so while one gang's units
/// run, a worker is already building the next gang's stream.
fn claim_queue(units: &[WorkUnit], gangs: usize) -> Vec<Task> {
    let mut tasks = Vec::with_capacity(gangs + units.len());
    let mut next_build = 0;
    for (index, unit) in units.iter().enumerate() {
        while next_build < gangs && next_build <= unit.gang + 1 {
            tasks.push(Task::Build(next_build));
            next_build += 1;
        }
        tasks.push(Task::Unit(index));
    }
    tasks
}

/// One gang's stream as the claim queue shares it: built at most once, by
/// the gang's build task or by the first unit that needs it, and dropped
/// when the gang's last unit has finished. The stream of a gang that only
/// one unit reads is built live, so its build copies and spills nothing.
struct GangStream<'k> {
    key: &'k StreamKey,
    live: bool,
    state: Mutex<GangState>,
    built: Condvar,
}

struct GangState {
    stream: StreamSlot,
    /// Units of the gang that have not finished yet.
    units_left: usize,
    /// Ops the finished build produced; `None` until a build finishes.
    generated: Option<usize>,
}

enum StreamSlot {
    /// No worker has started the build.
    Unbuilt,
    /// A worker is building the stream; the gang's units wait for it.
    Building,
    /// Built, and shared by the gang's units.
    Ready(Arc<SharedStream>),
    /// The build stopped because the token fired: the units are skipped.
    Stopped,
    /// The gang's last unit finished and the stream is dropped.
    Released,
}

impl<'k> GangStream<'k> {
    fn new(key: &'k StreamKey, units: usize) -> Self {
        Self {
            key,
            live: units == 1,
            state: Mutex::new(GangState {
                stream: StreamSlot::Unbuilt,
                units_left: units,
                generated: None,
            }),
            built: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GangState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The build task: builds the stream unless a unit has already started
    /// it, in which case it does nothing. A build task claimed late, after
    /// the gang's units built, ran and released the stream, is a no-op.
    fn build(&self, cap: usize, token: &CancelToken) {
        let state = self.lock();
        if matches!(state.stream, StreamSlot::Unbuilt) {
            drop(self.build_locked(state, cap, token));
        }
    }

    /// The stream for one of the gang's units: built here if nobody has
    /// started it, waited for if another worker is building it. `None` if
    /// the build stopped because the token fired.
    fn acquire(&self, cap: usize, token: &CancelToken) -> Option<Arc<SharedStream>> {
        let mut state = self.lock();
        loop {
            match &state.stream {
                StreamSlot::Unbuilt => state = self.build_locked(state, cap, token),
                StreamSlot::Building => {
                    state = self
                        .built
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                StreamSlot::Ready(stream) => return Some(Arc::clone(stream)),
                StreamSlot::Stopped | StreamSlot::Released => return None,
            }
        }
    }

    /// One of the gang's units finished: the last one drops the stream,
    /// which deletes any spill file once no reader holds it.
    fn release(&self) {
        let mut state = self.lock();
        state.units_left -= 1;
        if state.units_left == 0 {
            state.stream = StreamSlot::Released;
        }
    }

    /// Ops the gang's stream build produced, if a build finished.
    fn generated(&self) -> Option<usize> {
        self.lock().generated
    }

    /// Builds the stream with the lock released, checking `token` once per
    /// op block of a materialization, and returns the re-taken lock.
    fn build_locked<'a>(
        &'a self,
        mut state: MutexGuard<'a, GangState>,
        cap: usize,
        token: &CancelToken,
    ) -> MutexGuard<'a, GangState> {
        state.stream = StreamSlot::Building;
        drop(state);
        let mut outcome = BuildOutcome {
            gang: self,
            stream: None,
        };
        outcome.stream = if self.live {
            Some(Arc::new(SharedStream::live(self.key)))
        } else {
            SharedStream::materialize_until(self.key, cap, &|| token.is_cancelled())
                .unwrap_or_else(|e| {
                    panic!("workload stream {} failed to materialize: {e}", self.key)
                })
                .map(Arc::new)
        };
        drop(outcome);
        self.lock()
    }
}

/// Publishes a stream build's outcome when dropped, so the units waiting
/// on the build wake up even if it panics.
struct BuildOutcome<'a, 'k> {
    gang: &'a GangStream<'k>,
    stream: Option<Arc<SharedStream>>,
}

impl Drop for BuildOutcome<'_, '_> {
    fn drop(&mut self) {
        let mut state = self.gang.lock();
        state.stream = match self.stream.take() {
            Some(stream) => {
                state.generated = Some(stream.ops());
                StreamSlot::Ready(stream)
            }
            None => StreamSlot::Stopped,
        };
        self.gang.built.notify_all();
    }
}

/// What gang members must agree on to share a work unit: the d-cache
/// policy (the walk is monomorphized per policy) and the d-cache geometry.
/// The lane d-cache keeps plain per-state controllers, which do not need a
/// shared geometry; geometry stays in the key because the benchmark ledger
/// copies this rule to check the engine's lane counters. A key that no
/// other gang member shares, and a chunk remainder of one, make a width-1
/// unit. See [`wp_cpu::LaneMember`] for what is free to vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LaneBatchKey {
    dpolicy: wp_cache::DCachePolicy,
    size_bytes: usize,
    block_bytes: usize,
    associativity: usize,
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item on `threads` scoped worker threads, returning
/// the outputs in input order. Work distribution is an atomic-cursor queue:
/// each worker claims the next index and pushes `(index, result)` into its
/// own local vector — no per-item lock, no shared result slots — and the
/// per-worker vectors are merged back into input order at the end.
/// Wall-clock scales with the slowest items rather than a static partition.
pub fn parallel_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else {
                            return produced;
                        };
                        produced.push((index, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("parallel_map worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (index, result) in per_worker.into_iter().flatten() {
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index visited exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_cache::DCachePolicy;

    fn tiny() -> RunOptions {
        RunOptions::quick().with_ops(4_000)
    }

    #[test]
    fn plans_dedup_identical_points() {
        let options = tiny();
        let baseline = MachineConfig::baseline();
        let mut plan = SimPlan::new();
        plan.add(SimPoint::new(Benchmark::Gcc, baseline, options));
        plan.add(SimPoint::new(Benchmark::Gcc, baseline, options));
        plan.add(SimPoint::new(Benchmark::Li, baseline, options));
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.unique_points().len(), 2);
    }

    #[test]
    fn points_distinguish_every_key_component() {
        let options = tiny();
        let baseline = MachineConfig::baseline();
        let a = SimPoint::new(Benchmark::Gcc, baseline, options);
        assert_ne!(a, SimPoint::new(Benchmark::Li, baseline, options));
        assert_ne!(
            a,
            SimPoint::new(
                Benchmark::Gcc,
                baseline.with_dpolicy(DCachePolicy::Sequential),
                options
            )
        );
        assert_ne!(
            a,
            SimPoint::new(Benchmark::Gcc, baseline, options.with_seed(7))
        );
    }

    #[test]
    fn engine_executes_each_unique_point_exactly_once() {
        let options = tiny();
        let mut plan = SimPlan::new();
        let baseline = MachineConfig::baseline();
        let seldm = baseline.with_dpolicy(DCachePolicy::SelDmWayPredict);
        for _ in 0..3 {
            plan.add(SimPoint::new(Benchmark::Gcc, baseline, options));
            plan.add(SimPoint::new(Benchmark::Gcc, seldm, options));
        }
        let engine = SimEngine::new(2);
        let mut matrix = engine.run(&plan);
        assert_eq!(matrix.executed_points(), 2);
        assert_eq!(matrix.len(), 2);
        // Re-running the same plan is free: everything is memoized.
        engine.run_into(&mut matrix, &plan);
        assert_eq!(matrix.executed_points(), 2);
    }

    #[test]
    fn serial_and_parallel_matrices_agree_exactly() {
        let options = tiny();
        let mut plan = SimPlan::new();
        let baseline = MachineConfig::baseline();
        for benchmark in [Benchmark::Gcc, Benchmark::Li, Benchmark::Swim] {
            plan.add(SimPoint::new(benchmark, baseline, options));
            plan.add(SimPoint::new(
                benchmark,
                baseline.with_dpolicy(DCachePolicy::SelDmWayPredict),
                options,
            ));
        }
        let serial = SimEngine::serial().run(&plan);
        let parallel = SimEngine::new(4).run(&plan);
        assert_eq!(serial.len(), parallel.len());
        for point in plan.unique_points() {
            let a = serial.require_workload(&point.workload, &point.machine, &point.options);
            let b = parallel.require_workload(&point.workload, &point.machine, &point.options);
            assert_eq!(a, b, "results must not depend on the execution schedule");
        }
    }

    #[test]
    fn scenario_points_are_distinct_from_benchmark_points() {
        let options = tiny();
        let baseline = MachineConfig::baseline();
        let mut plan = SimPlan::new();
        plan.add(SimPoint::new(Benchmark::Gcc, baseline, options));
        plan.add(SimPoint::with_workload(
            WorkloadSpec::Scenario(wp_workloads::Scenario::pointer_chase()),
            baseline,
            options,
        ));
        plan.add(SimPoint::with_workload(
            WorkloadSpec::Scenario(wp_workloads::Scenario::pointer_chase()),
            baseline,
            options,
        ));
        assert_eq!(plan.unique_points().len(), 2);
        let matrix = SimEngine::new(2).run(&plan);
        assert_eq!(matrix.executed_points(), 2);
        let scenario = WorkloadSpec::Scenario(wp_workloads::Scenario::pointer_chase());
        assert!(matrix
            .get_workload(&scenario, &baseline, &options)
            .is_some());
    }

    #[test]
    fn each_build_is_queued_one_gang_ahead_of_its_units() {
        let unit = |points: &[usize], gang| WorkUnit {
            points: points.to_vec(),
            gang,
        };
        let units = [
            unit(&[0], 0),
            unit(&[1, 2], 0),
            unit(&[3], 1),
            unit(&[4], 2),
        ];
        use Task::{Build, Unit};
        assert_eq!(
            claim_queue(&units, 3),
            [
                Build(0),
                Build(1),
                Unit(0),
                Unit(1),
                Build(2),
                Unit(2),
                Unit(3)
            ]
        );
    }

    #[test]
    fn a_build_task_claimed_after_its_gang_finished_is_a_no_op() {
        // The race: a worker claims a gang's build task but runs it late.
        // Meanwhile the gang's two units build the stream themselves, run,
        // and release it. The late build must not panic or build again.
        let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Gcc), 4_000, 1);
        let token = CancelToken::never();
        for cap in [usize::MAX, 1] {
            let gang = GangStream::new(&key, 2);
            let stream = gang.acquire(cap, &token).expect("the first unit builds");
            assert_eq!(stream.is_spilled(), cap == 1);
            let again = gang
                .acquire(cap, &token)
                .expect("the second unit shares it");
            assert!(Arc::ptr_eq(&stream, &again));
            drop((stream, again));
            gang.release();
            gang.release();
            gang.build(cap, &token);
            assert!(matches!(gang.lock().stream, StreamSlot::Released));
            assert_eq!(gang.generated(), Some(4_000), "one build, counted once");
        }
    }

    #[test]
    fn a_one_unit_gang_walks_its_stream_live() {
        let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Li), 4_000, 1);
        let gang = GangStream::new(&key, 1);
        let stream = gang.acquire(1, &CancelToken::never()).expect("built");
        assert!(!stream.is_spilled(), "even a 1-byte cap spills nothing");
        assert_eq!(
            gang.generated(),
            Some(4_000),
            "a live stream counts as generated"
        );
    }

    #[test]
    fn a_stopped_one_point_pass_reports_the_ops_it_walked() {
        let point = |ops| {
            SimPoint::new(
                Benchmark::Gcc,
                MachineConfig::baseline(),
                tiny().with_ops(ops),
            )
        };
        let ops = 500_000_000;
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
        let token = CancelToken::never().with_deadline(deadline);
        let plan = SimPlan {
            points: vec![point(ops)],
        };
        let mut matrix = SimMatrix::new();
        assert!(!SimEngine::serial().run_streaming(&mut matrix, &plan, &token, &|_, _| {}));
        assert_eq!(matrix.executed_points(), 0);
        let walked = matrix.ops_stopped();
        assert!(0 < walked && walked < ops as u64, "{walked} of {ops} ops");

        let done = SimEngine::serial().run(&SimPlan {
            points: vec![point(4_000)],
        });
        assert_eq!((done.executed_points(), done.ops_stopped()), (1, 0));
    }

    #[test]
    fn a_stopped_build_skips_the_gang_and_counts_nothing() {
        let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Li), 4_000, 1);
        let fired = CancelToken::never().with_deadline(std::time::Instant::now());
        let gang = GangStream::new(&key, 2);
        gang.build(1, &fired);
        assert!(gang.acquire(1, &fired).is_none(), "the units are skipped");
        assert_eq!(gang.generated(), None);
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(8, &items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert_eq!(
            parallel_map(3, &[] as &[usize], |&x| x),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn missing_points_panic_with_context() {
        let matrix = SimMatrix::new();
        let result = std::panic::catch_unwind(|| {
            matrix.require(Benchmark::Gcc, &MachineConfig::baseline(), &tiny())
        });
        assert!(result.is_err());
    }
}
