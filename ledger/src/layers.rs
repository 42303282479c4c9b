//! The traced run: the per-layer ledger.
//!
//! It replays the three workloads' inputs at the run's seed — the same
//! `StreamKey`s, machine configurations and request bytes — through each
//! layer's public entry points, and records an in-memory span (name,
//! start, end, parent, call count) around every timed batch of calls. A
//! span wraps a batch, not a single call: one clock read costs more than a
//! d-cache probe. Per-call figures are a span's duration over its calls.
//!
//! Where a layer is crate-private — the `wp-cpu` scheduler, the `run_all`
//! process around the engine, and the daemon's socket and queue path — the
//! ledger reports a residual: the end-to-end time minus the sum of the
//! layers it can time.
//!
//! Inputs are also cross-checked against the program: the ledger's own
//! stream, point and lane-batch counts must equal the engine's counters,
//! its in-process rendering of the `run_all` artefacts must equal the
//! `run_all --json` bytes, and the daemon's results must equal the
//! in-process ones. A mismatch is a failed operation.

use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use serde::{Serialize, Value};
use wp_cache::{
    DCacheController, DCachePolicy, FetchKind, ICacheController, ICachePolicy, L1Config, LaneDCache,
};
use wp_cpu::{CpuConfig, Processor, SimResult, MAX_LANES};
use wp_experiments::coverage::CoverageReport;
use wp_experiments::runner::simulate_workload_shared_lanes;
use wp_experiments::{
    fig10, fig11, fig4, fig5, fig6, fig7, fig8, fig9, table3, table4, table5, CancelToken,
    MachineConfig, MatrixCache, RunOptions, SimEngine, SimMatrix, SimPoint,
};
use wp_mem::{AccessKind, HierarchyConfig, MemoryHierarchy};
use wp_predictors::{BranchOutcome, HybridBranchPredictor};
use wp_serve::protocol::{
    ok_response, parse_request, simulate_request, stream_point_response, sweep_request,
    SweepPlanSpec,
};
use wp_workloads::{
    BranchClass, OpBlockSource, OpBuffer, OpKind, ScenarioGenerator, SharedStream, StreamKey,
    TraceConfig, TraceGenerator, WorkloadSpec,
};

use crate::e2e::{self, Ctx};
use crate::host::{json_string, run_timed, Binaries, Daemon, Finished, Scratch, TempDir};
use crate::report::{percentile, Metric, Outcome};

/// Rounds of the microsecond-scale serve and cache calls per metric.
const ROUNDS: usize = 50;

/// Ops per point of the process-residual probe. At 400k ops two
/// consecutive cold `run_all` processes differ by 0.2–0.6 s on a 2-core
/// host, several times the residual; what the residual holds (process
/// start and exit, planning, writing the output) does not grow with ops.
/// The probe runs without a matrix cache on either side: the stores are
/// timed on their own (`experiments.matrix_store_us`), and their fsyncs
/// would add noise the size of the residual.
const PROBE_OPS: usize = 2_000;

/// Process / in-process pairs of the residual probe, in alternating order.
pub const PROBE_PAIRS: usize = 9;

/// Cold points two connections request at once, to make the daemon
/// coalesce, and the ops of each: enough that one simulation outlasts the
/// gap between the two requests by far.
const COALESCE_POINTS: usize = 4;
const COALESCE_OPS: usize = 200_000;

/// One timed batch of calls into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
}

/// In-memory spans, written out when the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` returns its value and the
    /// number of layer calls it made. Spans opened inside `f` are children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> (T, u64)) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            calls: 0,
        });
        self.open.push(index);
        let (value, calls) = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.calls = calls;
        value
    }

    /// Seconds of each span named `name`, in the order they ran.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Total seconds and calls over every span named `name`.
    fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(secs, calls), s| {
                (secs + (s.end_ns - s.start_ns) as f64 / 1e9, calls + s.calls)
            })
    }

    /// Nanoseconds per call over every span named `name`.
    fn ns_per_call(&self, name: &str) -> f64 {
        let (secs, calls) = self.total(name);
        assert!(calls > 0, "span `{name}` recorded no calls");
        secs * 1e9 / calls as f64
    }

    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                    json_string(&s.name),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns,
                    s.calls
                )
            })
            .collect();
        format!("[{}]", spans.join(",\n"))
    }
}

/// The eleven artefacts in `run_all --json`'s shape, so the in-process
/// rendering can be compared with the process's bytes.
#[derive(Serialize)]
struct RunAllResult {
    table3: table3::Table3Result,
    table4: table4::Table4Result,
    fig4: fig4::Fig4Result,
    fig5: fig5::Fig5Result,
    fig6: fig6::Fig6Result,
    table5: table5::Table5Result,
    fig7: fig7::Fig7Result,
    fig8: fig8::Fig8Result,
    fig9: fig9::Fig9Result,
    fig10: fig10::Fig10Result,
    fig11: fig11::Fig11Result,
    coverage: Option<CoverageReport>,
}

/// The counters the engine keeps about a plan, derived independently from
/// the plan's points.
#[derive(Debug, PartialEq, Eq)]
struct PlanCounts {
    executed: usize,
    streams: usize,
    ops_generated: u64,
    ops_consumed: u64,
    lane_points: usize,
}

/// Groups `points` the way the engine's gang scheduler does: by stream,
/// then by lane-batch key (d-policy and d-cache geometry) in first-seen
/// order, in chunks of at most `MAX_LANES`; chunks of two or more run as
/// lane batches. Generated streams hold exactly `ops` ops.
fn plan_counts(points: &[SimPoint]) -> PlanCounts {
    type BatchKey = (DCachePolicy, usize, usize, usize);
    let mut gangs: Vec<(StreamKey, Vec<(BatchKey, usize)>)> = Vec::new();
    let mut gang_index: HashMap<StreamKey, usize> = HashMap::new();
    for point in points {
        let key = StreamKey::new(
            point.workload.clone(),
            point.options.ops,
            point.options.seed,
        );
        let gang = *gang_index.entry(key.clone()).or_insert_with(|| {
            gangs.push((key, Vec::new()));
            gangs.len() - 1
        });
        let l1d = point.machine.l1d;
        let batch_key = (
            point.machine.dpolicy,
            l1d.size_bytes,
            l1d.block_bytes,
            l1d.associativity,
        );
        let groups = &mut gangs[gang].1;
        match groups.iter_mut().find(|(k, _)| *k == batch_key) {
            Some((_, members)) => *members += 1,
            None => groups.push((batch_key, 1)),
        }
    }
    let lane_points = gangs
        .iter()
        .flat_map(|(_, groups)| groups.iter())
        .map(|&(_, members)| {
            let remainder = members % MAX_LANES;
            members - if remainder == 1 { 1 } else { 0 }
        })
        .sum();
    PlanCounts {
        executed: points.len(),
        streams: gangs.len(),
        ops_generated: gangs.iter().map(|(key, _)| key.ops as u64).sum(),
        ops_consumed: points.iter().map(|p| p.options.ops as u64).sum(),
        lane_points,
    }
}

fn check_counts(what: &str, expected: &PlanCounts, matrix: &SimMatrix, outcome: &mut Outcome) {
    let engine = PlanCounts {
        executed: matrix.executed_points(),
        streams: matrix.streams_materialized(),
        ops_generated: matrix.ops_generated(),
        ops_consumed: matrix.ops_consumed(),
        lane_points: matrix.lane_points(),
    };
    outcome.check(engine == *expected, || {
        format!("{what}: engine counters {engine:?} != ledger counts {expected:?}")
    });
}

/// One d-cache access: `(pc, addr, approx_addr, is_load)`.
type MemOp = (u64, u64, u64, bool);

/// What the per-op layers consume, extracted from one stream in program
/// order: branch outcomes, d-cache accesses, i-cache fetches (with the
/// fetch kinds the processor's steering would issue), and the L1 misses
/// that reach the L2.
struct Extract {
    branches: Vec<(u64, bool)>,
    mem: Vec<MemOp>,
    fetches: Vec<(u64, FetchKind)>,
    l1_misses: Vec<(u64, AccessKind)>,
}

/// Walks `stream` once through a branch predictor and baseline
/// (parallel-access) L1s. Fetch steering follows the processor's rules —
/// a new fetch block, a taken branch, or a direction mispredict starts a
/// fetch — except that ROB/LSQ stalls, which depend on timing, never
/// restart one.
fn extract(stream: &SharedStream) -> Extract {
    let mut predictor = HybridBranchPredictor::default();
    let mut dcache = DCacheController::new(L1Config::paper_dcache(), DCachePolicy::Parallel)
        .expect("the paper d-cache is valid");
    let mut icache = ICacheController::new(L1Config::paper_icache(), ICachePolicy::Parallel)
        .expect("the paper i-cache is valid");
    let block_mask = !(L1Config::paper_dcache().block_bytes as u64 - 1);
    let mut out = Extract {
        branches: Vec::new(),
        mem: Vec::new(),
        fetches: Vec::new(),
        l1_misses: Vec::new(),
    };
    let mut cur_block = None;
    let mut next_kind = FetchKind::Redirect;
    let mut reader = stream.reader().expect("streams re-open");
    let mut buf = OpBuffer::new();
    while reader.fill(&mut buf) > 0 {
        for op in buf.ops() {
            let block = op.pc & block_mask;
            if cur_block != Some(block) {
                out.fetches.push((op.pc, next_kind));
                if icache.fetch(op.pc, next_kind).is_miss() {
                    out.l1_misses.push((op.pc, AccessKind::Read));
                }
                cur_block = Some(block);
                next_kind = FetchKind::Sequential { prev_pc: op.pc };
            }
            match op.kind {
                OpKind::Load { addr, approx_addr } => {
                    out.mem.push((op.pc, addr, approx_addr, true));
                    if dcache.load(op.pc, addr, approx_addr).is_miss() {
                        out.l1_misses.push((addr, AccessKind::Read));
                    }
                }
                OpKind::Store { addr } => {
                    out.mem.push((op.pc, addr, 0, false));
                    if dcache.store(op.pc, addr).is_miss() {
                        out.l1_misses.push((addr, AccessKind::Write));
                    }
                }
                OpKind::Branch { taken, class, .. } => {
                    out.branches.push((op.pc, taken));
                    let predicted = predictor
                        .update(op.pc, BranchOutcome::from_taken(taken))
                        .is_taken();
                    if class == BranchClass::Conditional && predicted != taken {
                        cur_block = None;
                        next_kind = FetchKind::Redirect;
                    } else if taken {
                        cur_block = None;
                        next_kind = match class {
                            BranchClass::Call => FetchKind::Call {
                                branch_pc: op.pc,
                                return_pc: op.pc + 4,
                            },
                            BranchClass::Return => FetchKind::Return,
                            _ => FetchKind::TakenBranch { branch_pc: op.pc },
                        };
                    } else {
                        next_kind = FetchKind::NotTakenBranch { prev_pc: op.pc };
                    }
                }
                OpKind::IntAlu | OpKind::FpAlu => {}
            }
        }
    }
    out
}

/// Every d-policy with its probe metric: the label with `+` written as
/// `-`. The probe's span is the metric name without `_ns`.
const DPROBES: [(DCachePolicy, &str); 8] = [
    (DCachePolicy::Parallel, "cache.dprobe.parallel_ns"),
    (DCachePolicy::Sequential, "cache.dprobe.sequential_ns"),
    (DCachePolicy::WayPredictPc, "cache.dprobe.waypred-pc_ns"),
    (DCachePolicy::WayPredictXor, "cache.dprobe.waypred-xor_ns"),
    (
        DCachePolicy::SelDmParallel,
        "cache.dprobe.seldm-parallel_ns",
    ),
    (
        DCachePolicy::SelDmWayPredict,
        "cache.dprobe.seldm-waypred_ns",
    ),
    (
        DCachePolicy::SelDmSequential,
        "cache.dprobe.seldm-sequential_ns",
    ),
    (
        DCachePolicy::PerfectWayPredict,
        "cache.dprobe.perfect-waypred_ns",
    ),
];

fn span_of(metric: &str) -> &str {
    metric.trim_end_matches("_ns")
}

/// Machines sharing the baseline d-side (one lane-batch key) while the
/// rest of the machine varies, for lane batches of any width up to 8.
fn lane_machines() -> Vec<MachineConfig> {
    let base = MachineConfig::baseline();
    vec![
        base,
        base.with_ipolicy(ICachePolicy::WayPredict),
        base.with_l1i(L1Config::paper_icache().with_associativity(2))
            .with_ipolicy(ICachePolicy::WayPredict),
        base.with_l1i(L1Config::paper_icache().with_associativity(1)),
        base.with_l1i(L1Config::paper_icache().with_associativity(8))
            .with_ipolicy(ICachePolicy::WayPredict),
        base.with_l1d(L1Config::paper_dcache().with_base_latency(2)),
        base.with_l1d(L1Config::paper_dcache().with_prediction_table_entries(256)),
        MachineConfig {
            cpu: CpuConfig {
                issue_width: 4,
                ..CpuConfig::default()
            },
            ..base
        },
    ]
}

/// Ratio counters accumulated across streams.
#[derive(Default)]
struct Counters {
    predictions: u64,
    mispredictions: u64,
    way_predictions: u64,
    way_predictions_correct: u64,
    d_accesses: u64,
    d_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    ops: u64,
    branches: u64,
    mem_ops: u64,
    fetches: u64,
    l2_per_run: u64,
}

/// Times every per-op layer over one resident stream.
fn per_op_layers(rec: &mut Recorder, stream: &SharedStream, counters: &mut Counters) {
    let x = extract(stream);

    rec.span("predictors.branch_update", |_| {
        let mut predictor = HybridBranchPredictor::default();
        for &(pc, taken) in &x.branches {
            black_box(predictor.update(pc, BranchOutcome::from_taken(taken)));
        }
        counters.predictions += predictor.predictions();
        counters.mispredictions += predictor.mispredictions();
        ((), x.branches.len() as u64)
    });

    for (policy, metric) in DPROBES {
        rec.span(span_of(metric), |_| {
            let mut dcache = DCacheController::new(L1Config::paper_dcache(), policy)
                .expect("the paper d-cache is valid");
            for &(pc, addr, approx, is_load) in &x.mem {
                if is_load {
                    black_box(dcache.load(pc, addr, approx));
                } else {
                    black_box(dcache.store(pc, addr));
                }
            }
            let stats = dcache.stats();
            match policy {
                DCachePolicy::Parallel => {
                    counters.d_accesses += stats.accesses();
                    counters.d_misses += stats.misses();
                }
                DCachePolicy::WayPredictPc => {
                    counters.way_predictions += stats.way_predictions;
                    counters.way_predictions_correct += stats.way_predictions_correct;
                }
                _ => {}
            }
            ((), x.mem.len() as u64)
        });
    }

    let configs: Vec<L1Config> = (0..MAX_LANES as u64)
        .map(|lane| L1Config::paper_dcache().with_base_latency(1 + lane % 3))
        .collect();
    for width in [1usize, 2, 4, 8] {
        rec.span(&format!("cache.dprobe_lane_w{width}"), |_| {
            let policy = DCachePolicy::Parallel;
            let mut lanes =
                LaneDCache::new(&configs[..width], policy).expect("the paper d-cache is valid");
            let mut out = vec![Default::default(); width];
            wp_cache::with_dpolicy_kernel!(policy, K => {
                for &(pc, addr, approx, is_load) in &x.mem {
                    if is_load {
                        lanes.load_kernel::<K>(pc, addr, approx, &mut out);
                    } else {
                        lanes.store(pc, addr, &mut out);
                    }
                    black_box(&out);
                }
            });
            ((), (x.mem.len() * width) as u64)
        });
    }

    for (policy, name) in [
        (ICachePolicy::Parallel, "cache.ifetch.parallel"),
        (ICachePolicy::WayPredict, "cache.ifetch.waypred"),
    ] {
        rec.span(name, |_| {
            let mut icache = ICacheController::new(L1Config::paper_icache(), policy)
                .expect("the paper i-cache is valid");
            for &(pc, kind) in &x.fetches {
                black_box(icache.fetch(pc, kind));
            }
            ((), x.fetches.len() as u64)
        });
    }

    rec.span("mem.l2", |_| {
        let mut hierarchy =
            MemoryHierarchy::new(HierarchyConfig::default()).expect("the Table 1 hierarchy");
        for &(addr, kind) in &x.l1_misses {
            black_box(hierarchy.access(addr, kind));
        }
        counters.l2_accesses += hierarchy.l2_stats().accesses();
        counters.l2_misses += hierarchy.l2_stats().misses();
        ((), x.l1_misses.len() as u64)
    });

    // The whole scalar processor over the same stream, with the per-op
    // shares that weight each layer in the scheduler residual.
    let machine = MachineConfig::baseline();
    let result: SimResult = rec.span("cpu.scalar", |_| {
        let mut cpu = Processor::with_l1(
            machine.cpu,
            machine.l1d,
            machine.dpolicy,
            machine.l1i,
            machine.ipolicy,
        )
        .expect("the baseline machine is valid");
        let mut reader = stream.reader().expect("streams re-open");
        let result = cpu.run_blocks(&mut reader);
        let ops = result.activity.instructions;
        (result, ops)
    });
    counters.ops += result.activity.instructions;
    counters.branches += result.activity.branches;
    counters.mem_ops += result.activity.mem_ops();
    counters.fetches += result.icache.fetches;
    counters.l2_per_run += result.activity.l2_accesses;

    let machines = lane_machines();
    for width in [2usize, 4, 8] {
        rec.span(&format!("cpu.lanes_w{width}"), |_| {
            black_box(simulate_workload_shared_lanes(stream, &machines[..width]));
            ((), (stream.ops() * width) as u64)
        });
    }
}

/// Ops in `stream`, read block by block (the replay layer alone).
fn replay(stream: &SharedStream) -> u64 {
    let mut reader = stream.reader().expect("streams re-open");
    let mut buf = OpBuffer::new();
    let mut ops = 0;
    while reader.fill(&mut buf) > 0 {
        ops += black_box(buf.ops()).len() as u64;
    }
    ops
}

/// Ops produced by draining `source` block by block.
fn drain(mut source: impl OpBlockSource) -> u64 {
    let mut buf = OpBuffer::new();
    let mut ops = 0;
    while source.fill(&mut buf) > 0 {
        ops += black_box(buf.ops()).len() as u64;
    }
    ops
}

/// Mean |measured - paper| over a JSON table's rows, for each
/// `(measured, paper)` field pair. Returns `(mean, cells)`.
fn fidelity(table: Option<&Value>, pairs: &[(&str, &str)]) -> Option<(f64, usize)> {
    let rows = table?.get("rows")?.as_array()?;
    let mut total = 0.0;
    let mut cells = 0;
    for row in rows {
        for (measured, paper) in pairs {
            total += (row.get(measured)?.as_f64()? - row.get(paper)?.as_f64()?).abs();
            cells += 1;
        }
    }
    (cells > 0).then(|| (total / cells as f64, cells))
}

/// A fresh repetition directory (removed when the guard drops), its cache
/// directory, and its socket path.
fn scratch_paths(scratch: &Scratch, name: &str) -> io::Result<(TempDir, PathBuf, String)> {
    let dir = scratch.fresh(name)?;
    let socket = dir.path().join("d.sock").to_string_lossy().into_owned();
    let cache = dir.path().join("cache");
    Ok((dir, cache, socket))
}

/// A cold `run_all --json` process, in a span named `span`: over the empty
/// cache `cache_dir`, or with `--no-matrix-cache` when it is `None`.
fn run_all_process(
    rec: &mut Recorder,
    span: &str,
    bins: &Binaries,
    options: &RunOptions,
    cache_dir: Option<&Path>,
) -> io::Result<Finished> {
    rec.span(span, |_| {
        let mut command = std::process::Command::new(&bins.run_all);
        command
            .args(["--json", "--ops", &options.ops.to_string()])
            .args(["--seed", &options.seed.to_string()]);
        match cache_dir {
            Some(dir) => command.arg("--matrix-cache-dir").arg(dir),
            None => command.arg("--no-matrix-cache"),
        };
        (run_timed(&mut command), 1)
    })
}

/// What `run_all --json` does, in this process: the engine (over the empty
/// cache `cache_dir` when there is one, so its stores are inside the engine
/// span), Table 4, and the rendering, in spans `<prefix>.engine`, `.table4`
/// and `.render`. Returns the matrix and the rendered JSON.
fn run_all_in_process(
    rec: &mut Recorder,
    prefix: &str,
    options: &RunOptions,
    threads: usize,
    cap: usize,
    cache_dir: Option<&Path>,
) -> (SimMatrix, String) {
    let plan = wp_experiments::run_all_plan(options);
    let points = plan.unique_points().len() as u64;
    let mut engine = SimEngine::new(threads).with_stream_memory_cap(cap);
    if let Some(dir) = cache_dir {
        engine = engine.with_matrix_cache(MatrixCache::new(dir));
    }
    let matrix = rec.span(&format!("{prefix}.engine"), |_| (engine.run(&plan), points));
    let table4 = rec.span(&format!("{prefix}.table4"), |_| {
        (table4::run_threaded(options, threads), 22)
    });
    let rendered = rec.span(&format!("{prefix}.render"), |_| {
        let results = RunAllResult {
            table3: table3::from_matrix(&matrix, options),
            table4,
            fig4: fig4::from_matrix(&matrix, options),
            fig5: fig5::from_matrix(&matrix, options),
            fig6: fig6::from_matrix(&matrix, options),
            table5: table5::from_matrix(&matrix, options),
            fig7: fig7::from_matrix(&matrix, options),
            fig8: fig8::from_matrix(&matrix, options),
            fig9: fig9::from_matrix(&matrix, options),
            fig10: fig10::from_matrix(&matrix, options),
            fig11: fig11::from_matrix(&matrix, options),
            coverage: None,
        };
        (wp_experiments::report::to_json(&results), 1)
    });
    (matrix, rendered)
}

/// The process residual from the probe's spans: the fastest process minus
/// the fastest in-process engine + Table 4 + render. Interference from the
/// host only ever adds time, so the fastest of several runs is the best
/// estimate of each side's own cost; per-pair differences swing by tens of
/// milliseconds with it.
fn probe_residual(rec: &Recorder) -> f64 {
    let [process, engine, table4, render] = [
        "probe.process",
        "probe.engine",
        "probe.table4",
        "probe.render",
    ]
    .map(|name| rec.durations(name));
    let fastest = |values: Vec<f64>| values.into_iter().fold(f64::INFINITY, f64::min);
    let in_process = (0..process.len())
        .map(|i| engine[i] + table4[i] + render[i])
        .collect();
    fastest(process) - fastest(in_process)
}

/// Sends one connection's whole request budget of warm `point` requests,
/// then one more, which the daemon must shed with `overloaded`: one
/// `serve.shed`.
fn overrun_budget(daemon: &Daemon, point: &SimPoint, outcome: &mut Outcome) -> io::Result<()> {
    let mut conn = daemon.connect()?;
    let request = simulate_request(1, point, None);
    let mut served = 0;
    for _ in 0..e2e::DAEMON_CONN_BUDGET {
        served += conn.call(request.as_bytes())?.contains("\"ok\":true") as usize;
    }
    let last = conn.call(request.as_bytes())?;
    outcome.check(
        served == e2e::DAEMON_CONN_BUDGET && last.contains("\"code\":\"overloaded\""),
        || format!("{served} requests served within the budget, then {last:.160}"),
    );
    Ok(())
}

/// Two connections request each cold point of `points` at the same moment.
/// One simulation serves both, so each pair adds one `serve.coalesced`, and
/// the two responses must be the same bytes.
fn stampede(daemon: &Daemon, points: &[SimPoint], outcome: &mut Outcome) -> io::Result<()> {
    const CLIENTS: usize = 2;
    let barrier = Barrier::new(CLIENTS);
    let runs: Vec<io::Result<Vec<String>>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || -> io::Result<Vec<String>> {
                    let mut conn = daemon.connect()?;
                    let mut responses = Vec::new();
                    for (id, point) in points.iter().enumerate() {
                        let request = simulate_request(id as u64 + 1, point, None);
                        barrier.wait();
                        responses.push(conn.call(request.as_bytes())?);
                    }
                    Ok(responses)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("stampede client panicked"))
            .collect()
    });
    let mut runs = runs.into_iter();
    let (first, second) = (
        runs.next().expect("two clients")?,
        runs.next().expect("two clients")?,
    );
    for (a, b) in first.iter().zip(&second) {
        outcome.check(a == b && a.contains("\"ok\":true"), || {
            format!("stampede responses differ: {a:.120} / {b:.120}")
        });
    }
    Ok(())
}

/// Runs the whole ledger and returns the per-layer metrics and spans.
pub fn run(ctx: &Ctx, outcome: &mut Outcome) -> io::Result<(Vec<Metric>, Recorder)> {
    let mut rec = Recorder::new();
    let mut m: Vec<Metric> = Vec::new();
    let threads = wp_experiments::engine::available_threads();
    let cap = ctx
        .scale
        .stream_cap
        .unwrap_or(wp_workloads::DEFAULT_STREAM_MEMORY_CAP);
    let paper = ctx.scale.paper_options(ctx.seed);
    let paper_points = wp_experiments::run_all_plan(&paper).unique_points();
    let stress = ctx.scale.stress_options(ctx.seed);
    let stress_plan = wp_experiments::coverage::profile_plan(ctx.stress, &stress);
    let stress_points = stress_plan.unique_points();

    // ---- wp-experiments: the run_all process and what it is made of ----
    let (dir, cache_dir, _) = scratch_paths(ctx.scratch, "ledger-run_all")?;
    let process = run_all_process(
        &mut rec,
        "experiments.process",
        ctx.bins,
        &paper,
        Some(&cache_dir),
    )?;
    outcome.check(process.code == Some(0), || {
        format!("run_all exited {:?}: {:.300}", process.code, process.stderr)
    });
    let (matrix, rendered) = run_all_in_process(
        &mut rec,
        "experiments",
        &paper,
        threads,
        cap,
        Some(&dir.path().join("in-process")),
    );
    drop(dir);
    check_counts(
        "run_all plan",
        &plan_counts(&paper_points),
        &matrix,
        outcome,
    );
    let stdout = String::from_utf8_lossy(&process.stdout);
    outcome.check(stdout.trim_end() == rendered, || {
        "the in-process rendering differs from the run_all --json bytes".to_string()
    });
    let json = serde_json::from_str(&stdout).unwrap_or(Value::Null);
    let table4_err = fidelity(
        json.get("table4"),
        &[
            ("direct_mapped", "paper_direct_mapped"),
            ("set_associative", "paper_set_associative"),
        ],
    );
    let table5_err = fidelity(
        json.get("table5"),
        &[
            ("energy_delay_savings", "paper_energy_delay_savings"),
            ("performance_loss", "paper_performance_loss"),
        ],
    );
    outcome.check(table4_err.is_some() && table5_err.is_some(), || {
        "run_all --json lacks the Table 4/5 cells".to_string()
    });
    let (table4_err, table4_cells) = table4_err.unwrap_or((0.0, 0));
    let (table5_err, table5_cells) = table5_err.unwrap_or((0.0, 0));

    let (store_dir, store_cache, _) = scratch_paths(ctx.scratch, "ledger-matrix")?;
    let cache = MatrixCache::new(&store_cache);
    let results: Vec<&SimResult> = paper_points
        .iter()
        .map(|p| matrix.require_workload(&p.workload, &p.machine, &p.options))
        .collect();
    rec.span("experiments.matrix_store", |_| {
        for (point, result) in paper_points.iter().zip(&results) {
            cache.store(point, result);
        }
        ((), paper_points.len() as u64)
    });
    let loaded = rec.span("experiments.matrix_load", |_| {
        let loaded: Vec<Option<SimResult>> = paper_points.iter().map(|p| cache.load(p)).collect();
        (loaded, paper_points.len() as u64)
    });
    let bad_loads = loaded
        .iter()
        .zip(&results)
        .filter(|(l, r)| !l.as_ref().is_some_and(|l| l.exact_eq(r)))
        .count();
    outcome.check(bad_loads == 0, || {
        format!("{bad_loads} matrix-cache loads differ from the stored results")
    });
    drop(store_dir);

    // The process residual, at PROBE_OPS: alternating pairs of a
    // `run_all` process and its in-process twin, neither with a cache.
    let probe = paper.with_ops(ctx.scale.paper_ops.min(PROBE_OPS));
    for pair in 0..PROBE_PAIRS {
        let in_process =
            |rec: &mut Recorder| run_all_in_process(rec, "probe", &probe, threads, cap, None).1;
        let process =
            |rec: &mut Recorder| run_all_process(rec, "probe.process", ctx.bins, &probe, None);
        let (process, rendered) = if pair % 2 == 0 {
            let process = process(&mut rec)?;
            (process, in_process(&mut rec))
        } else {
            let rendered = in_process(&mut rec);
            (process(&mut rec)?, rendered)
        };
        outcome.check(
            process.code == Some(0)
                && String::from_utf8_lossy(&process.stdout).trim_end() == rendered,
            || "a probe run_all process differs from its in-process twin".to_string(),
        );
    }

    let engine = SimEngine::new(threads).with_stream_memory_cap(cap);
    let mut stress_matrix = SimMatrix::new();
    let complete = rec.span("experiments.streaming", |_| {
        let complete = engine.run_streaming(
            &mut stress_matrix,
            &stress_plan,
            &CancelToken::never(),
            &|_, _| {},
        );
        (complete, stress_points.len() as u64)
    });
    outcome.check(complete, || "run_streaming did not complete".to_string());
    check_counts(
        "stress plan",
        &plan_counts(&stress_points),
        &stress_matrix,
        outcome,
    );

    let (engine_s, _) = rec.total("experiments.engine");
    let (table4_s, _) = rec.total("experiments.table4");
    let (render_s, _) = rec.total("experiments.render");
    let (process_s, _) = rec.total("experiments.process");
    let lane_total = matrix.lane_points() + matrix.lane_scalar_fallback();
    m.extend([
        Metric::new("experiments.process_s", process_s),
        Metric::new("experiments.engine_s", engine_s),
        Metric::new("experiments.table4_s", table4_s),
        Metric::new("experiments.render_s", render_s),
        Metric::new("experiments.process_residual_s", probe_residual(&rec)),
        Metric::new(
            "experiments.streaming_s",
            rec.total("experiments.streaming").0,
        ),
        Metric::new(
            "experiments.matrix_load_us",
            rec.ns_per_call("experiments.matrix_load") / 1e3,
        ),
        Metric::new(
            "experiments.matrix_store_us",
            rec.ns_per_call("experiments.matrix_store") / 1e3,
        ),
        Metric::new(
            "experiments.lane_fill_frac",
            matrix.lane_points() as f64 / lane_total.max(1) as f64,
        ),
        Metric::new(
            "workloads.stream_dedup_x",
            matrix.ops_consumed() as f64 / matrix.ops_generated().max(1) as f64,
        ),
        Metric::new("fidelity.table4_err_pp", table4_err),
        Metric::new("fidelity.table5_err_pp", table5_err),
        Metric::new("fidelity.table4_cells", table4_cells as f64),
        Metric::new("fidelity.table5_cells", table5_cells as f64),
    ]);

    // ---- wp-workloads: generation, materialization, spill, replay ----
    let stream_keys = |points: &[SimPoint]| -> Vec<StreamKey> {
        let mut keys: Vec<StreamKey> = Vec::new();
        for p in points {
            let key = StreamKey::new(p.workload.clone(), p.options.ops, p.options.seed);
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys
    };
    let bench_keys = stream_keys(&paper_points);
    let scenario_keys = stream_keys(&stress_points);
    for key in &bench_keys {
        let WorkloadSpec::Benchmark(benchmark) = key.spec else {
            unreachable!("the run_all plan replays benchmark streams");
        };
        rec.span("workloads.gen_benchmark", |_| {
            let config = TraceConfig::new(benchmark)
                .with_ops(key.ops)
                .with_seed(key.seed);
            ((), drain(TraceGenerator::new(config)))
        });
    }
    for key in &scenario_keys {
        let WorkloadSpec::Scenario(scenario) = key.spec else {
            unreachable!("the stress plan replays scenario streams");
        };
        rec.span("workloads.gen_scenario", |_| {
            (
                (),
                drain(ScenarioGenerator::new(scenario, key.ops, key.seed)),
            )
        });
    }
    let mut resident = Vec::new();
    for key in &bench_keys {
        let stream = rec
            .span("workloads.materialize", |_| {
                let stream = SharedStream::materialize_capped(key, cap);
                let ops = stream.as_ref().map_or(0, |s| s.ops() as u64);
                (stream, ops)
            })
            .map_err(|e| io::Error::other(format!("{key}: {e}")))?;
        outcome.check(!stream.is_spilled(), || format!("{key} spilled"));
        resident.push(stream);
    }
    for stream in &resident {
        rec.span("workloads.replay_resident", |_| ((), replay(stream)));
    }
    for key in &scenario_keys {
        let stream = rec
            .span("workloads.spill", |_| {
                let stream = SharedStream::materialize_capped(key, cap);
                let ops = stream.as_ref().map_or(0, |s| s.ops() as u64);
                (stream, ops)
            })
            .map_err(|e| io::Error::other(format!("{key}: {e}")))?;
        outcome.check(stream.is_spilled(), || format!("{key} did not spill"));
        rec.span("workloads.replay_spilled", |_| ((), replay(&stream)));
    }
    for (metric, span) in [
        (
            "workloads.gen_benchmark_ns_per_op",
            "workloads.gen_benchmark",
        ),
        ("workloads.gen_scenario_ns_per_op", "workloads.gen_scenario"),
        ("workloads.materialize_ns_per_op", "workloads.materialize"),
        ("workloads.spill_ns_per_op", "workloads.spill"),
        (
            "workloads.replay_resident_ns_per_op",
            "workloads.replay_resident",
        ),
        (
            "workloads.replay_spilled_ns_per_op",
            "workloads.replay_spilled",
        ),
    ] {
        m.push(Metric::new(metric, rec.ns_per_call(span)));
    }

    // ---- per-op layers and the processor, over the run_all streams ----
    let mut counters = Counters::default();
    for stream in &resident {
        rec.span("layers", |rec| {
            per_op_layers(rec, stream, &mut counters);
            ((), stream.ops() as u64)
        });
    }
    drop(resident);
    let per_op = |count: u64| count as f64 / counters.ops.max(1) as f64;
    let branch_share = per_op(counters.branches);
    let mem_share = per_op(counters.mem_ops);
    let fetch_share = per_op(counters.fetches);
    let l2_share = per_op(counters.l2_per_run);
    let scalar = rec.ns_per_call("cpu.scalar");
    let replay_ns = rec.ns_per_call("workloads.replay_resident");
    let branch_ns = rec.ns_per_call("predictors.branch_update");
    let dprobe_ns = rec.ns_per_call(span_of(DPROBES[0].1));
    let ifetch_ns = rec.ns_per_call("cache.ifetch.parallel");
    let l2_ns = rec.ns_per_call("mem.l2");
    m.push(Metric::new("predictors.branch_update_ns", branch_ns));
    m.push(Metric::new(
        "predictors.mispredict_frac",
        counters.mispredictions as f64 / counters.predictions.max(1) as f64,
    ));
    for (_, metric) in DPROBES {
        m.push(Metric::new(metric, rec.ns_per_call(span_of(metric))));
    }
    for (width, name) in [
        (1, "cache.dprobe_lane_w1_ns"),
        (2, "cache.dprobe_lane_w2_ns"),
        (4, "cache.dprobe_lane_w4_ns"),
        (8, "cache.dprobe_lane_w8_ns"),
    ] {
        m.push(Metric::new(
            name,
            rec.ns_per_call(&format!("cache.dprobe_lane_w{width}")),
        ));
    }
    m.extend([
        Metric::new("cache.ifetch.parallel_ns", ifetch_ns),
        Metric::new(
            "cache.ifetch.waypred_ns",
            rec.ns_per_call("cache.ifetch.waypred"),
        ),
        Metric::new(
            "cache.waypred_first_hit_frac",
            counters.way_predictions_correct as f64 / counters.way_predictions.max(1) as f64,
        ),
        Metric::new(
            "cache.d_miss_frac",
            counters.d_misses as f64 / counters.d_accesses.max(1) as f64,
        ),
        Metric::new("mem.l2_ns", l2_ns),
        Metric::new(
            "mem.l2_miss_frac",
            counters.l2_misses as f64 / counters.l2_accesses.max(1) as f64,
        ),
        Metric::new("cpu.scalar_ns_per_op", scalar),
        Metric::new(
            "cpu.lane_ns_per_op_lane.w2",
            rec.ns_per_call("cpu.lanes_w2"),
        ),
        Metric::new(
            "cpu.lane_ns_per_op_lane.w4",
            rec.ns_per_call("cpu.lanes_w4"),
        ),
        Metric::new(
            "cpu.lane_ns_per_op_lane.w8",
            rec.ns_per_call("cpu.lanes_w8"),
        ),
        Metric::new("cpu.branch_per_op", branch_share),
        Metric::new("cpu.mem_per_op", mem_share),
        Metric::new("cpu.fetch_per_op", fetch_share),
        Metric::new("cpu.l2_per_op", l2_share),
        Metric::new(
            "cpu.sched_residual_ns_per_op",
            scalar
                - (replay_ns
                    + branch_share * branch_ns
                    + mem_share * dprobe_ns
                    + fetch_share * ifetch_ns
                    + l2_share * l2_ns),
        ),
    ]);

    // ---- wp-serve: protocol parse and render, and the round trip ----
    let serve_points = e2e::serve_point_set(&ctx.scale, ctx.seed);
    let mut serve_plan = wp_experiments::SimPlan::new();
    for point in &serve_points {
        serve_plan.add(point.clone());
    }
    let serve_matrix = engine.run(&serve_plan);
    let serve_results: Vec<&SimResult> = serve_points
        .iter()
        .map(|p| serve_matrix.require_workload(&p.workload, &p.machine, &p.options))
        .collect();
    let requests: Vec<String> = serve_points
        .iter()
        .enumerate()
        .map(|(id, p)| simulate_request(id as u64 + 1, p, None))
        .collect();
    let parsed_ok = rec.span("serve.parse_request", |_| {
        let mut ok = true;
        for _ in 0..ROUNDS {
            for request in &requests {
                ok &= black_box(parse_request(request.as_bytes())).is_ok();
            }
        }
        (ok, (ROUNDS * requests.len()) as u64)
    });
    outcome.check(parsed_ok, || "a serve request failed to parse".to_string());
    rec.span("serve.render_ok", |_| {
        for _ in 0..ROUNDS {
            for (id, result) in serve_results.iter().enumerate() {
                black_box(ok_response(id as u64 + 1, result));
            }
        }
        ((), (ROUNDS * serve_results.len()) as u64)
    });
    let stress_results: Vec<&SimResult> = stress_points
        .iter()
        .map(|p| stress_matrix.require_workload(&p.workload, &p.machine, &p.options))
        .collect();
    rec.span("serve.render_frame", |_| {
        for _ in 0..ROUNDS {
            for (index, result) in stress_results.iter().enumerate() {
                black_box(stream_point_response(1, index, result));
            }
        }
        ((), (ROUNDS * stress_results.len()) as u64)
    });

    let (serve_dir, serve_cache, socket) = scratch_paths(ctx.scratch, "ledger-serve")?;
    let daemon = Daemon::start(ctx.bins, &socket, &serve_cache, &ctx.scale.daemon_env())?;
    let mut conn = daemon.connect()?;
    let payload = sweep_request(
        1,
        &SweepPlanSpec::Points(serve_points.clone()),
        ctx.scale.serve_ops as u64,
        ctx.seed,
        None,
        None,
    );
    let prewarm = e2e::sweep(&mut conn, &payload, serve_points.len(), outcome)?;
    let reference: Vec<String> = prewarm.results.into_iter().flatten().collect();
    let same = reference.len() == serve_results.len()
        && reference
            .iter()
            .zip(&serve_results)
            .all(|(tail, result)| e2e::result_tail(&ok_response(1, result)) == Some(tail.as_str()));
    outcome.check(same, || {
        "the daemon's results differ from the in-process results".to_string()
    });
    // Without a reference the prewarm already failed; the round-trip
    // metrics are then left out of the result.
    let (mut p50, mut p99) = (f64::NAN, f64::NAN);
    if reference.len() == serve_points.len() {
        let stats = e2e::point_loop(
            &daemon,
            &serve_points,
            &reference,
            ctx.scale.requests_per_conn,
            ctx.seed,
            outcome,
        )?;
        p50 = percentile(&stats.latency_us, 50.0);
        p99 = percentile(&stats.latency_us, 99.0);
    }
    overrun_budget(&daemon, &serve_points[0], outcome)?;
    let coalesce_points: Vec<SimPoint> = serve_points
        .iter()
        .take(COALESCE_POINTS)
        .map(|p| {
            SimPoint::with_workload(
                p.workload.clone(),
                p.machine,
                p.options.with_ops(COALESCE_OPS),
            )
        })
        .collect();
    stampede(&daemon, &coalesce_points, outcome)?;
    let counters = e2e::daemon_counters(&mut conn)?;
    outcome.check(counters.shed == 1, || {
        format!("the daemon shed {} requests, expected 1", counters.shed)
    });
    outcome.check(counters.coalesced > 0, || {
        "no request of the stampede joined another's flight".to_string()
    });
    drop(conn);
    drop(daemon);
    let serve_cache = MatrixCache::new(&serve_cache);
    let loads = rec.span("serve.matrix_load", |_| {
        let mut found = 0usize;
        for _ in 0..ROUNDS {
            for point in &serve_points {
                found += black_box(serve_cache.load(point)).is_some() as usize;
            }
        }
        (found, (ROUNDS * serve_points.len()) as u64)
    });
    outcome.check(loads == ROUNDS * serve_points.len(), || {
        "the daemon's cache lacks a prewarmed point".to_string()
    });
    drop(serve_dir);
    let parse_us = rec.ns_per_call("serve.parse_request") / 1e3;
    let render_us = rec.ns_per_call("serve.render_ok") / 1e3;
    let load_us = rec.ns_per_call("serve.matrix_load") / 1e3;
    m.extend([
        Metric::new("serve.parse_request_us", parse_us),
        Metric::new("serve.render_ok_us", render_us),
        Metric::new(
            "serve.render_frame_us",
            rec.ns_per_call("serve.render_frame") / 1e3,
        ),
        Metric::new("serve.matrix_load_us", load_us),
        Metric::new("serve.roundtrip_p50_us", p50),
        Metric::new("serve.roundtrip_p99_us", p99),
        Metric::new(
            "serve.roundtrip_residual_us",
            p50 - (parse_us + load_us + render_us),
        ),
        Metric::new("serve.shed", counters.shed as f64),
        Metric::new("serve.coalesced", counters.coalesced as f64),
    ]);

    // Registry order, for a stable output.
    m.sort_by_key(|metric| {
        crate::report::PER_LAYER
            .iter()
            .position(|(name, _)| *name == metric.name)
            .expect("every ledger metric is registered")
    });
    Ok((m, rec))
}
