//! Replays a recorded trace file through the simulator under a set of
//! d-cache policies.
//!
//! The trace streams off disk through the same engine path as the synthetic
//! workloads — the trace's content digest (not its path) is the dedup key,
//! so overlapping plans over the same capture simulate once. Because every
//! policy sees the *identical* reference stream, the comparison isolates
//! the predictor policies from workload generation noise.
//!
//! Usage: `cargo run --release -p wp-experiments --bin trace_replay --
//! --trace PATH [--ops N] [--threads N] [--json] [--no-matrix-cache]
//! [--matrix-cache-dir PATH]`
//!
//! Replays participate in the persistent matrix cache keyed by the trace's
//! content digest; `--no-matrix-cache` forces every policy to re-simulate
//! (deterministic-run auditing, CI).

use std::path::PathBuf;

use serde::Serialize;
use wp_cache::DCachePolicy;
use wp_experiments::engine::{SimPlan, SimPoint};
use wp_experiments::report::{ratio, TextTable};
use wp_experiments::runner::{parse_positive, CliOptions, MachineConfig, RunOptions};
use wp_workloads::WorkloadSpec;

const USAGE: &str = "usage: trace_replay --trace PATH [--ops N] [--threads N] [--json] \
                     [--no-matrix-cache] [--matrix-cache-dir PATH] [--matrix-cache-cap BYTES]";

/// The policies replayed against the recorded stream (the baseline first).
const POLICIES: [DCachePolicy; 4] = [
    DCachePolicy::Parallel,
    DCachePolicy::Sequential,
    DCachePolicy::WayPredictPc,
    DCachePolicy::SelDmWayPredict,
];

struct Cli {
    trace: PathBuf,
    ops: Option<usize>,
    threads: Option<usize>,
    json: bool,
    no_matrix_cache: bool,
    matrix_cache_dir: Option<PathBuf>,
    matrix_cache_cap: Option<u64>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut trace: Option<PathBuf> = None;
    let mut ops: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut json = false;
    let mut no_matrix_cache = false;
    let mut matrix_cache_dir: Option<PathBuf> = None;
    let mut matrix_cache_cap: Option<u64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--no-matrix-cache" => no_matrix_cache = true,
            "--matrix-cache-dir" => {
                matrix_cache_dir = Some(PathBuf::from(
                    args.next()
                        .ok_or("flag `--matrix-cache-dir` requires a value")?,
                ))
            }
            "--matrix-cache-cap" => {
                matrix_cache_cap = Some(
                    parse_positive("--matrix-cache-cap", args.next()).map_err(|e| e.to_string())?,
                );
            }
            "--trace" => {
                trace = Some(PathBuf::from(
                    args.next().ok_or("flag `--trace` requires a value")?,
                ))
            }
            "--ops" => {
                ops = Some(parse_positive("--ops", args.next()).map_err(|e| e.to_string())?);
            }
            "--threads" => {
                threads =
                    Some(parse_positive("--threads", args.next()).map_err(|e| e.to_string())?);
            }
            "--json" => json = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Cli {
        trace: trace.ok_or("missing required flag `--trace`")?,
        ops,
        threads,
        json,
        no_matrix_cache,
        matrix_cache_dir,
        matrix_cache_cap,
    })
}

/// One policy's results over the replayed stream.
#[derive(Debug, Serialize)]
struct ReplayRow {
    policy: String,
    cycles: u64,
    ipc: f64,
    miss_rate_percent: f64,
    way_prediction_accuracy: f64,
    relative_energy: f64,
    relative_energy_delay: f64,
}

/// The whole replay report.
#[derive(Debug, Serialize)]
struct ReplayResult {
    trace: String,
    source: String,
    records: u64,
    replayed_ops: usize,
    rows: Vec<ReplayRow>,
}

fn main() {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("error: {error}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    let workload = match WorkloadSpec::from_trace_file(&cli.trace) {
        Ok(workload) => workload,
        Err(error) => {
            eprintln!("error: cannot open trace {}: {error}", cli.trace.display());
            std::process::exit(1);
        }
    };
    let (records, source) = match &workload {
        WorkloadSpec::Trace(handle) => (handle.records(), handle.source().to_string()),
        _ => unreachable!("from_trace_file returns a trace workload"),
    };
    if records == 0 {
        eprintln!("error: trace {} holds no ops", cli.trace.display());
        std::process::exit(1);
    }
    // The stream truncates at the recording's end, so never report more
    // ops than the trace holds.
    let replayed_ops = cli.ops.unwrap_or(usize::MAX).min(records as usize);
    // The seed is irrelevant for replay but part of the dedup key; pin it.
    let options = RunOptions::default().with_ops(replayed_ops).with_seed(0);

    let mut plan = SimPlan::new();
    for policy in POLICIES {
        plan.add(SimPoint::with_workload(
            workload.clone(),
            MachineConfig::baseline().with_dpolicy(policy),
            options,
        ));
    }
    // Reuse the shared engine/cache assembly from the common CLI options,
    // so replay and the artefact binaries can never diverge on cache
    // behaviour.
    let engine = CliOptions {
        run: options,
        json: cli.json,
        threads: cli.threads,
        no_matrix_cache: cli.no_matrix_cache,
        matrix_cache_dir: cli.matrix_cache_dir.clone(),
        matrix_cache_cap: cli.matrix_cache_cap,
        stream_cap: None,
        profile: None,
        health_json: None,
    }
    .engine();
    let matrix = engine.run(&plan);
    eprintln!(
        "trace_replay: {} gangs, {} streams materialized, \
         {} ops generated for {} ops consumed ({:.2}x stream dedup); \
         {} lane batches covering {} points, {} width-1 units",
        matrix.gangs(),
        matrix.streams_materialized(),
        matrix.ops_generated(),
        matrix.ops_consumed(),
        matrix.ops_consumed() as f64 / matrix.ops_generated().max(1) as f64,
        matrix.lane_batches(),
        matrix.lane_points(),
        matrix.lane_scalar_fallback(),
    );
    eprintln!("trace_replay: cache health: {}", matrix.cache_health());

    let baseline_machine = MachineConfig::baseline().with_dpolicy(POLICIES[0]);
    let baseline = matrix.require_workload(&workload, &baseline_machine, &options);
    let rows = POLICIES
        .iter()
        .map(|&policy| {
            let machine = MachineConfig::baseline().with_dpolicy(policy);
            let result = matrix.require_workload(&workload, &machine, &options);
            let metrics = result.dcache_relative_to(baseline);
            ReplayRow {
                policy: policy.label().to_string(),
                cycles: result.cycles,
                ipc: result.activity.ipc(),
                miss_rate_percent: result.dcache.miss_rate_percent(),
                way_prediction_accuracy: result.dcache.way_prediction_accuracy(),
                relative_energy: metrics.relative_energy,
                relative_energy_delay: metrics.relative_energy_delay,
            }
        })
        .collect();

    let report = ReplayResult {
        trace: cli.trace.display().to_string(),
        source,
        records,
        replayed_ops,
        rows,
    };

    if cli.json {
        println!("{}", wp_experiments::report::to_json(&report));
        return;
    }
    println!(
        "trace {} (`{}`, {} records, replaying {} ops)",
        report.trace, report.source, report.records, report.replayed_ops
    );
    let mut table = TextTable::new(vec![
        "policy",
        "cycles",
        "IPC",
        "miss%",
        "waypred acc",
        "rel E",
        "rel ED",
    ]);
    for row in &report.rows {
        table.add_row(vec![
            row.policy.clone(),
            row.cycles.to_string(),
            format!("{:.3}", row.ipc),
            format!("{:.2}", row.miss_rate_percent),
            format!("{:.3}", row.way_prediction_accuracy),
            ratio(row.relative_energy),
            ratio(row.relative_energy_delay),
        ]);
    }
    println!("{}", table.render());
}
