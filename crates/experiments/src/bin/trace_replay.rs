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
use wp_experiments::runner::{
    exit_usage, parse_value, print_line, CliError, CliOptions, MachineConfig, RunOptions,
};
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

/// Parses the command line into the trace path and the shared flags
/// replay honours.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(PathBuf, CliOptions), String> {
    let mut trace: Option<PathBuf> = None;
    let mut cli = CliOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace = Some(parse_value("--trace", args.next())?),
            "--ops" | "--threads" | "--json" | "--no-matrix-cache" | "--matrix-cache-dir"
            | "--matrix-cache-cap" => cli.parse_flag(&arg, &mut args)?,
            other => return Err(CliError::UnknownFlag(other.to_string()).into()),
        }
    }
    Ok((trace.ok_or("missing required flag `--trace`")?, cli))
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
    let (trace, cli) =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|error| exit_usage(USAGE, error));

    let workload = match WorkloadSpec::from_trace_file(&trace) {
        Ok(workload) => workload,
        Err(error) => {
            eprintln!("error: cannot open trace {}: {error}", trace.display());
            std::process::exit(1);
        }
    };
    let (records, source) = match &workload {
        WorkloadSpec::Trace(handle) => (handle.records(), handle.source().to_string()),
        _ => unreachable!("from_trace_file returns a trace workload"),
    };
    if records == 0 {
        eprintln!("error: trace {} holds no ops", trace.display());
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
    // The shared engine/cache assembly, so replay and the artefact
    // binaries can never diverge on cache behaviour.
    let matrix = cli.engine().run(&plan);
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
        trace: trace.display().to_string(),
        source,
        records,
        replayed_ops,
        rows,
    };

    if cli.json {
        print_line(wp_experiments::report::to_json(&report));
        return;
    }
    print_line(format_args!(
        "trace {} (`{}`, {} records, replaying {} ops)",
        report.trace, report.source, report.records, report.replayed_ops
    ));
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
    print_line(table.render());
}
