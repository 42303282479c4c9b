//! A CLI client for the wp-serve daemon — and the local reference it is
//! diffed against.
//!
//! Usage: `serve_client --connect ADDR [--workload NAME] [--ops N]
//! [--seed N] [--dpolicy LABEL] [--ipolicy LABEL] [--assoc N]
//! [--deadline-ms N] [--priority P] [--repeat K] [--sweep PLAN] [--health]
//! [--metrics] [--shutdown]` or `serve_client --batch [point flags]
//! [--sweep PLAN]`.
//!
//! The default action sends one `simulate` request and prints the response
//! payload. `--repeat K` opens K concurrent connections all asking for the
//! same point (a stampede: the daemon's singleflight executes one
//! simulation) and prints all K responses, one per line. `--sweep PLAN`
//! sends a v2 streaming sweep — `PLAN` is `run_all` or the path of a
//! profile-spec JSON file — and prints the streamed point frames sorted by
//! plan index, then the terminal frame. `--metrics` prints the daemon's v2
//! metrics snapshot. `--batch` skips the daemon entirely: it simulates the
//! same point (or whole sweep plan) in-process and renders it through the
//! same [`wp_serve::protocol`] functions — so
//! `diff <(serve_client --batch ...) <(serve_client --connect ...)` is the
//! byte-identity check CI runs, for single points and sweeps alike. A
//! machine the daemon rejects (`--assoc 3`, say) prints the daemon's
//! `bad_request` response in both modes.

use std::time::Duration;

use serde::Value;
use wp_experiments::runner::{parse_positive, parse_value};
use wp_experiments::{simulate_workload, CliError, MachineConfig, RunOptions, SimPoint};
use wp_serve::protocol::{self, ErrorCode, Request, SweepPlanSpec};
use wp_serve::Client;
use wp_workloads::{ProfileSpec, WorkloadSpec};

const USAGE: &str = "usage: serve_client (--connect ADDR | --batch) [--workload NAME] \
                     [--ops N] [--seed N] [--dpolicy LABEL] [--ipolicy LABEL] [--assoc N] \
                     [--deadline-ms N] [--priority P] [--repeat K] [--sweep PLAN] \
                     [--health] [--metrics] [--shutdown]";

enum Action {
    Simulate,
    Health,
    Metrics,
    Shutdown,
}

struct ClientOptions {
    connect: Option<String>,
    batch: bool,
    workload: String,
    ops: u64,
    seed: u64,
    dpolicy: Option<String>,
    ipolicy: Option<String>,
    assoc: Option<u64>,
    deadline_ms: Option<u64>,
    priority: Option<u8>,
    repeat: u64,
    sweep: Option<String>,
    action: Action,
}

impl Default for ClientOptions {
    fn default() -> Self {
        Self {
            connect: None,
            batch: false,
            workload: "gcc".to_string(),
            ops: 4_000,
            seed: 42,
            dpolicy: None,
            ipolicy: None,
            assoc: None,
            deadline_ms: None,
            priority: None,
            repeat: 1,
            sweep: None,
            action: Action::Simulate,
        }
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<ClientOptions, CliError> {
    let mut options = ClientOptions::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => {
                options.connect = Some(args.next().ok_or(CliError::MissingValue("--connect"))?);
            }
            "--batch" => options.batch = true,
            "--workload" => {
                options.workload = args.next().ok_or(CliError::MissingValue("--workload"))?;
            }
            "--ops" => options.ops = parse_positive("--ops", args.next())?,
            "--seed" => options.seed = parse_value("--seed", args.next())?,
            "--dpolicy" => {
                options.dpolicy = Some(args.next().ok_or(CliError::MissingValue("--dpolicy"))?);
            }
            "--ipolicy" => {
                options.ipolicy = Some(args.next().ok_or(CliError::MissingValue("--ipolicy"))?);
            }
            "--assoc" => options.assoc = Some(parse_positive("--assoc", args.next())?),
            "--deadline-ms" => {
                options.deadline_ms = Some(parse_positive("--deadline-ms", args.next())?)
            }
            "--priority" => {
                // Unlike the other numeric flags, 0 is meaningful here: it
                // is the most urgent fairness-lane priority.
                let value = args.next().ok_or(CliError::MissingValue("--priority"))?;
                match value.parse::<u8>() {
                    Ok(parsed) if parsed <= protocol::MAX_PRIORITY => {
                        options.priority = Some(parsed);
                    }
                    _ => return Err(CliError::InvalidValue("--priority", value)),
                }
            }
            "--repeat" => options.repeat = parse_positive("--repeat", args.next())?,
            "--sweep" => {
                options.sweep = Some(args.next().ok_or(CliError::MissingValue("--sweep"))?);
            }
            "--health" => options.action = Action::Health,
            "--metrics" => options.action = Action::Metrics,
            "--shutdown" => options.action = Action::Shutdown,
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }
    Ok(options)
}

/// Builds the simulation point the flags describe, mirroring the daemon's
/// request validation so a bad flag fails here with exit 2 instead of as a
/// `bad_request` response.
fn point_from(options: &ClientOptions) -> Result<SimPoint, CliError> {
    let Some(workload) = WorkloadSpec::parse(&options.workload) else {
        return Err(CliError::InvalidValue(
            "--workload",
            options.workload.clone(),
        ));
    };
    let mut machine = MachineConfig::baseline();
    if let Some(label) = &options.dpolicy {
        let Some(dpolicy) = wp_cache::DCachePolicy::parse(label) else {
            return Err(CliError::InvalidValue("--dpolicy", label.clone()));
        };
        machine = machine.with_dpolicy(dpolicy);
    }
    if let Some(label) = &options.ipolicy {
        let Some(ipolicy) = wp_cache::ICachePolicy::parse(label) else {
            return Err(CliError::InvalidValue("--ipolicy", label.clone()));
        };
        machine = machine.with_ipolicy(ipolicy);
    }
    if let Some(assoc) = options.assoc {
        machine = machine.with_l1d(machine.l1d.with_associativity(assoc as usize));
    }
    let run = RunOptions::default()
        .with_ops(options.ops as usize)
        .with_seed(options.seed);
    Ok(SimPoint::with_workload(workload, machine, run))
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

fn usage_fail(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Resolves `--sweep PLAN`: the literal `run_all`, or the path of a
/// profile-spec JSON file.
fn sweep_spec(plan: &str) -> Result<SweepPlanSpec, String> {
    if plan == "run_all" {
        return Ok(SweepPlanSpec::RunAll);
    }
    let text = std::fs::read_to_string(plan)
        .map_err(|e| format!("cannot read profile spec `{plan}`: {e}"))?;
    let profile = ProfileSpec::from_json(&text, plan).map_err(|e| format!("{e}"))?;
    Ok(SweepPlanSpec::Profile(profile))
}

/// The sweep plan the daemon will expand for `spec` — the same expansion
/// [`wp_serve::protocol::parse_request`] performs, so the batch rendering
/// and the daemon's stream are byte-comparable per point.
fn sweep_plan(spec: &SweepPlanSpec, ops: u64, seed: u64) -> wp_experiments::SimPlan {
    let options = RunOptions::default().with_ops(ops as usize).with_seed(seed);
    match spec {
        SweepPlanSpec::RunAll => wp_experiments::run_all_plan(&options),
        SweepPlanSpec::Profile(profile) => {
            wp_experiments::coverage::profile_plan(profile, &options)
        }
        SweepPlanSpec::Points(points) => {
            let mut plan = wp_experiments::SimPlan::new();
            for point in points {
                plan.add(point.clone());
            }
            plan
        }
    }
}

/// Simulates the whole sweep plan locally and prints the same frames the
/// daemon would stream (sorted by plan index) plus the summary — the batch
/// half of the CI sweep byte-identity check.
fn run_batch_sweep(spec: &SweepPlanSpec, ops: u64, seed: u64) {
    let plan = sweep_plan(spec, ops, seed);
    let requested = plan.len();
    let points = plan.unique_points();
    for (index, point) in points.iter().enumerate() {
        let result = simulate_workload(&point.workload, &point.machine, &point.options);
        println!("{}", protocol::stream_point_response(1, index, &result));
    }
    println!(
        "{}",
        protocol::sweep_summary_response(1, requested, points.len(), points.len())
    );
}

/// Streams one sweep through the daemon, printing point frames sorted by
/// plan index, then the terminal frame.
fn run_daemon_sweep(connect: &str, request: &str) {
    let mut client = Client::connect(connect).unwrap_or_else(|e| fail(e));
    let _ = client.set_timeout(Duration::from_secs(600));
    let mut frames: Vec<(u64, String)> = Vec::new();
    let terminal = client
        .sweep(request, |frame| {
            let index = serde_json::from_str(frame)
                .ok()
                .and_then(|v| v.get("index").and_then(Value::as_u64))
                .unwrap_or(u64::MAX);
            frames.push((index, frame.to_string()));
        })
        .unwrap_or_else(|e| fail(e));
    // Arrival order is completion order; sort by plan index so the stream
    // compares line-for-line against the batch rendering.
    frames.sort_by_key(|(index, _)| *index);
    for (_, frame) in &frames {
        println!("{frame}");
    }
    println!("{terminal}");
}

fn main() {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("error: {error}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    if options.batch {
        // The local reference path: same simulation, same renderer, no
        // daemon — what daemon responses are diffed against.
        if let Some(plan) = &options.sweep {
            let spec = sweep_spec(plan).unwrap_or_else(|e| usage_fail(e));
            run_batch_sweep(&spec, options.ops, options.seed);
            return;
        }
        let point = match point_from(&options) {
            Ok(point) => point,
            Err(error) => usage_fail(error),
        };
        // Through the daemon's own parser, so a machine the daemon rejects
        // prints its `bad_request` bytes here instead of panicking.
        let request = protocol::simulate_request(1, &point, None);
        match protocol::parse_request(request.as_bytes()) {
            Ok(Request::Simulate { point, .. }) => {
                let result = simulate_workload(&point.workload, &point.machine, &point.options);
                println!("{}", protocol::ok_response(1, &result));
            }
            Ok(_) => unreachable!("a simulate request parses as simulate"),
            Err((v, id, message)) => println!(
                "{}",
                protocol::error_response(v, id, ErrorCode::BadRequest, &message)
            ),
        }
        return;
    }

    let Some(connect) = options.connect.clone() else {
        usage_fail("flag `--connect` (or `--batch`) is required");
    };

    if let Some(plan) = &options.sweep {
        let spec = sweep_spec(plan).unwrap_or_else(|e| usage_fail(e));
        let request = protocol::sweep_request(
            1,
            &spec,
            options.ops,
            options.seed,
            options.deadline_ms,
            options.priority,
        );
        run_daemon_sweep(&connect, &request);
        return;
    }

    let request = match options.action {
        Action::Health => "{\"v\":1,\"id\":1,\"type\":\"health\"}".to_string(),
        Action::Metrics => protocol::metrics_request(1),
        Action::Shutdown => "{\"v\":1,\"id\":1,\"type\":\"shutdown\"}".to_string(),
        Action::Simulate => {
            let point = match point_from(&options) {
                Ok(point) => point,
                Err(error) => usage_fail(error),
            };
            match options.priority {
                // A priority makes it a v2 request; without one the frozen
                // v1 bytes are sent, which CI's compat step relies on.
                Some(priority) => protocol::simulate_request_v(
                    protocol::PROTOCOL_V2,
                    1,
                    &point,
                    options.deadline_ms,
                    Some(priority),
                ),
                None => protocol::simulate_request(1, &point, options.deadline_ms),
            }
        }
    };

    if options.repeat == 1 {
        let mut client = Client::connect(&connect).unwrap_or_else(|e| fail(e));
        let _ = client.set_timeout(Duration::from_secs(600));
        let response = client.request(&request).unwrap_or_else(|e| fail(e));
        println!("{response}");
        return;
    }

    // A stampede: `--repeat K` concurrent connections, every one asking for
    // the same point at the same time. The daemon's singleflight coalesces
    // them onto one simulation; every response carries the same bytes.
    let responses: Vec<Result<String, std::io::Error>> = std::thread::scope(|scope| {
        let request = &request;
        let connect = &connect;
        let handles: Vec<_> = (0..options.repeat)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(connect)?;
                    client.set_timeout(Duration::from_secs(600))?;
                    client.request(request)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stampede thread panicked"))
            .collect()
    });
    for response in responses {
        match response {
            Ok(response) => println!("{response}"),
            Err(error) => fail(error),
        }
    }
}
