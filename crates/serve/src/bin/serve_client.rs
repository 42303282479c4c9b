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
//! metrics snapshot. `--batch` skips the daemon entirely: it builds the
//! request `--connect` would send, parses it with the daemon's own
//! [`wp_serve::protocol::parse_request`], simulates the point (or every
//! point of the expanded sweep plan) in-process and renders it through the
//! same [`wp_serve::protocol`] functions — so
//! `diff <(serve_client --batch ...) <(serve_client --connect ...)` is the
//! byte-identity check CI runs, for single points and sweeps alike. A
//! machine or a plan the daemon rejects (`--assoc 3`, or a plan of more
//! than 4,096 unique points) prints the daemon's `bad_request` response in
//! both modes. Only a daemon can answer `--health`, `--metrics`,
//! `--shutdown` and `--repeat`, so `--batch` refuses them.

use std::time::Duration;

use serde::Value;
use wp_experiments::runner::{exit_usage, parse_positive, parse_value, print_line};
use wp_experiments::{simulate_workload, CliError, MachineConfig, RunOptions, SimPoint};
use wp_serve::protocol::{self, ErrorCode, Request, SweepPlanSpec, SweepRequest};
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
    repeat: Option<u64>,
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
            repeat: None,
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
            "--connect" => options.connect = Some(parse_value("--connect", args.next())?),
            "--batch" => options.batch = true,
            "--workload" => options.workload = parse_value("--workload", args.next())?,
            "--ops" => options.ops = parse_positive("--ops", args.next())?,
            "--seed" => options.seed = parse_value("--seed", args.next())?,
            "--dpolicy" => options.dpolicy = Some(parse_value("--dpolicy", args.next())?),
            "--ipolicy" => options.ipolicy = Some(parse_value("--ipolicy", args.next())?),
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
            "--repeat" => options.repeat = Some(parse_positive("--repeat", args.next())?),
            "--sweep" => options.sweep = Some(parse_value("--sweep", args.next())?),
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

/// The v2 `sweep` request for `--sweep PLAN`, where `PLAN` is the literal
/// `run_all` or the path of a profile-spec JSON file.
fn sweep_request(options: &ClientOptions, plan: &str) -> String {
    let spec = if plan == "run_all" {
        SweepPlanSpec::RunAll
    } else {
        let text = std::fs::read_to_string(plan).unwrap_or_else(|e| {
            exit_usage(USAGE, format!("cannot read profile spec `{plan}`: {e}"))
        });
        SweepPlanSpec::Profile(
            ProfileSpec::from_json(&text, plan).unwrap_or_else(|e| exit_usage(USAGE, e)),
        )
    };
    protocol::sweep_request(
        1,
        &spec,
        options.ops,
        options.seed,
        options.deadline_ms,
        options.priority,
    )
}

/// The batch reference: answers `request` in-process as the daemon would,
/// through the daemon's own parser ([`protocol::parse_request`]) and
/// renderers, so a request the daemon refuses prints its `bad_request`
/// bytes here too. A sweep prints its point frames in plan order, then the
/// summary.
fn run_batch(request: &str) {
    let simulate =
        |point: &SimPoint| simulate_workload(&point.workload, &point.machine, &point.options);
    match protocol::parse_request(request.as_bytes()) {
        Ok(Request::Simulate { v, id, point, .. }) => {
            print_line(protocol::ok_response_for(v, id, &simulate(&point)));
        }
        Ok(Request::Sweep(SweepRequest {
            id,
            points,
            requested,
            ..
        })) => {
            for (index, point) in points.iter().enumerate() {
                print_line(protocol::stream_point_response(id, index, &simulate(point)));
            }
            print_line(protocol::sweep_summary_response(
                id,
                requested,
                points.len(),
                points.len(),
            ));
        }
        Ok(_) => unreachable!("the batch path builds only simulate and sweep requests"),
        Err((v, id, message)) => print_line(protocol::error_response(
            v,
            id,
            ErrorCode::BadRequest,
            &message,
        )),
    }
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
        print_line(frame);
    }
    print_line(terminal);
}

/// The request the flags ask for: what `--connect` sends and what
/// `--batch` answers in-process.
fn request_from(options: &ClientOptions) -> String {
    if let Some(plan) = &options.sweep {
        return sweep_request(options, plan);
    }
    match options.action {
        Action::Health => "{\"v\":1,\"id\":1,\"type\":\"health\"}".to_string(),
        Action::Metrics => protocol::metrics_request(1),
        Action::Shutdown => "{\"v\":1,\"id\":1,\"type\":\"shutdown\"}".to_string(),
        Action::Simulate => {
            let point = point_from(options).unwrap_or_else(|e| exit_usage(USAGE, e));
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
    }
}

fn main() {
    let options =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|error| exit_usage(USAGE, error));
    if options.batch {
        // The local reference path: the request `--connect` would send,
        // answered in-process — what daemon responses are diffed against.
        let daemon_only = match options.action {
            Action::Health => Some("--health"),
            Action::Metrics => Some("--metrics"),
            Action::Shutdown => Some("--shutdown"),
            Action::Simulate => options.repeat.map(|_| "--repeat"),
        };
        if let Some(flag) = daemon_only {
            exit_usage(
                USAGE,
                format!("flag `{flag}` needs a daemon (`--connect`), not `--batch`"),
            );
        }
        run_batch(&request_from(&options));
        return;
    }

    let Some(connect) = options.connect.clone() else {
        exit_usage(USAGE, "flag `--connect` (or `--batch`) is required");
    };
    let request = request_from(&options);

    if options.sweep.is_some() {
        run_daemon_sweep(&connect, &request);
        return;
    }

    let repeat = options.repeat.unwrap_or(1);
    if repeat == 1 {
        let mut client = Client::connect(&connect).unwrap_or_else(|e| fail(e));
        let _ = client.set_timeout(Duration::from_secs(600));
        let response = client.request(&request).unwrap_or_else(|e| fail(e));
        print_line(response);
        return;
    }

    // A stampede: `--repeat K` concurrent connections, every one asking for
    // the same point at the same time. The daemon's singleflight coalesces
    // them onto one simulation; every response carries the same bytes.
    let responses: Vec<Result<String, std::io::Error>> = std::thread::scope(|scope| {
        let request = &request;
        let connect = &connect;
        let handles: Vec<_> = (0..repeat)
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
            Ok(response) => print_line(response),
            Err(error) => fail(error),
        }
    }
}
