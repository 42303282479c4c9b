//! The wp-serve daemon binary.
//!
//! Usage: `cargo run --release -p wp-serve --bin serve -- [--listen ADDR]
//! [--workers N] [--queue-depth N] [--lane-depth N] [--sweep-threads N]
//! [--default-deadline-ms N] [--max-conn-requests N] [--no-matrix-cache]
//! [--matrix-cache-dir PATH] [--matrix-cache-cap BYTES]`
//!
//! `--listen` takes a TCP address (`127.0.0.1:0` picks a free port — the
//! daemon prints the bound address) or a Unix socket path (anything
//! containing `/`). On SIGTERM/SIGINT, or a protocol `shutdown` request,
//! the daemon drains in-flight work, answers new requests with
//! `shutting_down`, and exits 0. See `docs/SERVICE.md`.

use std::time::Duration;

use wp_experiments::runner::{exit_usage, parse_positive, parse_value, print_line};
use wp_experiments::{CliError, CliOptions, PointService};
use wp_serve::server::{self, Listen, ServerConfig};
use wp_serve::signal;

const USAGE: &str = "usage: serve [--listen ADDR] [--workers N] [--queue-depth N] \
                     [--lane-depth N] [--sweep-threads N] \
                     [--default-deadline-ms N] [--max-conn-requests N] \
                     [--no-matrix-cache] [--matrix-cache-dir PATH] \
                     [--matrix-cache-cap BYTES]";

/// Where the daemon listens without `--listen`.
const DEFAULT_LISTEN: &str = "127.0.0.1:0";

/// The daemon's command line. An admission flag left unset keeps the
/// [`ServerConfig::new`] default.
#[derive(Default)]
struct ServeOptions {
    listen: Option<String>,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    lane_depth: Option<usize>,
    default_deadline_ms: Option<u64>,
    max_conn_requests: Option<u64>,
    /// `--sweep-threads` and the cache flags, which build the engine the
    /// way the batch binaries build theirs ([`CliOptions::engine`]), so
    /// warm daemon responses and `run_all` share one on-disk cache and one
    /// fault seed (`WPSDM_MATRIX_CACHE_FAULT_SEED`).
    engine: CliOptions,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<ServeOptions, CliError> {
    let mut options = ServeOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => options.listen = Some(parse_value("--listen", args.next())?),
            "--workers" => options.workers = Some(parse_positive("--workers", args.next())?),
            "--queue-depth" => {
                options.queue_depth = Some(parse_positive("--queue-depth", args.next())?);
            }
            "--lane-depth" => {
                options.lane_depth = Some(parse_positive("--lane-depth", args.next())?);
            }
            "--sweep-threads" => {
                options.engine.threads = Some(parse_positive("--sweep-threads", args.next())?);
            }
            "--default-deadline-ms" => {
                options.default_deadline_ms =
                    Some(parse_positive("--default-deadline-ms", args.next())?);
            }
            "--max-conn-requests" => {
                options.max_conn_requests =
                    Some(parse_positive("--max-conn-requests", args.next())?);
            }
            "--no-matrix-cache" | "--matrix-cache-dir" | "--matrix-cache-cap" => {
                options.engine.parse_flag(&arg, &mut args)?;
            }
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }
    Ok(options)
}

fn main() {
    let options =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|error| exit_usage(USAGE, error));
    let listen_spec = options.listen.as_deref().unwrap_or(DEFAULT_LISTEN);
    let listen = Listen::parse(listen_spec);
    let scheme = match listen {
        Listen::Unix(_) => "unix",
        Listen::Tcp(_) => "tcp",
    };
    let mut config = ServerConfig::new(listen, PointService::new(options.engine.engine()));
    config.workers = options.workers.unwrap_or(config.workers);
    config.queue_depth = options.queue_depth.unwrap_or(config.queue_depth);
    config.lane_depth = options.lane_depth.unwrap_or(config.lane_depth);
    config.default_deadline_ms = options
        .default_deadline_ms
        .unwrap_or(config.default_deadline_ms);
    config.max_conn_requests = options
        .max_conn_requests
        .unwrap_or(config.max_conn_requests);

    signal::install();
    let server = match server::start(config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("error: cannot listen on {listen_spec}: {error}");
            std::process::exit(1);
        }
    };
    // The bound address (with the actual port for `--listen host:0`) goes to
    // stdout, flushed, so wrappers can discover it.
    print_line(format_args!(
        "wp-serve: listening on {scheme}://{}",
        server.addr()
    ));

    while !signal::requested() && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("wp-serve: draining for shutdown");
    server.shutdown();
    server.join();
    eprintln!("wp-serve: drained; exiting");
}
