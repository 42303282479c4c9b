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

use std::io::Write;
use std::time::Duration;

use wp_experiments::runner::{engine_from_flags, parse_positive};
use wp_experiments::{CliError, PointService};
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
    sweep_threads: Option<usize>,
    default_deadline_ms: Option<u64>,
    max_conn_requests: Option<u64>,
    no_matrix_cache: bool,
    matrix_cache_dir: Option<std::path::PathBuf>,
    matrix_cache_cap: Option<u64>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<ServeOptions, CliError> {
    let mut options = ServeOptions::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                options.listen = Some(args.next().ok_or(CliError::MissingValue("--listen"))?);
            }
            "--workers" => options.workers = Some(parse_positive("--workers", args.next())?),
            "--queue-depth" => {
                options.queue_depth = Some(parse_positive("--queue-depth", args.next())?);
            }
            "--lane-depth" => {
                options.lane_depth = Some(parse_positive("--lane-depth", args.next())?);
            }
            "--sweep-threads" => {
                options.sweep_threads = Some(parse_positive("--sweep-threads", args.next())?);
            }
            "--default-deadline-ms" => {
                options.default_deadline_ms =
                    Some(parse_positive("--default-deadline-ms", args.next())?);
            }
            "--max-conn-requests" => {
                options.max_conn_requests =
                    Some(parse_positive("--max-conn-requests", args.next())?);
            }
            "--no-matrix-cache" => options.no_matrix_cache = true,
            "--matrix-cache-dir" => {
                let dir = args
                    .next()
                    .ok_or(CliError::MissingValue("--matrix-cache-dir"))?;
                options.matrix_cache_dir = Some(std::path::PathBuf::from(dir));
            }
            "--matrix-cache-cap" => {
                options.matrix_cache_cap = Some(parse_positive("--matrix-cache-cap", args.next())?);
            }
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }
    Ok(options)
}

/// The shared service the options describe: one engine of
/// `--sweep-threads` workers that runs every point and sweep, with the same
/// cache wiring as the batch binaries ([`engine_from_flags`]), so warm
/// daemon responses and `run_all` share one on-disk cache and one fault
/// seed (`WPSDM_MATRIX_CACHE_FAULT_SEED`).
fn service_from(options: &ServeOptions) -> PointService {
    PointService::new(engine_from_flags(
        options.sweep_threads,
        options.no_matrix_cache,
        options.matrix_cache_dir.as_deref(),
        options.matrix_cache_cap,
    ))
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
    let listen_spec = options.listen.as_deref().unwrap_or(DEFAULT_LISTEN);
    let listen = Listen::parse(listen_spec);
    let scheme = match listen {
        Listen::Unix(_) => "unix",
        Listen::Tcp(_) => "tcp",
    };
    let mut config = ServerConfig::new(listen, service_from(&options));
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
    // stdout so wrappers can discover it; flush before blocking.
    println!("wp-serve: listening on {scheme}://{}", server.addr());
    let _ = std::io::stdout().flush();

    while !signal::requested() && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("wp-serve: draining for shutdown");
    server.shutdown();
    server.join();
    eprintln!("wp-serve: drained; exiting");
}
