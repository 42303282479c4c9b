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

/// The daemon's command line.
struct ServeOptions {
    listen: String,
    workers: Option<usize>,
    queue_depth: usize,
    lane_depth: usize,
    sweep_threads: Option<usize>,
    default_deadline_ms: u64,
    max_conn_requests: u64,
    no_matrix_cache: bool,
    matrix_cache_dir: Option<std::path::PathBuf>,
    matrix_cache_cap: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            workers: None,
            queue_depth: 128,
            lane_depth: 32,
            sweep_threads: None,
            default_deadline_ms: 30_000,
            max_conn_requests: 1024,
            no_matrix_cache: false,
            matrix_cache_dir: None,
            matrix_cache_cap: None,
        }
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<ServeOptions, CliError> {
    let mut options = ServeOptions::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                options.listen = args.next().ok_or(CliError::MissingValue("--listen"))?;
            }
            "--workers" => options.workers = Some(parse_positive("--workers", args.next())?),
            "--queue-depth" => options.queue_depth = parse_positive("--queue-depth", args.next())?,
            "--lane-depth" => options.lane_depth = parse_positive("--lane-depth", args.next())?,
            "--sweep-threads" => {
                options.sweep_threads = Some(parse_positive("--sweep-threads", args.next())?);
            }
            "--default-deadline-ms" => {
                options.default_deadline_ms = parse_positive("--default-deadline-ms", args.next())?;
            }
            "--max-conn-requests" => {
                options.max_conn_requests = parse_positive("--max-conn-requests", args.next())?;
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
    let listen = Listen::parse(&options.listen);
    let mut config = ServerConfig::new(listen, service_from(&options));
    if let Some(workers) = options.workers {
        config.workers = workers;
    }
    config.queue_depth = options.queue_depth;
    config.lane_depth = options.lane_depth;
    config.default_deadline_ms = options.default_deadline_ms;
    config.max_conn_requests = options.max_conn_requests;

    signal::install();
    let server = match server::start(config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("error: cannot listen on {}: {error}", options.listen);
            std::process::exit(1);
        }
    };
    let scheme = if options.listen.contains('/') {
        "unix"
    } else {
        "tcp"
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
