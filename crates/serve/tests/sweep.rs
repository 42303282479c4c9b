//! Protocol v2 sweep streaming against an in-process daemon: the full
//! `run_all` plan streams one frame per point, byte-identical to the batch
//! renderer, executes through one gang-scheduled engine pass when cold,
//! replays warm from the cache without re-executing, and coexists with
//! interactive v1 point requests on other connections (fairness lanes plus
//! the sweep worker reservation). A sweep's deadline also stops a stream
//! build in flight, spill file and all, and a one-point sweep walks its
//! stream live, with no spill file at all.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use serde::Value;
use wp_cache::DCachePolicy;
use wp_experiments::{
    simulate_workload, MachineConfig, MatrixCache, PointService, RunOptions, SimEngine, SimPoint,
};
use wp_serve::protocol::{self, SweepPlanSpec};
use wp_serve::server::{self, Listen, RunningServer, ServerConfig};
use wp_serve::Client;
use wp_workloads::Benchmark;

/// Sweep-level ops: small enough that the full run_all plan simulates in
/// seconds, large enough to exercise the real engine.
const SWEEP_OPS: u64 = 2_000;

fn start(configure: impl FnOnce(&mut ServerConfig)) -> RunningServer {
    let mut config = ServerConfig::new(
        Listen::Tcp("127.0.0.1:0".to_string()),
        PointService::new(SimEngine::default()),
    );
    config.workers = 2;
    configure(&mut config);
    server::start(config).expect("daemon starts on an ephemeral port")
}

fn client(server: &RunningServer) -> Client {
    let client = Client::connect(server.addr()).expect("client connects");
    client
        .set_timeout(Duration::from_secs(300))
        .expect("timeout set");
    client
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wpsdm-sweep-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stop(server: RunningServer) {
    server.shutdown();
    server.join();
}

/// The plan the daemon expands for `{"plan":"run_all"}` at these ops: the
/// deduplicated points in first-seen order, plus the duplicate-inclusive
/// request count.
fn run_all_points(ops: u64) -> (usize, Vec<SimPoint>) {
    let options = RunOptions::default().with_ops(ops as usize).with_seed(42);
    let plan = wp_experiments::run_all_plan(&options);
    (plan.len(), plan.unique_points())
}

/// Streams one sweep, returning `(frames sorted by plan index, terminal)`.
fn run_sweep(client: &mut Client, request: &str) -> (Vec<String>, String) {
    let mut frames: Vec<(u64, String)> = Vec::new();
    let terminal = client
        .sweep(request, |frame| {
            let index = serde_json::from_str(frame)
                .ok()
                .and_then(|v| v.get("index").and_then(Value::as_u64))
                .expect("stream frames carry an index");
            frames.push((index, frame.to_string()));
        })
        .expect("sweep streams to completion");
    frames.sort_by_key(|(index, _)| *index);
    (
        frames.into_iter().map(|(_, frame)| frame).collect(),
        terminal,
    )
}

fn metric(metrics: &Value, path: &[&str]) -> u64 {
    let mut value = metrics;
    for key in path {
        value = value
            .get(key)
            .unwrap_or_else(|| panic!("metrics field {path:?}"));
    }
    value
        .as_u64()
        .unwrap_or_else(|| panic!("metrics field {path:?} is numeric"))
}

#[test]
fn a_cold_run_all_sweep_streams_byte_identical_frames_in_one_engine_pass() {
    let dir = temp_dir("cold");
    let server = start(|config| {
        config.service =
            PointService::new(SimEngine::default().with_matrix_cache(MatrixCache::new(&dir)));
    });
    let (requested, points) = run_all_points(SWEEP_OPS);

    // The reference bytes: every point simulated by the batch path and
    // rendered by the same stream renderer.
    let expected: Vec<String> = points
        .iter()
        .enumerate()
        .map(|(index, point)| {
            let result = simulate_workload(&point.workload, &point.machine, &point.options);
            protocol::stream_point_response(9, index, &result)
        })
        .collect();

    let request = protocol::sweep_request(9, &SweepPlanSpec::RunAll, SWEEP_OPS, 42, None, None);
    let mut client = client(&server);
    let (frames, terminal) = run_sweep(&mut client, &request);
    assert_eq!(
        terminal,
        protocol::sweep_summary_response(9, requested, points.len(), points.len()),
        "a completed sweep ends with the exact summary frame"
    );
    assert_eq!(frames.len(), points.len(), "one frame per unique point");
    for (index, (frame, expected)) in frames.iter().zip(&expected).enumerate() {
        assert_eq!(
            frame, expected,
            "streamed point {index} diverges from batch"
        );
    }
    assert_eq!(
        server.service().executed(),
        points.len() as u64,
        "a cold sweep executes every point exactly once"
    );

    let metrics = client
        .request(&protocol::metrics_request(10))
        .expect("metrics responds");
    let metrics = serde_json::from_str(&metrics).expect("metrics is JSON");
    let metrics = metrics.get("metrics").expect("metrics envelope");
    assert_eq!(
        metric(metrics, &["sweeps", "engine_passes"]),
        1,
        "a cold, uncontended sweep gang-schedules exactly once"
    );
    assert_eq!(metric(metrics, &["sweeps", "completed"]), 1);
    assert_eq!(
        metric(metrics, &["sweeps", "points_streamed"]),
        points.len() as u64
    );

    // Warm replay: the same sweep again must stream the same bytes from
    // the cache without executing or gang-scheduling anything new.
    let (warm_frames, warm_terminal) = run_sweep(&mut client, &request);
    assert_eq!(warm_frames, frames, "warm frames are byte-identical");
    assert_eq!(warm_terminal, terminal);
    assert_eq!(
        server.service().executed(),
        points.len() as u64,
        "the warm replay executes nothing"
    );
    let metrics = client
        .request(&protocol::metrics_request(11))
        .expect("metrics responds");
    let metrics = serde_json::from_str(&metrics).expect("metrics is JSON");
    let metrics = metrics.get("metrics").expect("metrics envelope");
    assert_eq!(
        metric(metrics, &["sweeps", "engine_passes"]),
        1,
        "a fully warm sweep never touches the engine"
    );
    assert_eq!(metric(metrics, &["sweeps", "completed"]), 2);

    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_v1_point_request_completes_while_a_sweep_streams() {
    let dir = temp_dir("fairness");
    let server = start(|config| {
        config.service =
            PointService::new(SimEngine::default().with_matrix_cache(MatrixCache::new(&dir)));
    });
    // Enough work per point that the sweep is still streaming when the
    // interactive request lands.
    let sweep_request =
        protocol::sweep_request(1, &SweepPlanSpec::RunAll, 60_000, 42, None, Some(9));
    let summary = std::thread::scope(|scope| {
        let sweeper = scope.spawn(|| {
            let mut sweep_client = client(&server);
            run_sweep(&mut sweep_client, &sweep_request)
        });
        // Let the sweep get admitted and start executing.
        std::thread::sleep(Duration::from_millis(200));

        // An interactive v1 request on its own connection, for a point
        // outside the plan, with its own deadline. The reserved worker
        // must serve it long before the sweep drains.
        let point = SimPoint::new(
            Benchmark::Gcc,
            MachineConfig::baseline(),
            RunOptions::default().with_ops(3_000).with_seed(7),
        );
        let mut point_client = client(&server);
        let started = Instant::now();
        let response = point_client
            .request(&protocol::simulate_request(2, &point, Some(30_000)))
            .expect("the point request responds mid-sweep");
        let elapsed = started.elapsed();
        let local = simulate_workload(&point.workload, &point.machine, &point.options);
        assert_eq!(
            response,
            protocol::ok_response(2, &local),
            "the v1 response is byte-identical even while a sweep streams"
        );
        assert!(
            elapsed < Duration::from_secs(30),
            "the point request met its deadline during the sweep ({elapsed:?})"
        );
        sweeper.join().expect("sweep thread panicked")
    });
    let (frames, terminal) = summary;
    assert_eq!(frames.len(), run_all_points(60_000).1.len());
    assert!(
        terminal.contains("\"stream\":\"summary\"") && terminal.contains("\"complete\":true"),
        "the sweep still completes: {terminal}"
    );
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_expired_sweep_deadline_ends_the_stream_with_a_typed_error() {
    let server = start(|_| {});
    // Ops large enough that stream materialization alone outlives a 1 ms
    // deadline; the engine's claim loop then stops at unit granularity.
    let request = protocol::sweep_request(3, &SweepPlanSpec::RunAll, 200_000, 42, Some(1), None);
    let total = run_all_points(200_000).1.len();
    let mut client = client(&server);
    let mut streamed = 0usize;
    let terminal = client
        .sweep(&request, |_| streamed += 1)
        .expect("the deadline terminal arrives");
    assert!(
        terminal.contains("\"code\":\"deadline_exceeded\"")
            && terminal.contains(&format!("\"points_total\":{total}")),
        "an expired sweep reports its progress: {terminal}"
    );
    assert!(streamed < total, "the sweep must not have finished");
    let metrics = client
        .request(&protocol::metrics_request(4))
        .expect("metrics responds");
    let metrics = serde_json::from_str(&metrics).expect("metrics is JSON");
    let metrics = metrics.get("metrics").expect("metrics envelope");
    assert_eq!(metric(metrics, &["sweeps", "cancelled"]), 1);
    stop(server);
}

#[test]
fn sweep_points_coalesce_with_concurrent_point_requests() {
    let dir = temp_dir("coalesce");
    let server = start(|config| {
        config.service =
            PointService::new(SimEngine::default().with_matrix_cache(MatrixCache::new(&dir)));
    });
    // Warm exactly one plan point through the v1 path first; the sweep
    // must serve it from the cache, not re-execute it.
    let (_, points) = run_all_points(SWEEP_OPS);
    let warm_point = points[0].clone();
    let mut point_client = client(&server);
    let response = point_client
        .request(&protocol::simulate_request(5, &warm_point, None))
        .expect("the warm-up point simulates");
    assert!(response.contains("\"ok\":true"), "{response}");
    let executed_before = server.service().executed();

    let request = protocol::sweep_request(6, &SweepPlanSpec::RunAll, SWEEP_OPS, 42, None, None);
    let mut sweep_client = client(&server);
    let (frames, terminal) = run_sweep(&mut sweep_client, &request);
    assert_eq!(frames.len(), points.len());
    assert!(terminal.contains("\"complete\":true"), "{terminal}");
    assert_eq!(
        server.service().executed(),
        executed_before + points.len() as u64 - 1,
        "the pre-warmed point is a cache hit, not a re-execution"
    );
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ops of the sweeps whose stream outlives their deadline: at tens of
/// nanoseconds an op, seconds of building or walking.
const SPILL_OPS: usize = 40_000_000;

/// The deadline of those sweeps: long enough for many polls of the temp
/// directory, far too short to build or walk `SPILL_OPS` ops.
const SPILL_DEADLINE_MS: u64 = 500;

/// A `serve` process, killed when dropped.
struct DaemonProcess(Child);

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The spill files under `dir`.
fn spill_files(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|entry| entry.ok())
                .map(|entry| entry.file_name().to_string_lossy().into_owned())
                .filter(|name| name.starts_with("wpsdm-stream-spill-"))
                .collect()
        })
        .unwrap_or_default()
}

/// A sweep that [`sweep_past_its_deadline`] ran, with its daemon still up.
struct SpillRun {
    daemon: DaemonProcess,
    tmp: std::path::PathBuf,
    terminal: String,
    /// Whether any poll of `tmp` before the terminal frame saw a spill file.
    spilled: bool,
}

/// Runs a `serve` process with its own temp directory, so every spill file
/// in that directory is its sweep's, and a 4 KiB stream cap, so a
/// materialized stream spills almost at once. Sends it one sweep of
/// `machines` on gcc at `SPILL_OPS` ops that its deadline stops, polling the
/// temp directory until the terminal frame arrives.
fn sweep_past_its_deadline(tag: &str, machines: &[MachineConfig]) -> SpillRun {
    let tmp = temp_dir(tag);
    std::fs::create_dir_all(&tmp).expect("a private temp directory");
    let mut daemon = DaemonProcess(
        Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--listen", "127.0.0.1:0", "--no-matrix-cache"])
            .env("TMPDIR", &tmp)
            .env("WPSDM_STREAM_MEMORY_CAP", "4096")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve spawns"),
    );
    let mut line = String::new();
    BufReader::new(daemon.0.stdout.take().expect("stdout is piped"))
        .read_line(&mut line)
        .expect("serve announces its address");
    let addr = line
        .trim()
        .strip_prefix("wp-serve: listening on tcp://")
        .unwrap_or_else(|| panic!("unexpected announcement: {line}"))
        .to_string();
    let points = machines
        .iter()
        .map(|machine| {
            SimPoint::new(
                Benchmark::Gcc,
                *machine,
                RunOptions::default().with_ops(SPILL_OPS),
            )
        })
        .collect();
    let request = protocol::sweep_request(
        1,
        &SweepPlanSpec::Points(points),
        SPILL_OPS as u64,
        42,
        Some(SPILL_DEADLINE_MS),
        None,
    );
    let mut client = Client::connect(&addr).expect("client connects");
    client
        .set_timeout(Duration::from_secs(60))
        .expect("timeout set");
    let framed = AtomicBool::new(false);
    let (terminal, spilled) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut spilled = false;
            while !framed.load(Ordering::SeqCst) {
                spilled |= !spill_files(&tmp).is_empty();
                std::thread::sleep(Duration::from_millis(5));
            }
            spilled
        });
        let terminal = client
            .sweep(&request, |frame| panic!("no point can finish: {frame}"))
            .expect("the deadline frame arrives");
        framed.store(true, Ordering::SeqCst);
        (terminal, poller.join().expect("the poller panicked"))
    });
    assert!(
        terminal.contains("\"code\":\"deadline_exceeded\""),
        "{terminal}"
    );
    SpillRun {
        daemon,
        tmp,
        terminal,
        spilled,
    }
}

#[test]
fn a_sweep_deadline_stops_the_stream_build_and_deletes_its_spill_file() {
    // Two points on one stream: the stream is materialized for both, and
    // under the 4 KiB cap its build spills.
    let baseline = MachineConfig::baseline();
    let run = sweep_past_its_deadline(
        "spill-deadline",
        &[baseline, baseline.with_dpolicy(DCachePolicy::Sequential)],
    );
    assert!(
        run.spilled,
        "the build wrote a spill file before the deadline: {}",
        run.terminal
    );
    let framed = Instant::now();
    while !spill_files(&run.tmp).is_empty() && framed.elapsed() < Duration::from_secs(1) {
        std::thread::sleep(Duration::from_millis(10));
    }
    let left = spill_files(&run.tmp);
    drop(run.daemon);
    let _ = std::fs::remove_dir_all(&run.tmp);
    assert!(
        left.is_empty(),
        "a second after its deadline frame the sweep still has spill files: {left:?}"
    );
}

#[test]
fn a_one_point_sweep_walks_its_stream_live_without_a_spill_file() {
    let run = sweep_past_its_deadline("live-walk", &[MachineConfig::baseline()]);
    drop(run.daemon);
    let _ = std::fs::remove_dir_all(&run.tmp);
    assert!(
        !run.spilled,
        "a stream one unit reads is walked live, never spilled"
    );
}
