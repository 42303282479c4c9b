//! The daemon's warm-point index against an in-process daemon: a point the
//! matrix cache answered once is answered from memory afterwards, with the
//! bytes of a disk hit, of the cold response and of the batch renderer, in
//! v1 and v2 `simulate` responses and in sweep point frames. An index hit
//! counts in `cache_hits` and never executes; nothing but a disk hit is
//! indexed, so a daemon without a cache executes a repeated point every
//! time, and a failed record read leaves the next request to read the disk.

use std::sync::Arc;
use std::time::Duration;

use serde::Value;
use wp_experiments::runner::engine_from_flags;
use wp_experiments::storage::{CacheIo, FaultKind, FaultPlan, FaultyIo};
use wp_experiments::{
    simulate_workload, MachineConfig, MatrixCache, PointService, RunOptions, SimEngine, SimPoint,
};
use wp_serve::protocol::{self, SweepPlanSpec, PROTOCOL_V2, PROTOCOL_VERSION};
use wp_serve::server::{self, Listen, RunningServer, ServerConfig};
use wp_serve::Client;
use wp_workloads::Benchmark;

/// Ops short enough to finish instantly in a test.
const QUICK_OPS: usize = 3_000;

fn point(benchmark: Benchmark) -> SimPoint {
    SimPoint::new(
        benchmark,
        MachineConfig::baseline(),
        RunOptions::default().with_ops(QUICK_OPS),
    )
}

fn start(service: PointService) -> RunningServer {
    let mut config = ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), service);
    config.workers = 2;
    server::start(config).expect("daemon starts on an ephemeral port")
}

fn cached_service(dir: &std::path::Path) -> PointService {
    PointService::new(SimEngine::default().with_matrix_cache(MatrixCache::new(dir)))
}

fn client(server: &RunningServer) -> Client {
    let client = Client::connect(server.addr()).expect("client connects");
    client
        .set_timeout(Duration::from_secs(120))
        .expect("timeout set");
    client
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wpsdm-warm-index-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stop(server: RunningServer) {
    server.shutdown();
    server.join();
}

/// `(executed, cache_hits)` of the daemon's service.
fn counters(server: &RunningServer) -> (u64, u64) {
    (server.service().executed(), server.service().cache_hits())
}

#[test]
fn index_hits_send_the_bytes_of_disk_hits_cold_responses_and_the_batch_renderer() {
    let dir = temp_dir("simulate");
    let server = start(cached_service(&dir));
    let mut client = client(&server);
    let points = [point(Benchmark::Gcc), point(Benchmark::Li)];
    for (v, point) in [PROTOCOL_VERSION, PROTOCOL_V2].into_iter().zip(&points) {
        let local = simulate_workload(&point.workload, &point.machine, &point.options);
        let expected = protocol::ok_response_for(v, 7, &local);
        let request = protocol::simulate_request_v(v, 7, point, None, None);
        let (executed, hits) = counters(&server);
        let cold = client.request(&request).expect("cold simulate");
        assert_eq!(
            counters(&server),
            (executed + 1, hits),
            "v{v}: cold executes"
        );
        let disk = client.request(&request).expect("disk hit");
        assert_eq!(
            counters(&server),
            (executed + 1, hits + 1),
            "v{v}: disk hit"
        );
        // With the records gone, a disk read would miss and execute: only
        // the index can answer the next two requests without executing.
        std::fs::remove_dir_all(&dir).expect("the cache directory exists");
        for extra in 1..=2 {
            let indexed = client.request(&request).expect("index hit");
            assert_eq!(
                counters(&server),
                (executed + 1, hits + 1 + extra),
                "v{v}: an index hit counts once and executes nothing"
            );
            assert_eq!(indexed, expected, "v{v}: index hit ≡ batch renderer");
        }
        assert_eq!(cold, expected, "v{v}: cold ≡ batch renderer");
        assert_eq!(disk, expected, "v{v}: disk hit ≡ batch renderer");
    }
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Streams one sweep, returning its point frames sorted by plan index.
fn sweep_frames(client: &mut Client, request: &str) -> Vec<String> {
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
    assert!(terminal.contains("\"complete\":true"), "got: {terminal}");
    frames.sort_by_key(|(index, _)| *index);
    frames.into_iter().map(|(_, frame)| frame).collect()
}

#[test]
fn sweep_frames_from_the_index_match_disk_hits_cold_frames_and_the_batch_renderer() {
    let dir = temp_dir("sweep");
    let server = start(cached_service(&dir));
    let mut client = client(&server);
    let points = vec![
        point(Benchmark::Swim),
        point(Benchmark::Perl),
        point(Benchmark::Gcc),
    ];
    let expected: Vec<String> = points
        .iter()
        .enumerate()
        .map(|(index, point)| {
            let local = simulate_workload(&point.workload, &point.machine, &point.options);
            protocol::stream_point_response(5, index, &local)
        })
        .collect();
    let request = protocol::sweep_request(
        5,
        &SweepPlanSpec::Points(points.clone()),
        QUICK_OPS as u64,
        42,
        None,
        None,
    );
    let n = points.len() as u64;
    let cold = sweep_frames(&mut client, &request);
    assert_eq!(
        counters(&server),
        (n, 0),
        "a cold sweep executes each point"
    );
    let disk = sweep_frames(&mut client, &request);
    assert_eq!(counters(&server), (n, n), "a warm sweep reads each record");
    std::fs::remove_dir_all(&dir).expect("the cache directory exists");
    let indexed = sweep_frames(&mut client, &request);
    assert_eq!(
        counters(&server),
        (n, 2 * n),
        "index hits count once each and execute nothing"
    );
    assert_eq!(cold, expected, "cold frames ≡ batch renderer");
    assert_eq!(disk, expected, "disk-hit frames ≡ batch renderer");
    assert_eq!(indexed, expected, "index-hit frames ≡ batch renderer");
    // A v1 `simulate` of a sweep point is answered from the same index.
    let v1 = client
        .request(&protocol::simulate_request(9, &points[0], None))
        .expect("index hit");
    let local = simulate_workload(&points[0].workload, &points[0].machine, &points[0].options);
    assert_eq!(v1, protocol::ok_response(9, &local));
    assert_eq!(counters(&server), (n, 2 * n + 1));
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_daemon_without_a_matrix_cache_executes_a_repeated_point_every_time() {
    // The engine `serve --no-matrix-cache` builds.
    let server = start(PointService::new(engine_from_flags(
        Some(2),
        true,
        None,
        None,
    )));
    let mut client = client(&server);
    let point = point(Benchmark::Go);
    let local = simulate_workload(&point.workload, &point.machine, &point.options);
    for round in 1..=3 {
        let response = client
            .request(&protocol::simulate_request(round, &point, None))
            .expect("simulate succeeds");
        assert_eq!(response, protocol::ok_response(round, &local));
        assert_eq!(
            counters(&server),
            (round, 0),
            "without a cache every request executes"
        );
    }
    stop(server);
}

#[test]
fn a_failed_record_read_indexes_nothing_and_the_next_request_reads_the_disk() {
    let dir = temp_dir("fault");
    let point = point(Benchmark::Vortex);
    let local = simulate_workload(&point.workload, &point.machine, &point.options);
    MatrixCache::new(&dir).store(&point, &local);
    // The daemon's operations, one request at a time: startup recovery
    // lists the directory (0) and reads the record's header (1); the first
    // request's warm lookup reads the record (2), which fails.
    let faulty = Arc::new(FaultyIo::with_plan(
        FaultPlan::new().fail_nth(2, FaultKind::Eio),
    ));
    let cache = MatrixCache::with_io(&dir, Arc::clone(&faulty) as Arc<dyn CacheIo>);
    let server = start(PointService::new(
        SimEngine::default().with_matrix_cache(cache),
    ));
    let mut client = client(&server);
    let request = protocol::simulate_request(3, &point, None);
    let expected = protocol::ok_response(3, &local);

    // The failed read sends the request down the cold path, whose one-point
    // engine pass finds the record on its own read (3).
    assert_eq!(client.request(&request).expect("first request"), expected);
    assert_eq!(faulty.injected(), 1, "the warm lookup's read failed");
    assert_eq!(counters(&server), (0, 1));
    assert_eq!(faulty.ops(), 4);

    // Nothing was indexed: the next request reads the record (4).
    assert_eq!(client.request(&request).expect("second request"), expected);
    assert_eq!(faulty.ops(), 5, "the second request read the disk");
    assert_eq!(counters(&server), (0, 2));

    // That read indexed the body: the third request touches no file.
    assert_eq!(client.request(&request).expect("third request"), expected);
    assert_eq!(faulty.ops(), 5, "the third request was an index hit");
    assert_eq!(counters(&server), (0, 3));
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
