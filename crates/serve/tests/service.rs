//! In-process daemon tests: one [`wp_serve::server`] instance per test on
//! an ephemeral port (or a Unix socket), driven through the real protocol
//! client. These pin the four robustness layers — byte-identity with the
//! batch path, cross-request singleflight, admission-control shedding,
//! deadline cancellation — plus the health and shutdown surfaces.

use std::time::Duration;

use wp_experiments::{
    simulate_workload, MachineConfig, MatrixCache, PointService, RunOptions, SimPoint,
};
use wp_serve::protocol;
use wp_serve::server::{self, Listen, RunningServer, ServerConfig};
use wp_serve::Client;
use wp_workloads::{Benchmark, WorkloadSpec};

/// Ops short enough to finish instantly in a test.
const QUICK_OPS: usize = 3_000;
/// Ops long enough that a sub-second deadline always fires first.
const ENDLESS_OPS: usize = 500_000_000;

fn point(benchmark: Benchmark, ops: usize) -> SimPoint {
    SimPoint::new(
        benchmark,
        MachineConfig::baseline(),
        RunOptions::default().with_ops(ops),
    )
}

fn start(configure: impl FnOnce(&mut ServerConfig)) -> RunningServer {
    let mut config = ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), PointService::new());
    config.workers = 2;
    configure(&mut config);
    server::start(config).expect("daemon starts on an ephemeral port")
}

fn client(server: &RunningServer) -> Client {
    let client = Client::connect(server.addr()).expect("client connects");
    client
        .set_timeout(Duration::from_secs(120))
        .expect("timeout set");
    client
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wpsdm-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stop(server: RunningServer) {
    server.shutdown();
    server.join();
}

#[test]
fn daemon_responses_are_byte_identical_to_the_batch_renderer() {
    let server = start(|_| {});
    let mut client = client(&server);
    let point = point(Benchmark::Gcc, QUICK_OPS);
    let response = client
        .request(&protocol::simulate_request(1, &point, None))
        .expect("simulate succeeds");
    let local = simulate_workload(&point.workload, &point.machine, &point.options);
    assert_eq!(
        response,
        protocol::ok_response(1, &local),
        "the daemon and the batch path must render the same bytes"
    );
    stop(server);
}

#[test]
fn a_stampede_of_identical_requests_executes_one_simulation() {
    let dir = temp_dir("stampede");
    let server = start(|config| {
        // The shared cache makes the executed-once property independent of
        // timing: concurrent duplicates coalesce in flight, and any
        // straggler that arrives after completion hits the cache instead.
        config.service = PointService::with_cache(MatrixCache::new(&dir));
        config.workers = 4;
    });
    let stampede = 8;
    let point = point(Benchmark::Li, 50_000);
    let request = protocol::simulate_request(1, &point, None);
    let barrier = std::sync::Barrier::new(stampede);
    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..stampede)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = client(&server);
                    barrier.wait();
                    client.request(&request).expect("simulate succeeds")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stampede thread panicked"))
            .collect()
    });
    assert_eq!(
        server.service().executed(),
        1,
        "duplicates must coalesce onto one simulation \
         (coalesced {}, cache hits {})",
        server.service().coalesced(),
        server.service().cache_hits(),
    );
    let first = &responses[0];
    assert!(first.contains("\"ok\":true"), "got: {first}");
    for response in &responses {
        assert_eq!(response, first, "every stampeder gets the same bytes");
    }
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_full_queue_sheds_with_overloaded_instead_of_stalling() {
    let server = start(|config| {
        config.workers = 1;
        config.queue_depth = 1;
    });
    // Occupy the lone worker, then the lone queue slot, with simulations
    // whose deadlines do the cleanup.
    let blockers: Vec<(Client, SimPoint)> = [Benchmark::Gcc, Benchmark::Li]
        .into_iter()
        .map(|b| (client(&server), point(b, ENDLESS_OPS)))
        .collect();
    let mut responses = Vec::new();
    let mut blocked: Vec<_> = blockers
        .into_iter()
        .map(|(mut c, p)| {
            let request = protocol::simulate_request(1, &p, Some(1_000));
            std::thread::spawn(move || c.request(&request).expect("blocked request responds"))
        })
        .inspect(|_| std::thread::sleep(Duration::from_millis(300)))
        .collect();
    // Worker busy, queue full: the third distinct point sheds immediately.
    let mut shed_client = client(&server);
    let shed_point = point(Benchmark::Perl, ENDLESS_OPS);
    let started = std::time::Instant::now();
    let shed = shed_client
        .request(&protocol::simulate_request(7, &shed_point, Some(60_000)))
        .expect("shed request still gets a response");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shedding must not wait for capacity"
    );
    assert_eq!(
        shed,
        protocol::error_response(
            protocol::PROTOCOL_VERSION,
            7,
            protocol::ErrorCode::Overloaded,
            "the request queue is full"
        )
    );
    assert_eq!(server.shed(), 1);
    for handle in blocked.drain(..) {
        let response = handle.join().expect("blocker thread panicked");
        assert!(
            response.contains("\"code\":\"deadline_exceeded\""),
            "blockers die by their own deadline: {response}"
        );
        responses.push(response);
    }
    stop(server);
}

#[test]
fn expired_deadlines_return_partial_progress() {
    let server = start(|_| {});
    let mut client = client(&server);
    let point = point(Benchmark::Gcc, ENDLESS_OPS);
    let response = client
        .request(&protocol::simulate_request(5, &point, Some(250)))
        .expect("deadline response arrives");
    let value = serde_json::from_str(&response).expect("response is JSON");
    assert_eq!(value.get("ok").and_then(serde::Value::as_bool), Some(false));
    let error = value.get("error").expect("error object");
    assert_eq!(
        error.get("code").and_then(serde::Value::as_str),
        Some("deadline_exceeded")
    );
    let completed = error
        .get("ops_completed")
        .and_then(serde::Value::as_u64)
        .expect("partial progress is reported");
    let requested = error
        .get("ops_requested")
        .and_then(serde::Value::as_u64)
        .expect("requested ops are reported");
    assert_eq!(requested, ENDLESS_OPS as u64);
    assert!(
        completed > 0 && completed < requested,
        "cancellation is cooperative mid-run: {completed} of {requested}"
    );
    stop(server);
}

#[test]
fn a_follower_with_deadline_budget_releads_after_the_leaders_cancellation() {
    let server = start(|config| config.workers = 2);
    // Calibrate an op count that simulates for roughly two seconds, so the
    // leader's 500 ms deadline always fires mid-run while the follower's
    // generous deadline never does.
    let probe = point(Benchmark::Gcc, 400_000);
    let started = std::time::Instant::now();
    simulate_workload(&probe.workload, &probe.machine, &probe.options);
    let per_op = started.elapsed().as_secs_f64() / 400_000.0;
    let ops = ((2.0 / per_op.max(1e-12)) as usize).clamp(1_000_000, 4_000_000_000);
    let slow = point(Benchmark::Gcc, ops);
    let expected = simulate_workload(&slow.workload, &slow.machine, &slow.options);

    // Client A leads the flight with a 500 ms deadline; client B joins the
    // same point 150 ms later with a two-minute deadline. Before the fix,
    // B inherited A's cancellation and returned `deadline_exceeded` with
    // most of its own budget unspent.
    let request_a = protocol::simulate_request(1, &slow, Some(500));
    let request_b = protocol::simulate_request(2, &slow, Some(120_000));
    let (response_a, response_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let mut client = client(&server);
            client.request(&request_a).expect("A gets a response")
        });
        std::thread::sleep(Duration::from_millis(150));
        let b = scope.spawn(|| {
            let mut client = client(&server);
            client.request(&request_b).expect("B gets a response")
        });
        (a.join().expect("A panicked"), b.join().expect("B panicked"))
    });
    assert!(
        response_a.contains("\"code\":\"deadline_exceeded\""),
        "the leader dies by its own deadline: {response_a}"
    );
    assert_eq!(
        response_b,
        protocol::ok_response(2, &expected),
        "the follower re-leads a fresh flight and completes under its own deadline"
    );
    assert!(
        server.releads() >= 1,
        "the re-lead is visible in the metrics counter"
    );
    stop(server);
}

#[test]
fn malformed_requests_get_typed_bad_request_errors() {
    let server = start(|_| {});
    let mut client = client(&server);
    let response = client.request("not json").expect("error response arrives");
    assert!(response.contains("\"code\":\"bad_request\""), "{response}");
    let response = client
        .request("{\"id\":3,\"type\":\"health\"}")
        .expect("error response arrives");
    assert_eq!(
        response,
        protocol::error_response(
            protocol::PROTOCOL_VERSION,
            3,
            protocol::ErrorCode::BadRequest,
            "missing field `v`"
        ),
        "the connection survives a bad request and echoes its id"
    );
    stop(server);
}

#[test]
fn the_per_connection_budget_sheds_and_closes() {
    let server = start(|config| config.max_conn_requests = 2);
    let mut client = client(&server);
    let request = protocol::simulate_request(1, &point(Benchmark::Gcc, QUICK_OPS), None);
    for _ in 0..2 {
        let response = client.request(&request).expect("within budget");
        assert!(response.contains("\"ok\":true"), "{response}");
    }
    let response = client.request(&request).expect("budget error arrives");
    assert_eq!(
        response,
        protocol::error_response(
            protocol::PROTOCOL_VERSION,
            1,
            protocol::ErrorCode::Overloaded,
            "per-connection request budget exhausted; reconnect to continue"
        )
    );
    assert!(
        client.request(&request).is_err(),
        "the connection is closed after the budget error"
    );
    // A fresh connection gets a fresh budget.
    let mut fresh = self::client(&server);
    let response = fresh.request(&request).expect("fresh budget");
    assert!(response.contains("\"ok\":true"), "{response}");
    stop(server);
}

#[test]
fn a_shutdown_request_acks_drains_and_rejects_new_work() {
    let server = start(|_| {});
    let mut survivor = client(&server);
    let mut shutter = client(&server);
    let ack = shutter
        .request("{\"v\":1,\"id\":9,\"type\":\"shutdown\"}")
        .expect("shutdown acks");
    assert_eq!(ack, protocol::ack_response(protocol::PROTOCOL_VERSION, 9));
    // The still-open connection is told the daemon is draining.
    let request = protocol::simulate_request(1, &point(Benchmark::Gcc, QUICK_OPS), None);
    let response = survivor.request(&request).expect("drain response arrives");
    assert_eq!(
        response,
        protocol::error_response(
            protocol::PROTOCOL_VERSION,
            1,
            protocol::ErrorCode::ShuttingDown,
            "the daemon is draining for shutdown"
        )
    );
    assert!(server.shutdown_requested());
    server.join();
}

#[test]
fn health_reports_cache_and_singleflight_counters() {
    let dir = temp_dir("health");
    let server = start(|config| {
        config.service = PointService::with_cache(MatrixCache::new(&dir));
    });
    let mut client = client(&server);
    let request = protocol::simulate_request(1, &point(Benchmark::Gcc, QUICK_OPS), None);
    client.request(&request).expect("cold simulate");
    client.request(&request).expect("warm simulate");
    let health = client
        .request("{\"v\":1,\"id\":2,\"type\":\"health\"}")
        .expect("health responds");
    assert_eq!(
        health,
        protocol::health_response(
            protocol::PROTOCOL_VERSION,
            2,
            &server.service().cache_health(),
            1,
            1,
            0,
            false
        ),
        "one executed, one cache hit, nothing coalesced"
    );
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn unix_sockets_serve_and_are_unlinked_on_shutdown() {
    let path = std::env::temp_dir().join(format!("wpsdm-serve-test-{}.sock", std::process::id()));
    let server = {
        let mut config = ServerConfig::new(Listen::Unix(path.clone()), PointService::new());
        config.workers = 1;
        server::start(config).expect("daemon binds the unix socket")
    };
    let mut client = Client::connect(&path.display().to_string()).expect("unix client connects");
    let point = point(Benchmark::Li, QUICK_OPS);
    let response = client
        .request(&protocol::simulate_request(1, &point, None))
        .expect("simulate over unix socket");
    let local = simulate_workload(&point.workload, &point.machine, &point.options);
    assert_eq!(response, protocol::ok_response(1, &local));
    stop(server);
    assert!(!path.exists(), "the socket file is unlinked on shutdown");
}

#[test]
fn workload_specs_beyond_benchmarks_are_served() {
    let server = start(|_| {});
    let mut client = client(&server);
    let spec = WorkloadSpec::parse("pointer_chase").expect("scenario parses");
    let point = SimPoint::with_workload(
        spec,
        MachineConfig::baseline(),
        RunOptions::default().with_ops(QUICK_OPS),
    );
    let response = client
        .request(&protocol::simulate_request(4, &point, None))
        .expect("scenario simulate succeeds");
    let local = simulate_workload(&point.workload, &point.machine, &point.options);
    assert_eq!(response, protocol::ok_response(4, &local));
    stop(server);
}
