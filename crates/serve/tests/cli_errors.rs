//! Command-line error paths of the `serve` and `serve_client` binaries,
//! asserted against the exact messages — same contract as the experiment
//! binaries (`error: <message>` plus usage on stderr, exit 2) — plus the
//! protocol client's id-echo verification against a misbehaving daemon,
//! and a `--batch` run that stops quietly when its stdout closes early.

use std::process::{Command, Stdio};
use std::time::Duration;

use wp_experiments::{simulate_workload, MachineConfig, RunOptions};
use wp_serve::protocol;
use wp_serve::Client;
use wp_workloads::{Benchmark, WorkloadSpec};

/// Runs a binary with `args`; returns `(exit_code, stderr)`.
fn run(binary: &str, args: &[&str]) -> (i32, String) {
    let output = Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {binary}: {e}"));
    (
        output.status.code().expect("binary exited with a code"),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Asserts the binary rejects `args` with exactly `message` on the first
/// stderr line, prints a usage line, and exits 2.
fn assert_cli_error(binary: &str, args: &[&str], message: &str) {
    let (code, stderr) = run(binary, args);
    assert_eq!(code, 2, "{binary} {args:?} must exit 2; stderr: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert_eq!(
        first,
        format!("error: {message}"),
        "{binary} {args:?} printed the wrong error"
    );
    assert!(
        stderr.contains("usage:"),
        "{binary} {args:?} must print usage; stderr: {stderr}"
    );
}

#[test]
fn serve_rejects_bad_command_lines_with_exact_messages() {
    let bin = env!("CARGO_BIN_EXE_serve");
    assert_cli_error(bin, &["--frobnicate"], "unknown flag `--frobnicate`");
    assert_cli_error(bin, &["--listen"], "flag `--listen` requires a value");
    assert_cli_error(bin, &["--workers"], "flag `--workers` requires a value");
    assert_cli_error(
        bin,
        &["--workers", "0"],
        "invalid value `0` for flag `--workers`",
    );
    assert_cli_error(
        bin,
        &["--workers", "many"],
        "invalid value `many` for flag `--workers`",
    );
    assert_cli_error(
        bin,
        &["--queue-depth"],
        "flag `--queue-depth` requires a value",
    );
    assert_cli_error(
        bin,
        &["--queue-depth", "0"],
        "invalid value `0` for flag `--queue-depth`",
    );
    assert_cli_error(
        bin,
        &["--default-deadline-ms"],
        "flag `--default-deadline-ms` requires a value",
    );
    assert_cli_error(
        bin,
        &["--default-deadline-ms", "soon"],
        "invalid value `soon` for flag `--default-deadline-ms`",
    );
    assert_cli_error(
        bin,
        &["--max-conn-requests", "0"],
        "invalid value `0` for flag `--max-conn-requests`",
    );
    assert_cli_error(
        bin,
        &["--matrix-cache-dir"],
        "flag `--matrix-cache-dir` requires a value",
    );
    assert_cli_error(
        bin,
        &["--matrix-cache-cap", "lots"],
        "invalid value `lots` for flag `--matrix-cache-cap`",
    );
    assert_cli_error(
        bin,
        &["--lane-depth", "0"],
        "invalid value `0` for flag `--lane-depth`",
    );
    assert_cli_error(
        bin,
        &["--lane-depth"],
        "flag `--lane-depth` requires a value",
    );
    assert_cli_error(
        bin,
        &["--sweep-threads", "many"],
        "invalid value `many` for flag `--sweep-threads`",
    );
}

#[test]
fn serve_client_rejects_bad_command_lines_with_exact_messages() {
    let bin = env!("CARGO_BIN_EXE_serve_client");
    assert_cli_error(bin, &["--frobnicate"], "unknown flag `--frobnicate`");
    assert_cli_error(bin, &["--connect"], "flag `--connect` requires a value");
    assert_cli_error(bin, &[], "flag `--connect` (or `--batch`) is required");
    assert_cli_error(
        bin,
        &["--batch", "--workload", "nonesuch"],
        "invalid value `nonesuch` for flag `--workload`",
    );
    assert_cli_error(
        bin,
        &["--batch", "--ops", "0"],
        "invalid value `0` for flag `--ops`",
    );
    assert_cli_error(
        bin,
        &["--batch", "--dpolicy", "nonesuch"],
        "invalid value `nonesuch` for flag `--dpolicy`",
    );
    assert_cli_error(
        bin,
        &["--connect", "127.0.0.1:1", "--repeat", "0"],
        "invalid value `0` for flag `--repeat`",
    );
    assert_cli_error(
        bin,
        &["--connect", "127.0.0.1:1", "--deadline-ms", "0"],
        "invalid value `0` for flag `--deadline-ms`",
    );
    assert_cli_error(
        bin,
        &["--connect", "127.0.0.1:1", "--priority", "10"],
        "invalid value `10` for flag `--priority`",
    );
    assert_cli_error(
        bin,
        &["--connect", "127.0.0.1:1", "--priority"],
        "flag `--priority` requires a value",
    );
    assert_cli_error(
        bin,
        &["--connect", "127.0.0.1:1", "--sweep"],
        "flag `--sweep` requires a value",
    );
}

#[test]
fn serve_client_accepts_seed_zero_like_the_daemon() {
    let output = Command::new(env!("CARGO_BIN_EXE_serve_client"))
        .args(["--batch", "--seed", "0", "--ops", "1000"])
        .output()
        .expect("serve_client spawns");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    let result = simulate_workload(
        &WorkloadSpec::Benchmark(Benchmark::Gcc),
        &MachineConfig::baseline(),
        &RunOptions::default().with_ops(1_000).with_seed(0),
    );
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        format!("{}\n", protocol::ok_response(1, &result))
    );
}

#[test]
fn serve_client_batch_answers_the_request_connect_sends() {
    // `--priority` makes `--connect` send a v2 request, so the batch
    // reference must answer in v2 too.
    let output = Command::new(env!("CARGO_BIN_EXE_serve_client"))
        .args(["--batch", "--ops", "2000", "--priority", "3"])
        .output()
        .expect("serve_client spawns");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.starts_with("{\"v\":2,"), "stdout: {stdout}");
    // Only a daemon can answer these; the batch path refuses them rather
    // than printing a simulate result.
    let bin = env!("CARGO_BIN_EXE_serve_client");
    for flags in [
        &["--health"][..],
        &["--metrics"],
        &["--shutdown"],
        &["--repeat", "2"],
    ] {
        let args: Vec<&str> = ["--batch", "--ops", "2000"]
            .iter()
            .chain(flags)
            .copied()
            .collect();
        assert_cli_error(
            bin,
            &args,
            &format!(
                "flag `{}` needs a daemon (`--connect`), not `--batch`",
                flags[0]
            ),
        );
    }
}

#[test]
fn serve_client_batch_prints_the_daemons_bad_request_for_a_rejected_machine() {
    // `--connect` prints this response and exits 0; the batch reference
    // must print the same bytes and exit 0 too.
    let output = Command::new(env!("CARGO_BIN_EXE_serve_client"))
        .args(["--batch", "--ops", "2000", "--assoc", "3"])
        .output()
        .expect("serve_client spawns");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        format!(
            "{}\n",
            protocol::error_response(
                protocol::PROTOCOL_VERSION,
                1,
                protocol::ErrorCode::BadRequest,
                "invalid machine configuration: invalid cache geometry: \
                 associativity must be a power of two, got 3"
            )
        )
    );
}

#[test]
fn serve_client_batch_refuses_a_sweep_plan_the_daemon_refuses() {
    // 149 conflict_chase scenarios expand to more unique points than one
    // sweep may submit; the batch reference must print the daemon's
    // `bad_request`, not simulate the plan.
    let dir = std::env::temp_dir().join(format!("wpsdm-serve-oversized-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let profile = dir.join("oversized.json");
    let scenarios: Vec<String> = (2..=150)
        .map(|blocks| format!("{{\"scenario\":\"conflict_chase\",\"blocks\":{blocks}}}"))
        .collect();
    std::fs::write(
        &profile,
        format!(
            "{{\"version\":1,\"name\":\"oversized\",\"tier\":\"stress\",\"scenarios\":[{}]}}",
            scenarios.join(",")
        ),
    )
    .expect("profile written");
    let output = Command::new(env!("CARGO_BIN_EXE_serve_client"))
        .args([
            "--batch",
            "--sweep",
            profile.to_str().unwrap(),
            "--ops",
            "1",
        ])
        .output()
        .expect("serve_client spawns");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        format!(
            "{}\n",
            protocol::error_response(
                protocol::PROTOCOL_V2,
                1,
                protocol::ErrorCode::BadRequest,
                "sweep exceeds 4096 unique points (4172 requested)"
            )
        )
    );
}

#[test]
fn serve_client_batch_stops_quietly_on_a_closed_stdout() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve_client"))
        .args(["--batch", "--ops", "1000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve_client spawns");
    // Close the read end before the point is simulated, as `| true` does.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("serve_client finishes");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "serve_client panicked: {stderr}"
    );
}

/// A scripted stand-in daemon: accepts one connection and plays back the
/// given `(delay, response payload)` script after reading one request per
/// entry.
fn fake_daemon(script: Vec<(Duration, Vec<String>)>) -> (String, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("fake daemon binds");
    let addr = listener.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("client connects");
        let mut frames = protocol::FrameReader::new();
        for (delay, responses) in script {
            frames
                .read(&mut conn)
                .expect("request frame arrives")
                .expect("request frame is not EOF");
            std::thread::sleep(delay);
            for response in responses {
                protocol::write_frame(&mut conn, response.as_bytes()).expect("response sends");
            }
        }
    });
    (addr, handle)
}

#[test]
fn the_client_rejects_mismatched_response_ids_with_a_typed_error() {
    let (addr, daemon) = fake_daemon(vec![(
        Duration::ZERO,
        vec!["{\"v\":1,\"id\":999,\"ok\":true}".to_string()],
    )]);
    let mut client = Client::connect(&addr).expect("client connects");
    client
        .set_timeout(Duration::from_secs(10))
        .expect("timeout set");
    let err = client
        .request("{\"v\":1,\"id\":1,\"type\":\"health\"}")
        .expect_err("a response for a different request must not be delivered");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(
        err.to_string(),
        "response id 999 does not match request id 1"
    );
    daemon.join().expect("fake daemon panicked");
}

#[test]
fn a_late_response_after_a_timeout_is_drained_not_misdelivered() {
    // The first request's response arrives only after the client has given
    // up on it; the second request's response follows immediately. Before
    // the fix, the reused connection handed request 2 the stale response
    // to request 1.
    let (addr, daemon) = fake_daemon(vec![
        (Duration::from_millis(700), Vec::new()),
        (
            Duration::ZERO,
            vec![
                "{\"v\":1,\"id\":1,\"ok\":true,\"stale\":true}".to_string(),
                "{\"v\":1,\"id\":2,\"ok\":true}".to_string(),
            ],
        ),
    ]);
    let mut client = Client::connect(&addr).expect("client connects");
    client
        .set_timeout(Duration::from_millis(250))
        .expect("short timeout set");
    let err = client
        .request("{\"v\":1,\"id\":1,\"type\":\"health\"}")
        .expect_err("request 1 times out");
    assert!(
        err.kind() == std::io::ErrorKind::WouldBlock || err.kind() == std::io::ErrorKind::TimedOut,
        "unexpected error: {err}"
    );
    client
        .set_timeout(Duration::from_secs(10))
        .expect("timeout restored");
    let response = client
        .request("{\"v\":1,\"id\":2,\"type\":\"health\"}")
        .expect("request 2 gets its own response");
    assert_eq!(
        response, "{\"v\":1,\"id\":2,\"ok\":true}",
        "the stale id-1 frame must be drained, not delivered"
    );
    daemon.join().expect("fake daemon panicked");
}

#[test]
fn a_timed_out_sweeps_late_frames_are_drained_and_a_foreign_id_is_refused() {
    // Sweep 1 gets no answer and times out with its frames still owed;
    // they arrive ahead of sweep 2's own and must be drained, not streamed
    // or returned. Sweep 3 is answered under an id no request carried.
    let point =
        |id: u64| format!("{{\"v\":2,\"id\":{id},\"ok\":true,\"stream\":\"point\",\"index\":0}}");
    let summary = |id: u64| format!("{{\"v\":2,\"id\":{id},\"ok\":true,\"stream\":\"summary\"}}");
    let (addr, daemon) = fake_daemon(vec![
        (Duration::ZERO, Vec::new()),
        (
            Duration::ZERO,
            vec![point(1), point(1), summary(1), point(2), summary(2)],
        ),
        (Duration::ZERO, vec![point(999)]),
    ]);
    let sweep = |id: u64| {
        format!("{{\"v\":2,\"id\":{id},\"type\":\"sweep\",\"plan\":\"run_all\",\"ops\":1}}")
    };
    let mut client = Client::connect(&addr).expect("client connects");
    client
        .set_timeout(Duration::from_millis(250))
        .expect("short timeout set");
    let err = client
        .sweep(&sweep(1), |frame| panic!("sweep 1 streamed {frame}"))
        .expect_err("sweep 1 times out");
    assert!(
        err.kind() == std::io::ErrorKind::WouldBlock || err.kind() == std::io::ErrorKind::TimedOut,
        "unexpected error: {err}"
    );
    client
        .set_timeout(Duration::from_secs(10))
        .expect("timeout restored");
    let mut streamed = Vec::new();
    let terminal = client
        .sweep(&sweep(2), |frame| streamed.push(frame.to_string()))
        .expect("sweep 2 gets its own frames");
    assert_eq!(
        streamed,
        vec![point(2)],
        "sweep 1's late frames are drained"
    );
    assert_eq!(terminal, summary(2));
    let err = client
        .sweep(&sweep(3), |frame| panic!("sweep 3 streamed {frame}"))
        .expect_err("a frame for no request must not be delivered");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(
        err.to_string(),
        "response id 999 does not match request id 3"
    );
    daemon.join().expect("fake daemon panicked");
}
