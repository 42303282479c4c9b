//! Command-line error paths of the experiment binaries, asserted against
//! the *exact* messages: an unknown flag, a flag missing its value, a
//! bad or zero count, and a broken `--profile` file must each print
//! `error: <specific message>` plus the usage line to stderr and exit
//! with status 2 — across the binaries (`run_all`, `trace_capture`,
//! `trace_replay`, `conformance`, `coverage_report`). A trace with no ops
//! is a runtime error of `trace_replay` (exit 1).

use std::path::{Path, PathBuf};
use std::process::Command;

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
fn run_all_rejects_bad_command_lines_with_exact_messages() {
    let bin = env!("CARGO_BIN_EXE_run_all");
    assert_cli_error(bin, &["--frobnicate"], "unknown flag `--frobnicate`");
    // The engine has one execution path: the old gang and lane opt-outs
    // are unknown flags, not silently accepted no-ops.
    assert_cli_error(bin, &["--no-gang"], "unknown flag `--no-gang`");
    assert_cli_error(bin, &["--no-lanes"], "unknown flag `--no-lanes`");
    assert_cli_error(bin, &["--ops"], "flag `--ops` requires a value");
    assert_cli_error(bin, &["--seed"], "flag `--seed` requires a value");
    assert_cli_error(
        bin,
        &["--ops", "abc"],
        "invalid value `abc` for flag `--ops`",
    );
    // A zero-op run has no baseline to normalize against: every binary on
    // the shared parser rejects it before simulating anything.
    for binary in [bin, env!("CARGO_BIN_EXE_fig4")] {
        assert_cli_error(
            binary,
            &["--ops", "0"],
            "invalid value `0` for flag `--ops`",
        );
    }
    assert_cli_error(
        bin,
        &["--threads", "0"],
        "invalid value `0` for flag `--threads`",
    );
    assert_cli_error(
        bin,
        &["--stream-cap", "lots"],
        "invalid value `lots` for flag `--stream-cap`",
    );
    assert_cli_error(
        bin,
        &["--matrix-cache-dir"],
        "flag `--matrix-cache-dir` requires a value",
    );
    assert_cli_error(
        bin,
        &["--matrix-cache-cap"],
        "flag `--matrix-cache-cap` requires a value",
    );
    assert_cli_error(
        bin,
        &["--matrix-cache-cap", "lots"],
        "invalid value `lots` for flag `--matrix-cache-cap`",
    );
    // A zero-byte cache could hold nothing: reject the misconfiguration
    // rather than silently thrash every stored record.
    assert_cli_error(
        bin,
        &["--matrix-cache-cap", "0"],
        "invalid value `0` for flag `--matrix-cache-cap`",
    );
    assert_cli_error(
        bin,
        &["--health-json"],
        "flag `--health-json` requires a value",
    );
}

#[test]
fn trace_capture_rejects_bad_command_lines_with_exact_messages() {
    let bin = env!("CARGO_BIN_EXE_trace_capture");
    assert_cli_error(bin, &["--frobnicate"], "unknown flag `--frobnicate`");
    assert_cli_error(bin, &["--workload"], "flag `--workload` requires a value");
    assert_cli_error(bin, &["--out"], "flag `--out` requires a value");
    assert_cli_error(
        bin,
        &["--workload", "gcc", "--out", "/tmp/x.wptr", "--ops", "abc"],
        "invalid value `abc` for flag `--ops`",
    );
    assert_cli_error(
        bin,
        &["--workload", "gcc", "--out", "/tmp/x.wptr", "--ops", "0"],
        "invalid value `0` for flag `--ops`",
    );
    assert_cli_error(
        bin,
        &["--workload", "gcc", "--out", "/tmp/x.wptr", "--seed", "1.5"],
        "invalid value `1.5` for flag `--seed`",
    );
    assert_cli_error(
        bin,
        &["--out", "/tmp/x.wptr"],
        "missing required flag `--workload` (or `--profile`)",
    );
    assert_cli_error(
        bin,
        &[
            "--workload",
            "gcc",
            "--profile",
            "/tmp/p.json",
            "--out",
            "/tmp/x",
        ],
        "flags `--workload` and `--profile` are mutually exclusive",
    );
    // Unknown workloads enumerate the valid names.
    let (code, stderr) = run(bin, &["--workload", "nonesuch", "--out", "/tmp/x.wptr"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("error: unknown workload `nonesuch` (expected one of: "));
    assert!(stderr.contains("gcc") && stderr.contains("pointer_chase"));
}

#[test]
fn trace_replay_rejects_bad_command_lines_with_exact_messages() {
    let bin = env!("CARGO_BIN_EXE_trace_replay");
    assert_cli_error(bin, &["--frobnicate"], "unknown flag `--frobnicate`");
    assert_cli_error(bin, &["--no-gang"], "unknown flag `--no-gang`");
    assert_cli_error(bin, &["--trace"], "flag `--trace` requires a value");
    assert_cli_error(
        bin,
        &["--trace", "/tmp/x.wptr", "--ops", "abc"],
        "invalid value `abc` for flag `--ops`",
    );
    assert_cli_error(
        bin,
        &["--trace", "/tmp/x.wptr", "--ops", "0"],
        "invalid value `0` for flag `--ops`",
    );
    assert_cli_error(
        bin,
        &["--trace", "/tmp/x.wptr", "--threads", "0"],
        "invalid value `0` for flag `--threads`",
    );
    assert_cli_error(
        bin,
        &["--trace", "/tmp/x.wptr", "--matrix-cache-cap"],
        "flag `--matrix-cache-cap` requires a value",
    );
    assert_cli_error(
        bin,
        &["--trace", "/tmp/x.wptr", "--matrix-cache-cap", "0"],
        "invalid value `0` for flag `--matrix-cache-cap`",
    );
    assert_cli_error(bin, &[], "missing required flag `--trace`");

    // A trace with no ops has nothing to replay: an error, like a trace
    // that cannot be opened, not a usage error.
    let dir = temp_dir("replay");
    let empty = dir.join("empty.wptr");
    wp_workloads::capture_to_file(std::iter::empty(), &empty, "empty").expect("write trace");
    let (code, stderr) = run(
        bin,
        &["--trace", empty.to_str().unwrap(), "--no-matrix-cache"],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, 1, "an empty trace must exit 1; stderr: {stderr}");
    assert_eq!(
        stderr.lines().next().unwrap_or_default(),
        format!("error: trace {} holds no ops", empty.display())
    );
}

/// A fresh temp directory for one test, named by `tag`; the test removes
/// it when done.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wpsdm-cli-errors-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Writes `text` to the file `name` in `dir` and returns its path.
fn temp_profile(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("temp profile");
    path
}

#[test]
fn profile_flag_rejects_broken_files_with_exact_messages() {
    // Every consumer routes `--profile` through the same loader, so one
    // binary per failure class suffices; run_all and coverage_report are
    // both exercised to pin the shared plumbing.
    let run_all = env!("CARGO_BIN_EXE_run_all");
    let coverage = env!("CARGO_BIN_EXE_coverage_report");

    assert_cli_error(run_all, &["--profile"], "flag `--profile` requires a value");
    assert_cli_error(
        run_all,
        &["--profile", "/nonexistent/profile.json"],
        "cannot read profile `/nonexistent/profile.json`: file not found",
    );

    let dir = temp_dir("profile");
    let bad_version = temp_profile(&dir, "bad_version.json", r#"{ "version": 9 }"#);
    assert_cli_error(
        coverage,
        &["--profile", bad_version.to_str().unwrap()],
        &format!(
            "profile `{}` has unsupported version 9 (expected 1)",
            bad_version.display()
        ),
    );

    let unknown_field = temp_profile(
        &dir,
        "unknown_field.json",
        r#"{ "version": 1, "tier": "stress", "bogus": 3 }"#,
    );
    assert_cli_error(
        coverage,
        &["--profile", unknown_field.to_str().unwrap()],
        &format!(
            "unknown field `bogus` in profile `{}` (expected one of: version, name, tier, scenarios)",
            unknown_field.display()
        ),
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Single-artefact binaries reject the flag outright rather than
    // silently ignoring a workload the artefact cannot honour.
    for bin in [env!("CARGO_BIN_EXE_fig6"), env!("CARGO_BIN_EXE_table4")] {
        assert_cli_error(
            bin,
            &["--profile", "/tmp/p.json"],
            "flag `--profile` is not supported by single-artefact binaries",
        );
    }
}

#[test]
fn conformance_rejects_bad_command_lines_with_exact_messages() {
    let bin = env!("CARGO_BIN_EXE_conformance");
    // Shared flags go through the same parser as the artefact binaries, so
    // the messages are identical to run_all's.
    assert_cli_error(bin, &["--frobnicate"], "unknown flag `--frobnicate`");
    assert_cli_error(bin, &["--no-lanes"], "unknown flag `--no-lanes`");
    assert_cli_error(bin, &["--ops"], "flag `--ops` requires a value");
    assert_cli_error(bin, &["--ops", "0"], "invalid value `0` for flag `--ops`");
    assert_cli_error(
        bin,
        &["--seed", "abc"],
        "invalid value `abc` for flag `--seed`",
    );
    // Conformance-specific flags use the same error vocabulary.
    assert_cli_error(bin, &["--random"], "flag `--random` requires a value");
    assert_cli_error(
        bin,
        &["--random", "many"],
        "invalid value `many` for flag `--random`",
    );
    assert_cli_error(
        bin,
        &["--golden-dir"],
        "flag `--golden-dir` requires a value",
    );
    assert_cli_error(
        bin,
        &["--faulty-cache"],
        "flag `--faulty-cache` requires a value",
    );
    assert_cli_error(
        bin,
        &["--faulty-cache", "xyz"],
        "invalid value `xyz` for flag `--faulty-cache`",
    );
    // Conformance must execute both stacks: the cache-control flags it
    // cannot honour are rejected, `--matrix-cache-cap` included.
    assert_cli_error(
        bin,
        &["--matrix-cache-cap", "4096"],
        "flag `--matrix-cache-cap` is not supported by conformance",
    );
    assert_cli_error(
        bin,
        &["--health-json", "/tmp/health.json"],
        "flag `--health-json` is not supported by conformance",
    );
}
