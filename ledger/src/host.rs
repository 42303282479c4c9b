//! The harness's view of the host: the checkout it runs in, the release
//! binaries it builds there, a scrubbed environment, scratch directories,
//! and guards that stop every child process it starts.

use std::io::{self, BufRead, BufReader, Read};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use wp_serve::protocol::{write_frame, FrameReader};

/// Variables that would let a developer's shell change what a run
/// measures: turn a cold run warm, inject cache faults, cap the cache, or
/// move the stream spill point. Cleared from the harness's own environment
/// before anything starts, so no child inherits them.
pub const SCRUBBED_ENV: [&str; 5] = [
    "WPSDM_MATRIX_CACHE_DIR",
    "WPSDM_MATRIX_CACHE_CAP",
    "WPSDM_MATRIX_CACHE_FAULT_SEED",
    "WPSDM_STREAM_MEMORY_CAP",
    "WPSDM_CACHE_LOCK_TIMEOUT_MS",
];

/// The longest any single socket read may block before the run fails.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Scratch space for one harness process: `.bench_tmp/<pid>` under the
/// checkout, removed on drop. Paths are relative to the checkout root (the
/// working directory), which keeps Unix socket paths short.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates the directory and points `TMPDIR` at it, so stream spill
    /// files, in this process and in every child, stay inside the checkout.
    pub fn create() -> io::Result<Scratch> {
        let root = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        let absolute = std::fs::canonicalize(&root)?;
        std::env::set_var("TMPDIR", &absolute);
        Ok(Scratch { root })
    }

    /// A fresh, empty directory, removed when the returned guard drops.
    pub fn fresh(&self, name: &str) -> io::Result<TempDir> {
        let path = self.root.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }
}

/// A scratch directory removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leaves `.bench_tmp` itself when another harness still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Clears [`SCRUBBED_ENV`] from this process. Must run before any thread
/// or child starts.
pub fn scrub_env() {
    for name in SCRUBBED_ENV {
        std::env::remove_var(name);
    }
}

/// Checks that the working directory is a checkout of the repository.
pub fn check_checkout() -> Result<(), String> {
    for needed in [
        "Cargo.toml",
        "crates/experiments",
        "crates/serve",
        "tests/profiles",
    ] {
        if !Path::new(needed).exists() {
            return Err(format!(
                "`{needed}` not found: run the benchmark from the root of a checkout"
            ));
        }
    }
    Ok(())
}

/// The two release binaries every end-to-end workload drives.
#[derive(Debug, Clone)]
pub struct Binaries {
    pub run_all: PathBuf,
    pub serve: PathBuf,
}

/// Builds `run_all` and `serve` in release mode, once, before anything is
/// timed. Honours `CARGO_TARGET_DIR`; cargo's output goes to stderr so the
/// result stays the last line of stdout.
pub fn build_binaries() -> Result<Binaries, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "wp-experiments",
            "--bin",
            "run_all",
            "-p",
            "wp-serve",
            "--bin",
            "serve",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the release binaries failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let release = target.join("release");
    let bins = Binaries {
        run_all: release.join("run_all"),
        serve: release.join("serve"),
    };
    for bin in [&bins.run_all, &bins.serve] {
        if !bin.exists() {
            return Err(format!("built binary {} not found", bin.display()));
        }
    }
    Ok(bins)
}

/// Output of one command, for the fingerprint.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fingerprint recorded beside every result, as a JSON object.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let fields = [
        ("cpu", cpu),
        (
            "available_parallelism",
            wp_experiments::engine::available_threads().to_string(),
        ),
        ("kernel", kernel),
        ("rustc", command_line(&rustc, &["-V"])),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        (
            "commit",
            // Outside a git checkout, git would report an enclosing repository.
            if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_string()
            },
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("\"{key}\":{}", json_string(value)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Renders `value` as a JSON string literal.
pub fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Kills and reaps a child on drop unless it was already reaped: no child
/// outlives the harness, even when the harness panics.
pub struct ChildGuard {
    child: Option<Child>,
}

impl ChildGuard {
    pub fn new(child: Child) -> Self {
        Self { child: Some(child) }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// The guarded child, for taking its pipes.
    fn child(&mut self) -> &mut Child {
        self.child.as_mut().expect("the child is not reaped yet")
    }

    /// Waits for the child to exit and returns its exit code (`None` when
    /// a signal ended it) and peak resident set size in KiB.
    pub fn wait_rusage(mut self) -> io::Result<(Option<i32>, u64)> {
        let pid = self.pid() as i32;
        let mut status = 0i32;
        let mut usage = RUsage::default();
        loop {
            // SAFETY: `status` and `usage` are live, writable, and laid out
            // as `wait4(2)` expects; `pid` is our own child, not yet reaped.
            if unsafe { wait4(pid, &mut status, 0, &mut usage) } >= 0 {
                break;
            }
            let error = io::Error::last_os_error();
            if error.kind() != io::ErrorKind::Interrupted {
                return Err(error);
            }
        }
        // Reaped: nothing is left for the drop guard to kill.
        self.child = None;
        let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        Ok((code, usage.maxrss_kb.max(0) as u64))
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    times: [i64; 4],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
}

/// A running `serve` daemon on a Unix socket. Killed and reaped on drop.
pub struct Daemon {
    guard: ChildGuard,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The socket path the daemon listens on.
    pub socket: String,
    /// Spawn to the "listening" line.
    pub setup: Duration,
}

impl Daemon {
    /// Starts a daemon on `socket` over the matrix cache in `cache_dir` and
    /// waits until it listens. `env` adds variables for this daemon only.
    pub fn start(
        bins: &Binaries,
        socket: &str,
        cache_dir: &Path,
        env: &[(&str, String)],
    ) -> io::Result<Daemon> {
        let started = Instant::now();
        let mut command = Command::new(&bins.serve);
        command
            .arg("--listen")
            .arg(socket)
            .arg("--matrix-cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (name, value) in env {
            command.env(name, value);
        }
        let mut guard = ChildGuard::new(command.spawn()?);
        let stdout = guard.child().stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        if !line.starts_with("wp-serve: listening on ") {
            return Err(io::Error::other(format!(
                "the daemon did not start: {line:?}"
            )));
        }
        Ok(Daemon {
            guard,
            _stdout: stdout,
            socket: socket.to_string(),
            setup: started.elapsed(),
        })
    }

    /// The daemon's peak resident set size so far (`VmHWM`), in KiB.
    pub fn peak_rss_kb(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.guard.pid()))?;
        status
            .lines()
            .find(|line| line.starts_with("VmHWM:"))
            .and_then(|line| line.split_whitespace().nth(1))
            .and_then(|kb| kb.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
    }

    /// Opens a client connection.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::open(&self.socket)
    }
}

/// One framed client connection. Unlike `wp_serve::Client` it does not
/// parse responses, so a timed round trip holds only the wire and the
/// daemon.
pub struct Conn {
    stream: UnixStream,
    frames: FrameReader,
}

impl Conn {
    pub fn open(socket: &str) -> io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            frames: FrameReader::new(),
        })
    }

    pub fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    pub fn recv(&mut self) -> io::Result<String> {
        let frame = self.frames.read(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the daemon closed the connection",
            )
        })?;
        String::from_utf8(frame)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 frame"))
    }

    /// One request, one response.
    pub fn call(&mut self, payload: &[u8]) -> io::Result<String> {
        self.send(payload)?;
        self.recv()
    }
}

/// A finished child process, timed from spawn to exit.
pub struct Finished {
    pub seconds: f64,
    pub first_byte_seconds: f64,
    pub stdout: Vec<u8>,
    pub stderr: String,
    pub code: Option<i32>,
    pub peak_rss_kb: u64,
}

/// Runs `command` to completion with stdout and stderr captured.
pub fn run_timed(command: &mut Command) -> io::Result<Finished> {
    let started = Instant::now();
    let mut guard = ChildGuard::new(
        command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?,
    );
    let mut stdout = guard.child().stdout.take().expect("stdout is piped");
    let mut stderr = guard.child().stderr.take().expect("stderr is piped");
    // stderr is a few lines, well inside the pipe buffer: reading stdout to
    // its end first cannot deadlock.
    let mut out = Vec::new();
    let mut chunk = [0u8; 1 << 16];
    let mut first_byte = None;
    loop {
        let got = stdout.read(&mut chunk)?;
        if got == 0 {
            break;
        }
        first_byte.get_or_insert_with(|| started.elapsed());
        out.extend_from_slice(&chunk[..got]);
    }
    let mut err = String::new();
    stderr.read_to_string(&mut err)?;
    let (code, peak_rss_kb) = guard.wait_rusage()?;
    let seconds = started.elapsed().as_secs_f64();
    Ok(Finished {
        seconds,
        first_byte_seconds: first_byte.map_or(seconds, |d| d.as_secs_f64()),
        stdout: out,
        stderr: err,
        code,
        peak_rss_kb,
    })
}
