//! The three end-to-end workloads, timed from outside the program: the
//! release `run_all` process and `serve` daemon, driven by this harness.
//!
//! Every workload repeats the same phases until the run's time is up. Each
//! repetition is hermetic: a fresh cache directory and fresh socket paths,
//! removed afterwards, and a fresh daemon, killed afterwards.
//!
//! 1. Set-up: start the daemon and wait until it listens (`setup_s`).
//! 2. A cold pass on the empty cache (`cold_s`, `first_frame_ms`).
//! 3. Warm passes over the same inputs (`warm_s`), checked byte for byte
//!    against the cold pass.
//! 4. Point delivery from the warm cache (`p50_us`, `p90_us`,
//!    `req_per_s`), checked against the results of the cold pass.
//! 5. Peak resident memory (`peak_rss_mb`) and the daemon's counters.

use std::io;
use std::path::Path;
use std::process::Command;
use std::sync::Barrier;
use std::time::Instant;

use serde::Value;
use wp_cache::DCachePolicy;
use wp_experiments::{MachineConfig, RunOptions, SimPoint};
use wp_serve::protocol::{
    metrics_request, parse_request, simulate_request, sweep_request, Request, SweepPlanSpec,
};
use wp_workloads::{Benchmark, ProfileSpec};

use crate::host::{run_timed, Binaries, Conn, Daemon, Scratch, TempDir};
use crate::report::{median, percentile, Metric, Outcome};

/// The workloads, by the names `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    ServePoints,
    StressStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::ServePoints,
        Workload::StressStream,
    ];

    /// The workloads `BENCHMARK.json` declares. `stress_stream` runs (and
    /// the self-test runs it) but is not declared: its daemon, after a 2M-op
    /// cold sweep, serves in one of two speed modes for its whole life, so
    /// its round-trip figures swing between runs; its layers are measured
    /// by the traced run.
    pub const DECLARED: [Workload; 2] = [Workload::PaperSweep, Workload::ServePoints];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::ServePoints => "serve_points",
            Workload::StressStream => "stress_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is what the benchmark measures;
/// [`Scale::QUICK`] exercises every path in seconds for the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Ops per point of the `run_all` plan.
    pub paper_ops: usize,
    /// Ops per point of the stress-profile sweep.
    pub stress_ops: usize,
    /// Ops per point of the `serve_points` point set.
    pub serve_ops: usize,
    /// Stream spill cap in bytes; `None` keeps the engine default.
    pub stream_cap: Option<usize>,
    /// Warm `run_all` invocations per `paper_sweep` repetition.
    pub warm_runs: usize,
    /// Warm sweeps per `serve_points` repetition.
    pub serve_warm_sweeps: usize,
    /// Warm sweeps per `stress_stream` repetition.
    pub stress_warm_sweeps: usize,
    /// Closed-loop requests per connection per repetition.
    pub requests_per_conn: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        paper_ops: 400_000,
        stress_ops: 2_000_000,
        serve_ops: 20_000,
        stream_cap: None,
        warm_runs: 5,
        serve_warm_sweeps: 10,
        stress_warm_sweeps: 40,
        requests_per_conn: 3_000,
    };

    /// Small enough to run every workload in seconds; the spill cap is
    /// below the stress streams so the spill path still runs.
    pub const QUICK: Scale = Scale {
        paper_ops: 8_000,
        stress_ops: 20_000,
        serve_ops: 2_000,
        stream_cap: Some(400_000),
        warm_runs: 2,
        serve_warm_sweeps: 2,
        stress_warm_sweeps: 3,
        requests_per_conn: 100,
    };

    pub fn paper_options(&self, seed: u64) -> RunOptions {
        RunOptions::default()
            .with_ops(self.paper_ops)
            .with_seed(seed)
    }

    pub fn stress_options(&self, seed: u64) -> RunOptions {
        RunOptions::default()
            .with_ops(self.stress_ops)
            .with_seed(seed)
    }

    /// Environment for a daemon: the spill cap when the scale sets one.
    pub fn daemon_env(&self) -> Vec<(&'static str, String)> {
        self.stream_cap
            .map(|cap| vec![("WPSDM_STREAM_MEMORY_CAP", cap.to_string())])
            .unwrap_or_default()
    }
}

/// Closed-loop clients. One client keeps the loop below saturation on a
/// 2-core host: with two, the clients and the daemon's connection and
/// worker threads outnumber the cores, scheduler queueing sets the tail,
/// and p99 swung 0.15–6 ms between runs of the same code.
pub const CONNECTIONS: usize = 1;

/// The daemon's default per-connection request budget: the request after
/// it is shed with `overloaded` and the connection closed.
pub const DAEMON_CONN_BUDGET: usize = 1_024;

/// A connection reopens after this many requests, below
/// [`DAEMON_CONN_BUDGET`], outside any timed request.
const REQUESTS_PER_CONNECTION: usize = 1_000;

/// Deadline for every sweep: far beyond any healthy sweep, so only a hung
/// daemon trips it.
const SWEEP_DEADLINE_MS: u64 = 150_000;

/// What one run shares across its repetitions.
pub struct Ctx<'a> {
    pub bins: &'a Binaries,
    pub scratch: &'a Scratch,
    pub seed: u64,
    pub scale: Scale,
    pub stress: &'a ProfileSpec,
}

/// Raw samples pooled across a run's repetitions.
#[derive(Debug, Default)]
pub struct Samples {
    setup_s: Vec<f64>,
    cold_s: Vec<f64>,
    warm_s: Vec<f64>,
    first_frame_ms: Vec<f64>,
    /// Per repetition: the closed loop's median, 90th- and 99th-percentile
    /// round trip, and its responses per second. The 99th percentile is
    /// kept in the run record only: see `ledger/README.md`.
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
    p99_us: Vec<f64>,
    req_per_s: Vec<f64>,
    /// Round trips timed over the whole run.
    round_trips: usize,
    peak_rss_mb: Vec<f64>,
}

/// How a run reduces its per-repetition samples of one metric to a value.
type Summary = fn(&[f64]) -> f64;

impl Samples {
    /// Each metric summarises one sample per repetition. Most take the
    /// median. The loop's tail and throughput take the quiet quarter:
    /// `p90_us` is the 25th percentile of the repetitions' p90s, and
    /// `req_per_s` the 75th percentile of their throughputs. On a shared
    /// host, interference comes and goes from one repetition to the next.
    /// It lifts a repetition's p90 by half and cuts its throughput by a
    /// fifth. The median then follows the share of disturbed repetitions,
    /// and the quiet quarter does not. A metric with no samples (its phase
    /// failed in every repetition) is left out.
    pub fn metrics(&self) -> Vec<Metric> {
        let summaries: [(&'static str, &Vec<f64>, Summary); 8] = [
            ("setup_s", &self.setup_s, median),
            ("cold_s", &self.cold_s, median),
            ("warm_s", &self.warm_s, median),
            ("first_frame_ms", &self.first_frame_ms, median),
            ("p50_us", &self.p50_us, median),
            ("p90_us", &self.p90_us, |v| percentile(v, 25.0)),
            ("req_per_s", &self.req_per_s, |v| percentile(v, 75.0)),
            ("peak_rss_mb", &self.peak_rss_mb, median),
        ];
        summaries
            .into_iter()
            .filter(|(_, values, _)| !values.is_empty())
            .map(|(name, values, summary)| Metric::new(name, summary(values)))
            .collect()
    }

    /// Every per-repetition sample and the round-trip count, for the run
    /// record.
    pub fn to_json(&self) -> String {
        let list = |values: &[f64]| {
            let items: Vec<String> = values.iter().map(f64::to_string).collect();
            format!("[{}]", items.join(","))
        };
        format!(
            "{{\"setup_s\":{},\"cold_s\":{},\"warm_s\":{},\"first_frame_ms\":{},\
             \"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"req_per_s\":{},\
             \"peak_rss_mb\":{},\"round_trips\":{}}}",
            list(&self.setup_s),
            list(&self.cold_s),
            list(&self.warm_s),
            list(&self.first_frame_ms),
            list(&self.p50_us),
            list(&self.p90_us),
            list(&self.p99_us),
            list(&self.req_per_s),
            list(&self.peak_rss_mb),
            self.round_trips
        )
    }
}

/// Runs `workload` for at least `seconds` (whole repetitions, at least one).
pub fn run(
    workload: Workload,
    ctx: &Ctx,
    seconds: f64,
    outcome: &mut Outcome,
) -> io::Result<Samples> {
    let started = Instant::now();
    let mut samples = Samples::default();
    let mut rep = 0;
    loop {
        match workload {
            Workload::PaperSweep => paper_sweep(ctx, rep, &mut samples, outcome)?,
            Workload::ServePoints => serve_points(ctx, rep, &mut samples, outcome)?,
            Workload::StressStream => stress_stream(ctx, rep, &mut samples, outcome)?,
        }
        rep += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            return Ok(samples);
        }
    }
}

/// Every benchmark under every policy in `policies`, on the baseline
/// machine: the points a `simulate` request can name.
pub fn policy_points(policies: &[DCachePolicy], options: RunOptions) -> Vec<SimPoint> {
    Benchmark::all()
        .iter()
        .flat_map(|&benchmark| {
            policies.iter().map(move |&policy| {
                SimPoint::new(
                    benchmark,
                    MachineConfig::baseline().with_dpolicy(policy),
                    options,
                )
            })
        })
        .collect()
}

/// The 88 `serve_points` points: 11 benchmarks × all 8 d-policies.
pub fn serve_point_set(scale: &Scale, seed: u64) -> Vec<SimPoint> {
    let mut policies = DCachePolicy::all().to_vec();
    policies.push(DCachePolicy::PerfectWayPredict);
    policy_points(
        &policies,
        RunOptions::default()
            .with_ops(scale.serve_ops)
            .with_seed(seed),
    )
}

/// The `"result":{...}}` tail shared by a v1 response and a v2 point frame
/// for the same result.
pub fn result_tail(frame: &str) -> Option<&str> {
    frame.find("\"result\":").map(|at| &frame[at..])
}

/// A streamed sweep, as the client saw it.
pub struct Swept {
    /// Request written to terminator read.
    pub seconds: f64,
    /// Request written to first point frame read.
    pub first_frame_s: f64,
    /// Each point's result tail, by plan index.
    pub results: Vec<Option<String>>,
}

/// Sends one v2 sweep and reads its stream. Counts one attempted operation,
/// failed unless every index arrives once and the terminator reports a
/// complete sweep of `points` points.
pub fn sweep(
    conn: &mut Conn,
    payload: &str,
    points: usize,
    outcome: &mut Outcome,
) -> io::Result<Swept> {
    let mut results: Vec<Option<String>> = vec![None; points];
    let started = Instant::now();
    conn.send(payload.as_bytes())?;
    let mut first = None;
    let mut problems = Vec::new();
    let terminal = loop {
        let frame = conn.recv()?;
        if !frame.contains("\"stream\":\"point\"") {
            break frame;
        }
        first.get_or_insert_with(|| started.elapsed());
        let index = frame
            .find("\"index\":")
            .map(|at| &frame[at + 8..])
            .and_then(|rest| rest.split(',').next())
            .and_then(|digits| digits.parse::<usize>().ok());
        match (index, result_tail(&frame)) {
            (Some(index), Some(tail)) if index < points && results[index].is_none() => {
                results[index] = Some(tail.to_string());
            }
            _ => problems.push(format!("unexpected sweep frame {frame:.120}")),
        }
    };
    let seconds = started.elapsed().as_secs_f64();
    let complete = format!("\"points\":{points},\"streamed\":{points},\"complete\":true");
    if !terminal.contains("\"stream\":\"summary\"") || !terminal.contains(&complete) {
        problems.push(format!("sweep did not complete: {terminal:.200}"));
    }
    if results.iter().any(Option::is_none) {
        problems.push("sweep skipped a point index".to_string());
    }
    outcome.check(problems.is_empty(), || problems.join("; "));
    Ok(Swept {
        seconds,
        first_frame_s: first.map_or(seconds, |d| d.as_secs_f64()),
        results,
    })
}

/// Checks a warm sweep's result tails against the cold sweep's.
fn check_same_results(cold: &Swept, warm: &Swept, outcome: &mut Outcome) {
    let differing = cold
        .results
        .iter()
        .zip(&warm.results)
        .filter(|(a, b)| a != b)
        .count();
    outcome.check(differing == 0, || {
        format!("{differing} warm sweep frames differ from the cold sweep's")
    });
}

/// A closed loop's latencies and throughput.
pub struct LoopStats {
    pub latency_us: Vec<f64>,
    pub requests: u64,
    pub seconds: f64,
}

/// splitmix64: the request stream is a pure function of the seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// [`CONNECTIONS`] clients each send `per_conn` v1 `simulate` requests in
/// a closed loop, drawn by seed from `points`. Every response must equal
/// the v1 rendering of `reference[i]`, the result tail the cold pass
/// produced for point `i`; anything else (a mismatch, `overloaded`,
/// `deadline_exceeded`) is a failed request.
pub fn point_loop(
    daemon: &Daemon,
    points: &[SimPoint],
    reference: &[String],
    per_conn: usize,
    stream_seed: u64,
    outcome: &mut Outcome,
) -> io::Result<LoopStats> {
    // Requests and expected responses are rendered before the clock starts.
    let scripts: Vec<Vec<(Vec<u8>, String)>> = (0..CONNECTIONS)
        .map(|client| {
            let mut state = splitmix64(stream_seed ^ (client as u64 + 1));
            (0..per_conn)
                .map(|i| {
                    state = splitmix64(state);
                    let index = (state % points.len() as u64) as usize;
                    let id = (client * per_conn + i + 1) as u64;
                    let request = simulate_request(id, &points[index], None).into_bytes();
                    let expected =
                        format!("{{\"v\":1,\"id\":{id},\"ok\":true,{}", reference[index]);
                    (request, expected)
                })
                .collect()
        })
        .collect();
    let barrier = Barrier::new(CONNECTIONS);
    type ClientRun = io::Result<(Vec<f64>, Vec<String>, Instant, Instant)>;
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let clients: Vec<_> = scripts
            .iter()
            .map(|script| {
                let barrier = &barrier;
                scope.spawn(move || -> ClientRun {
                    let mut conn = daemon.connect()?;
                    let mut latencies = Vec::with_capacity(script.len());
                    let mut mismatches = Vec::new();
                    barrier.wait();
                    let started = Instant::now();
                    for (i, (request, expected)) in script.iter().enumerate() {
                        if i > 0 && i % REQUESTS_PER_CONNECTION == 0 {
                            conn = daemon.connect()?;
                        }
                        let sent = Instant::now();
                        let response = conn.call(request)?;
                        latencies.push(sent.elapsed().as_secs_f64() * 1e6);
                        if response != *expected {
                            mismatches.push(format!("response {response:.160}"));
                        }
                    }
                    Ok((latencies, mismatches, started, Instant::now()))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread panicked"))
            .collect()
    });
    let mut stats = LoopStats {
        latency_us: Vec::new(),
        requests: 0,
        seconds: 0.0,
    };
    let mut window: Option<(Instant, Instant)> = None;
    for run in runs {
        let (latencies, mismatches, started, ended) = run?;
        outcome.attempted += latencies.len() as u64;
        for mismatch in mismatches {
            outcome.fail(mismatch);
        }
        stats.requests += latencies.len() as u64;
        stats.latency_us.extend(latencies);
        window = Some(match window {
            None => (started, ended),
            Some((s, e)) => (s.min(started), e.max(ended)),
        });
    }
    if let Some((started, ended)) = window {
        stats.seconds = (ended - started).as_secs_f64();
    }
    Ok(stats)
}

/// The daemon's v2 `metrics` counters.
pub struct DaemonCounters {
    pub executed: u64,
    pub shed: u64,
    pub coalesced: u64,
}

pub fn daemon_counters(conn: &mut Conn) -> io::Result<DaemonCounters> {
    let response = conn.call(metrics_request(u64::MAX >> 1).as_bytes())?;
    let value = serde_json::from_str(&response)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("metrics: {e}")))?;
    let metrics = value.get("metrics");
    let counter = |name: &str| {
        metrics
            .and_then(|m| m.get(name))
            .and_then(Value::as_u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("no `{name}`")))
    };
    Ok(DaemonCounters {
        executed: counter("executed")?,
        shed: counter("shed")?,
        coalesced: counter("coalesced")?,
    })
}

/// A repetition's set-up: a fresh directory (removed when the guard drops)
/// and a listening daemon over its empty cache. Spawn to "listening" is the
/// repetition's `setup_s` sample.
fn set_up(ctx: &Ctx, rep: usize, s: &mut Samples) -> io::Result<(TempDir, Daemon)> {
    let dir = ctx.scratch.fresh(&format!("rep{rep}"))?;
    let socket = dir.path().join("d.sock");
    let daemon = Daemon::start(
        ctx.bins,
        &socket.to_string_lossy(),
        &dir.path().join("cache"),
        &ctx.scale.daemon_env(),
    )?;
    s.setup_s.push(daemon.setup.as_secs_f64());
    Ok((dir, daemon))
}

/// Checks that the daemon simulated exactly `expected` points: the cold
/// pass's points, and nothing in the warm phases.
fn check_executed(conn: &mut Conn, expected: usize, outcome: &mut Outcome) -> io::Result<()> {
    let executed = daemon_counters(conn)?.executed;
    outcome.check(executed == expected as u64, || {
        format!("the daemon simulated {executed} points, expected {expected}")
    });
    Ok(())
}

/// Runs the closed loop on `daemon` and pools its samples.
fn loop_on(
    ctx: &Ctx,
    daemon: &Daemon,
    points: &[SimPoint],
    reference: &[String],
    rep: usize,
    s: &mut Samples,
    outcome: &mut Outcome,
) -> io::Result<()> {
    if reference.len() != points.len() {
        // The reference sweep already counted as failed; there is nothing
        // to check responses against, and this repetition adds no loop
        // samples.
        return Ok(());
    }
    let stats = point_loop(
        daemon,
        points,
        reference,
        ctx.scale.requests_per_conn,
        ctx.seed ^ rep as u64,
        outcome,
    )?;
    s.p50_us.push(percentile(&stats.latency_us, 50.0));
    s.p90_us.push(percentile(&stats.latency_us, 90.0));
    s.p99_us.push(percentile(&stats.latency_us, 99.0));
    s.req_per_s.push(stats.requests as f64 / stats.seconds);
    s.round_trips += stats.latency_us.len();
    Ok(())
}

/// `run_all --json` at the run's seed over `cache`.
fn run_all_command(ctx: &Ctx, cache: &Path) -> Command {
    let mut command = Command::new(&ctx.bins.run_all);
    command
        .args(["--json", "--ops", &ctx.scale.paper_ops.to_string()])
        .args(["--seed", &ctx.seed.to_string()])
        .arg("--matrix-cache-dir")
        .arg(cache);
    command
}

/// `paper_sweep`: cold then warm `run_all --json`; then a daemon sharing
/// run_all's cache serves run_all's d-policy points.
fn paper_sweep(ctx: &Ctx, rep: usize, s: &mut Samples, outcome: &mut Outcome) -> io::Result<()> {
    let (dir, daemon) = set_up(ctx, rep, s)?;
    let cache = dir.path().join("cache");
    let options = ctx.scale.paper_options(ctx.seed);
    let unique = wp_experiments::run_all_plan(&options).unique_points().len();
    let cold = run_timed(&mut run_all_command(ctx, &cache))?;
    let cold_marker = format!("executed {unique} simulations, 0 served");
    outcome.check(
        cold.code == Some(0) && cold.stderr.contains(&cold_marker),
        || {
            format!(
                "cold run_all: exit {:?}, stderr {:.300}",
                cold.code, cold.stderr
            )
        },
    );
    s.cold_s.push(cold.seconds);
    s.first_frame_ms.push(cold.first_byte_seconds * 1e3);
    s.peak_rss_mb.push(cold.peak_rss_kb as f64 / 1024.0);
    let warm_marker = format!("executed 0 simulations, {unique} served");
    for _ in 0..ctx.scale.warm_runs {
        let warm = run_timed(&mut run_all_command(ctx, &cache))?;
        outcome.check(
            warm.code == Some(0)
                && warm.stderr.contains(&warm_marker)
                && warm.stdout == cold.stdout,
            || format!("warm run_all differs from cold: exit {:?}", warm.code),
        );
        s.warm_s.push(warm.seconds);
    }

    // run_all's d-policy points, read back through the daemon.
    let points = policy_points(&DCachePolicy::all(), options);
    let payload = sweep_request(
        1,
        &SweepPlanSpec::Points(points.clone()),
        options.ops as u64,
        options.seed,
        Some(SWEEP_DEADLINE_MS),
        None,
    );
    let mut conn = daemon.connect()?;
    let swept = sweep(&mut conn, &payload, points.len(), outcome)?;
    let reference: Vec<String> = swept.results.into_iter().flatten().collect();
    loop_on(ctx, &daemon, &points, &reference, rep, s, outcome)?;
    check_executed(&mut conn, 0, outcome)
}

/// `serve_points`: a cold v2 `points` sweep fills the cache, warm sweeps
/// re-read it, then a closed loop of v1 `simulate` requests.
fn serve_points(ctx: &Ctx, rep: usize, s: &mut Samples, outcome: &mut Outcome) -> io::Result<()> {
    let (_dir, daemon) = set_up(ctx, rep, s)?;
    let points = serve_point_set(&ctx.scale, ctx.seed);
    let payload = sweep_request(
        1,
        &SweepPlanSpec::Points(points.clone()),
        ctx.scale.serve_ops as u64,
        ctx.seed,
        Some(SWEEP_DEADLINE_MS),
        None,
    );
    let mut conn = daemon.connect()?;
    let cold = sweep(&mut conn, &payload, points.len(), outcome)?;
    s.cold_s.push(cold.seconds);
    s.first_frame_ms.push(cold.first_frame_s * 1e3);
    for _ in 0..ctx.scale.serve_warm_sweeps {
        let warm = sweep(&mut conn, &payload, points.len(), outcome)?;
        check_same_results(&cold, &warm, outcome);
        s.warm_s.push(warm.seconds);
    }
    let reference: Vec<String> = cold.results.into_iter().flatten().collect();
    loop_on(ctx, &daemon, &points, &reference, rep, s, outcome)?;
    check_executed(&mut conn, points.len(), outcome)?;
    s.peak_rss_mb.push(daemon.peak_rss_kb()? as f64 / 1024.0);
    Ok(())
}

/// `stress_stream`: a cold v2 sweep of the stress profile, past the spill
/// cap, then warm sweeps; then a closed loop of v1 `simulate` requests for
/// the stress points a request can name.
fn stress_stream(ctx: &Ctx, rep: usize, s: &mut Samples, outcome: &mut Outcome) -> io::Result<()> {
    let (_dir, daemon) = set_up(ctx, rep, s)?;
    let options = ctx.scale.stress_options(ctx.seed);
    let points = wp_experiments::coverage::profile_plan(ctx.stress, &options).unique_points();
    let payload = sweep_request(
        1,
        &SweepPlanSpec::Profile(ctx.stress.clone()),
        options.ops as u64,
        options.seed,
        Some(SWEEP_DEADLINE_MS),
        None,
    );
    let mut conn = daemon.connect()?;
    let cold = sweep(&mut conn, &payload, points.len(), outcome)?;
    s.cold_s.push(cold.seconds);
    s.first_frame_ms.push(cold.first_frame_s * 1e3);
    for _ in 0..ctx.scale.stress_warm_sweeps {
        let warm = sweep(&mut conn, &payload, points.len(), outcome)?;
        check_same_results(&cold, &warm, outcome);
        s.warm_s.push(warm.seconds);
    }
    // The `simulate` request names a machine only by its d-policy, i-policy
    // and d-cache associativity, so the latency and prediction-table axes
    // of the stress plan stay sweep-only: 42 of its 84 points qualify.
    let (named, reference): (Vec<SimPoint>, Vec<String>) = points
        .iter()
        .zip(&cold.results)
        .filter(|(point, _)| {
            matches!(
                parse_request(simulate_request(1, point, None).as_bytes()),
                Ok(Request::Simulate { point: parsed, .. }) if *parsed == **point
            )
        })
        .filter_map(|(point, result)| Some((point.clone(), result.clone()?)))
        .unzip();
    loop_on(ctx, &daemon, &named, &reference, rep, s, outcome)?;
    check_executed(&mut conn, points.len(), outcome)?;
    s.peak_rss_mb.push(daemon.peak_rss_kb()? as f64 / 1024.0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_summarise_repetitions_and_skip_empty_phases() {
        let mut samples = Samples::default();
        assert!(samples.metrics().is_empty());
        samples.setup_s = vec![3.0, 1.0, 2.0];
        samples.p90_us = vec![40.0, 10.0, 30.0, 20.0];
        samples.req_per_s = vec![40.0, 10.0, 30.0, 20.0];
        assert_eq!(
            samples.metrics(),
            vec![
                Metric::new("setup_s", 2.0),
                Metric::new("p90_us", 10.0),
                Metric::new("req_per_s", 30.0),
            ]
        );
    }
}
