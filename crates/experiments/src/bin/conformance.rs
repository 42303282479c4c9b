//! Differential conformance driver: proves the optimized simulator and the
//! `wp-oracle` reference produce bit-identical [`wp_cpu::SimResult`]s, and
//! that the committed golden artefact snapshots have not drifted.
//!
//! Four sections, each reporting its mismatch count:
//!
//! 1. **sweep** — every unique point of the `run_all` union plan (all
//!    264), optimized engine vs. oracle;
//! 2. **trace** — a workload captured to a `WPTR` trace file and replayed
//!    through both backends under several policies;
//! 3. **random** — `--random N` seeded random (configuration, workload)
//!    pairs drawn by [`wp_experiments::conformance::random_points`];
//! 4. **profile** — with `--profile FILE`, the coverage-harness plan of an
//!    adversarial workload profile (its scenarios × config axes × all
//!    d-cache policies), optimized engine vs. oracle;
//! 5. **golden** — `tests/golden/*.json` compared byte-for-byte against a
//!    fresh render at the pinned golden options (`--bless` regenerates the
//!    files instead of checking them).
//!
//! With `--faulty-cache SEED` an extra fault-schedule section runs the
//! optimized engine over a matrix cache whose every I/O operation may fail
//! or tear (seeded, deterministic; see `docs/RELIABILITY.md`), cold then
//! warm, against the oracle — proving no cache fault can corrupt a result.
//!
//! Exits non-zero on any mismatch or drift. See `docs/VALIDATION.md`.
//!
//! Usage: `cargo run --release -p wp-experiments --bin conformance --
//! [--quick] [--ops N] [--seed N] [--threads N] [--no-gang] [--no-lanes]
//! [--stream-cap BYTES] [--random N] [--bless] [--golden-dir PATH]
//! [--skip-sweep] [--profile FILE] [--faulty-cache SEED]`

use std::path::PathBuf;

use wp_cache::DCachePolicy;
use wp_experiments::conformance::{
    self, check_plan_keeping_cache, check_plan_with, random_points, GoldenDrift, GOLDEN_OPTIONS,
};
use wp_experiments::engine::{available_threads, SimEngine, SimPlan, SimPoint};
use wp_experiments::runner::{options_from_args, CliError, MachineConfig, RunOptions};
use wp_experiments::storage::FaultyIo;
use wp_experiments::MatrixCache;
use wp_workloads::WorkloadSpec;

const USAGE: &str = "usage: conformance [--quick] [--ops N] [--seed N] [--threads N] \
                     [--no-gang] [--no-lanes] [--stream-cap BYTES] [--random N] \
                     [--bless] [--golden-dir PATH] [--skip-sweep] [--profile FILE] \
                     [--faulty-cache SEED]";

struct Cli {
    run: RunOptions,
    /// The optimized-side engine (threads, gang setting, stream cap); the
    /// oracle side mirrors its thread count and cap.
    engine: SimEngine,
    threads: usize,
    random: usize,
    bless: bool,
    golden_dir: PathBuf,
    skip_sweep: bool,
    profile: Option<wp_workloads::ProfileSpec>,
    /// With `--faulty-cache SEED`: run the fault-schedule conformance
    /// section — the optimized engine over a matrix cache whose every I/O
    /// operation may fail or tear (seeded, deterministic), twice (cold
    /// store pass, warm load pass), against the oracle.
    faulty_cache: Option<u64>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    // Split off the conformance-specific flags, then hand the rest to the
    // shared experiment-options parser so the common flags (and their
    // error messages) can never diverge from the other binaries.
    let mut random = 200usize;
    let mut bless = false;
    let mut skip_sweep = false;
    let mut golden_dir: Option<PathBuf> = None;
    let mut faulty_cache: Option<u64> = None;
    let mut shared = Vec::new();
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--random" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::MissingValue("--random").to_string())?;
                random = value
                    .parse()
                    .map_err(|_| CliError::InvalidValue("--random", value).to_string())?;
            }
            "--bless" => bless = true,
            "--skip-sweep" => skip_sweep = true,
            "--golden-dir" => {
                golden_dir =
                    Some(PathBuf::from(args.next().ok_or_else(|| {
                        CliError::MissingValue("--golden-dir").to_string()
                    })?));
            }
            "--faulty-cache" => {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::MissingValue("--faulty-cache").to_string())?;
                faulty_cache =
                    Some(value.parse().map_err(|_| {
                        CliError::InvalidValue("--faulty-cache", value).to_string()
                    })?);
            }
            // Shared flags conformance cannot honour must be rejected, not
            // silently ignored — a user asking for `--json` output or a
            // matrix-cache-backed run would otherwise get false assurance.
            "--json" | "--no-matrix-cache" | "--matrix-cache-dir" | "--matrix-cache-cap"
            | "--health-json" => {
                return Err(format!("flag `{arg}` is not supported by conformance"));
            }
            _ => shared.push(arg),
        }
    }
    let options = options_from_args(shared.into_iter()).map_err(|e| e.to_string())?;
    let profile = options.load_profile().map_err(|e| e.to_string())?;
    let threads = options.threads.unwrap_or_else(available_threads);
    let mut engine = SimEngine::new(threads);
    if options.no_gang {
        engine = engine.without_gang();
    }
    if options.no_lanes {
        engine = engine.without_lanes();
    }
    if let Some(cap) = options.stream_cap {
        engine = engine.with_stream_memory_cap(cap);
    }
    Ok(Cli {
        run: options.run,
        engine,
        threads,
        random,
        bless,
        golden_dir: golden_dir.unwrap_or_else(conformance::default_golden_dir),
        skip_sweep,
        profile,
        faulty_cache,
    })
}

/// Runs one section's reports, printing any mismatches; returns the
/// mismatch count.
fn tally(section: &str, reports: &[conformance::PointReport]) -> usize {
    let mismatches: Vec<_> = reports.iter().filter(|r| !r.matches()).collect();
    println!(
        "conformance[{section}]: {} points, {} mismatches",
        reports.len(),
        mismatches.len()
    );
    for report in &mismatches {
        println!(
            "  MISMATCH {} on {:?} (ops {}, seed {}): fields {:?}",
            report.point.workload,
            report.point.machine.dpolicy,
            report.point.options.ops,
            report.point.options.seed,
            report.diff
        );
    }
    mismatches.len()
}

fn main() {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("error: {error}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let mut failures = 0usize;

    // ---- 1. the full run_all sweep ----
    if cli.skip_sweep {
        println!("conformance[sweep]: skipped (--skip-sweep)");
    } else {
        let plan = wp_experiments::run_all_plan(&cli.run);
        let unique = plan.unique_points().len();
        eprintln!(
            "conformance: sweeping {unique} unique run_all points on {} threads \
             (ops {}, seed {})",
            cli.threads, cli.run.ops, cli.run.seed
        );
        failures += tally("sweep", &check_plan_with(&cli.engine, &plan));
    }

    // ---- 2. trace capture → replay through both backends ----
    let trace_dir = std::env::temp_dir().join(format!("wpsdm-conformance-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&trace_dir);
    let trace_path = trace_dir.join("conformance.wptr");
    let capture_spec = WorkloadSpec::parse("gcc").expect("gcc is a paper benchmark");
    let trace_spec = capture_spec
        .stream(cli.run.ops.min(20_000), cli.run.seed)
        .map_err(|e| e.to_string())
        .and_then(|stream| {
            wp_workloads::capture_to_file(stream, &trace_path, "conformance capture")
                .map_err(|e| e.to_string())
        })
        .and_then(|_| WorkloadSpec::from_trace_file(&trace_path).map_err(|e| e.to_string()));
    match trace_spec {
        Ok(spec) => {
            let mut plan = SimPlan::new();
            for dpolicy in [
                DCachePolicy::Parallel,
                DCachePolicy::SelDmWayPredict,
                DCachePolicy::Sequential,
            ] {
                plan.add(SimPoint::with_workload(
                    spec.clone(),
                    MachineConfig::baseline().with_dpolicy(dpolicy),
                    RunOptions {
                        ops: cli.run.ops.min(20_000),
                        seed: 0,
                    },
                ));
            }
            failures += tally("trace", &check_plan_with(&cli.engine, &plan));
        }
        Err(error) => {
            println!("conformance[trace]: FAILED to capture/open trace: {error}");
            failures += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&trace_dir);

    // ---- 3. the seeded random matrix ----
    if cli.random > 0 {
        eprintln!(
            "conformance: checking {} random (config, workload) pairs from seed {}",
            cli.random, cli.run.seed
        );
        let points = random_points(cli.random, cli.run.seed, &[]);
        let mut plan = SimPlan::new();
        for point in points {
            plan.add(point);
        }
        failures += tally("random", &check_plan_with(&cli.engine, &plan));
    }

    // ---- 3b. fault-schedule conformance: optimized over a faulty cache ----
    if let Some(seed) = cli.faulty_cache {
        let cache_dir =
            std::env::temp_dir().join(format!("wpsdm-faulty-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        eprintln!(
            "conformance: fault-schedule pass over {} (fault seed {seed}, 10% per-op), \
             cold then warm",
            cache_dir.display()
        );
        let cache =
            MatrixCache::with_io(&cache_dir, std::sync::Arc::new(FaultyIo::seeded(seed, 100)));
        let faulty_engine = cli.engine.clone().with_matrix_cache(cache.clone());
        let plan = wp_experiments::run_all_plan(&cli.run);
        // Cold pass: everything simulates, stores race injected faults.
        failures += tally(
            "faulty-cache-cold",
            &check_plan_keeping_cache(&faulty_engine, &plan),
        );
        // Warm pass: loads are served from whatever survived the fault
        // schedule — hits must be bit-identical, torn records must miss.
        failures += tally(
            "faulty-cache-warm",
            &check_plan_keeping_cache(&faulty_engine, &plan),
        );
        eprintln!(
            "conformance: faulty cache observed {} io errors, degraded {}",
            cache.io_errors(),
            cache.degraded()
        );
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    // ---- 4. adversarial profile (the coverage-harness plan) ----
    if let Some(profile) = &cli.profile {
        eprintln!(
            "conformance: checking profile `{}` (tier {}) over the coverage plan \
             (ops {}, seed {})",
            profile.name,
            profile.tier.name(),
            cli.run.ops,
            cli.run.seed
        );
        let plan = wp_experiments::coverage::profile_plan(profile, &cli.run);
        failures += tally("profile", &check_plan_with(&cli.engine, &plan));
    }

    // ---- 5. golden artefact snapshots ----
    if cli.bless {
        match conformance::bless_goldens(&cli.golden_dir, cli.threads) {
            Ok(()) => println!(
                "conformance[golden]: blessed {} artefacts into {} (ops {}, seed {})",
                conformance::GOLDEN_ARTEFACTS.len(),
                cli.golden_dir.display(),
                GOLDEN_OPTIONS.ops,
                GOLDEN_OPTIONS.seed
            ),
            Err(error) => {
                println!("conformance[golden]: FAILED to bless: {error}");
                failures += 1;
            }
        }
    } else {
        let drift = conformance::check_goldens(&cli.golden_dir, cli.threads);
        println!(
            "conformance[golden]: {} artefacts, {} drifting",
            conformance::GOLDEN_ARTEFACTS.len(),
            drift.len()
        );
        for entry in &drift {
            match entry {
                GoldenDrift::Missing(name) => {
                    println!("  MISSING golden {name}.json (run `conformance --bless`)")
                }
                GoldenDrift::Differs(name) => println!(
                    "  DRIFT {name}.json differs from the fresh render \
                     (intentional? re-run `conformance --bless` and commit)"
                ),
            }
        }
        failures += drift.len();
    }

    if failures == 0 {
        println!("conformance: OK — oracle and optimized stacks agree bit for bit");
    } else {
        println!("conformance: {failures} failures");
        std::process::exit(1);
    }
}
