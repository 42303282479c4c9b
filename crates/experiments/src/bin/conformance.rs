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
//! [--quick] [--ops N] [--seed N] [--threads N] [--random N] [--bless]
//! [--golden-dir PATH] [--skip-sweep] [--profile FILE]
//! [--faulty-cache SEED]`. `WPSDM_STREAM_MEMORY_CAP` sets the optimized
//! engine's stream spill cap, as for every engine.

use std::path::PathBuf;

use wp_cache::DCachePolicy;
use wp_experiments::conformance::{self, check_plan, random_points, GoldenDrift, GOLDEN_OPTIONS};
use wp_experiments::engine::{SimEngine, SimPlan, SimPoint};
use wp_experiments::runner::{
    exit_usage, options_from_args, parse_value, print_line, MachineConfig, RunOptions,
};
use wp_experiments::storage::FaultyIo;
use wp_experiments::MatrixCache;
use wp_workloads::WorkloadSpec;

const USAGE: &str = "usage: conformance [--quick] [--ops N] [--seed N] [--threads N] \
                     [--random N] [--bless] [--golden-dir PATH] [--skip-sweep] \
                     [--profile FILE] [--faulty-cache SEED]";

struct Cli {
    run: RunOptions,
    /// The optimized-side engine; the oracle walks each point from its
    /// source on as many threads.
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

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    // Split off the conformance-specific flags, then hand the rest to the
    // shared experiment-options parser so the common flags (and their
    // error messages) can never diverge from the other binaries.
    let mut random = 200usize;
    let mut bless = false;
    let mut skip_sweep = false;
    let mut golden_dir: Option<PathBuf> = None;
    let mut faulty_cache: Option<u64> = None;
    let mut shared = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--random" => random = parse_value("--random", args.next())?,
            "--bless" => bless = true,
            "--skip-sweep" => skip_sweep = true,
            "--golden-dir" => golden_dir = Some(parse_value("--golden-dir", args.next())?),
            "--faulty-cache" => faulty_cache = Some(parse_value("--faulty-cache", args.next())?),
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
    let mut options = options_from_args(shared.into_iter())?;
    let profile = options.load_profile().map_err(|e| e.to_string())?;
    // The optimized side runs on the requested threads, without a matrix
    // cache: conformance compares executors, not caches.
    options.no_matrix_cache = true;
    let engine = options.engine();
    Ok(Cli {
        run: options.run(),
        threads: engine.threads(),
        engine,
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
    print_line(format_args!(
        "conformance[{section}]: {} points, {} mismatches",
        reports.len(),
        mismatches.len()
    ));
    for report in &mismatches {
        print_line(format_args!(
            "  MISMATCH {} on {:?} (ops {}, seed {}): fields {:?}",
            report.point.workload,
            report.point.machine.dpolicy,
            report.point.options.ops,
            report.point.options.seed,
            report.diff
        ));
    }
    mismatches.len()
}

fn main() {
    let cli = parse_args(std::env::args().skip(1)).unwrap_or_else(|error| exit_usage(USAGE, error));
    let mut failures = 0usize;

    // ---- 1. the full run_all sweep ----
    if cli.skip_sweep {
        print_line("conformance[sweep]: skipped (--skip-sweep)");
    } else {
        let plan = wp_experiments::run_all_plan(&cli.run);
        let unique = plan.unique_points().len();
        eprintln!(
            "conformance: sweeping {unique} unique run_all points on {} threads \
             (ops {}, seed {})",
            cli.threads, cli.run.ops, cli.run.seed
        );
        failures += tally("sweep", &check_plan(&cli.engine, &plan));
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
            failures += tally("trace", &check_plan(&cli.engine, &plan));
        }
        Err(error) => {
            print_line(format_args!(
                "conformance[trace]: FAILED to capture/open trace: {error}"
            ));
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
        failures += tally("random", &check_plan(&cli.engine, &plan));
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
        failures += tally("faulty-cache-cold", &check_plan(&faulty_engine, &plan));
        // Warm pass: loads are served from whatever survived the fault
        // schedule — hits must be bit-identical, torn records must miss.
        failures += tally("faulty-cache-warm", &check_plan(&faulty_engine, &plan));
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
        failures += tally("profile", &check_plan(&cli.engine, &plan));
    }

    // ---- 5. golden artefact snapshots ----
    if cli.bless {
        match conformance::bless_goldens(&cli.golden_dir, cli.threads) {
            Ok(()) => print_line(format_args!(
                "conformance[golden]: blessed {} artefacts into {} (ops {}, seed {})",
                conformance::golden_names().count(),
                cli.golden_dir.display(),
                GOLDEN_OPTIONS.ops,
                GOLDEN_OPTIONS.seed
            )),
            Err(error) => {
                print_line(format_args!(
                    "conformance[golden]: FAILED to bless: {error}"
                ));
                failures += 1;
            }
        }
    } else {
        let drift = conformance::check_goldens(&cli.golden_dir, cli.threads);
        print_line(format_args!(
            "conformance[golden]: {} artefacts, {} drifting",
            conformance::golden_names().count(),
            drift.len()
        ));
        for entry in &drift {
            match entry {
                GoldenDrift::Missing(name) => print_line(format_args!(
                    "  MISSING golden {name}.json (run `conformance --bless`)"
                )),
                GoldenDrift::Differs(name) => print_line(format_args!(
                    "  DRIFT {name}.json differs from the fresh render \
                     (intentional? re-run `conformance --bless` and commit)"
                )),
            }
        }
        failures += drift.len();
    }

    if failures == 0 {
        print_line("conformance: OK — oracle and optimized stacks agree bit for bit");
    } else {
        print_line(format_args!("conformance: {failures} failures"));
        std::process::exit(1);
    }
}
