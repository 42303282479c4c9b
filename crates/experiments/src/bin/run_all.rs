//! Regenerates every table and figure of the paper in one run and prints
//! them in order.
//!
//! Every [`wp_experiments::ARTEFACTS`] row declares its simulation points
//! up front ([`wp_experiments::run_all_plan`]); the engine dedups the shared points
//! (every d-cache figure reuses the same baseline, Figures 7/8 share the
//! selective-DM machines, …) and executes each unique point exactly once,
//! in parallel. With `--json` the eleven results are emitted as one JSON
//! document instead of text tables. With `--profile FILE` the coverage
//! matrix of an adversarial workload profile (see `docs/WORKLOADS.md`) is
//! merged into the same deduped sweep and reported after the paper
//! artefacts.
//!
//! Usage: `cargo run --release -p wp-experiments --bin run_all
//! [--quick] [--ops N] [--seed N] [--threads N] [--json] [--profile FILE]
//! [--no-matrix-cache] [--matrix-cache-dir PATH] [--matrix-cache-cap BYTES]
//! [--health-json PATH]`
//!
//! Results are memoized on disk (see `wp_experiments::matrix_cache`), so a
//! second identical invocation executes zero simulations; pass
//! `--no-matrix-cache` to force everything to simulate.

use serde::{Serialize, Value};
use wp_experiments::coverage;
use wp_experiments::runner::CliOptions;
use wp_experiments::ARTEFACTS;

fn main() {
    let cli = CliOptions::from_env_or_exit();
    let options = cli.run();
    let engine = cli.engine();
    // Fail fast on a bad profile file, before any simulation runs.
    let profile = cli.profile_or_exit();

    let mut plan = wp_experiments::run_all_plan(&options);
    if let Some(profile) = &profile {
        // One deduped sweep: the profile's coverage points ride the same
        // engine run as the paper artefacts.
        plan.merge(coverage::profile_plan(profile, &options));
    }
    let requested = plan.len();
    let unique = plan.unique_points().len();
    eprintln!(
        "run_all: {requested} requested points -> {unique} unique simulations \
         on {} threads",
        engine.threads()
    );
    let matrix = engine.run(&plan);
    eprintln!(
        "run_all: executed {} simulations, {} served from the matrix cache",
        matrix.executed_points(),
        matrix.cache_hits()
    );
    eprintln!(
        "run_all: {} gangs, {} streams materialized, \
         {} ops generated for {} ops consumed ({:.2}x stream dedup)",
        matrix.gangs(),
        matrix.streams_materialized(),
        matrix.ops_generated(),
        matrix.ops_consumed(),
        matrix.ops_consumed() as f64 / matrix.ops_generated().max(1) as f64,
    );
    eprintln!(
        "run_all: {} lane batches covering {} points (width histogram {:?}), \
         {} width-1 units",
        matrix.lane_batches(),
        matrix.lane_points(),
        &matrix.lane_width_histogram()[2..],
        matrix.lane_scalar_fallback(),
    );
    eprintln!("run_all: cache health: {}", matrix.cache_health());
    if let Some(path) = &cli.health_json {
        // The machine-readable twin of the stderr line above: the same
        // `CacheHealth` struct the wp-serve daemon returns for a `health`
        // request, so dashboards scrape one schema for both entry points.
        let health = wp_experiments::report::to_json(&matrix.cache_health());
        if let Err(error) = std::fs::write(path, format!("{health}\n")) {
            eprintln!(
                "error: cannot write --health-json {}: {error}",
                path.display()
            );
            std::process::exit(1);
        }
    }
    debug_assert_eq!(matrix.executed_points() + matrix.cache_hits(), unique);

    let coverage = profile
        .as_ref()
        .map(|p| coverage::profile_report(p, &matrix, &options));
    if cli.json {
        // Every artefact, in presentation order, then the optional
        // `--profile` coverage matrix: one tree, rendered without a copy.
        let json = wp_experiments::report::to_json_with(|| {
            let artefacts = ARTEFACTS.iter().map(|artefact| {
                let json = (artefact.json)(&matrix, &options);
                (artefact.name.to_string(), json)
            });
            let coverage = ("coverage".to_string(), coverage.to_value());
            Value::Object(artefacts.chain([coverage]).collect())
        });
        println!("{json}");
        return;
    }
    for artefact in &ARTEFACTS {
        println!("{}\n", (artefact.table)(&matrix, &options));
    }
    if let Some(coverage) = &coverage {
        println!("{}\n", coverage.to_table());
    }
}
