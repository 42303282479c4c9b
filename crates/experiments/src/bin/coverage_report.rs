//! Emits the (policy × config-axis × outcome-class) coverage matrix for
//! the adversarial workload profiles and hard-asserts the designed cells.
//!
//! By default the three built-in tiers (`expected`, `stress`,
//! `adversarial`) and the benchmark reference rows are simulated at the
//! golden options and printed as aligned tables (`--json` for the exact
//! structure committed at `tests/golden/coverage.json`). With
//! `--profile FILE` the matrix of an on-disk profile is reported instead,
//! checked against its tier's designed cells.
//!
//! Exits 1 if any designed cell is unreached or any outcome class is dead
//! across the report set; exits 2 on a bad command line or profile file.
//!
//! Usage: `cargo run --release -p wp-experiments --bin coverage_report --
//! [--quick] [--ops N] [--seed N] [--threads N] [--json] [--profile FILE]
//! [--no-matrix-cache] [--matrix-cache-dir PATH]`

use wp_experiments::conformance::GOLDEN_OPTIONS;
use wp_experiments::coverage::{self, check_designed_cells, CoverageArtefact};
use wp_experiments::runner::{print_line, CliOptions};

fn main() {
    let cli = CliOptions::from_env_or_exit();
    // The shared parser defaults to the full 400 k-op experiment length;
    // coverage runs at the pinned golden options unless the command line
    // says otherwise, so the default invocation reproduces the committed
    // snapshot.
    let options = if cli.quick || cli.ops.is_some() || cli.seed.is_some() {
        cli.run()
    } else {
        GOLDEN_OPTIONS
    };
    let engine = cli.engine();

    let (reports, failures) = match cli.profile_or_exit() {
        Some(profile) => {
            let matrix = engine.run(&coverage::profile_plan(&profile, &options));
            let report = coverage::profile_report(&profile, &matrix, &options);
            let failures = check_designed_cells(&report);
            (vec![report], failures)
        }
        None => {
            let artefact = coverage::run_artefact(&engine, &options);
            let failures = artefact.failures();
            (artefact.reports, failures)
        }
    };

    if cli.json {
        print_line(wp_experiments::report::to_json(&CoverageArtefact {
            reports: reports.clone(),
        }));
    } else {
        for report in &reports {
            print_line(report.to_table());
        }
    }

    if failures.is_empty() {
        eprintln!(
            "coverage_report: OK — every designed cell reached across {} report(s)",
            reports.len()
        );
    } else {
        for failure in &failures {
            eprintln!("coverage_report: FAILED: {failure}");
        }
        std::process::exit(1);
    }
}
