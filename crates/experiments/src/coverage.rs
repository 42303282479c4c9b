//! The (policy × config-axis × outcome-class) coverage harness.
//!
//! The adversarial workload profiles (`wp_workloads::ProfileSpec`) exist to
//! *reach* simulator states the paper's benchmarks visit only incidentally:
//! mispredicted-way probes, selective-DM fallbacks to the set-associative
//! side, victim-list conflicts, dirty write-backs, L2 re-hits, stale fetch
//! way fields. This module turns one profile run into an explicit coverage
//! matrix — one row per (d-cache policy, configuration axis), one column
//! per outcome class — and hard-asserts that every cell a profile was
//! *designed* to reach is in fact non-zero ([`check_designed_cells`]).
//!
//! Three surfaces consume it:
//!
//! * the `coverage_report` binary prints the matrix and enforces the
//!   designed cells (CI runs it and uploads the JSON artifact);
//! * the `coverage` golden snapshot (`tests/golden/coverage.json`) pins
//!   every count at [`crate::conformance::GOLDEN_OPTIONS`], so any counter
//!   drift shows up as a reviewable diff;
//! * `run_all --profile <file>` appends the matrix for an on-disk profile
//!   to its report.
//!
//! A reference report over two paper benchmarks ([`reference_workloads`],
//! base axis only) rides along so classes the adversarial generators
//! deliberately do not emit (return-stack way hits need call/return pairs)
//! still have a covering cell — [`check_taxonomy`] proves no outcome class
//! is dead across the union.

use serde::Serialize;
use wp_cache::{DCachePolicy, ICachePolicy, L1Config};
use wp_cpu::SimResult;
use wp_workloads::{Benchmark, ProfileSpec, WorkloadSpec};

use crate::engine::{SimEngine, SimMatrix, SimPlan, SimPoint};
use crate::report::TextTable;
use crate::runner::{MachineConfig, RunOptions};

/// Every outcome class, in column order. Each is a counter (or counter
/// difference) of [`SimResult`]; see [`outcome_counts`] for the mapping.
pub const OUTCOME_CLASSES: [&str; 14] = [
    "single_way_hit",     // loads that hit their one probed way first try
    "mispredicted_way",   // loads needing a corrective second probe
    "dm_side",            // selective-DM loads probing only the DM way
    "sa_side",            // selective-DM loads predicted conflicting (SA)
    "parallel",           // conventional parallel probes
    "sequential",         // tag-then-data sequential probes
    "victim_list",        // blocks placed SA on the victim list's say-so
    "dirty_eviction",     // evictions that wrote back a dirty block
    "l2_hit",             // L1 misses serviced by the L2
    "l2_miss",            // L1 misses that fell through to memory
    "sawp_correct",       // fetches whose way the SAWP supplied
    "btb_correct",        // fetches whose way a branch structure supplied
    "ras_correct",        // the return-address-stack subset of btb_correct
    "fetch_mispredicted", // fetches probing a stale predicted way
];

/// Projects one simulation result onto the outcome-class columns, in
/// [`OUTCOME_CLASSES`] order.
pub fn outcome_counts(result: &SimResult) -> [u64; 14] {
    let d = &result.dcache;
    let i = &result.icache;
    [
        d.single_way_load_hits,
        d.mispredicted_accesses,
        d.direct_mapped_accesses,
        d.seldm_predicted_sa,
        d.parallel_accesses,
        d.sequential_accesses,
        d.victim_list_hits,
        d.dirty_evictions,
        result.activity.l2_accesses - result.memory_accesses,
        result.memory_accesses,
        i.sawp_correct,
        i.btb_correct,
        i.ras_correct,
        i.mispredicted,
    ]
}

/// The configuration axes a profile sweeps, as (name, machine) pairs. The
/// d-cache policy is substituted per row; the i-cache always way-predicts
/// so the fetch-side classes are live.
pub fn config_axes() -> [(&'static str, MachineConfig); 4] {
    let base = MachineConfig::baseline().with_ipolicy(ICachePolicy::WayPredict);
    [
        ("base", base),
        (
            "assoc8",
            base.with_l1d(L1Config::paper_dcache().with_associativity(8)),
        ),
        (
            "lat2",
            base.with_l1d(L1Config::paper_dcache().with_base_latency(2)),
        ),
        (
            "table256",
            base.with_l1d(L1Config::paper_dcache().with_prediction_table_entries(256)),
        ),
    ]
}

/// The d-cache policies a profile sweeps: every concrete paper policy.
pub fn policies() -> [DCachePolicy; 7] {
    DCachePolicy::all()
}

/// The benchmark pair behind the reference report: ordinary call/return
/// heavy workloads covering the classes the adversarial generators do not
/// emit by design.
pub fn reference_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::Benchmark(Benchmark::Li),
        WorkloadSpec::Benchmark(Benchmark::Gcc),
    ]
}

/// One (policy, configuration-axis) row of the matrix: outcome-class
/// counts summed over the profile's workloads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CoverageRow {
    /// D-cache policy label ([`DCachePolicy::label`]).
    pub policy: String,
    /// Configuration-axis name (see [`config_axes`]).
    pub axis: String,
    /// Counts in [`OUTCOME_CLASSES`] column order.
    pub counts: Vec<u64>,
}

/// The full coverage matrix for one profile (or reference workload set).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CoverageReport {
    /// Profile name the matrix was measured over.
    pub profile: String,
    /// The profile's scale tier (or `"reference"` for the benchmark rows).
    pub tier: String,
    /// Ops simulated per point.
    pub ops: usize,
    /// Workload stream seed.
    pub seed: u64,
    /// Column names, always [`OUTCOME_CLASSES`].
    pub classes: Vec<String>,
    /// One row per (policy, axis), policies major.
    pub rows: Vec<CoverageRow>,
}

impl CoverageReport {
    /// The count in one cell, or `None` if the row does not exist.
    pub fn count(&self, policy: DCachePolicy, axis: &str, class: &str) -> Option<u64> {
        let column = OUTCOME_CLASSES.iter().position(|c| *c == class)?;
        self.rows
            .iter()
            .find(|row| row.policy == policy.label() && row.axis == axis)
            .map(|row| row.counts[column])
    }

    /// True if the cell exists and is non-zero.
    pub fn reached(&self, policy: DCachePolicy, axis: &str, class: &str) -> bool {
        self.count(policy, axis, class).is_some_and(|n| n > 0)
    }

    /// Renders the matrix as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut headers = vec!["policy".to_string(), "axis".to_string()];
        headers.extend(OUTCOME_CLASSES.iter().map(|c| c.to_string()));
        let mut table = TextTable::new(headers);
        for row in &self.rows {
            let mut cells = vec![row.policy.clone(), row.axis.clone()];
            cells.extend(row.counts.iter().map(|n| n.to_string()));
            table.add_row(cells);
        }
        format!(
            "coverage `{}` (tier {}, ops {}, seed {})\n{}",
            self.profile,
            self.tier,
            self.ops,
            self.seed,
            table.render()
        )
    }
}

/// The simulation points one workload set needs: every workload × every
/// concrete d-cache policy × every configuration axis in `axes`.
pub fn workload_plan(
    workloads: &[WorkloadSpec],
    axes: &[(&str, MachineConfig)],
    options: &RunOptions,
) -> SimPlan {
    let mut plan = SimPlan::new();
    for workload in workloads {
        for (_, machine) in axes {
            for policy in policies() {
                plan.add(SimPoint::with_workload(
                    workload.clone(),
                    machine.with_dpolicy(policy),
                    *options,
                ));
            }
        }
    }
    plan
}

/// [`workload_plan`] for a profile's scenarios over every
/// [`config_axes`] entry.
pub fn profile_plan(profile: &ProfileSpec, options: &RunOptions) -> SimPlan {
    workload_plan(&profile.workloads(), &config_axes(), options)
}

/// Builds the matrix for `workloads` over `axes` from already-executed
/// results.
///
/// # Panics
///
/// Panics if `matrix` is missing any point of
/// [`workload_plan`]`(workloads, axes, options)`.
pub fn report_from_matrix(
    profile_name: &str,
    tier: &str,
    workloads: &[WorkloadSpec],
    axes: &[(&str, MachineConfig)],
    matrix: &SimMatrix,
    options: &RunOptions,
) -> CoverageReport {
    let rows = policies()
        .iter()
        .flat_map(|&policy| {
            axes.iter().map(move |&(axis, machine)| {
                let mut counts = [0u64; 14];
                for workload in workloads {
                    let result =
                        matrix.require_workload(workload, &machine.with_dpolicy(policy), options);
                    for (total, count) in counts.iter_mut().zip(outcome_counts(result)) {
                        *total += count;
                    }
                }
                CoverageRow {
                    policy: policy.label().to_string(),
                    axis: axis.to_string(),
                    counts: counts.to_vec(),
                }
            })
        })
        .collect();
    CoverageReport {
        profile: profile_name.to_string(),
        tier: tier.to_string(),
        ops: options.ops,
        seed: options.seed,
        classes: OUTCOME_CLASSES.iter().map(|c| c.to_string()).collect(),
        rows,
    }
}

/// [`report_from_matrix`] for a profile's scenarios.
pub fn profile_report(
    profile: &ProfileSpec,
    matrix: &SimMatrix,
    options: &RunOptions,
) -> CoverageReport {
    report_from_matrix(
        &profile.name,
        profile.tier.name(),
        &profile.workloads(),
        &config_axes(),
        matrix,
        options,
    )
}

/// One cell a profile is designed to reach, and why.
#[derive(Debug, Clone, Copy)]
pub struct DesignedCell {
    /// The row's d-cache policy.
    pub policy: DCachePolicy,
    /// The row's configuration axis.
    pub axis: &'static str,
    /// The column.
    pub class: &'static str,
    /// The attack mechanism that reaches the cell.
    pub why: &'static str,
}

/// The cells every tier of the adversarial family must reach, plus the
/// extra thrash cells the stress and adversarial tiers add. The expected
/// tier is *designed* to stay inside the associativity (no evictions, no
/// refetch churn), so the eviction-driven cells apply only above it.
pub fn designed_cells(tier: &str) -> Vec<DesignedCell> {
    let cell = |policy, axis, class, why| DesignedCell {
        policy,
        axis,
        class,
        why,
    };
    let mut cells = vec![
        cell(
            DCachePolicy::Parallel,
            "base",
            "parallel",
            "the parallel policy probes every way on every load",
        ),
        cell(
            DCachePolicy::Sequential,
            "base",
            "sequential",
            "the sequential policy serialises tag and data on every load",
        ),
        cell(
            DCachePolicy::WayPredictPc,
            "base",
            "single_way_hit",
            "phase-flip private blocks keep stable ways the PC table learns",
        ),
        cell(
            DCachePolicy::WayPredictPc,
            "base",
            "mispredicted_way",
            "way-alias thrash folds distinct PCs onto one table entry",
        ),
        cell(
            DCachePolicy::WayPredictPc,
            "table256",
            "mispredicted_way",
            "the alias stride folds into smaller tables too (4096 B ≡ 0 mod 256 slots)",
        ),
        cell(
            DCachePolicy::SelDmWayPredict,
            "base",
            "dm_side",
            "phase-flip private blocks are non-conflicting, so the PC counter predicts DM",
        ),
        // The SA-side evidence the per-PC counter trains on is a re-hit in
        // a set-associative way. The adversarial chase rotates one block
        // more than the 4-way base cache holds, so on `base` every access
        // misses and the counter never sees the SA side — that signal moves
        // to the 8-way axis where the rotation fits. The lower tiers keep
        // the chase within 4 ways and train the counter on `base` directly.
        cell(
            DCachePolicy::SelDmWayPredict,
            if tier == "adversarial" {
                "assoc8"
            } else {
                "base"
            },
            "sa_side",
            "conflict-chase blocks share one DM line, driving the PC counter to the SA side",
        ),
        cell(
            DCachePolicy::SelDmWayPredict,
            "base",
            "victim_list",
            "chase blocks collide in the DM projection and land on the victim list",
        ),
        cell(
            DCachePolicy::Parallel,
            "base",
            "l2_miss",
            "cold first touches fall through the L2 to memory",
        ),
        cell(
            DCachePolicy::Parallel,
            "base",
            "sawp_correct",
            "steady-phase sequential block edges train the SAWP",
        ),
        cell(
            DCachePolicy::Parallel,
            "base",
            "btb_correct",
            "the generators' taken branches carry BTB way fields",
        ),
    ];
    if tier != "expected" {
        cells.extend([
            cell(
                DCachePolicy::Parallel,
                "base",
                "dirty_eviction",
                "conflict rotations above the associativity evict stored-to blocks",
            ),
            cell(
                DCachePolicy::Parallel,
                "base",
                "l2_hit",
                "evicted blocks are re-touched while still L2-resident",
            ),
            cell(
                DCachePolicy::Parallel,
                "base",
                "fetch_mispredicted",
                "the flip burst evicts the loop block and leaves stale fetch way fields",
            ),
        ]);
    }
    cells
}

/// Checks a profile report against [`designed_cells`]`(report.tier)`;
/// returns one message per unreached cell (empty means full coverage).
pub fn check_designed_cells(report: &CoverageReport) -> Vec<String> {
    designed_cells(&report.tier)
        .into_iter()
        .filter(|cell| !report.reached(cell.policy, cell.axis, cell.class))
        .map(|cell| {
            format!(
                "profile `{}` (tier {}) never reached ({}, {}, {}) — designed via: {}",
                report.profile,
                report.tier,
                cell.policy.label(),
                cell.axis,
                cell.class,
                cell.why
            )
        })
        .collect()
}

/// Checks that every outcome class is reached by at least one cell across
/// `reports` — no dead columns in the taxonomy. Returns one message per
/// dead class.
pub fn check_taxonomy(reports: &[CoverageReport]) -> Vec<String> {
    OUTCOME_CLASSES
        .iter()
        .enumerate()
        .filter(|&(column, _)| {
            !reports
                .iter()
                .flat_map(|r| r.rows.iter())
                .any(|row| row.counts[column] > 0)
        })
        .map(|(_, class)| format!("outcome class `{class}` is reached by no report cell"))
        .collect()
}

/// The full coverage artefact: the three built-in tier matrices plus the
/// benchmark reference matrix. This is the structure the `coverage` golden
/// snapshot pins and the `coverage_report` binary emits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CoverageArtefact {
    /// Tier matrices in [`wp_workloads::ProfileTier::all`] order, then the
    /// reference matrix.
    pub reports: Vec<CoverageReport>,
}

impl CoverageArtefact {
    /// The tier reports (everything except the trailing reference report).
    pub fn tier_reports(&self) -> &[CoverageReport] {
        &self.reports[..self.reports.len() - 1]
    }

    /// Every designed-cell and taxonomy failure across the artefact.
    pub fn failures(&self) -> Vec<String> {
        let mut failures: Vec<String> = self
            .tier_reports()
            .iter()
            .flat_map(check_designed_cells)
            .collect();
        failures.extend(check_taxonomy(&self.reports));
        failures
    }
}

/// The union plan behind [`CoverageArtefact`]: all three built-in tiers
/// plus the benchmark reference rows, whose matrix covers the base axis
/// only.
pub fn artefact_plan(options: &RunOptions) -> SimPlan {
    let mut plan = SimPlan::new();
    for profile in ProfileSpec::builtin_all() {
        plan.merge(profile_plan(&profile, options));
    }
    plan.merge(workload_plan(
        &reference_workloads(),
        &config_axes()[..1],
        options,
    ));
    plan
}

/// Builds the full artefact from already-executed results ([`artefact_plan`]
/// points).
pub fn artefact_from_matrix(matrix: &SimMatrix, options: &RunOptions) -> CoverageArtefact {
    let mut reports: Vec<CoverageReport> = ProfileSpec::builtin_all()
        .iter()
        .map(|profile| profile_report(profile, matrix, options))
        .collect();
    reports.push(report_from_matrix(
        "benchmarks",
        "reference",
        &reference_workloads(),
        &config_axes()[..1],
        matrix,
        options,
    ));
    CoverageArtefact { reports }
}

/// Standalone convenience: executes [`artefact_plan`] on `engine` and
/// renders the artefact.
pub fn run_artefact(engine: &SimEngine, options: &RunOptions) -> CoverageArtefact {
    artefact_from_matrix(&engine.run(&artefact_plan(options)), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::GOLDEN_OPTIONS;

    #[test]
    fn outcome_columns_and_counts_stay_in_lockstep() {
        // Any simulated result projects onto exactly one count per column.
        let result = crate::runner::simulate_workload(
            &WorkloadSpec::Benchmark(Benchmark::Li),
            &MachineConfig::baseline(),
            &RunOptions::quick().with_ops(2_000),
        );
        assert_eq!(outcome_counts(&result).len(), OUTCOME_CLASSES.len());
    }

    #[test]
    fn profile_plans_cover_policies_times_axes_times_scenarios() {
        let profile = ProfileSpec::builtin(wp_workloads::ProfileTier::Stress);
        let plan = profile_plan(&profile, &GOLDEN_OPTIONS);
        assert_eq!(
            plan.unique_points().len(),
            profile.scenarios.len() * policies().len() * config_axes().len()
        );
    }

    #[test]
    fn designed_cells_scale_with_the_tier() {
        let expected = designed_cells("expected").len();
        let stress = designed_cells("stress").len();
        assert!(stress > expected, "stress adds the eviction-driven cells");
        assert_eq!(designed_cells("adversarial").len(), stress);
        // Every designed cell names a real policy/axis/class combination.
        for cell in designed_cells("adversarial") {
            assert!(OUTCOME_CLASSES.contains(&cell.class));
            assert!(config_axes().iter().any(|(axis, _)| *axis == cell.axis));
        }
    }

    #[test]
    fn cell_lookup_distinguishes_rows_and_flags_missing_cells() {
        let report = CoverageReport {
            profile: "t".into(),
            tier: "stress".into(),
            ops: 1,
            seed: 0,
            classes: OUTCOME_CLASSES.iter().map(|c| c.to_string()).collect(),
            rows: vec![CoverageRow {
                policy: DCachePolicy::Parallel.label().to_string(),
                axis: "base".to_string(),
                counts: vec![0; 14],
            }],
        };
        assert_eq!(
            report.count(DCachePolicy::Parallel, "base", "parallel"),
            Some(0)
        );
        assert!(!report.reached(DCachePolicy::Parallel, "base", "parallel"));
        assert_eq!(
            report.count(DCachePolicy::Sequential, "base", "parallel"),
            None
        );
        // A zeroed stress report fails its designed cells with named rows.
        let failures = check_designed_cells(&report);
        assert!(!failures.is_empty());
        assert!(failures[0].contains("designed via"));
        // And an all-zero report set leaves the whole taxonomy dead.
        assert_eq!(check_taxonomy(&[report]).len(), OUTCOME_CLASSES.len());
    }
}
