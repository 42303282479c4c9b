//! Experiment harness that regenerates every table and figure of the
//! evaluation in *Reducing Set-Associative Cache Energy via Way-Prediction
//! and Selective Direct-Mapping* (Powell et al., MICRO 2001).
//!
//! Each experiment module corresponds to one table or figure:
//!
//! | module | paper artefact |
//! |---|---|
//! | [`table3`] | Table 3 — relative cache energy per access type |
//! | [`table4`] | Table 4 — d-cache miss rates, direct-mapped vs 4-way |
//! | [`fig4`] | Figure 4 — sequential-access d-cache energy-delay |
//! | [`fig5`] | Figure 5 — PC- vs XOR-based way-prediction |
//! | [`fig6`] | Figure 6 — selective-DM schemes and access breakdown |
//! | [`table5`] | Table 5 — d-cache technique summary |
//! | [`fig7`] | Figure 7 — effect of cache size (16 KB vs 32 KB) |
//! | [`fig8`] | Figure 8 — effect of associativity (2/4/8-way) |
//! | [`fig9`] | Figure 9 — 2-cycle (high-latency) d-cache |
//! | [`fig10`] | Figure 10 — i-cache way-prediction |
//! | [`fig11`] | Figure 11 — overall processor energy and energy-delay |
//!
//! Each module exposes two entry points, and its result type renders
//! itself as text (`to_table`):
//!
//! * `plan(&RunOptions) -> SimPlan` — the simulation points the artefact
//!   needs, *declared* rather than executed;
//! * `from_matrix(&SimMatrix, &RunOptions) -> …Result` — render the
//!   artefact from already-executed results.
//!
//! [`ARTEFACTS`] lists the eleven modules once, in presentation order, as
//! [`Artefact`] rows; `run_all`, the single-artefact binaries and the
//! golden snapshots all read that table. The [`engine`] module's
//! [`SimEngine`] dedups identical points across every row's plan and
//! executes the unique set in parallel, so `run_all` performs one sweep
//! feeding all eleven renderers instead of eleven serial re-simulations.
//! Every result struct is serialisable and records the paper's reference
//! numbers next to the measured ones; the `wp-experiments` binaries
//! (`table3`, `fig4`, …, `run_all`) print the tables and can dump JSON for
//! EXPERIMENTS.md.
//!
//! A [`SimPoint`]'s workload is a [`wp_workloads::WorkloadSpec`]: a paper
//! benchmark, a stress scenario, or a recorded trace file whose *content
//! digest* is the dedup identity. The `trace_capture` binary records any
//! generated workload in the `WPTR` format (see `docs/TRACE_FORMAT.md`)
//! and `trace_replay` streams it back through this engine, reproducing the
//! live run's statistics exactly. `docs/PAPER_MAP.md` maps each paper
//! artefact to its module, plan, and fidelity knobs.
//!
//! # Example
//!
//! ```no_run
//! use wp_experiments::{fig6, RunOptions, SimEngine};
//!
//! let options = RunOptions::default().with_ops(100_000);
//! let matrix = SimEngine::default().run(&fig6::plan(&options));
//! println!("{}", fig6::from_matrix(&matrix, &options).to_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod conformance;
pub mod coverage;
pub mod engine;
pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod matrix_cache;
pub mod report;
pub mod runner;
pub mod service;
pub mod storage;
pub mod table3;
pub mod table4;
pub mod table5;

pub use compare::PolicyComparison;
pub use engine::{PointObserver, SimEngine, SimMatrix, SimPlan, SimPoint};
pub use matrix_cache::{CacheHealth, EvictLockTimeout, MatrixCache};
pub use report::TextTable;
pub use runner::{simulate_workload, CancelToken, CliError, CliOptions, MachineConfig, RunOptions};
pub use service::{Flight, FlightOutcome, Join, LeaderTicket, PointService, SweepReport};

/// One paper artefact: the name its binary, its `run_all --json` field
/// and its golden file share, the simulation points it reads, and its two
/// renderings from a matrix holding those points.
pub struct Artefact {
    /// The artefact's name: `table3`, `fig4`, ….
    pub name: &'static str,
    /// The module's `plan`.
    pub plan: fn(&RunOptions) -> SimPlan,
    /// The module's `from_matrix` result as a JSON tree.
    pub json: fn(&SimMatrix, &RunOptions) -> serde::Value,
    /// The module's `from_matrix` result as a text table.
    pub table: fn(&SimMatrix, &RunOptions) -> String,
}

/// One [`Artefact`] row per module; every module has the same
/// `plan`/`from_matrix`/`to_table` API.
macro_rules! artefacts {
    ($($module:ident),*) => {
        [$(Artefact {
            name: stringify!($module),
            plan: $module::plan,
            json: |matrix, options| {
                serde::Serialize::to_value(&$module::from_matrix(matrix, options))
            },
            table: |matrix, options| $module::from_matrix(matrix, options).to_table(),
        }),*]
    };
}

/// The paper's evaluation, in presentation order. Once its module exists,
/// adding an artefact is one row here plus `conformance --bless` for its
/// golden snapshot (and a one-call binary named after the row).
pub static ARTEFACTS: [Artefact; 11] =
    artefacts![table3, table4, fig4, fig5, fig6, table5, fig7, fig8, fig9, fig10, fig11];

/// The union plan of every [`ARTEFACTS`] row — the set of simulation points
/// `run_all` executes. Shared by the `run_all` binary and the engine's
/// integration tests so the executed-exactly-once invariant is asserted
/// against exactly what the binary runs.
pub fn run_all_plan(options: &RunOptions) -> SimPlan {
    let mut plan = SimPlan::new();
    for artefact in &ARTEFACTS {
        plan.merge((artefact.plan)(options));
    }
    plan
}

/// Plans, executes and renders one artefact on a fresh engine: the
/// standalone run the module tests share.
#[cfg(test)]
fn run_standalone<R>(
    plan: fn(&RunOptions) -> SimPlan,
    from_matrix: fn(&SimMatrix, &RunOptions) -> R,
    options: &RunOptions,
) -> R {
    from_matrix(&SimEngine::default().run(&plan(options)), options)
}
