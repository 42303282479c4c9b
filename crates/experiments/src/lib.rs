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
//! Each module exposes three entry points:
//!
//! * `plan(&RunOptions) -> SimPlan` — the simulation points the artefact
//!   needs, *declared* rather than executed;
//! * `from_matrix(&SimMatrix, &RunOptions) -> …Result` — render the
//!   artefact from already-executed results;
//! * `run(&RunOptions) -> …Result` — standalone convenience combining the
//!   two through a fresh [`SimEngine`].
//!
//! The [`engine`] module's [`SimEngine`] dedups identical points across
//! every consumer's plan and executes the unique set in parallel, so
//! `run_all` performs one sweep feeding all eleven renderers instead of
//! eleven serial re-simulations. Every result struct is serialisable and
//! records the paper's reference numbers next to the measured ones; the
//! `wp-experiments` binaries (`table3`, `fig4`, …, `run_all`) print the
//! tables and can dump JSON for EXPERIMENTS.md.
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
//! use wp_experiments::{fig6, RunOptions};
//!
//! let options = RunOptions::default().with_ops(100_000);
//! let result = fig6::run(&options);
//! println!("{}", result.to_table());
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
pub use runner::{
    simulate_workload, simulate_workload_cancellable, CancelToken, Cancelled, CliError, CliOptions,
    MachineConfig, RunOptions,
};
pub use service::{Flight, FlightOutcome, Join, LeaderTicket, PointService, SweepReport};

/// The union plan of every table and figure — the set of simulation points
/// `run_all` executes. Shared by the `run_all` binary and the engine's
/// integration tests so the executed-exactly-once invariant is asserted
/// against exactly what the binary runs.
pub fn run_all_plan(options: &RunOptions) -> SimPlan {
    let mut plan = SimPlan::new();
    for points in [
        table3::plan(options),
        table4::plan(options),
        fig4::plan(options),
        fig5::plan(options),
        fig6::plan(options),
        table5::plan(options),
        fig7::plan(options),
        fig8::plan(options),
        fig9::plan(options),
        fig10::plan(options),
        fig11::plan(options),
    ] {
        plan.merge(points);
    }
    plan
}
