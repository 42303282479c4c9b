//! Trace-driven out-of-order processor timing model for the wpsdm
//! reproduction of *Reducing Set-Associative Cache Energy via Way-Prediction
//! and Selective Direct-Mapping* (Powell et al., MICRO 2001).
//!
//! The paper measures performance with SimpleScalar's out-of-order model
//! (8-wide, 64-entry reorder buffer, 32-entry load/store queue, 2-level
//! hybrid branch predictor — Table 1) and energy with Wattch. This crate
//! provides an equivalent-fidelity substitute: a trace-driven scheduler that
//! models fetch bandwidth and i-cache behaviour, branch prediction and
//! misprediction redirects, register-dependence-limited issue, finite ROB
//! and LSQ occupancy, in-order commit, and d-cache/L2/memory latencies. Its
//! purpose is to capture what the paper's performance numbers rest on: an
//! out-of-order core absorbs an occasional extra cycle on a mispredicted
//! load but cannot hide an extra cycle on *every* load (sequential access).
//!
//! The model also counts per-unit activity for the Wattch-style
//! [`wp_energy::ProcessorEnergyModel`].
//!
//! One scheduling loop runs every simulation: a walker that, per op,
//! updates the branch predictor once, services a load or store once for
//! every lane, then steps each lane's scheduler. [`Processor`] walks one
//! lane over its own bare d-cache controller; [`run_lane_batch`] walks up
//! to [`MAX_LANES`] configurations that share a d-cache policy and geometry
//! through one stream, each lane bit-identical to a [`Processor`] run.
//!
//! [`Processor::run`] consumes any `IntoIterator<Item = MicroOp>`, so a
//! live [`wp_workloads::TraceGenerator`], a [`wp_workloads::Scenario`]
//! stream, and a recorded [`wp_workloads::TraceReplay`] streaming off disk
//! are all simulated identically — a capture→replay round trip reproduces
//! the live run's statistics bit for bit:
//!
//! ```
//! use std::io::Cursor;
//! use wp_cpu::{CpuConfig, Processor};
//! use wp_workloads::{Benchmark, TraceConfig, TraceGenerator};
//! use wp_workloads::{TraceReader, TraceWriter};
//! use wp_cache::{DCachePolicy, ICachePolicy, L1Config};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let build = || {
//!     Processor::with_l1(
//!         CpuConfig::default(),
//!         L1Config::paper_dcache(),
//!         DCachePolicy::SelDmWayPredict,
//!         L1Config::paper_icache(),
//!         ICachePolicy::WayPredict,
//!     )
//!     .expect("paper configuration is valid")
//! };
//! let config = TraceConfig::new(Benchmark::Li).with_ops(5_000);
//!
//! // Live generator.
//! let live = build().run(TraceGenerator::new(config));
//!
//! // Capture the same stream, then replay it from the recording.
//! let mut writer = TraceWriter::new(Cursor::new(Vec::new()), "li")?;
//! for op in TraceGenerator::new(config) {
//!     writer.write_op(&op)?;
//! }
//! let bytes = writer.finish()?.into_inner();
//! let replayed = build().run(
//!     TraceReader::new(Cursor::new(bytes))?.map(|op| op.expect("intact recording")),
//! );
//! assert_eq!(live, replayed);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lanes;
mod pipeline;
mod result;

pub use lanes::{run_lane_batch, LaneMember};
pub use pipeline::{CpuConfig, Processor};
pub use result::SimResult;
pub use wp_cache::MAX_LANES;
