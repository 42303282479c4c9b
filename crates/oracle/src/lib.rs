//! `wp-oracle` — the transparent reference simulator the optimized wpsdm
//! stack is pinned to.
//!
//! Aggressive optimization (structure-of-arrays tag stores, monomorphized
//! per-policy kernels, gang-scheduled shared streams, config-parallel lane
//! batches, a persistent result cache) left the simulator fast but
//! its correctness pinned only to scattered internal reference tests. This
//! crate is the end-to-end answer: a deliberately naive, allocation-happy,
//! per-access re-implementation of the whole model that a reviewer can
//! check against the paper (Powell et al., MICRO 2001) line by line —
//!
//! * [`OracleCache`] — nested-`Vec` LRU sets, whole block addresses stored
//!   per line, division/remainder address arithmetic ([`OracleGeometry`]);
//! * [`OracleDCache`] / [`OracleICache`] — every policy decision a
//!   per-access `match`, every probe priced by evaluating the
//!   [`wp_energy::CacheEnergyModel`] at the moment it is charged;
//! * [`OracleVictimList`] — the Section 2.2.2 conflict detector with exact
//!   scans instead of membership-filter fast paths;
//! * [`OracleHierarchy`] — the Table 1 L2/memory model over the naive
//!   store;
//! * [`OracleProcessor`] — the out-of-order scheduling loop walked one
//!   micro-op at a time, no block batching, no custom hashers.
//!
//! The oracle walks each workload from its source
//! ([`wp_workloads::WorkloadSpec::stream`], one op at a time) and emits the
//! same [`wp_cpu::SimResult`] as the optimized stack, which replays its
//! gangs' shared streams; the contract is *bit-identity*:
//! [`wp_cpu::SimResult::exact_eq`] over every counter and every IEEE-754
//! energy bit pattern. The differential conformance harness in
//! `wp-experiments` (module `conformance`, binary `conformance`) drives the
//! two stacks over the full `run_all` sweep, randomized
//! configuration/workload matrices, and recorded traces; see
//! `docs/VALIDATION.md`.
//!
//! Prediction *tables* (selective-DM counters, PC/XOR way tables, BTB,
//! SAWP, RAS, the hybrid branch predictor) are reused from
//! `wp-predictors`: they were never optimized, and sharing them keeps the
//! differential surface focused on the four optimized subsystems.
//!
//! # Example
//!
//! ```
//! use wp_cache::{DCachePolicy, ICachePolicy, L1Config};
//! use wp_cpu::{CpuConfig, Processor};
//! use wp_oracle::OracleProcessor;
//! use wp_workloads::{Benchmark, TraceConfig, TraceGenerator};
//!
//! # fn main() -> Result<(), wp_cache::ConfigError> {
//! let trace = || TraceGenerator::new(TraceConfig::new(Benchmark::Li).with_ops(5_000));
//! let args = (
//!     CpuConfig::default(),
//!     L1Config::paper_dcache(),
//!     DCachePolicy::SelDmWayPredict,
//!     L1Config::paper_icache(),
//!     ICachePolicy::WayPredict,
//! );
//! let naive = OracleProcessor::with_l1(args.0, args.1, args.2, args.3, args.4)?.run(trace());
//! let fast = Processor::with_l1(args.0, args.1, args.2, args.3, args.4)?.run(trace());
//! assert!(naive.exact_eq(&fast));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dcache;
pub mod hierarchy;
pub mod icache;
pub mod probe;
pub mod processor;
pub mod victims;

pub use cache::{OracleAccess, OracleCache, OracleGeometry};
pub use dcache::OracleDCache;
pub use hierarchy::OracleHierarchy;
pub use icache::OracleICache;
pub use probe::{resolve_probe, OracleProbe};
pub use processor::OracleProcessor;
pub use victims::OracleVictimList;
