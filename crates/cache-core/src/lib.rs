//! Energy-aware L1 cache controllers with way-prediction and selective
//! direct-mapping — the core contribution of *Reducing Set-Associative Cache
//! Energy via Way-Prediction and Selective Direct-Mapping* (Powell et al.,
//! MICRO 2001).
//!
//! A conventional set-associative L1 probes **all** data ways in parallel
//! with the tag lookup and throws away every way but the matching one,
//! wasting roughly `(N-1)/N` of the data-array energy. The paper pinpoints
//! the matching way *before* the access:
//!
//! * **Way-prediction** (d-cache loads, i-cache fetches) predicts the way
//!   from the load PC, the XOR approximation of the address, or the fetch
//!   engine's BTB / SAWP / RAS, and probes only that way.
//! * **Selective direct-mapping** (d-cache loads) observes that 70–80 % of
//!   accesses are non-conflicting and maps them to their direct-mapping way
//!   outright — no way-prediction needed; only the conflicting minority
//!   falls back to parallel, sequential, or way-predicted access.
//!
//! [`DCacheController`] and [`ICacheController`] implement every design
//! option the paper evaluates (see [`DCachePolicy`] and [`ICachePolicy`]).
//! Each access returns its hit and latency; its energy (via [`wp_energy`]),
//! its Figure 6/8/10 access-breakdown class, and the prediction-structure
//! overheads are counted in the controller's statistics.
//!
//! # Example
//!
//! ```
//! use wp_cache::{DCacheController, DCachePolicy, L1Config};
//!
//! # fn main() -> Result<(), wp_cache::ConfigError> {
//! let config = L1Config::paper_dcache(); // 16 KB, 4-way, 32 B, 1 cycle
//! let mut dcache = DCacheController::new(config, DCachePolicy::SelDmWayPredict)?;
//!
//! // A load issued by the pipeline: PC, address, XOR-approximate address.
//! let outcome = dcache.load(0x40_0100, 0x1000_0040, 0x1000_0040);
//! assert!(outcome.is_miss()); // cold cache; the block is filled on the way
//! let outcome = dcache.load(0x40_0100, 0x1000_0040, 0x1000_0040);
//! assert!(outcome.is_hit());
//! // Both loads probed only their direct-mapping way: far cheaper than a
//! // parallel read.
//! assert_eq!(dcache.stats().direct_mapped_accesses, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
mod config;
mod dcache;
mod icache;
mod lane;
mod policy;
mod stats;

pub use access::{AccessCore, Probe, ProbeOutcome, WaySelection, WaySource};
pub use config::{ConfigError, L1Config};
pub use dcache::{DAccessClass, DAccessOutcome, DCacheController};
pub use icache::{
    FetchKind, IAccessClass, IAccessOutcome, ICacheController, BTB_ENTRIES, RAS_DEPTH,
};
pub use lane::{LaneDCache, MAX_LANES};
pub use policy::{kernels, DCachePolicy, DPolicyKernel, ICachePolicy};
pub use stats::{DCacheStats, ICacheStats};
