//! Memory-hierarchy substrate for the wpsdm reproduction of
//! *Reducing Set-Associative Cache Energy via Way-Prediction and Selective
//! Direct-Mapping* (Powell et al., MICRO 2001).
//!
//! This crate provides the structures the paper's techniques are built on
//! top of, but which are not themselves the contribution:
//!
//! * [`CacheGeometry`] — size / block / associativity arithmetic, including
//!   the *direct-mapping way* derived from index bits extended with bits
//!   borrowed from the tag (Section 2.1 of the paper).
//! * [`SetAssocCache`] — a set-associative tag store with LRU replacement,
//!   explicit placement control (set-associative position vs. direct-mapped
//!   position) and eviction reporting, as required by selective-DM.
//! * [`MemoryHierarchy`] — the L2 + main-memory latency model of Table 1
//!   (1 M 8-way 12-cycle L2, 80 cycles + 4 cycles per 8 bytes memory).
//! * [`CacheStats`] — hit/miss/eviction accounting shared by all levels.
//!
//! # Example
//!
//! ```
//! use wp_mem::{CacheGeometry, SetAssocCache, AccessKind, Placement};
//!
//! # fn main() -> Result<(), wp_mem::GeometryError> {
//! let geom = CacheGeometry::new(16 * 1024, 32, 4)?;
//! let mut cache = SetAssocCache::new(geom);
//! let addr = 0x1000;
//! assert!(cache.access(addr, AccessKind::Read, Placement::SetAssociative).is_miss());
//! assert!(cache.access(addr, AccessKind::Read, Placement::SetAssociative).is_hit());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod geometry;
mod hierarchy;
mod stats;

pub use cache::{AccessKind, AccessResult, CacheLine, Placement, SetAssocCache};
pub use geometry::{CacheGeometry, GeometryError};
pub use hierarchy::{HierarchyConfig, HierarchyOutcome, MemoryHierarchy};
pub use stats::CacheStats;

/// A byte address as seen by the processor.
///
/// The simulators in this workspace are trace driven, so addresses are plain
/// 64-bit values; no translation is modelled (the paper's caches are
/// virtually-indexed small L1s and the techniques are insensitive to
/// translation).
pub type Addr = u64;

/// A cache-block-aligned address (the address with the block offset cleared,
/// *not* shifted).
pub type BlockAddr = u64;

/// A way index within a set (`0..associativity`).
pub type WayIndex = usize;
