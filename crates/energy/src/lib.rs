//! Energy models for the wpsdm reproduction of *Reducing Set-Associative
//! Cache Energy via Way-Prediction and Selective Direct-Mapping*
//! (Powell et al., MICRO 2001).
//!
//! Two models live here:
//!
//! * [`CacheEnergyModel`] — a CACTI-style analytic model of a set-associative
//!   SRAM cache. The paper used CACTI scaled to a 0.25 µm process; this model
//!   reproduces the *component structure* (address decode, wordlines,
//!   bitlines, sense amplifiers, way-select multiplexor, tag array) and is
//!   calibrated so a 16 KB 4-way 32 B-block cache reproduces the paper's
//!   Table 3 relative energies.
//! * [`ProcessorEnergyBreakdown`] — a Wattch-style activity-based model of
//!   the rest of the out-of-order processor, calibrated so the two L1 caches
//!   dissipate 10–16 % of overall processor energy as the paper reports in
//!   Section 4.6.
//!
//! Both calibrations are constants: the paper measures one process and one
//! core, and every experiment here reproduces that machine.
//!
//! Energies are reported in arbitrary *energy units* (1 unit ≈ 1/1000 of a
//! 16 KB 4-way parallel read); every figure in the paper uses relative
//! energies, so only ratios matter. Use [`RelativeEnergyTable`] to obtain the
//! Table 3 view.
//!
//! # Example
//!
//! ```
//! use wp_energy::{CacheEnergyModel, RelativeEnergyTable};
//! use wp_mem::CacheGeometry;
//!
//! # fn main() -> Result<(), wp_mem::GeometryError> {
//! let geom = CacheGeometry::new(16 * 1024, 32, 4)?;
//! let model = CacheEnergyModel::new(geom);
//! let table = RelativeEnergyTable::from_model(&model);
//! // Table 3: a single-way (way-predicted / sequential / direct-mapped)
//! // read costs roughly 21 % of a parallel read.
//! assert!((table.single_way_read - 0.21).abs() < 0.02);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cacti;
mod metrics;
mod processor;
mod table;

pub use cacti::{CacheEnergyModel, PredictionTableEnergy};
pub use metrics::{average, EnergyDelay, RelativeMetrics};
pub use processor::{ActivityCounts, ProcessorEnergyBreakdown};
pub use table::RelativeEnergyTable;

/// Energy in arbitrary model units (≈ 1/1000 of a 16 KB 4-way parallel read).
pub type Energy = f64;
