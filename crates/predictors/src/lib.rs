//! Prediction structures for the wpsdm reproduction of *Reducing
//! Set-Associative Cache Energy via Way-Prediction and Selective
//! Direct-Mapping* (Powell et al., MICRO 2001).
//!
//! The paper's techniques rest on small lookup tables that predict, before
//! the cache is probed, either *which way* holds the data or *whether the
//! access is non-conflicting* and can use direct mapping:
//!
//! * [`PcWayPredictor`] — PC-indexed way prediction for d-cache loads
//!   (early-available but ~60 % accurate; Section 2.2.1), and the
//!   i-cache's Sequential Address Way-Predictor (SAWP; Section 2.3).
//! * [`XorWayPredictor`] — way prediction indexed by the XOR approximation
//!   of the load address (more accurate but late-available; Section 2.2.1).
//! * [`SelDmPredictor`] — the PC-indexed two-bit-counter table that flags an
//!   access as direct-mapped or set-associative (Section 2.2.2).
//! * [`VictimList`] — the 16-entry list of recently evicted blocks that
//!   identifies conflicting blocks (Section 2.2.2).
//! * [`Btb`], [`ReturnAddressStack`], [`HybridBranchPredictor`] — the
//!   fetch-engine structures, extended with way fields, that provide
//!   timely i-cache way predictions with the SAWP (Section 2.3 / Figure 3).
//! * [`SaturatingCounter`] — the shared two-bit counter building block.
//!
//! # Example
//!
//! ```
//! use wp_predictors::{MappingPrediction, SelDmPredictor};
//!
//! let mut predictor = SelDmPredictor::new(1024);
//! let pc = 0x40_0100;
//! // Loads default to direct mapping until they are caught conflicting.
//! assert_eq!(predictor.predict(pc), MappingPrediction::DirectMapped);
//! // Two hits through a set-associative way flip the prediction.
//! predictor.record_set_associative_hit(pc);
//! predictor.record_set_associative_hit(pc);
//! assert_eq!(predictor.predict(pc), MappingPrediction::SetAssociative);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod btb;
mod counter;
mod ras;
mod seldm;
mod victim_list;
mod way_table;

pub use branch::{BranchOutcome, HybridBranchPredictor};
pub use btb::{Btb, BtbEntry};
pub use counter::SaturatingCounter;
pub use ras::ReturnAddressStack;
pub use seldm::{MappingPrediction, SelDmPredictor};
pub use victim_list::VictimList;
pub use way_table::{PcWayPredictor, XorWayPredictor};
