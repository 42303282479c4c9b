//! The paper's Table 3 view of the cache energy model: every access type
//! expressed relative to a parallel read.

use crate::cacti::{CacheEnergyModel, PredictionTableEnergy};

/// Relative energies of the access types the paper distinguishes, normalised
/// to a conventional parallel read of the same cache (Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeEnergyTable {
    /// Parallel read with all ways probed — 1.0 by construction.
    pub parallel_read: f64,
    /// Sequential, correctly way-predicted, or direct-mapping read
    /// (one data way probed).
    pub single_way_read: f64,
    /// Mispredicted read: the wrong way plus the corrective probe.
    pub mispredicted_read: f64,
    /// Store (tag probe plus a single-way write).
    pub write: f64,
    /// Tag array plus decode, included in every row above.
    pub tag_array: f64,
    /// One access to a 1024-entry × 4-bit prediction table.
    pub prediction_table: f64,
}

impl RelativeEnergyTable {
    /// Derives the table from a cache energy model.
    pub fn from_model(model: &CacheEnergyModel) -> Self {
        let base = model.parallel_read_energy();
        let table = PredictionTableEnergy::new(1024, 4);
        Self {
            parallel_read: 1.0,
            single_way_read: model.single_way_read_energy() / base,
            mispredicted_read: model.mispredicted_read_energy() / base,
            write: model.write_energy() / base,
            tag_array: model.tag_and_decode_energy() / base,
            prediction_table: table.access_energy() / base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_mem::CacheGeometry;

    #[test]
    fn reproduces_table3_for_the_paper_cache() {
        let model =
            CacheEnergyModel::new(CacheGeometry::new(16 * 1024, 32, 4).expect("valid geometry"));
        let t = RelativeEnergyTable::from_model(&model);
        assert_eq!(t.parallel_read, 1.0);
        assert!((t.single_way_read - 0.21).abs() < 0.02);
        assert!((t.write - 0.24).abs() < 0.02);
        assert!((t.tag_array - 0.06).abs() < 0.015);
        assert!((t.prediction_table - 0.007).abs() < 0.004);
        assert!(t.mispredicted_read > t.single_way_read);
        assert!(t.mispredicted_read < 1.0);
    }
}
