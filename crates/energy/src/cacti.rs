//! A CACTI-style analytic energy model for set-associative SRAM caches.
//!
//! The paper estimated cache energy with CACTI scaled to a 0.25 µm process
//! (Wilton & Jouppi, WRL TR 93/5). We cannot run the original tool, so this
//! module re-creates the *component structure* of a CACTI read/write:
//! address decode and routing, wordline drive, bitline swing, sense
//! amplification, way-select multiplexing and output drive, the tag array,
//! and tag comparators. The per-component coefficients are constants of
//! one 0.25 µm-like process, in model energy units (≈ 1/1000 of a 16 KB
//! 4-way parallel read), calibrated so a 16 KB, 4-way, 32-byte-block cache
//! reproduces the paper's Table 3:
//!
//! | access | relative energy |
//! |---|---|
//! | parallel read (4 ways) | 1.00 |
//! | single-way read (sequential / way-predicted / direct-mapped) | 0.21 |
//! | write | 0.24 |
//! | tag array (included in all rows) | 0.06 |
//! | 1024-entry × 4-bit prediction table | 0.007 |
//!
//! Because the model keeps the component structure, it scales the way the
//! paper's arguments need it to: the energy wasted by a parallel read grows
//! with associativity (Figure 8), and the tag/decode share grows slightly
//! with cache size (Figure 7).

use wp_mem::CacheGeometry;

use crate::Energy;

/// Maximum number of rows driven on one bitline segment before the array is
/// split into subarrays. The paper's baseline activates only the subarrays
/// containing the addressed set; this constant models that.
const MAX_ROWS_PER_SUBARRAY: usize = 64;

/// Bitline energy per cell (per row × column) on a read.
const BITLINE_READ_PER_CELL: f64 = 0.005;
/// Bitline energy per cell on a write (full-swing, higher than read).
const BITLINE_WRITE_PER_CELL: f64 = 0.0075;
/// Sense-amplifier energy per column.
const SENSE_AMP_PER_COLUMN: f64 = 0.2;
/// Wordline drive energy per column.
const WORDLINE_PER_COLUMN: f64 = 0.066;
/// Write-driver energy per column.
const WRITE_DRIVER_PER_COLUMN: f64 = 0.157;
/// Way-select multiplexor and output-drive energy per column, per level of
/// the select tree. Only parallel accesses pay this for every way; an
/// access that knows its way drives a single, narrower path.
const WAY_MUX_PER_COLUMN_PER_LEVEL: f64 = 0.166;
/// Output drive energy per column for a way-known (single-way) access.
const SINGLE_WAY_OUTPUT_PER_COLUMN: f64 = 0.02;
/// Tag-array bitline derating relative to the data array (the tag array is
/// a much smaller structure with shorter, lightly loaded bitlines).
const TAG_BITLINE_FACTOR: f64 = 0.095;
/// Tag comparator energy per tag bit per way.
const TAG_COMPARE_PER_BIT: f64 = 0.03;
/// Address-decoder energy per index bit.
const DECODE_PER_INDEX_BIT: f64 = 1.0;
/// Address-routing energy per sqrt(KB) of capacity (wire length grows with
/// the array footprint).
const ROUTE_PER_SQRT_KB: f64 = 1.5;

/// Analytic energy model for one set-associative cache.
///
/// # Example
///
/// ```
/// use wp_energy::CacheEnergyModel;
/// use wp_mem::CacheGeometry;
///
/// # fn main() -> Result<(), wp_mem::GeometryError> {
/// let model = CacheEnergyModel::new(CacheGeometry::new(16 * 1024, 32, 4)?);
/// // Reading all four ways costs roughly four data ways plus the tag array.
/// assert!(model.parallel_read_energy() > 4.0 * model.data_way_read_energy());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEnergyModel {
    geometry: CacheGeometry,
}

impl CacheEnergyModel {
    /// Builds a model for `geometry` with the 0.25 µm-like calibration.
    pub fn new(geometry: CacheGeometry) -> Self {
        Self { geometry }
    }

    /// The geometry this model describes.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    fn rows_per_subarray(&self) -> usize {
        self.geometry.num_sets().min(MAX_ROWS_PER_SUBARRAY)
    }

    fn data_columns_per_way(&self) -> usize {
        self.geometry.block_bytes() * 8
    }

    fn way_select_levels(&self) -> f64 {
        // Depth of the way-select mux tree; a direct-mapped cache needs none
        // but still drives its output, so clamp at one level.
        (self.geometry.associativity() as f64).log2().max(1.0)
    }

    /// Energy of the address decoder and routing, paid once per access.
    pub fn decode_energy(&self) -> Energy {
        let size_kb = self.geometry.size_bytes() as f64 / 1024.0;
        DECODE_PER_INDEX_BIT * self.geometry.index_bits() as f64
            + ROUTE_PER_SQRT_KB * size_kb.sqrt()
    }

    /// Energy of probing the tag array (all ways; the paper never optimises
    /// the tag array) plus the comparators, *excluding* decode.
    pub fn tag_array_energy(&self) -> Energy {
        let tag_bits = self.geometry.tag_bits() as f64;
        let rows = self.rows_per_subarray() as f64;
        let per_way = WORDLINE_PER_COLUMN * tag_bits
            + BITLINE_READ_PER_CELL * rows * tag_bits * TAG_BITLINE_FACTOR
            + SENSE_AMP_PER_COLUMN * tag_bits
            + TAG_COMPARE_PER_BIT * tag_bits;
        per_way * self.geometry.associativity() as f64
    }

    /// Tag array plus decode — the quantity the paper's Table 3 lists as
    /// "tag array energy (also included in all above rows)".
    pub fn tag_and_decode_energy(&self) -> Energy {
        self.tag_array_energy() + self.decode_energy()
    }

    /// Energy of reading one data way when the way is known in advance
    /// (sequential access, a correct way-prediction, or a direct-mapping
    /// probe). Excludes the tag array.
    pub fn data_way_read_energy(&self) -> Energy {
        let cols = self.data_columns_per_way() as f64;
        let rows = self.rows_per_subarray() as f64;
        WORDLINE_PER_COLUMN * cols
            + BITLINE_READ_PER_CELL * rows * cols
            + SENSE_AMP_PER_COLUMN * cols
            + SINGLE_WAY_OUTPUT_PER_COLUMN * cols
    }

    /// Energy of reading one data way as part of a parallel read: the core
    /// way read plus this way's share of the way-select multiplexor and the
    /// full-width output drive.
    pub fn data_way_parallel_read_energy(&self) -> Energy {
        let cols = self.data_columns_per_way() as f64;
        self.data_way_read_energy() - SINGLE_WAY_OUTPUT_PER_COLUMN * cols
            + WAY_MUX_PER_COLUMN_PER_LEVEL * cols * self.way_select_levels()
    }

    /// Energy of writing one data way (stores probe the tag first and write
    /// only the matching way, in every design option).
    pub fn data_way_write_energy(&self) -> Energy {
        let cols = self.data_columns_per_way() as f64;
        let rows = self.rows_per_subarray() as f64;
        WORDLINE_PER_COLUMN * cols
            + BITLINE_WRITE_PER_CELL * rows * cols
            + WRITE_DRIVER_PER_COLUMN * cols
    }

    /// Total energy of a conventional parallel read: tag array + decode +
    /// all `N` data ways.
    pub fn parallel_read_energy(&self) -> Energy {
        self.tag_and_decode_energy()
            + self.geometry.associativity() as f64 * self.data_way_parallel_read_energy()
    }

    /// Total energy of a read that probes exactly `ways_probed` data ways
    /// (plus the tag array and decode). `n_way_read_energy(1)` is the
    /// sequential / way-predicted / direct-mapped read;
    /// `n_way_read_energy(2)` is a mispredicted read (first probe plus the
    /// corrective probe of the matching way).
    pub fn n_way_read_energy(&self, ways_probed: usize) -> Energy {
        self.tag_and_decode_energy() + ways_probed as f64 * self.data_way_read_energy()
    }

    /// Total energy of a single-way read (Table 3's "sequential-access,
    /// way-predicted, or direct-mapping access").
    pub fn single_way_read_energy(&self) -> Energy {
        self.n_way_read_energy(1)
    }

    /// Total energy of a mispredicted read: the wrongly probed way plus the
    /// second probe of the matching way (Section 2.1: "only two data ways
    /// are accessed in all").
    pub fn mispredicted_read_energy(&self) -> Energy {
        self.n_way_read_energy(2)
    }

    /// Total energy of a store: tag probe plus a single data-way write.
    pub fn write_energy(&self) -> Energy {
        self.tag_and_decode_energy() + self.data_way_write_energy()
    }
}

/// Energy model for the small SRAM lookup tables the techniques add: the
/// way-prediction table, the selective-DM prediction table, the victim list,
/// and the way fields added to the BTB, SAWP and RAS.
///
/// The paper reports a 1024-entry × 4-bit table at 0.007 of a parallel read
/// and states every prediction-structure overhead stays below 1 % of the
/// conventional d-cache energy; this model is used to charge those overheads
/// explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionTableEnergy {
    entries: usize,
    bits_per_entry: usize,
}

impl PredictionTableEnergy {
    /// A table of `entries` rows of `bits_per_entry` bits.
    pub fn new(entries: usize, bits_per_entry: usize) -> Self {
        Self {
            entries,
            bits_per_entry,
        }
    }

    /// Number of entries in the table.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Width of each entry in bits.
    pub fn bits_per_entry(&self) -> usize {
        self.bits_per_entry
    }

    /// Energy of one read or write of the table.
    ///
    /// Small tables are laid out as a single subarray with column muxing, so
    /// the bitline length is bounded by the same subarray limit as the
    /// caches.
    pub fn access_energy(&self) -> Energy {
        let rows = self.entries.min(4 * MAX_ROWS_PER_SUBARRAY) as f64;
        let cols = self.bits_per_entry as f64;
        let decode = DECODE_PER_INDEX_BIT * (self.entries as f64).log2().max(1.0) * 0.25;
        WORDLINE_PER_COLUMN * cols
            + BITLINE_READ_PER_CELL * rows * cols
            + SENSE_AMP_PER_COLUMN * cols
            + decode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_l1() -> CacheEnergyModel {
        CacheEnergyModel::new(CacheGeometry::new(16 * 1024, 32, 4).expect("valid geometry"))
    }

    #[test]
    fn table3_single_way_read_ratio() {
        let m = paper_l1();
        let ratio = m.single_way_read_energy() / m.parallel_read_energy();
        assert!((ratio - 0.21).abs() < 0.02, "single-way ratio {ratio}");
    }

    #[test]
    fn table3_write_ratio() {
        let m = paper_l1();
        let ratio = m.write_energy() / m.parallel_read_energy();
        assert!((ratio - 0.24).abs() < 0.02, "write ratio {ratio}");
    }

    #[test]
    fn table3_tag_ratio() {
        let m = paper_l1();
        let ratio = m.tag_and_decode_energy() / m.parallel_read_energy();
        assert!((ratio - 0.06).abs() < 0.015, "tag ratio {ratio}");
    }

    #[test]
    fn table3_prediction_table_ratio() {
        let m = paper_l1();
        let t = PredictionTableEnergy::new(1024, 4);
        let ratio = t.access_energy() / m.parallel_read_energy();
        assert!(
            (ratio - 0.007).abs() < 0.004,
            "prediction table ratio {ratio}"
        );
    }

    #[test]
    fn misprediction_costs_one_extra_way() {
        let m = paper_l1();
        let extra = m.mispredicted_read_energy() - m.single_way_read_energy();
        assert!((extra - m.data_way_read_energy()).abs() < 1e-9);
    }

    #[test]
    fn misprediction_cheaper_than_parallel_above_two_ways() {
        // Section 2.1: "the total energy of a misprediction is not as high as
        // that of a parallel access when set-associativity is greater than
        // two."
        for assoc in [4usize, 8] {
            let m = CacheEnergyModel::new(
                CacheGeometry::new(16 * 1024, 32, assoc).expect("valid geometry"),
            );
            assert!(m.mispredicted_read_energy() < m.parallel_read_energy());
        }
    }

    #[test]
    fn parallel_energy_grows_with_associativity() {
        let energies: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&a| {
                CacheEnergyModel::new(CacheGeometry::new(16 * 1024, 32, a).expect("valid geometry"))
                    .parallel_read_energy()
            })
            .collect();
        assert!(energies.windows(2).all(|w| w[0] < w[1]), "{energies:?}");
    }

    #[test]
    fn single_way_fraction_shrinks_with_associativity() {
        // The energy-saving opportunity grows with associativity (Figure 8).
        let fractions: Vec<f64> = [2usize, 4, 8]
            .iter()
            .map(|&a| {
                let m = CacheEnergyModel::new(
                    CacheGeometry::new(16 * 1024, 32, a).expect("valid geometry"),
                );
                m.single_way_read_energy() / m.parallel_read_energy()
            })
            .collect();
        assert!(fractions.windows(2).all(|w| w[0] > w[1]), "{fractions:?}");
    }

    #[test]
    fn larger_cache_has_larger_tag_share() {
        // Figure 7: the un-optimised components (tag, decode, routing) grow
        // slightly as a proportion of total energy when the cache gets
        // bigger, which is why 32 KB savings are a touch lower than 16 KB.
        let share = |size: usize| {
            let m = CacheEnergyModel::new(CacheGeometry::new(size, 32, 4).expect("valid geometry"));
            m.tag_and_decode_energy() / m.parallel_read_energy()
        };
        assert!(share(32 * 1024) > share(16 * 1024));
    }

    #[test]
    fn prediction_table_much_smaller_than_cache_access() {
        let m = paper_l1();
        for (entries, bits) in [(1024, 4), (1024, 2), (16, 32), (2048, 4)] {
            let t = PredictionTableEnergy::new(entries, bits);
            assert!(t.access_energy() < 0.02 * m.parallel_read_energy());
        }
    }

    #[test]
    fn paper_l1_energies_are_pinned_to_the_bit() {
        // The calibration's exact output for the paper's 16 KB 4-way L1:
        // any change to a coefficient or to the evaluation order moves a
        // bit here before it moves a simulated result.
        let m = paper_l1();
        let table = PredictionTableEnergy::new(1024, 4);
        for (name, energy, bits) in [
            (
                "parallel read",
                m.parallel_read_energy(),
                0x408f_4044_d013_a92c,
            ),
            (
                "single-way read",
                m.single_way_read_energy(),
                0x406a_e467_381d_7dc0,
            ),
            ("write", m.write_energy(), 0x406d_ff06_f694_4674),
            (
                "tag + decode",
                m.tag_and_decode_energy(),
                0x404e_0034_6dc5_d639,
            ),
            (
                "1024 x 4 table",
                table.access_energy(),
                0x4021_5e35_3f7c_ed92,
            ),
        ] {
            assert_eq!(energy.to_bits(), bits, "{name}: {energy}");
        }
    }
}
