//! L1 cache configuration shared by the d-cache and i-cache controllers.

use core::fmt;

use serde::Serialize;
use wp_mem::{CacheGeometry, GeometryError};

/// Error returned when an [`L1Config`] cannot be realised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The size / block / associativity triple is not a valid geometry.
    Geometry(GeometryError),
    /// The base latency is zero.
    ZeroLatency,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Geometry(e) => write!(f, "invalid cache geometry: {e}"),
            ConfigError::ZeroLatency => write!(f, "base latency must be at least one cycle"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Geometry(e) => Some(e),
            ConfigError::ZeroLatency => None,
        }
    }
}

impl From<GeometryError> for ConfigError {
    fn from(e: GeometryError) -> Self {
        ConfigError::Geometry(e)
    }
}

/// Configuration of one L1 cache and its access-time parameters.
///
/// The paper's baseline (Table 1) is a 16 KB, 4-way, 32-byte-block cache
/// with a 1-cycle access; Section 4.4 also evaluates a 2-cycle base latency.
/// Mispredicted and sequential accesses pay one extra data-array probe
/// (Section 2.1), modelled by [`L1Config::extra_probe_latency`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct L1Config {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Block (line) size in bytes.
    pub block_bytes: usize,
    /// Number of ways per set.
    pub associativity: usize,
    /// Cycles for a first (or only) probe of the cache.
    pub base_latency: u64,
    /// Additional cycles for the corrective second probe after a
    /// way-misprediction, and for the serialized data probe of a sequential
    /// access.
    pub extra_probe_latency: u64,
    /// Number of entries in the way-prediction and selective-DM tables
    /// (the paper uses 1024).
    pub prediction_table_entries: usize,
    /// Number of entries in the victim list (the paper uses 16).
    pub victim_list_entries: usize,
}

impl L1Config {
    /// The paper's baseline L1 d-cache: 16 KB, 4-way, 32 B blocks, 1 cycle,
    /// 1024-entry prediction tables, 16-entry victim list.
    pub fn paper_dcache() -> Self {
        Self {
            size_bytes: 16 * 1024,
            block_bytes: 32,
            associativity: 4,
            base_latency: 1,
            extra_probe_latency: 1,
            prediction_table_entries: 1024,
            victim_list_entries: 16,
        }
    }

    /// The paper's baseline L1 i-cache: identical geometry to the d-cache,
    /// 1-cycle access, 1024-entry SAWP.
    pub fn paper_icache() -> Self {
        Self::paper_dcache()
    }

    /// Returns a copy with a different total size.
    pub fn with_size(mut self, size_bytes: usize) -> Self {
        self.size_bytes = size_bytes;
        self
    }

    /// Returns a copy with a different associativity.
    pub fn with_associativity(mut self, associativity: usize) -> Self {
        self.associativity = associativity;
        self
    }

    /// Returns a copy with a different base latency (Section 4.4 evaluates a
    /// 2-cycle d-cache).
    pub fn with_base_latency(mut self, cycles: u64) -> Self {
        self.base_latency = cycles;
        self
    }

    /// Returns a copy with a different prediction-table size.
    pub fn with_prediction_table_entries(mut self, entries: usize) -> Self {
        self.prediction_table_entries = entries;
        self
    }

    /// The cache geometry implied by the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the parameters are inconsistent.
    pub fn geometry(&self) -> Result<CacheGeometry, ConfigError> {
        if self.base_latency == 0 {
            return Err(ConfigError::ZeroLatency);
        }
        Ok(CacheGeometry::new(
            self.size_bytes,
            self.block_bytes,
            self.associativity,
        )?)
    }

    /// Latency of an access that needs a second data-array probe.
    pub fn mispredict_latency(&self) -> u64 {
        self.base_latency + self.extra_probe_latency
    }

    /// Latency of a sequential (tag-then-data) access.
    pub fn sequential_latency(&self) -> u64 {
        self.base_latency + self.extra_probe_latency
    }
}

impl Default for L1Config {
    fn default() -> Self {
        Self::paper_dcache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dcache_matches_table1() {
        let c = L1Config::paper_dcache();
        assert_eq!(c.size_bytes, 16 * 1024);
        assert_eq!(c.associativity, 4);
        assert_eq!(c.base_latency, 1);
        assert_eq!(c.prediction_table_entries, 1024);
        assert_eq!(c.victim_list_entries, 16);
        assert!(c.geometry().is_ok());
    }

    #[test]
    fn builder_methods_compose() {
        let c = L1Config::paper_dcache()
            .with_size(32 * 1024)
            .with_associativity(8)
            .with_base_latency(2);
        assert_eq!(c.size_bytes, 32 * 1024);
        assert_eq!(c.associativity, 8);
        assert_eq!(c.base_latency, 2);
        assert_eq!(c.mispredict_latency(), 3);
        assert_eq!(c.sequential_latency(), 3);
    }

    #[test]
    fn zero_latency_is_rejected() {
        let c = L1Config::paper_dcache().with_base_latency(0);
        assert_eq!(c.geometry().unwrap_err(), ConfigError::ZeroLatency);
    }

    #[test]
    fn bad_geometry_is_rejected() {
        let c = L1Config::paper_dcache().with_associativity(3);
        assert!(matches!(c.geometry(), Err(ConfigError::Geometry(_))));
    }

    #[test]
    fn error_display_is_informative() {
        let err = L1Config::paper_dcache()
            .with_base_latency(0)
            .geometry()
            .unwrap_err();
        assert!(err.to_string().contains("latency"));
    }
}
