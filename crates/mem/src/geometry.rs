//! Cache geometry arithmetic: sets, tags, indices, and the direct-mapping way.

use core::fmt;

use crate::{Addr, BlockAddr, WayIndex};

/// Error returned when a [`CacheGeometry`] is constructed from inconsistent
/// parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// The total size is zero or not a multiple of `block_bytes * associativity`.
    SizeNotDivisible {
        /// Requested total capacity in bytes.
        size_bytes: usize,
        /// Requested block size in bytes.
        block_bytes: usize,
        /// Requested associativity.
        associativity: usize,
    },
    /// A parameter that must be a power of two is not.
    NotPowerOfTwo {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// The offending value.
        value: usize,
    },
    /// A parameter is zero.
    Zero {
        /// Name of the offending parameter.
        parameter: &'static str,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::SizeNotDivisible {
                size_bytes,
                block_bytes,
                associativity,
            } => write!(
                f,
                "cache size {size_bytes} is not divisible into sets of \
                 {associativity} ways of {block_bytes}-byte blocks"
            ),
            GeometryError::NotPowerOfTwo { parameter, value } => {
                write!(f, "{parameter} must be a power of two, got {value}")
            }
            GeometryError::Zero { parameter } => write!(f, "{parameter} must be non-zero"),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Size, block size, and associativity of a cache, plus the derived address
/// arithmetic.
///
/// The geometry also defines the *direct-mapping way* of an address
/// (Section 2.1 of the paper): the way an address would occupy if the cache
/// were treated as direct-mapped, identified by the index bits extended with
/// `log2(associativity)` bits borrowed from the tag.
///
/// # Example
///
/// ```
/// use wp_mem::CacheGeometry;
///
/// # fn main() -> Result<(), wp_mem::GeometryError> {
/// let geom = CacheGeometry::new(16 * 1024, 32, 4)?;
/// assert_eq!(geom.num_sets(), 128);
/// assert_eq!(geom.index_bits(), 7);
/// // Two addresses one "cache-worth/assoc" apart map to the same set but
/// // different direct-mapping ways.
/// let a = 0x0000;
/// let b = a + (geom.num_sets() * geom.block_bytes()) as u64;
/// assert_eq!(geom.set_index(a), geom.set_index(b));
/// assert_ne!(geom.direct_mapped_way(a), geom.direct_mapped_way(b));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: usize,
    block_bytes: usize,
    associativity: usize,
    num_sets: usize,
    block_offset_bits: u32,
    index_bits: u32,
    // Precomputed shift/mask values so no per-access address decomposition
    // re-derives them (all parameters are enforced powers of two at
    // construction, so every operation below is a shift or a mask).
    /// `!(block_bytes - 1)`: clears the offset bits.
    block_mask: u64,
    /// `num_sets - 1`: selects the index bits after the offset shift.
    set_mask: u64,
    /// `associativity - 1`: selects the DM-way bits after the tag shift.
    way_mask: u64,
    /// `block_offset_bits + index_bits`: the tag shift.
    tag_shift: u32,
}

impl CacheGeometry {
    /// Creates a geometry for a cache of `size_bytes` capacity, `block_bytes`
    /// blocks, and `associativity` ways per set.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if any parameter is zero, if block size or
    /// the derived number of sets is not a power of two, or if the size is
    /// not divisible into whole sets.
    pub fn new(
        size_bytes: usize,
        block_bytes: usize,
        associativity: usize,
    ) -> Result<Self, GeometryError> {
        for (parameter, value) in [
            ("size_bytes", size_bytes),
            ("block_bytes", block_bytes),
            ("associativity", associativity),
        ] {
            if value == 0 {
                return Err(GeometryError::Zero { parameter });
            }
        }
        if !block_bytes.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo {
                parameter: "block_bytes",
                value: block_bytes,
            });
        }
        if !associativity.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo {
                parameter: "associativity",
                value: associativity,
            });
        }
        // A set too large for `usize` is larger than any cache, so it cannot
        // divide one.
        let set_bytes = block_bytes
            .checked_mul(associativity)
            .filter(|set_bytes| size_bytes % set_bytes == 0)
            .ok_or(GeometryError::SizeNotDivisible {
                size_bytes,
                block_bytes,
                associativity,
            })?;
        let num_sets = size_bytes / set_bytes;
        if !num_sets.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo {
                parameter: "num_sets",
                value: num_sets,
            });
        }
        let block_offset_bits = block_bytes.trailing_zeros();
        let index_bits = num_sets.trailing_zeros();
        Ok(Self {
            size_bytes,
            block_bytes,
            associativity,
            num_sets,
            block_offset_bits,
            index_bits,
            block_mask: !((block_bytes as u64) - 1),
            set_mask: (num_sets as u64) - 1,
            way_mask: (associativity as u64) - 1,
            tag_shift: block_offset_bits + index_bits,
        })
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Block (line) size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Number of ways per set.
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Number of bits used for the block offset.
    pub fn block_offset_bits(&self) -> u32 {
        self.block_offset_bits
    }

    /// Number of bits used for the set index.
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Number of bits borrowed from the tag to identify the direct-mapping
    /// way (`log2(associativity)`).
    pub fn way_bits(&self) -> u32 {
        self.associativity.trailing_zeros()
    }

    /// Number of tag bits assuming 48-bit physical addresses.
    pub fn tag_bits(&self) -> u32 {
        48u32.saturating_sub(self.block_offset_bits + self.index_bits)
    }

    /// The block-aligned address of `addr` (offset bits cleared).
    #[inline]
    pub fn block_addr(&self, addr: Addr) -> BlockAddr {
        addr & self.block_mask
    }

    /// The set index of `addr`.
    #[inline]
    pub fn set_index(&self, addr: Addr) -> usize {
        ((addr >> self.block_offset_bits) & self.set_mask) as usize
    }

    /// The tag of `addr` (everything above the index bits).
    #[inline]
    pub fn tag(&self, addr: Addr) -> u64 {
        addr >> self.tag_shift
    }

    /// The direct-mapping way of `addr`: the way the address would occupy in
    /// an equal-capacity direct-mapped cache, identified by the
    /// `log2(associativity)` address bits just above the set index
    /// (Section 2.1: "the address's index bits extended with log2 N bits
    /// borrowed from the tag").
    #[inline]
    pub fn direct_mapped_way(&self, addr: Addr) -> WayIndex {
        ((addr >> self.tag_shift) & self.way_mask) as WayIndex
    }

    /// Reconstructs the block-aligned address of the block with `tag`
    /// resident in `set` — the inverse of [`CacheGeometry::tag`] /
    /// [`CacheGeometry::set_index`], used by the tag store so it never has
    /// to keep full block addresses alongside the tags.
    #[inline]
    pub fn block_addr_from_parts(&self, set: usize, tag: u64) -> BlockAddr {
        (tag << self.tag_shift) | ((set as u64) << self.block_offset_bits)
    }

    /// Number of blocks the cache can hold in total.
    pub fn num_blocks(&self) -> usize {
        self.num_sets * self.associativity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_l1_geometry() {
        let geom = CacheGeometry::new(16 * 1024, 32, 4).expect("valid geometry");
        assert_eq!(geom.num_sets(), 128);
        assert_eq!(geom.index_bits(), 7);
        assert_eq!(geom.block_offset_bits(), 5);
        assert_eq!(geom.way_bits(), 2);
        assert_eq!(geom.num_blocks(), 512);
    }

    #[test]
    fn table1_l2_geometry() {
        let geom = CacheGeometry::new(1024 * 1024, 64, 8).expect("valid geometry");
        assert_eq!(geom.num_sets(), 2048);
        assert_eq!(geom.associativity(), 8);
    }

    #[test]
    fn direct_mapped_degenerate() {
        let geom = CacheGeometry::new(16 * 1024, 32, 1).expect("valid geometry");
        assert_eq!(geom.way_bits(), 0);
        assert_eq!(geom.direct_mapped_way(0xdead_beef), 0);
        assert_eq!(geom.num_sets(), 512);
    }

    #[test]
    fn rejects_zero_parameters() {
        assert!(matches!(
            CacheGeometry::new(0, 32, 4),
            Err(GeometryError::Zero {
                parameter: "size_bytes"
            })
        ));
        assert!(matches!(
            CacheGeometry::new(16384, 0, 4),
            Err(GeometryError::Zero {
                parameter: "block_bytes"
            })
        ));
        assert!(matches!(
            CacheGeometry::new(16384, 32, 0),
            Err(GeometryError::Zero {
                parameter: "associativity"
            })
        ));
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            CacheGeometry::new(16384, 48, 4),
            Err(GeometryError::NotPowerOfTwo {
                parameter: "block_bytes",
                ..
            })
        ));
        assert!(matches!(
            CacheGeometry::new(16384, 32, 3),
            Err(GeometryError::NotPowerOfTwo {
                parameter: "associativity",
                ..
            })
        ));
        assert!(matches!(
            CacheGeometry::new(3 * 16384, 32, 4),
            Err(GeometryError::NotPowerOfTwo {
                parameter: "num_sets",
                ..
            })
        ));
    }

    #[test]
    fn rejects_indivisible_size() {
        assert!(matches!(
            CacheGeometry::new(100, 32, 4),
            Err(GeometryError::SizeNotDivisible { .. })
        ));
    }

    #[test]
    fn rejects_sets_whose_size_overflows() {
        // 32-byte blocks times 2^59 ways is 2^64 bytes per set. The product
        // wraps to zero in a `usize`, so an unchecked product would make
        // the divisibility check divide by zero.
        for shift in 59..usize::BITS {
            let associativity = 1usize << shift;
            assert_eq!(
                CacheGeometry::new(16 * 1024, 32, associativity),
                Err(GeometryError::SizeNotDivisible {
                    size_bytes: 16 * 1024,
                    block_bytes: 32,
                    associativity,
                }),
                "associativity 2^{shift}"
            );
        }
        assert!(matches!(
            CacheGeometry::new(usize::MAX, 1 << 32, 1 << 32),
            Err(GeometryError::SizeNotDivisible { .. })
        ));
    }

    #[test]
    fn block_addr_round_trips_through_parts() {
        let geom = CacheGeometry::new(16 * 1024, 32, 4).expect("valid geometry");
        for addr in [0u64, 0x1234_5678, 0xdead_beef, 0xffff_ffff_ffc0] {
            let set = geom.set_index(addr);
            let tag = geom.tag(addr);
            assert_eq!(geom.block_addr_from_parts(set, tag), geom.block_addr(addr));
        }
    }

    #[test]
    fn block_addr_clears_offset_only() {
        let geom = CacheGeometry::new(16 * 1024, 32, 4).expect("valid geometry");
        assert_eq!(geom.block_addr(0x1234_5678), 0x1234_5660);
        assert_eq!(geom.block_addr(0x1234_5660), 0x1234_5660);
    }

    #[test]
    fn same_set_different_dm_way() {
        let geom = CacheGeometry::new(16 * 1024, 32, 4).expect("valid geometry");
        let stride = (geom.num_sets() * geom.block_bytes()) as u64;
        let base = 0x4_0000;
        let ways: Vec<_> = (0..4)
            .map(|i| {
                let a = base + i * stride;
                assert_eq!(geom.set_index(a), geom.set_index(base));
                geom.direct_mapped_way(a)
            })
            .collect();
        assert_eq!(ways, vec![0, 1, 2, 3]);
    }

    #[test]
    fn tag_ignores_index_and_offset() {
        let geom = CacheGeometry::new(16 * 1024, 32, 4).expect("valid geometry");
        let a = 0xABCD_0000u64;
        for off in 0..(geom.num_sets() * geom.block_bytes()) as u64 {
            assert_eq!(geom.tag(a), geom.tag(a + off));
        }
    }
}
