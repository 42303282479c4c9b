//! A Wattch-style activity-based model of overall processor energy.
//!
//! The paper estimates overall processor energy with Wattch on top of
//! SimpleScalar and reports that the two L1 caches dissipate 10–16 % of the
//! total, which bounds the overall energy-delay reduction achievable by the
//! cache techniques to about 10 % (Section 4.6 / Figure 11).
//!
//! [`ProcessorEnergyBreakdown::new`] charges a fixed energy per
//! microarchitectural event (decode, rename, issue-window operation,
//! register-file access, functional-unit operation, reorder-buffer and
//! load/store-queue traffic, result-bus drive, L2 access) plus a per-cycle
//! clock-tree cost, and adds the L1 energies computed by the cache
//! controllers. The per-event energies are constants, in the same units as
//! [`crate::CacheEnergyModel`] (≈ 1/1000 of a 16 KB 4-way parallel read),
//! calibrated so the L1 share lands in the paper's 10–16 % band for the
//! simulated workloads.

use crate::Energy;

/// Fetch-stage (excluding i-cache) plus decode energy per instruction.
const DECODE_PER_INSTRUCTION: Energy = 350.0;
/// Rename and dependence-check energy per instruction.
const RENAME_PER_INSTRUCTION: Energy = 350.0;
/// Issue-window insertion, wakeup and select energy per instruction.
const WINDOW_PER_INSTRUCTION: Energy = 650.0;
/// Register-file read/write energy per instruction.
const REGFILE_PER_INSTRUCTION: Energy = 500.0;
/// Integer ALU operation energy.
const INT_ALU_PER_OP: Energy = 500.0;
/// Floating-point unit operation energy.
const FP_ALU_PER_OP: Energy = 800.0;
/// Reorder-buffer energy per instruction (dispatch + commit).
const ROB_PER_INSTRUCTION: Energy = 300.0;
/// Load/store-queue energy per memory operation.
const LSQ_PER_MEM_OP: Energy = 350.0;
/// Result-bus drive energy per completing instruction.
const RESULT_BUS_PER_INSTRUCTION: Energy = 200.0;
/// Clock-tree energy per cycle.
const CLOCK_PER_CYCLE: Energy = 1500.0;
/// L2 cache access energy (reads and writes).
const L2_PER_ACCESS: Energy = 3000.0;
/// Branch-predictor access energy per fetched branch.
const BRANCH_PREDICTOR_PER_BRANCH: Energy = 120.0;

/// Activity counts produced by one run of the processor timing model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityCounts {
    /// Total execution cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Committed integer ALU operations.
    pub int_ops: u64,
    /// Committed floating-point operations.
    pub fp_ops: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches.
    pub branches: u64,
    /// Accesses that reached the L2 cache.
    pub l2_accesses: u64,
}

impl ActivityCounts {
    /// Committed memory operations (loads + stores).
    pub fn mem_ops(&self) -> u64 {
        self.loads + self.stores
    }

    /// Instructions per cycle; zero when no cycle has elapsed.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Breakdown of overall processor energy for one run.
///
/// # Example
///
/// ```
/// use wp_energy::{ActivityCounts, ProcessorEnergyBreakdown};
///
/// let counts = ActivityCounts {
///     cycles: 500,
///     instructions: 1000,
///     int_ops: 500,
///     fp_ops: 100,
///     loads: 250,
///     stores: 120,
///     branches: 150,
///     l2_accesses: 20,
/// };
/// let breakdown = ProcessorEnergyBreakdown::new(&counts, 210_000.0, 280_000.0);
/// // The L1 caches sit in the paper's 10-16 % band for this activity mix.
/// assert!(breakdown.l1_fraction() > 0.08 && breakdown.l1_fraction() < 0.20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorEnergyBreakdown {
    /// Energy of the non-cache core (pipeline, register file, ALUs, clock…).
    pub core: Energy,
    /// Energy of the L2 cache.
    pub l2: Energy,
    /// Energy of the L1 instruction cache (supplied by its controller).
    pub l1_icache: Energy,
    /// Energy of the L1 data cache including its prediction structures.
    pub l1_dcache: Energy,
}

impl ProcessorEnergyBreakdown {
    /// Full breakdown, combining core activity with the externally computed
    /// L1 energies (the cache controllers account for those, including
    /// prediction-table overheads).
    pub fn new(counts: &ActivityCounts, l1_icache: Energy, l1_dcache: Energy) -> Self {
        let per_instruction = DECODE_PER_INSTRUCTION
            + RENAME_PER_INSTRUCTION
            + WINDOW_PER_INSTRUCTION
            + REGFILE_PER_INSTRUCTION
            + ROB_PER_INSTRUCTION
            + RESULT_BUS_PER_INSTRUCTION;
        let core = per_instruction * counts.instructions as f64
            + INT_ALU_PER_OP * counts.int_ops as f64
            + FP_ALU_PER_OP * counts.fp_ops as f64
            + LSQ_PER_MEM_OP * counts.mem_ops() as f64
            + BRANCH_PREDICTOR_PER_BRANCH * counts.branches as f64
            + CLOCK_PER_CYCLE * counts.cycles as f64;
        Self {
            core,
            l2: L2_PER_ACCESS * counts.l2_accesses as f64,
            l1_icache,
            l1_dcache,
        }
    }

    /// Total processor energy.
    pub fn total(&self) -> Energy {
        self.core + self.l2 + self.l1_icache + self.l1_dcache
    }

    /// Fraction of overall energy dissipated in the two L1 caches — the
    /// quantity the paper reports as 10–16 %.
    pub fn l1_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            (self.l1_icache + self.l1_dcache) / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn typical_counts() -> ActivityCounts {
        ActivityCounts {
            cycles: 500,
            instructions: 1000,
            int_ops: 500,
            fp_ops: 100,
            loads: 250,
            stores: 120,
            branches: 150,
            l2_accesses: 20,
        }
    }

    /// L1 energies for a parallel-access baseline with the activity above:
    /// i-cache ≈ one parallel read per fetched basic block (roughly one per
    /// five instructions), d-cache ≈ loads at 1.0 and stores at 0.24, in
    /// model units of 1000 per parallel read.
    fn baseline_l1_energies() -> (f64, f64) {
        let icache = 210.0 * 1000.0;
        let dcache = 250.0 * 1000.0 + 120.0 * 240.0;
        (icache, dcache)
    }

    #[test]
    fn l1_fraction_in_paper_band() {
        let (icache, dcache) = baseline_l1_energies();
        let b = ProcessorEnergyBreakdown::new(&typical_counts(), icache, dcache);
        let f = b.l1_fraction();
        assert!(f > 0.10 && f < 0.16, "L1 fraction {f}");
    }

    #[test]
    fn total_is_sum_of_parts() {
        let b = ProcessorEnergyBreakdown::new(&typical_counts(), 100.0, 200.0);
        assert!((b.total() - (b.core + b.l2 + b.l1_icache + b.l1_dcache)).abs() < 1e-9);
    }

    #[test]
    fn core_energy_scales_with_activity() {
        let mut more = typical_counts();
        more.instructions *= 2;
        more.cycles *= 2;
        more.int_ops *= 2;
        let core = |counts| ProcessorEnergyBreakdown::new(&counts, 0.0, 0.0).core;
        assert!(core(more) > core(typical_counts()));
    }

    #[test]
    fn core_energy_is_pinned_to_the_bit() {
        let core = ProcessorEnergyBreakdown::new(&typical_counts(), 0.0, 0.0).core;
        assert_eq!(core.to_bits(), 0x414b_4b4e_0000_0000, "core energy {core}");
    }

    #[test]
    fn ipc_is_instructions_over_cycles() {
        let counts = typical_counts();
        assert!((counts.ipc() - 2.0).abs() < 1e-12);
        assert_eq!(ActivityCounts::default().ipc(), 0.0);
    }

    #[test]
    fn empty_breakdown_has_zero_fraction() {
        let b = ProcessorEnergyBreakdown {
            core: 0.0,
            l2: 0.0,
            l1_icache: 0.0,
            l1_dcache: 0.0,
        };
        assert_eq!(b.l1_fraction(), 0.0);
    }

    #[test]
    fn reducing_cache_energy_reduces_total_by_bounded_fraction() {
        // The headline result structure: even a 70 % cut of L1 energy can
        // only move overall energy by roughly the L1 fraction times 70 %.
        let (icache, dcache) = baseline_l1_energies();
        let total = |i, d| ProcessorEnergyBreakdown::new(&typical_counts(), i, d).total();
        let base = total(icache, dcache);
        let improved = total(icache * 0.36, dcache * 0.31);
        let savings = 1.0 - improved / base;
        assert!(
            savings > 0.05 && savings < 0.15,
            "overall savings {savings}"
        );
    }
}
