//! Placement families: way prediction changes what an access costs, never
//! what a cache holds.
//!
//! Every d-cache policy places blocks in one of two ways. The five
//! set-associative policies (parallel, sequential, PC and XOR way
//! prediction, and perfect way prediction) fill a miss into the LRU way of
//! its set; the three selective-DM policies place non-conflicting blocks in
//! their direct-mapped way. Within a family the policies differ only in
//! which ways a probe reads first and how long it takes, so on the same
//! stream they miss on exactly the same accesses. The same holds one level
//! down: the i-cache, the L2 and memory see the same traffic whatever the
//! d-policy of the family, under either i-policy.
//!
//! The property runs benchmark and scenario streams (adversarial knobs
//! drawn at random too) over 2-, 4- and 8-way d-caches and asserts four
//! counts equal within each family: d-cache misses, i-cache fetch misses,
//! L2 accesses and memory accesses.

use proptest::prelude::*;
use wpsdm::cache::{DCachePolicy, ICachePolicy};
use wpsdm::experiments::{simulate_workload, MachineConfig, RunOptions};
use wpsdm::workloads::{Benchmark, Scenario, WorkloadSpec};

/// The policies that fill every block set-associatively.
const SET_ASSOCIATIVE: [DCachePolicy; 5] = [
    DCachePolicy::Parallel,
    DCachePolicy::Sequential,
    DCachePolicy::WayPredictPc,
    DCachePolicy::WayPredictXor,
    DCachePolicy::PerfectWayPredict,
];

/// The policies that place non-conflicting blocks direct-mapped.
const SELECTIVE_DM: [DCachePolicy; 3] = [
    DCachePolicy::SelDmParallel,
    DCachePolicy::SelDmWayPredict,
    DCachePolicy::SelDmSequential,
];

/// Draws a workload stream: one of the 11 benchmarks, one of the six
/// built-in scenarios, or one of the three adversarial scenarios with
/// arbitrary knobs.
fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    (0usize..20, 1u32..4096, 1u32..10).prop_map(|(which, size, width)| match which {
        0..=10 => WorkloadSpec::Benchmark(Benchmark::all()[which]),
        11..=16 => WorkloadSpec::Scenario(Scenario::all()[which - 11]),
        17 => WorkloadSpec::Scenario(Scenario::WayAliasThrash {
            table_entries: size.min(2048),
            group: width,
        }),
        18 => WorkloadSpec::Scenario(Scenario::PhaseFlip {
            period_ops: size,
            conflict_ways: width,
        }),
        _ => WorkloadSpec::Scenario(Scenario::ConflictChase { blocks: width }),
    })
}

/// The counts a placement decides: d-cache misses, i-cache fetch misses,
/// L2 accesses and memory accesses.
fn placement_counts(
    workload: &WorkloadSpec,
    dpolicy: DCachePolicy,
    ipolicy: ICachePolicy,
    assoc: usize,
    options: &RunOptions,
) -> [u64; 4] {
    let baseline = MachineConfig::baseline()
        .with_dpolicy(dpolicy)
        .with_ipolicy(ipolicy);
    let machine = baseline.with_l1d(baseline.l1d.with_associativity(assoc));
    let result = simulate_workload(workload, &machine, options);
    [
        result.dcache.misses(),
        result.icache.fetch_misses,
        result.activity.l2_accesses,
        result.memory_accesses,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Within each placement family, every policy misses on the same
    /// accesses at every level of the hierarchy.
    #[test]
    fn placement_families_share_every_miss_count(
        workload in arb_workload(),
        seed in 0u64..1_000,
        ways in 1u32..4,
        ipolicy_index in 0usize..2,
        ops in 4_000usize..20_000,
    ) {
        let assoc = 1usize << ways;
        let ipolicy = ICachePolicy::all()[ipolicy_index];
        let options = RunOptions { ops, seed };
        for family in [&SET_ASSOCIATIVE[..], &SELECTIVE_DM[..]] {
            let first = placement_counts(&workload, family[0], ipolicy, assoc, &options);
            for &dpolicy in &family[1..] {
                let counts = placement_counts(&workload, dpolicy, ipolicy, assoc, &options);
                prop_assert_eq!(
                    counts,
                    first,
                    "[d-misses, i-misses, L2 accesses, memory accesses] of {:?} differ from {:?} on {} at {} ways, i-policy {:?}",
                    dpolicy,
                    family[0],
                    workload,
                    assoc,
                    ipolicy
                );
            }
        }
    }
}
