//! Tests for the adversarial workload generators and profile machinery:
//!
//! * proptests — per-seed determinism of every adversarial generator,
//!   lane ≡ scalar ≡ oracle bit-identity across all seven concrete
//!   d-cache policies, and spill-path byte-identity under a 1-byte
//!   stream cap;
//! * design-intent checks — way-alias thrash degrades the PC way
//!   predictor's first-hit rate versus a well-behaved baseline, and the
//!   conflict chase's miss rate falls off a cliff exactly when the
//!   rotation exceeds the associativity;
//! * the committed CI profile (`tests/profiles/stress.json`) parses to
//!   the built-in stress tier.

use proptest::prelude::*;
use wpsdm::cache::DCachePolicy;
use wpsdm::experiments::conformance::oracle_simulate_workload;
use wpsdm::experiments::{
    simulate_workload, MachineConfig, RunOptions, SimEngine, SimPlan, SimPoint,
};
use wpsdm::workloads::{ProfileSpec, ProfileTier, Scenario, SharedStream, StreamKey, WorkloadSpec};

/// Draws one adversarial scenario with arbitrary (valid) knobs: `which`
/// picks the family, the two knobs are reinterpreted per family.
fn arb_adversarial() -> impl Strategy<Value = Scenario> {
    (0usize..3, 1u32..4096, 1u32..10).prop_map(|(which, size, width)| match which {
        0 => Scenario::WayAliasThrash {
            table_entries: size.min(2048),
            group: width,
        },
        1 => Scenario::PhaseFlip {
            period_ops: size,
            conflict_ways: width,
        },
        _ => Scenario::ConflictChase { blocks: width },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same (scenario, ops, seed) always generates the same micro-op
    /// stream — the adversarial generators are pure functions of the seed.
    #[test]
    fn adversarial_generators_are_deterministic_per_seed(
        scenario in arb_adversarial(),
        ops in 200usize..2_000,
        seed in 0u64..1_000,
    ) {
        let spec = WorkloadSpec::Scenario(scenario);
        let a: Vec<_> = spec.stream(ops, seed).expect("generated").collect();
        let b: Vec<_> = spec.stream(ops, seed).expect("generated").collect();
        prop_assert_eq!(a, b);
    }

    /// Every adversarial generator conforms — optimized stack ≡ oracle,
    /// bit for bit — under each of the seven concrete d-cache policies.
    #[test]
    fn adversarial_scenarios_conform_across_policies(
        scenario in arb_adversarial(),
        policy_index in 0usize..DCachePolicy::all().len(),
        ops in 500usize..2_500,
        seed in 0u64..1_000,
    ) {
        let workload = WorkloadSpec::Scenario(scenario);
        let machine =
            MachineConfig::baseline().with_dpolicy(DCachePolicy::all()[policy_index]);
        let options = RunOptions { ops, seed };
        let optimized = simulate_workload(&workload, &machine, &options);
        let oracle = oracle_simulate_workload(&workload, &machine, &options);
        prop_assert!(
            oracle.exact_eq(&optimized),
            "oracle and optimized stacks diverged on {} / {:?}: fields {:?}",
            workload,
            machine.dpolicy,
            oracle.diff(&optimized)
        );
    }
}

/// Lane-batched engine runs of an adversarial profile are bit-identical
/// to scalar per-point runs for every policy × scenario pair.
#[test]
fn lane_batches_match_scalar_on_adversarial_profiles() {
    let options = RunOptions {
        ops: 2_000,
        seed: 11,
    };
    let profile = ProfileSpec::builtin(ProfileTier::Adversarial);
    let mut plan = SimPlan::new();
    for workload in profile.workloads() {
        for policy in DCachePolicy::all() {
            plan.add(SimPoint::with_workload(
                workload.clone(),
                MachineConfig::baseline().with_dpolicy(policy),
                options,
            ));
        }
    }
    let laned = SimEngine::new(2).run(&plan);
    for point in plan.unique_points() {
        let a = laned.require_workload(&point.workload, &point.machine, &point.options);
        let b = &simulate_workload(&point.workload, &point.machine, &point.options);
        assert!(
            a.exact_eq(b),
            "lane and scalar runs diverged on {} / {:?}: fields {:?}",
            point.workload,
            point.machine.dpolicy,
            a.diff(b)
        );
    }
}

/// An adversarial stream survives the spill codec: resident and
/// 1-byte-cap spilled materializations reproduce the live simulation
/// exactly, and so does the oracle walking the scenario from its source.
#[test]
fn adversarial_streams_survive_the_spill_path() {
    let spec = WorkloadSpec::Scenario(Scenario::PhaseFlip {
        period_ops: 256,
        conflict_ways: 8,
    });
    let options = RunOptions {
        ops: 2_000,
        seed: 7,
    };
    let machine = MachineConfig::baseline().with_dpolicy(DCachePolicy::SelDmWayPredict);
    let key = StreamKey::new(spec.clone(), options.ops, options.seed);

    let resident = SharedStream::materialize_capped(&key, usize::MAX).expect("fits");
    assert!(!resident.is_spilled());
    let spilled = SharedStream::materialize_capped(&key, 1).expect("spills");
    assert!(spilled.is_spilled());

    let live = simulate_workload(&spec, &machine, &options);
    let oracle =
        wpsdm::experiments::conformance::oracle_simulate_workload(&spec, &machine, &options);
    assert!(oracle.exact_eq(&live), "oracle from source != live");
    for stream in [&resident, &spilled] {
        let optimized =
            wpsdm::experiments::runner::simulate_workload_shared_lanes(stream, &[machine])
                .remove(0);
        assert!(optimized.exact_eq(&live), "shared optimized != live");
    }
}

/// The fraction of way-predicted loads that probed the wrong way first.
fn first_probe_miss_rate(scenario: Scenario) -> f64 {
    let machine = MachineConfig::baseline().with_dpolicy(DCachePolicy::WayPredictPc);
    let options = RunOptions {
        ops: 4_000,
        seed: 42,
    };
    let result = simulate_workload(&WorkloadSpec::Scenario(scenario), &machine, &options);
    let wrong = result.dcache.mispredicted_accesses as f64;
    let right = result.dcache.single_way_load_hits as f64;
    wrong / (wrong + right).max(1.0)
}

/// Design intent: way-alias thrash folds distinct PCs onto one
/// prediction-table entry, so its first-probe hit rate collapses relative
/// to a well-behaved strided baseline at the same scale.
#[test]
fn way_alias_thrash_degrades_first_hit_rate() {
    let baseline = first_probe_miss_rate(Scenario::strided_stream());
    let thrashed = first_probe_miss_rate(Scenario::WayAliasThrash {
        table_entries: 1024,
        group: 4,
    });
    assert!(
        thrashed > 2.0 * baseline && thrashed > 0.5,
        "alias thrash should collapse the first-probe hit rate: \
         thrashed {thrashed:.3} vs baseline {baseline:.3}"
    );
}

/// The d-cache demand miss rate of a conflict chase over `blocks` blocks.
fn chase_miss_rate(blocks: u32) -> f64 {
    let machine = MachineConfig::baseline();
    let options = RunOptions {
        ops: 4_000,
        seed: 42,
    };
    let result = simulate_workload(
        &WorkloadSpec::Scenario(Scenario::ConflictChase { blocks }),
        &machine,
        &options,
    );
    let d = &result.dcache;
    (d.load_misses + d.store_misses) as f64 / (d.loads + d.stores).max(1) as f64
}

/// Design intent: the chase's miss rate falls off a cliff exactly where
/// the rotation stops fitting the reference associativity (4-way): one
/// block under stays warm, one block over thrashes the LRU set endlessly.
#[test]
fn conflict_chase_miss_rate_cliff_sits_at_the_associativity() {
    let assoc = MachineConfig::baseline().l1d.associativity as u32;
    let under = chase_miss_rate(assoc - 1);
    let at = chase_miss_rate(assoc);
    let over = chase_miss_rate(assoc + 1);
    assert!(
        under < 0.05 && at < 0.05,
        "a chase within the associativity should stay warm after the cold \
         start: under {under:.3}, at {at:.3}"
    );
    // Each chase step is a load (which misses — the block was evicted a
    // full rotation ago) plus a dirtying store to the just-filled line
    // (which hits), so total thrash saturates at a 50% demand miss rate.
    assert!(
        over > 0.4,
        "one block over the associativity should thrash the LRU set on \
         every load: over {over:.3}"
    );
    assert!(
        over > 10.0 * at,
        "the cliff should be at least an order of magnitude: at {at:.3} \
         vs over {over:.3}"
    );
}

/// The committed CI profile parses and is exactly the built-in stress
/// tier, so the CI coverage job and the library can never disagree about
/// what "stress" means.
#[test]
fn committed_stress_profile_matches_the_builtin() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/profiles/stress.json");
    let committed = ProfileSpec::load(&path).expect("committed profile parses");
    assert_eq!(committed, ProfileSpec::builtin(ProfileTier::Stress));
}
