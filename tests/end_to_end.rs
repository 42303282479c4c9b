//! Cross-crate integration tests: drive the full stack (workload generator →
//! out-of-order core → prediction-augmented caches → energy models) the way
//! the examples and experiment binaries do, and assert the paper's
//! qualitative results.

use wpsdm::cache::{DCacheController, DCachePolicy, ICacheController, ICachePolicy, L1Config};
use wpsdm::cpu::{CpuConfig, Processor, SimResult};
use wpsdm::mem::{HierarchyConfig, MemoryHierarchy};
use wpsdm::predictors::HybridBranchPredictor;
use wpsdm::workloads::{Benchmark, TraceConfig, TraceGenerator};

const OPS: usize = 60_000;

fn simulate(benchmark: Benchmark, dpolicy: DCachePolicy, ipolicy: ICachePolicy) -> SimResult {
    let dcache = DCacheController::new(L1Config::paper_dcache(), dpolicy).expect("valid config");
    let icache = ICacheController::new(L1Config::paper_icache(), ipolicy).expect("valid config");
    let hierarchy = MemoryHierarchy::new(HierarchyConfig::default()).expect("valid config");
    let mut cpu = Processor::new(
        CpuConfig::default(),
        dcache,
        icache,
        hierarchy,
        HybridBranchPredictor::default(),
    );
    cpu.run(TraceGenerator::new(
        TraceConfig::new(benchmark).with_ops(OPS),
    ))
}

#[test]
fn selective_dm_waypredict_beats_parallel_on_energy_delay() {
    for benchmark in [Benchmark::Gcc, Benchmark::Vortex, Benchmark::Applu] {
        let baseline = simulate(benchmark, DCachePolicy::Parallel, ICachePolicy::Parallel);
        let technique = simulate(
            benchmark,
            DCachePolicy::SelDmWayPredict,
            ICachePolicy::Parallel,
        );
        let metrics = technique.dcache_relative_to(&baseline);
        assert!(
            metrics.energy_delay_savings() > 0.4,
            "{benchmark}: savings {}",
            metrics.energy_delay_savings()
        );
        assert!(
            technique.performance_degradation_vs(&baseline) < 0.10,
            "{benchmark}: degradation {}",
            technique.performance_degradation_vs(&baseline)
        );
    }
}

#[test]
fn sequential_access_saves_energy_but_degrades_more_than_selective_dm() {
    let baseline = simulate(
        Benchmark::Li,
        DCachePolicy::Parallel,
        ICachePolicy::Parallel,
    );
    let sequential = simulate(
        Benchmark::Li,
        DCachePolicy::Sequential,
        ICachePolicy::Parallel,
    );
    let seldm = simulate(
        Benchmark::Li,
        DCachePolicy::SelDmSequential,
        ICachePolicy::Parallel,
    );
    let seq_degradation = sequential.performance_degradation_vs(&baseline);
    let seldm_degradation = seldm.performance_degradation_vs(&baseline);
    assert!(
        seq_degradation > seldm_degradation,
        "sequential ({seq_degradation}) must degrade more than selective-DM ({seldm_degradation})"
    );
    assert!(sequential.dcache_relative_to(&baseline).energy_savings() > 0.5);
}

#[test]
fn icache_way_prediction_cuts_icache_energy_without_slowing_down() {
    let baseline = simulate(
        Benchmark::M88ksim,
        DCachePolicy::Parallel,
        ICachePolicy::Parallel,
    );
    let technique = simulate(
        Benchmark::M88ksim,
        DCachePolicy::Parallel,
        ICachePolicy::WayPredict,
    );
    let metrics = technique.icache_relative_to(&baseline);
    assert!(
        metrics.energy_delay_savings() > 0.4,
        "i-cache savings {}",
        metrics.energy_delay_savings()
    );
    assert!(technique.icache.way_prediction_accuracy() > 0.8);
    assert!(technique.performance_degradation_vs(&baseline).abs() < 0.05);
}

#[test]
fn combined_techniques_reduce_overall_processor_energy_delay() {
    let mut savings = Vec::new();
    for benchmark in [Benchmark::Perl, Benchmark::Troff, Benchmark::Swim] {
        let baseline = simulate(benchmark, DCachePolicy::Parallel, ICachePolicy::Parallel);
        let technique = simulate(
            benchmark,
            DCachePolicy::SelDmWayPredict,
            ICachePolicy::WayPredict,
        );
        let metrics = technique.processor_relative_to(&baseline);
        savings.push(metrics.energy_delay_savings());
        // The L1s are a bounded share of processor energy, so overall
        // savings are far smaller than the per-cache savings.
        assert!(
            metrics.energy_savings() < 0.25,
            "{benchmark}: implausibly large overall savings"
        );
    }
    let average = savings.iter().sum::<f64>() / savings.len() as f64;
    assert!(
        average > 0.0,
        "combined techniques should reduce overall energy-delay, got {savings:?}"
    );
}

#[test]
fn perfect_way_prediction_bounds_the_realisable_policies() {
    let baseline = simulate(
        Benchmark::Gcc,
        DCachePolicy::Parallel,
        ICachePolicy::Parallel,
    );
    let perfect = simulate(
        Benchmark::Gcc,
        DCachePolicy::PerfectWayPredict,
        ICachePolicy::Parallel,
    );
    let real = simulate(
        Benchmark::Gcc,
        DCachePolicy::SelDmWayPredict,
        ICachePolicy::Parallel,
    );
    let perfect_savings = perfect.dcache_relative_to(&baseline).energy_delay_savings();
    let real_savings = real.dcache_relative_to(&baseline).energy_delay_savings();
    assert!(
        perfect_savings >= real_savings - 0.02,
        "perfect ({perfect_savings}) must bound the realisable policy ({real_savings})"
    );
}

#[test]
fn facade_reexports_compose() {
    // The facade paths used throughout the examples must stay valid.
    let geometry = wpsdm::mem::CacheGeometry::new(16 * 1024, 32, 4).expect("valid geometry");
    let model = wpsdm::energy::CacheEnergyModel::new(geometry);
    let table = wpsdm::energy::RelativeEnergyTable::from_model(&model);
    assert!(table.single_way_read < 0.3);
    let profile = wpsdm::workloads::Benchmark::Swim.profile();
    assert!(profile.paper_sa_miss_rate > profile.paper_dm_miss_rate);
}
