//! Quickstart: build the paper's recommended configuration — a 16 KB 4-way
//! L1 d-cache using selective direct-mapping plus way-prediction — run a
//! synthetic perl-like workload through the out-of-order processor model,
//! and print the energy-delay savings against the conventional
//! parallel-access baseline.
//!
//! Run with `cargo run --release --example quickstart`.

use wpsdm::cache::{DCacheController, DCachePolicy, ICacheController, ICachePolicy, L1Config};
use wpsdm::cpu::{CpuConfig, Processor};
use wpsdm::mem::{HierarchyConfig, MemoryHierarchy};
use wpsdm::predictors::HybridBranchPredictor;
use wpsdm::workloads::{Benchmark, TraceConfig, TraceGenerator};

fn simulate(policy: DCachePolicy) -> Result<wpsdm::cpu::SimResult, Box<dyn std::error::Error>> {
    let dcache = DCacheController::new(L1Config::paper_dcache(), policy)?;
    let icache = ICacheController::new(L1Config::paper_icache(), ICachePolicy::WayPredict)?;
    let hierarchy = MemoryHierarchy::new(HierarchyConfig::default())?;
    let mut cpu = Processor::new(
        CpuConfig::default(),
        dcache,
        icache,
        hierarchy,
        HybridBranchPredictor::default(),
    );
    let trace = TraceGenerator::new(TraceConfig::new(Benchmark::Perl).with_ops(200_000));
    Ok(cpu.run(trace))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let baseline = simulate(DCachePolicy::Parallel)?;
    let technique = simulate(DCachePolicy::SelDmWayPredict)?;

    let dcache = technique.dcache_relative_to(&baseline);
    let processor = technique.processor_relative_to(&baseline);

    println!("workload: perl-like synthetic trace, 200k micro-ops");
    println!(
        "baseline   : {:>9} cycles, IPC {:.2}, d-cache miss rate {:.1} %",
        baseline.cycles,
        baseline.activity.ipc(),
        baseline.dcache.miss_rate_percent()
    );
    println!(
        "selective-DM + way-prediction: {:>9} cycles ({:+.1} % time)",
        technique.cycles,
        technique.performance_degradation_vs(&baseline) * 100.0
    );
    println!(
        "d-cache energy-delay savings : {:.1} % (paper reports ~69 % on average)",
        dcache.energy_delay_savings() * 100.0
    );
    println!(
        "d-cache access breakdown     : DM {:.0} %, parallel {:.0} %, way-predicted {:.0} %, \
         sequential {:.0} %, mispredicted {:.0} %",
        technique.dcache.access_breakdown()[0] * 100.0,
        technique.dcache.access_breakdown()[1] * 100.0,
        technique.dcache.access_breakdown()[2] * 100.0,
        technique.dcache.access_breakdown()[3] * 100.0,
        technique.dcache.access_breakdown()[4] * 100.0,
    );
    println!(
        "overall processor energy-delay savings: {:.1} % (paper reports ~8 %)",
        processor.energy_delay_savings() * 100.0
    );
    Ok(())
}
