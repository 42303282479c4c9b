//! Policy explorer: sweep every d-cache design option the paper evaluates
//! over a chosen benchmark and print the Table 5-style comparison, so the
//! energy/performance trade-off of each option is visible side by side.
//!
//! Run with `cargo run --release --example dcache_policy_explorer [benchmark]`
//! where `benchmark` is one of the paper's eleven applications (default:
//! `vortex`).

use wpsdm::cache::DCachePolicy;
use wpsdm::experiments::runner::{simulate_workload, MachineConfig, RunOptions};
use wpsdm::experiments::TextTable;
use wpsdm::workloads::{Benchmark, WorkloadSpec};

fn parse_benchmark(name: &str) -> Option<Benchmark> {
    Benchmark::all().into_iter().find(|b| b.name() == name)
}

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "vortex".to_string());
    let Some(benchmark) = parse_benchmark(&name) else {
        eprintln!(
            "unknown benchmark '{name}'; expected one of: {}",
            Benchmark::all().map(|b| b.name()).join(", ")
        );
        std::process::exit(1);
    };

    let workload = WorkloadSpec::Benchmark(benchmark);
    let options = RunOptions::default().with_ops(200_000);
    let baseline = simulate_workload(&workload, &MachineConfig::baseline(), &options);

    let mut table = TextTable::new(vec![
        "policy",
        "rel. energy-delay",
        "energy savings %",
        "perf. degradation %",
        "miss rate %",
        "waypred accuracy %",
    ]);
    for policy in DCachePolicy::all() {
        let machine = MachineConfig::baseline().with_dpolicy(policy);
        let result = simulate_workload(&workload, &machine, &options);
        let metrics = result.dcache_relative_to(&baseline);
        table.add_row(vec![
            policy.label().to_string(),
            format!("{:.2}", metrics.relative_energy_delay),
            format!("{:.1}", metrics.energy_savings() * 100.0),
            format!(
                "{:.1}",
                result.performance_degradation_vs(&baseline) * 100.0
            ),
            format!("{:.1}", result.dcache.miss_rate_percent()),
            format!("{:.0}", result.dcache.way_prediction_accuracy() * 100.0),
        ]);
    }
    println!("d-cache design options on {benchmark} (vs 1-cycle parallel access)\n");
    println!("{}", table.render());
}
