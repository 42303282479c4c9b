//! Criterion benchmarks, one group per table / figure of the paper.
//!
//! Each group exercises the code path that regenerates the corresponding
//! artefact on a reduced trace length, so `cargo bench` both regenerates the
//! qualitative result and tracks the simulator's throughput. Run the
//! `wp-experiments` binaries for the full-length tables.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::io::Cursor;
use wp_cache::{DCacheController, DCachePolicy, ICachePolicy, L1Config};
use wp_cpu::Processor;
use wp_energy::{CacheEnergyModel, RelativeEnergyTable};
use wp_experiments::engine::{SimEngine, SimPlan, SimPoint};
use wp_experiments::runner::{simulate_workload, MachineConfig, RunOptions};
use wp_workloads::{
    Benchmark, OpKind, TraceConfig, TraceGenerator, TraceReader, TraceWriter, WorkloadSpec,
};

/// Trace length used by the benchmark harness (small enough that every
/// group completes quickly, large enough to exercise warm caches).
const BENCH_OPS: usize = 12_000;

fn bench_options() -> RunOptions {
    RunOptions::default().with_ops(BENCH_OPS).with_seed(7)
}

fn machine(dpolicy: DCachePolicy, ipolicy: ICachePolicy) -> MachineConfig {
    MachineConfig::baseline()
        .with_dpolicy(dpolicy)
        .with_ipolicy(ipolicy)
}

/// Table 3: the analytic energy model itself.
fn table3_energy_model(c: &mut Criterion) {
    let geometry = L1Config::paper_dcache().geometry().expect("valid geometry");
    c.bench_function("table3_energy_model", |b| {
        b.iter(|| {
            let model = CacheEnergyModel::new(black_box(geometry));
            black_box(RelativeEnergyTable::from_model(&model))
        })
    });
}

/// Table 4: the direct-mapped point (the 4-way column is the baseline
/// every d-cache figure shares).
fn table4_miss_rates(c: &mut Criterion) {
    let options = bench_options();
    let workload = WorkloadSpec::Benchmark(Benchmark::Gcc);
    let machine =
        MachineConfig::baseline().with_l1d(L1Config::paper_dcache().with_associativity(1));
    c.bench_function("table4_miss_rates_gcc", |b| {
        b.iter(|| black_box(simulate_workload(&workload, &machine, &options)))
    });
}

/// Figure 4: sequential-access d-cache simulation.
fn fig4_sequential(c: &mut Criterion) {
    let options = bench_options();
    let workload = WorkloadSpec::Benchmark(Benchmark::Gcc);
    c.bench_function("fig4_sequential_gcc", |b| {
        b.iter(|| {
            black_box(simulate_workload(
                &workload,
                &machine(DCachePolicy::Sequential, ICachePolicy::Parallel),
                &options,
            ))
        })
    });
}

/// Figure 5: PC- and XOR-based way-prediction.
fn fig5_way_prediction(c: &mut Criterion) {
    let options = bench_options();
    let workload = WorkloadSpec::Benchmark(Benchmark::Vortex);
    let mut group = c.benchmark_group("fig5_way_prediction");
    for (name, policy) in [
        ("pc", DCachePolicy::WayPredictPc),
        ("xor", DCachePolicy::WayPredictXor),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(simulate_workload(
                    &workload,
                    &machine(policy, ICachePolicy::Parallel),
                    &options,
                ))
            })
        });
    }
    group.finish();
}

/// Figure 6 / Table 5: the selective-DM schemes.
fn fig6_selective_dm(c: &mut Criterion) {
    let options = bench_options();
    let workload = WorkloadSpec::Benchmark(Benchmark::Gcc);
    let mut group = c.benchmark_group("fig6_selective_dm");
    for (name, policy) in [
        ("seldm_parallel", DCachePolicy::SelDmParallel),
        ("seldm_waypred", DCachePolicy::SelDmWayPredict),
        ("seldm_sequential", DCachePolicy::SelDmSequential),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(simulate_workload(
                    &workload,
                    &machine(policy, ICachePolicy::Parallel),
                    &options,
                ))
            })
        });
    }
    group.finish();
}

/// Table 5 is the summary of Figures 4-6; benchmark the recommended
/// configuration end to end.
fn table5_summary(c: &mut Criterion) {
    let options = bench_options();
    let workload = WorkloadSpec::Benchmark(Benchmark::Li);
    c.bench_function("table5_seldm_waypred_li", |b| {
        b.iter(|| {
            black_box(simulate_workload(
                &workload,
                &machine(DCachePolicy::SelDmWayPredict, ICachePolicy::Parallel),
                &options,
            ))
        })
    });
}

/// Figure 7: cache-size sweep (32 KB point).
fn fig7_cache_size(c: &mut Criterion) {
    let options = bench_options();
    let workload = WorkloadSpec::Benchmark(Benchmark::Perl);
    let machine = MachineConfig::baseline()
        .with_l1d(L1Config::paper_dcache().with_size(32 * 1024))
        .with_dpolicy(DCachePolicy::SelDmWayPredict);
    c.bench_function("fig7_32k_seldm_waypred", |b| {
        b.iter(|| black_box(simulate_workload(&workload, &machine, &options)))
    });
}

/// Figure 8: associativity sweep (8-way point).
fn fig8_associativity(c: &mut Criterion) {
    let options = bench_options();
    let workload = WorkloadSpec::Benchmark(Benchmark::Applu);
    let machine = MachineConfig::baseline()
        .with_l1d(L1Config::paper_dcache().with_associativity(8))
        .with_dpolicy(DCachePolicy::SelDmWayPredict);
    c.bench_function("fig8_8way_seldm_waypred", |b| {
        b.iter(|| black_box(simulate_workload(&workload, &machine, &options)))
    });
}

/// Figure 9: the 2-cycle base-latency d-cache.
fn fig9_high_latency(c: &mut Criterion) {
    let options = bench_options();
    let workload = WorkloadSpec::Benchmark(Benchmark::Go);
    let machine = MachineConfig::baseline()
        .with_l1d(L1Config::paper_dcache().with_base_latency(2))
        .with_dpolicy(DCachePolicy::SelDmSequential);
    c.bench_function("fig9_2cycle_seldm_sequential", |b| {
        b.iter(|| black_box(simulate_workload(&workload, &machine, &options)))
    });
}

/// Figure 10: i-cache way-prediction.
fn fig10_icache(c: &mut Criterion) {
    let options = bench_options();
    let workload = WorkloadSpec::Benchmark(Benchmark::M88ksim);
    c.bench_function("fig10_icache_waypred_m88ksim", |b| {
        b.iter(|| {
            black_box(simulate_workload(
                &workload,
                &machine(DCachePolicy::Parallel, ICachePolicy::WayPredict),
                &options,
            ))
        })
    });
}

/// Figure 11: the combined configuration that produces the headline result.
fn fig11_processor(c: &mut Criterion) {
    let options = bench_options();
    let workload = WorkloadSpec::Benchmark(Benchmark::Troff);
    c.bench_function("fig11_combined_troff", |b| {
        b.iter(|| {
            black_box(simulate_workload(
                &workload,
                &machine(DCachePolicy::SelDmWayPredict, ICachePolicy::WayPredict),
                &options,
            ))
        })
    });
}

/// The engine: a deduplicated multi-figure plan, executed serially and in
/// parallel. The plan requests every point twice (as run_all's overlapping
/// figures do), so this also tracks the dedup overhead.
fn engine_sweep(c: &mut Criterion) {
    let options = bench_options();
    let mut plan = SimPlan::new();
    for _ in 0..2 {
        for policy in [
            DCachePolicy::Parallel,
            DCachePolicy::SelDmWayPredict,
            DCachePolicy::Sequential,
        ] {
            for benchmark in [Benchmark::Gcc, Benchmark::Li, Benchmark::Swim] {
                plan.add(SimPoint::new(
                    benchmark,
                    machine(policy, ICachePolicy::Parallel),
                    options,
                ));
            }
        }
    }
    let mut group = c.benchmark_group("engine_sweep");
    group.bench_function("serial", |b| {
        b.iter(|| black_box(SimEngine::serial().run(&plan).executed_points()))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| black_box(SimEngine::default().run(&plan).executed_points()))
    });
    group.finish();
}

/// The trace codec: encode a reference stream and decode it back, tracking
/// capture/replay throughput against the live generator.
fn trace_codec(c: &mut Criterion) {
    let config = TraceConfig::new(Benchmark::Gcc)
        .with_ops(BENCH_OPS)
        .with_seed(7);
    let ops: Vec<_> = TraceGenerator::new(config).collect();
    let mut group = c.benchmark_group("trace_codec");
    group.bench_function("generate", |b| {
        b.iter(|| black_box(TraceGenerator::new(config).count()))
    });
    group.bench_function("capture", |b| {
        b.iter(|| {
            let mut writer = TraceWriter::new(Cursor::new(Vec::new()), "bench").expect("header");
            for op in &ops {
                writer.write_op(op).expect("record");
            }
            black_box(writer.finish().expect("finish").into_inner().len())
        })
    });
    let mut writer = TraceWriter::new(Cursor::new(Vec::new()), "bench").expect("header");
    for op in &ops {
        writer.write_op(op).expect("record");
    }
    let bytes = writer.finish().expect("finish").into_inner();
    group.bench_function("replay", |b| {
        b.iter(|| {
            let reader = TraceReader::new(Cursor::new(bytes.as_slice())).expect("header");
            let mut decoded = 0usize;
            for op in reader {
                black_box(op.expect("intact recording"));
                decoded += 1;
            }
            black_box(decoded)
        })
    });
    group.finish();
}

/// End-to-end simulator throughput: the d-cache access loop under the
/// conventional and the headline policies, and the block-driven processor
/// run (the benchmark ledger in `ledger/` measures the same layers with a
/// host fingerprint and a spread; see `ledger/README.md`).
fn sim_throughput(c: &mut Criterion) {
    let stream: Vec<(u64, u64, u64, bool)> = TraceGenerator::new(
        TraceConfig::new(Benchmark::Gcc)
            .with_ops(4 * BENCH_OPS)
            .with_seed(7),
    )
    .filter_map(|op| match op.kind {
        OpKind::Load { addr, approx_addr } => Some((op.pc, addr, approx_addr, true)),
        OpKind::Store { addr } => Some((op.pc, addr, 0, false)),
        _ => None,
    })
    .collect();
    let mut group = c.benchmark_group("sim_throughput");
    for (name, policy) in [
        ("dcache_parallel", DCachePolicy::Parallel),
        ("dcache_seldm_waypred", DCachePolicy::SelDmWayPredict),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut cache = DCacheController::new(L1Config::paper_dcache(), policy)
                    .expect("paper config is valid");
                let mut latency = 0u64;
                for &(pc, addr, approx, is_load) in &stream {
                    let out = if is_load {
                        cache.load(pc, addr, approx)
                    } else {
                        cache.store(pc, addr)
                    };
                    latency += out.latency;
                }
                black_box((latency, cache.stats().misses()))
            })
        });
    }
    group.bench_function("processor_run_blocks", |b| {
        let m = machine(DCachePolicy::SelDmWayPredict, ICachePolicy::WayPredict);
        b.iter(|| {
            let mut cpu = Processor::with_l1(m.cpu, m.l1d, m.dpolicy, m.l1i, m.ipolicy)
                .expect("paper config is valid");
            let mut ops = WorkloadSpec::Benchmark(Benchmark::Gcc)
                .stream(BENCH_OPS, 7)
                .expect("generated workloads never fail");
            black_box(cpu.run_blocks(&mut ops).cycles)
        })
    });
    group.finish();
}

criterion_group! {
    name = paper;
    config = Criterion::default().sample_size(10);
    targets =
        table3_energy_model,
        table4_miss_rates,
        fig4_sequential,
        fig5_way_prediction,
        fig6_selective_dm,
        table5_summary,
        fig7_cache_size,
        fig8_associativity,
        fig9_high_latency,
        fig10_icache,
        fig11_processor,
        engine_sweep,
        trace_codec,
        sim_throughput
}
criterion_main!(paper);
