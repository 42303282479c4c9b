//! Integration tests for the persistent on-disk matrix cache: the full
//! run_all plan produces bit-identical results whether points are
//! simulated fresh (no cache), simulated into a cold cache, or served from
//! a warm cache — and a warm `run_all` executes zero simulations.
//!
//! The degraded-mode section holds the cache to the reliability contract
//! (`docs/RELIABILITY.md`): a read-only directory, ENOSPC mid-store, and
//! stale-tmp debris each leave every result bit-identical to an uncached
//! run and increment the matching health counter.

use std::path::PathBuf;
use std::sync::Arc;

use wpsdm::experiments::engine::SimEngine;
use wpsdm::experiments::matrix_cache::MatrixCache;
use wpsdm::experiments::storage::{FaultKind, FaultPlan, FaultyIo};
use wpsdm::experiments::{report, run_all_plan, RunOptions, SimMatrix, ARTEFACTS};

/// A trace length small enough to sweep the full run_all plan three times.
fn tiny() -> RunOptions {
    RunOptions::quick().with_ops(2_000)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wpsdm-matrix-itest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Renders every one of the 11 figure/table artefacts from a matrix as
/// JSON — the repo's definition of "the outputs".
fn render_all(matrix: &SimMatrix, options: &RunOptions) -> Vec<String> {
    ARTEFACTS
        .iter()
        .map(|artefact| report::to_json_with(|| (artefact.json)(matrix, options)))
        .collect()
}

#[test]
fn warm_cache_serves_all_eleven_artefacts_bit_identically() {
    let options = tiny();
    let plan = run_all_plan(&options);
    let unique = plan.unique_points().len();
    let dir = temp_dir("warm");

    // Reference: no cache involved at all.
    let uncached_engine = SimEngine::default();
    let uncached = uncached_engine.run(&plan);
    assert_eq!(uncached.executed_points(), unique);
    assert_eq!(uncached.cache_hits(), 0);

    // Cold: everything simulates, results are stored.
    let cached_engine = SimEngine::default().with_matrix_cache(MatrixCache::new(&dir));
    let cold = cached_engine.run(&plan);
    assert_eq!(cold.executed_points(), unique);
    assert_eq!(cold.cache_hits(), 0);

    // Warm: a second run_all-shaped sweep executes ZERO simulations.
    let warm = cached_engine.run(&plan);
    assert_eq!(
        warm.executed_points(),
        0,
        "a warm matrix cache must serve every point without simulating"
    );
    assert_eq!(warm.cache_hits(), unique);
    assert_eq!(
        warm.ops_generated(),
        0,
        "a warm sweep generates no workload stream, Table 4's included"
    );

    // Every point's result is bit-identical across all three matrices
    // (PartialEq on SimResult compares the f64 energy totals exactly).
    for point in plan.unique_points() {
        let fresh = uncached.require_workload(&point.workload, &point.machine, &point.options);
        let stored = cold.require_workload(&point.workload, &point.machine, &point.options);
        let served = warm.require_workload(&point.workload, &point.machine, &point.options);
        assert_eq!(fresh, stored, "{}: cold run diverged", point.workload);
        assert_eq!(fresh, served, "{}: warm run diverged", point.workload);
    }

    // And all 11 rendered figure/table outputs are identical.
    let from_fresh = render_all(&uncached, &options);
    let from_warm = render_all(&warm, &options);
    assert_eq!(from_fresh.len(), 11);
    for ((artefact, fresh), warm) in ARTEFACTS.iter().zip(&from_fresh).zip(&from_warm) {
        assert_eq!(fresh, warm, "{} rendered differently", artefact.name);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_survives_thread_count_changes() {
    let options = tiny();
    let mut plan = wpsdm::experiments::engine::SimPlan::new();
    plan.add_all_benchmarks(wpsdm::experiments::MachineConfig::baseline(), options);
    let dir = temp_dir("threads");

    let serial = SimEngine::serial().with_matrix_cache(MatrixCache::new(&dir));
    let cold = serial.run(&plan);
    assert_eq!(cold.cache_hits(), 0);

    // A differently-parallel engine over the same directory hits every
    // point: the digest depends only on the point, not the schedule.
    let parallel = SimEngine::new(8).with_matrix_cache(MatrixCache::new(&dir));
    let warm = parallel.run(&plan);
    assert_eq!(warm.executed_points(), 0);
    assert_eq!(warm.cache_hits(), plan.unique_points().len());
    for point in plan.unique_points() {
        assert_eq!(
            cold.require_workload(&point.workload, &point.machine, &point.options),
            warm.require_workload(&point.workload, &point.machine, &point.options),
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The benchmark-sweep plan the degraded-mode tests run: one point per
/// paper benchmark on the baseline machine.
fn benchmark_plan(options: RunOptions) -> wpsdm::experiments::engine::SimPlan {
    let mut plan = wpsdm::experiments::engine::SimPlan::new();
    plan.add_all_benchmarks(wpsdm::experiments::MachineConfig::baseline(), options);
    plan
}

#[test]
fn read_only_cache_dir_degrades_but_results_stay_correct() {
    let options = tiny();
    let plan = benchmark_plan(options);
    let unique = plan.unique_points().len();
    let reference = SimEngine::default().run(&plan);

    // Every mutating operation fails EACCES, as a read-only mount would.
    let dir = temp_dir("readonly");
    let cache =
        MatrixCache::with_io(&dir, Arc::new(FaultyIo::read_only())).with_breaker_threshold(4);
    let engine = SimEngine::default().with_matrix_cache(cache);
    let matrix = engine.run(&plan);

    // Results are bit-identical to the uncached run — the cache degraded,
    // the science did not.
    assert_eq!(matrix.executed_points(), unique);
    assert_eq!(matrix.cache_hits(), 0);
    for point in plan.unique_points() {
        assert_eq!(
            reference.require_workload(&point.workload, &point.machine, &point.options),
            matrix.require_workload(&point.workload, &point.machine, &point.options),
        );
    }
    // The right counters moved: every store failed, and with more failed
    // stores than the breaker threshold the cache degraded to pass-through.
    assert!(
        matrix.cache_health().io_errors >= 4,
        "failed stores must count as I/O errors (saw {})",
        matrix.cache_health().io_errors
    );
    assert!(
        matrix.cache_health().degraded,
        "consecutive store failures past the threshold must trip the breaker"
    );
    // Nothing was ever written.
    assert!(
        !dir.exists()
            || std::fs::read_dir(&dir)
                .map(|mut d| d.next().is_none())
                .unwrap_or(true)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_mid_store_loses_one_record_but_no_results() {
    let options = tiny();
    let mut plan = wpsdm::experiments::engine::SimPlan::new();
    for benchmark in [
        wpsdm::workloads::Benchmark::Gcc,
        wpsdm::workloads::Benchmark::Li,
    ] {
        plan.add(wpsdm::experiments::SimPoint::new(
            benchmark,
            wpsdm::experiments::MachineConfig::baseline(),
            options,
        ));
    }
    let reference = SimEngine::serial().run(&plan);

    // Operation schedule for two missing points on a serial engine:
    // recovery list(0), load read(1), load read(2), then per store
    // mkdir/write/rename. Op 4 is the FIRST point's record write — fail it
    // ENOSPC with a torn 10-byte prefix.
    let dir = temp_dir("enospc");
    let plan_faults = FaultPlan::new().tear_write(4, 10, FaultKind::Enospc);
    let cache = MatrixCache::with_io(&dir, Arc::new(FaultyIo::with_plan(plan_faults)));
    let engine = SimEngine::serial().with_matrix_cache(cache);

    let cold = engine.run(&plan);
    assert_eq!(cold.executed_points(), 2);
    assert_eq!(
        cold.cache_health().io_errors,
        1,
        "exactly the one ENOSPC write must be counted"
    );
    assert!(
        !cold.cache_health().degraded,
        "one failure must not trip the breaker"
    );
    for point in plan.unique_points() {
        assert_eq!(
            reference.require_workload(&point.workload, &point.machine, &point.options),
            cold.require_workload(&point.workload, &point.machine, &point.options),
        );
    }

    // The failed store left no torn record behind (the tmp prefix was
    // cleaned up), so a warm run hits the surviving record and cleanly
    // re-simulates the lost one — with identical results.
    let warm = engine.run(&plan);
    assert_eq!(
        warm.cache_hits(),
        1,
        "the successfully stored record serves"
    );
    assert_eq!(warm.executed_points(), 1, "the lost record re-simulates");
    for point in plan.unique_points() {
        assert_eq!(
            reference.require_workload(&point.workload, &point.machine, &point.options),
            warm.require_workload(&point.workload, &point.machine, &point.options),
        );
    }
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
                .filter(|name| name.contains(".tmp"))
                .collect()
        })
        .unwrap_or_default();
    assert_eq!(
        leftovers,
        Vec::<String>::new(),
        "no torn tmp debris survives"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_tmp_debris_is_swept_and_counted() {
    let options = tiny();
    let plan = benchmark_plan(options);
    let reference = SimEngine::default().run(&plan);

    // Debris a crashed process would leave behind.
    let dir = temp_dir("staletmp");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(
        dir.join("00000000deadbeef.wpsim.tmp4242.0"),
        b"half a record",
    )
    .expect("tmp");
    std::fs::write(dir.join("00000000cafef00d.wpsim.tmp4242.7"), b"").expect("tmp");

    let engine = SimEngine::default().with_matrix_cache(MatrixCache::new(&dir));
    let matrix = engine.run(&plan);
    assert_eq!(
        matrix.cache_health().recovered_tmp,
        2,
        "both stranded tmp files swept"
    );
    assert_eq!(matrix.cache_health().io_errors, 0);
    for point in plan.unique_points() {
        assert_eq!(
            reference.require_workload(&point.workload, &point.machine, &point.options),
            matrix.require_workload(&point.workload, &point.machine, &point.options),
        );
    }
    let stale: Vec<String> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp"))
        .collect();
    assert_eq!(stale, Vec::<String>::new(), "recovery leaves no tmp files");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changed_options_miss_the_cache() {
    let options = tiny();
    let dir = temp_dir("invalidate");
    let engine = SimEngine::default().with_matrix_cache(MatrixCache::new(&dir));

    let mut plan = wpsdm::experiments::engine::SimPlan::new();
    plan.add(wpsdm::experiments::SimPoint::new(
        wpsdm::workloads::Benchmark::Gcc,
        wpsdm::experiments::MachineConfig::baseline(),
        options,
    ));
    let first = engine.run(&plan);
    assert_eq!(first.executed_points(), 1);

    // A different seed is a different point: digest changes, cache misses.
    let mut reseeded = wpsdm::experiments::engine::SimPlan::new();
    reseeded.add(wpsdm::experiments::SimPoint::new(
        wpsdm::workloads::Benchmark::Gcc,
        wpsdm::experiments::MachineConfig::baseline(),
        options.with_seed(options.seed + 1),
    ));
    let second = engine.run(&reseeded);
    assert_eq!(second.executed_points(), 1);
    assert_eq!(second.cache_hits(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}
