//! Property tests for cross-request singleflight
//! ([`wpsdm::experiments::PointService`]): however many concurrent callers
//! stampede on however many (possibly duplicate) points, the number of
//! simulations executed equals the number of *unique* points, and every
//! caller of the same point observes byte-identical results.
//!
//! These are the daemon's coalescing guarantees stripped of the socket
//! layer; `crates/serve/tests/service.rs` re-asserts them end-to-end over
//! the wire.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use wpsdm::cpu::SimResult;
use wpsdm::experiments::{
    CancelToken, FlightOutcome, MachineConfig, MatrixCache, PointService, RunOptions, SimEngine,
    SimPoint,
};
use wpsdm::workloads::Benchmark;

/// The small pool of distinct points a stampede draws from: two benchmarks
/// × two op counts, all finishing in milliseconds.
fn pool() -> Vec<SimPoint> {
    [Benchmark::Gcc, Benchmark::Li]
        .into_iter()
        .flat_map(|benchmark| {
            [1_200usize, 1_700].into_iter().map(move |ops| {
                SimPoint::new(
                    benchmark,
                    MachineConfig::baseline(),
                    RunOptions::quick().with_ops(ops),
                )
            })
        })
        .collect()
}

/// Runs one caller thread per assignment, all released together, each
/// driving its assigned point through [`PointService::run_point`]. Returns
/// the outcomes in assignment order.
fn stampede(service: &PointService, assignments: &[SimPoint]) -> Vec<FlightOutcome> {
    let barrier = std::sync::Barrier::new(assignments.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = assignments
            .iter()
            .map(|point| {
                scope.spawn(|| {
                    barrier.wait();
                    service.run_point(point, &CancelToken::never())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stampede caller panicked"))
            .collect()
    })
}

fn done(outcome: FlightOutcome) -> Arc<SimResult> {
    let FlightOutcome::Done(result) = outcome else {
        panic!("uncancelled runs complete");
    };
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// K concurrent callers of one identical point: every caller either
    /// leads or coalesces onto an in-flight leader (no third path), and
    /// all K results are bit-identical.
    #[test]
    fn identical_stampedes_coalesce_and_share_bytes(callers in 2usize..9) {
        let service = PointService::new(SimEngine::default());
        let point = pool().remove(0);
        let assignments = vec![point; callers];
        let outcomes = stampede(&service, &assignments);
        let executed = service.executed();
        prop_assert!(
            executed >= 1 && executed <= callers as u64,
            "{} executions for {} callers",
            executed,
            callers
        );
        prop_assert_eq!(
            executed + service.coalesced(),
            callers as u64,
            "every caller either led or followed"
        );
        let results: Vec<Arc<SimResult>> = outcomes.into_iter().map(done).collect();
        for result in &results[1..] {
            prop_assert!(
                results[0].exact_eq(result),
                "a stampeder observed different bytes"
            );
        }
    }

    /// A mixed interleaving of identical and distinct points: per-point
    /// byte-identity holds across all callers, and with a shared cache the
    /// total executions equal the number of unique points — duplicates are
    /// either coalesced in flight or served warm, never re-simulated.
    #[test]
    fn mixed_stampedes_execute_each_unique_point_once(
        picks in proptest::collection::vec(0usize..4, 2..10),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "wpsdm-singleflight-{}-{}",
            std::process::id(),
            picks.iter().map(usize::to_string).collect::<String>(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let service = PointService::new(SimEngine::default().with_matrix_cache(MatrixCache::new(&dir)));
        let pool = pool();
        let assignments: Vec<SimPoint> = picks.iter().map(|&i| pool[i].clone()).collect();
        let unique: HashSet<&SimPoint> = assignments.iter().collect();
        let outcomes = stampede(&service, &assignments);

        prop_assert_eq!(
            service.executed(),
            unique.len() as u64,
            "with a cache, every unique point simulates exactly once \
             (coalesced {}, cache hits {})",
            service.coalesced(),
            service.cache_hits()
        );
        let mut by_point: HashMap<&SimPoint, Arc<SimResult>> = HashMap::new();
        for (point, outcome) in assignments.iter().zip(outcomes) {
            let result = done(outcome);
            match by_point.get(point) {
                None => {
                    by_point.insert(point, result);
                }
                Some(reference) => prop_assert!(
                    reference.exact_eq(&result),
                    "callers of {:?} observed different bytes",
                    point
                ),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
