//! The daemon's warm-point index: the rendered result body of every point
//! the matrix cache has already answered, so a repeated warm point skips
//! the record read and the render.
//!
//! The index is read-through. A lookup that misses calls
//! [`PointService::load_cached`]; on a hit it renders the body once
//! ([`protocol::result_body`]) and keeps it. Only a disk hit is kept: a cold
//! miss, an I/O error, a corrupt record and a degraded cache all read as
//! `None` there and leave the index as it was, so a daemon without a matrix
//! cache indexes nothing. Every response splices the kept body behind its
//! own envelope, so an index hit sends the bytes a disk hit would, and it
//! counts in `cache_hits` as one.
//!
//! A point's body never changes: the point determines its result, and the
//! index keys on the whole point. So an entry stays valid after its record
//! is evicted or the cache degrades, and nothing ever invalidates one. The
//! index holds at most [`WARM_INDEX_CAPACITY`] bodies and is cleared when an
//! insert would pass that.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use wp_experiments::{PointService, SimPoint};

use crate::protocol;

/// The most bodies the index holds. A body is about 1.4 KB and at most
/// 1,831 bytes (41 fields of up to 20 digits each), so a full index holds
/// about 6 MB of bodies and never more than 7.5 MB.
pub(crate) const WARM_INDEX_CAPACITY: usize = 4096;

/// A bounded map from point to rendered result body, behind a read-mostly
/// lock.
pub(crate) struct WarmIndex {
    bodies: RwLock<HashMap<SimPoint, Arc<str>>>,
    capacity: usize,
}

impl WarmIndex {
    /// An empty index of [`WARM_INDEX_CAPACITY`] bodies.
    pub(crate) fn new() -> Self {
        Self::with_capacity(WARM_INDEX_CAPACITY)
    }

    fn with_capacity(capacity: usize) -> Self {
        Self {
            bodies: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
        }
    }

    /// The rendered result body of `point` if the matrix cache holds it:
    /// from the index, or read through `service` and then kept. `None`
    /// means the point must be simulated.
    pub(crate) fn body(&self, service: &PointService, point: &SimPoint) -> Option<Arc<str>> {
        let kept = self
            .bodies
            .read()
            .expect("warm index poisoned")
            .get(point)
            .cloned();
        if let Some(body) = kept {
            service.note_cache_hit();
            return Some(body);
        }
        let body: Arc<str> = protocol::result_body(&service.load_cached(point)?).into();
        let mut bodies = self.bodies.write().expect("warm index poisoned");
        if bodies.len() >= self.capacity {
            bodies.clear();
        }
        bodies.insert(point.clone(), Arc::clone(&body));
        Some(body)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.bodies.read().expect("warm index poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use wp_experiments::{simulate_workload, MachineConfig, MatrixCache, RunOptions, SimEngine};
    use wp_workloads::Benchmark;

    #[test]
    fn a_full_index_is_cleared_and_keeps_answering() {
        let dir = std::env::temp_dir().join(format!("wpsdm-warm-index-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MatrixCache::new(&dir);
        let points: Vec<SimPoint> = [Benchmark::Gcc, Benchmark::Li, Benchmark::Swim]
            .into_iter()
            .flat_map(|benchmark| {
                [1_000, 1_500].map(|ops| {
                    SimPoint::new(
                        benchmark,
                        MachineConfig::baseline(),
                        RunOptions::default().with_ops(ops),
                    )
                })
            })
            .collect();
        let bodies: Vec<String> = points
            .iter()
            .map(|point| {
                let result = simulate_workload(&point.workload, &point.machine, &point.options);
                cache.store(point, &result);
                protocol::result_body(&result)
            })
            .collect();
        let service = PointService::new(SimEngine::serial().with_matrix_cache(cache));
        let index = WarmIndex::with_capacity(4);
        let mut served = 0;
        for round in 0..3 {
            for (point, expected) in points.iter().zip(&bodies) {
                let body = index.body(&service, point).expect("every point is cached");
                assert_eq!(&*body, expected.as_str(), "round {round}");
                assert!(index.len() <= 4, "the index outgrew its bound");
                served += 1;
            }
        }
        assert_eq!(service.cache_hits(), served, "every answer counts once");
        assert_eq!(service.executed(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_miss_keeps_nothing() {
        let service = PointService::new(SimEngine::serial());
        let index = WarmIndex::new();
        let point = SimPoint::new(
            Benchmark::Gcc,
            MachineConfig::baseline(),
            RunOptions::default().with_ops(1_000),
        );
        assert!(index.body(&service, &point).is_none());
        assert_eq!(index.len(), 0, "a daemon without a cache indexes nothing");
    }
}
