//! Cross-request singleflight over simulation points.
//!
//! The [`crate::engine::SimEngine`] dedups identical points *within one
//! plan*; a long-running daemon needs the same guarantee *across
//! concurrent requests*: when N clients ask for the same
//! [`SimPoint`] while it is in flight, exactly one simulation executes and
//! every caller observes the same outcome. [`PointService`] provides that
//! seam — a flight table keyed by the full point configuration, a
//! leader/follower join protocol, and one [`SimEngine`] (with its optional
//! [`crate::MatrixCache`] behind the crate's circuit breaker) that executes
//! everything: a led point runs as a one-point engine pass, a sweep's led
//! points as one gang-scheduled pass. Cached, freshly simulated, and
//! coalesced responses are all bit-identical to the batch path
//! ([`crate::runner::simulate_workload`]).
//!
//! The `wp-serve` daemon drives this through its worker pool; the
//! [`PointService::run_point`] convenience (leader executes inline) is what
//! the singleflight proptests in `tests/singleflight.rs` exercise.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use wp_cpu::SimResult;

use crate::engine::{SimEngine, SimMatrix, SimPlan, SimPoint};
use crate::matrix_cache::{CacheHealth, MatrixCache};
use crate::runner::CancelToken;

/// How long a sweep pass parks on one followed flight before re-checking
/// its own cancel token — bounds a sweep's reaction time to its deadline
/// while other requests' flights are in the air.
const SWEEP_FOLLOW_STEP: Duration = Duration::from_millis(100);

/// How a flight ended, as observed by every joined caller.
#[derive(Debug, Clone)]
pub enum FlightOutcome {
    /// The simulation completed; the result is shared by every caller and
    /// bit-identical to the batch executor's.
    Done(Arc<SimResult>),
    /// The leader's cancel token fired before the simulation completed.
    Cancelled {
        /// Ops the leader's walk consumed before the token fired.
        ops_completed: u64,
        /// Ops the run would have simulated.
        ops_requested: u64,
    },
    /// The leader was dropped without executing (worker shed or panicked);
    /// followers must retry or report overload.
    Shed,
}

/// The shared state of one in-flight point: the outcome slot plus the
/// condvar followers park on.
#[derive(Debug, Default)]
struct FlightState {
    outcome: Mutex<Option<FlightOutcome>>,
    done: Condvar,
}

/// A handle on an in-flight (or completed) point every joined caller
/// holds; [`Flight::wait`] parks until the leader publishes the outcome.
#[derive(Debug, Clone)]
pub struct Flight {
    state: Arc<FlightState>,
}

impl Flight {
    /// Blocks until the flight completes, or until `deadline` passes.
    /// `None` means the deadline expired with the flight still in the air —
    /// the outcome, when it lands, is still visible to other waiters.
    pub fn wait(&self, deadline: Option<Instant>) -> Option<FlightOutcome> {
        let mut outcome = self.state.outcome.lock().expect("flight lock poisoned");
        loop {
            if let Some(outcome) = outcome.as_ref() {
                return Some(outcome.clone());
            }
            match deadline {
                None => {
                    outcome = self.state.done.wait(outcome).expect("flight lock poisoned");
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let (guard, _timeout) = self
                        .state
                        .done
                        .wait_timeout(outcome, deadline - now)
                        .expect("flight lock poisoned");
                    outcome = guard;
                }
            }
        }
    }
}

/// The leader's obligation to execute a flight. Exactly one exists per
/// flight; dropping it without [`PointService::execute`] publishes
/// [`FlightOutcome::Shed`] and clears the flight-table entry, so followers
/// of a shed or panicked leader are woken instead of parked forever and
/// the next join opens a fresh flight.
#[derive(Debug)]
pub struct LeaderTicket {
    // Boxed so `Join::Leader` stays close in size to `Join::Follower`.
    point: Box<SimPoint>,
    state: Arc<FlightState>,
    service: Arc<ServiceState>,
    executed: bool,
}

/// Joining a flight either elects the caller leader (it must execute or
/// drop the ticket) or makes it a follower of the existing flight.
#[derive(Debug)]
pub enum Join {
    /// This caller opened the flight and owes it an execution.
    Leader(LeaderTicket, Flight),
    /// Another caller is already flying this point.
    Follower(Flight),
}

/// A singleflight executor over [`SimPoint`]s on one [`SimEngine`].
///
/// Cloning is cheap and shares the flight table, engine, and counters —
/// the daemon hands one clone to every worker and connection handler.
#[derive(Debug, Clone)]
pub struct PointService {
    inner: Arc<ServiceState>,
}

#[derive(Debug)]
struct ServiceState {
    flights: Mutex<HashMap<SimPoint, Arc<FlightState>>>,
    engine: SimEngine,
    executed: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
}

impl ServiceState {
    /// Publishes `outcome` (first writer wins), removes the flight from the
    /// table so later joins open a fresh one, and wakes every follower.
    /// Poisoned locks are recovered rather than propagated — this runs from
    /// [`LeaderTicket::drop`] during unwinds.
    fn publish(&self, point: &SimPoint, state: &Arc<FlightState>, outcome: FlightOutcome) {
        {
            let mut flights = self
                .flights
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(current) = flights.get(point) {
                if Arc::ptr_eq(current, state) {
                    flights.remove(point);
                }
            }
        }
        let mut slot = state
            .outcome
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if slot.is_none() {
            *slot = Some(outcome);
        }
        drop(slot);
        state.done.notify_all();
    }
}

impl PointService {
    /// A service executing on `engine`: its worker threads size every
    /// sweep's pass, and its [`MatrixCache`], if one is attached, is the
    /// service's. Led flights then consult the cache before simulating and
    /// store fresh results back. When the cache's circuit breaker trips,
    /// loads and stores degrade to pass-through and the service keeps
    /// computing — graceful degradation is the cache's contract, not
    /// special-cased here.
    pub fn new(engine: SimEngine) -> Self {
        Self {
            inner: Arc::new(ServiceState {
                flights: Mutex::default(),
                engine,
                executed: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
            }),
        }
    }

    /// The engine's cache's health counters (all-zero without a cache) —
    /// what the daemon's `health` response and `run_all --health-json`
    /// both serialize.
    pub fn cache_health(&self) -> CacheHealth {
        self.inner
            .engine
            .matrix_cache()
            .map(MatrixCache::health)
            .unwrap_or_default()
    }

    /// Simulations actually executed (cache hits and coalesced joins do
    /// not count) — the counter the singleflight proptests pin down.
    pub fn executed(&self) -> u64 {
        self.inner.executed.load(Ordering::Relaxed)
    }

    /// Points served from the cache instead of simulating, by a led
    /// flight, by [`load_cached`](Self::load_cached), or from a caller's
    /// memo of a hit ([`note_cache_hit`](Self::note_cache_hit)).
    pub fn cache_hits(&self) -> u64 {
        self.inner.cache_hits.load(Ordering::Relaxed)
    }

    /// Joins that found the point already in flight and followed it.
    pub fn coalesced(&self) -> u64 {
        self.inner.coalesced.load(Ordering::Relaxed)
    }

    /// Joins the flight for `point`, opening it if nobody is flying it.
    pub fn join(&self, point: &SimPoint) -> Join {
        let mut flights = self.inner.flights.lock().expect("flight table poisoned");
        if let Some(state) = flights.get(point) {
            self.inner.coalesced.fetch_add(1, Ordering::Relaxed);
            return Join::Follower(Flight {
                state: Arc::clone(state),
            });
        }
        let state = Arc::new(FlightState::default());
        flights.insert(point.clone(), Arc::clone(&state));
        Join::Leader(
            LeaderTicket {
                point: Box::new(point.clone()),
                state: Arc::clone(&state),
                service: Arc::clone(&self.inner),
                executed: false,
            },
            Flight { state },
        )
    }

    /// Executes a led flight as a one-point engine pass under `token` (the
    /// engine consults its cache, simulates on a miss, and stores the
    /// fresh result back), and publishes the outcome to every follower.
    /// Returns the published outcome.
    pub fn execute(&self, ticket: LeaderTicket, token: &CancelToken) -> FlightOutcome {
        let outcome = self.compute(&ticket.point, token);
        ticket.publish(outcome.clone());
        outcome
    }

    fn compute(&self, point: &SimPoint, token: &CancelToken) -> FlightOutcome {
        let ops_requested = point.options.ops as u64;
        if token.is_cancelled() {
            return FlightOutcome::Cancelled {
                ops_completed: 0,
                ops_requested,
            };
        }
        let mut plan = SimPlan::new();
        plan.add(point.clone());
        let mut matrix = SimMatrix::new();
        // Counted as the walk starts, so the daemon's `executed` shows a
        // long simulation while it runs; a pass the cache answered instead
        // moves its count to `cache_hits`.
        self.inner.executed.fetch_add(1, Ordering::Relaxed);
        self.inner
            .engine
            .run_streaming(&mut matrix, &plan, token, &|_, _| {});
        if matrix.cache_hits() > 0 {
            self.inner.executed.fetch_sub(1, Ordering::Relaxed);
            self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        match matrix.get_workload(&point.workload, &point.machine, &point.options) {
            Some(result) => FlightOutcome::Done(Arc::new(result.clone())),
            None => FlightOutcome::Cancelled {
                ops_completed: matrix.ops_stopped(),
                ops_requested,
            },
        }
    }

    /// Joins, and if elected leader executes inline — the convenience the
    /// daemon's workers and the proptests share: every caller of the same
    /// in-flight point gets the same outcome, and exactly one simulation
    /// runs.
    pub fn run_point(&self, point: &SimPoint, token: &CancelToken) -> FlightOutcome {
        match self.join(point) {
            Join::Leader(ticket, _flight) => self.execute(ticket, token),
            Join::Follower(flight) => flight
                .wait(None)
                .expect("an unbounded wait always observes the outcome"),
        }
    }

    /// Consults the engine's cache for `point` without opening a flight.
    /// A hit counts toward [`cache_hits`](Self::cache_hits) — the daemon's
    /// warm pre-pass for `simulate` and `sweep` requests reads through
    /// this, and a warm point served here is indistinguishable (bytes and
    /// counters) from one served through a led flight.
    pub fn load_cached(&self, point: &SimPoint) -> Option<SimResult> {
        let result = self.inner.engine.matrix_cache()?.load(point)?;
        self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
        Some(result)
    }

    /// Counts one point served warm from the caller's own memo of an
    /// earlier [`load_cached`](Self::load_cached) hit, so
    /// [`cache_hits`](Self::cache_hits) counts it as the disk read it
    /// stands in for.
    pub fn note_cache_hit(&self) {
        self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs a whole sweep through one gang-scheduled pass of the service's
    /// engine, coalescing with concurrent point requests.
    ///
    /// `points` is the sweep's deduplicated plan; `pending` the indices not
    /// yet streamed (the handler's warm pre-pass already answered the
    /// rest). Every pending point is joined: leaders are batched into one
    /// [`SimEngine::run_streaming`] pass (so a cold sweep gang-schedules
    /// exactly once), followers ride whatever flight another request
    /// already opened. `observer` fires once per streamed point, from
    /// worker threads, with the plan index.
    ///
    /// A followed flight's cancellation is **not** inherited: if the other
    /// request's leader is cancelled or shed, the point goes back to
    /// pending and a later round re-joins (leading a fresh flight) while
    /// this sweep's own `token` still has budget — the same re-lead rule
    /// the daemon applies to point requests.
    pub fn run_sweep(
        &self,
        points: &[SimPoint],
        pending: &[usize],
        token: &CancelToken,
        observer: &(dyn Fn(usize, &SimPoint, &SimResult) + Sync),
    ) -> SweepReport {
        let index_of: HashMap<&SimPoint, usize> =
            points.iter().enumerate().map(|(i, p)| (p, i)).collect();
        let streamed = AtomicU64::new(0);
        let mut report = SweepReport::default();
        let mut pending: Vec<usize> = pending.to_vec();
        while !pending.is_empty() && !token.is_cancelled() {
            let mut tickets: HashMap<usize, LeaderTicket> = HashMap::new();
            let mut followers: Vec<(usize, Flight)> = Vec::new();
            for &index in &pending {
                match self.join(&points[index]) {
                    Join::Leader(ticket, _flight) => {
                        tickets.insert(index, ticket);
                    }
                    Join::Follower(flight) => followers.push((index, flight)),
                }
            }
            let done = Mutex::new(Vec::new());
            if !tickets.is_empty() {
                report.engine_passes += 1;
                let mut plan = SimPlan::new();
                for &index in pending.iter().filter(|index| tickets.contains_key(index)) {
                    plan.add(points[index].clone());
                }
                let tickets = Mutex::new(tickets);
                let mut matrix = SimMatrix::new();
                let engine_observer = |point: &SimPoint, result: &SimResult| {
                    let Some(&index) = index_of.get(point) else {
                        return;
                    };
                    let ticket = tickets
                        .lock()
                        .expect("sweep ticket table poisoned")
                        .remove(&index);
                    if let Some(ticket) = ticket {
                        ticket.publish(FlightOutcome::Done(Arc::new(result.clone())));
                    }
                    observer(index, point, result);
                    streamed.fetch_add(1, Ordering::Relaxed);
                    done.lock().expect("sweep done list poisoned").push(index);
                };
                self.inner
                    .engine
                    .run_streaming(&mut matrix, &plan, token, &engine_observer);
                // The engine executed (or cache-loaded) on this service's
                // behalf: mirror the deltas into the service counters so
                // `health` and `metrics` see sweep work.
                self.inner
                    .executed
                    .fetch_add(matrix.executed_points() as u64, Ordering::Relaxed);
                self.inner
                    .cache_hits
                    .fetch_add(matrix.cache_hits() as u64, Ordering::Relaxed);
                // Tickets the cancelled engine pass never completed drop
                // here: their flights publish `Shed`, and followers (point
                // requests or other sweeps) re-lead under their own budget.
                drop(tickets);
            }
            for (index, flight) in followers {
                loop {
                    if token.is_cancelled() {
                        break;
                    }
                    match flight.wait(Some(Instant::now() + SWEEP_FOLLOW_STEP)) {
                        Some(FlightOutcome::Done(result)) => {
                            observer(index, &points[index], &result);
                            streamed.fetch_add(1, Ordering::Relaxed);
                            done.lock().expect("sweep done list poisoned").push(index);
                            break;
                        }
                        // The other request's flight was cancelled or shed
                        // under *its* deadline, not ours: leave the point
                        // pending and re-join next round.
                        Some(FlightOutcome::Cancelled { .. } | FlightOutcome::Shed) => break,
                        None => continue,
                    }
                }
            }
            let done = done.into_inner().expect("sweep done list poisoned");
            let before = pending.len();
            pending.retain(|index| !done.contains(index));
            if pending.len() == before && !pending.is_empty() {
                // A zero-progress round (every pending point followed a
                // flight that shed): yield briefly so the retry loop cannot
                // spin hot against a flapping leader.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        report.streamed = streamed.into_inner() as usize;
        report.complete = pending.is_empty();
        report
    }
}

/// What one [`PointService::run_sweep`] call accomplished.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepReport {
    /// Points streamed by this call (observer invocations).
    pub streamed: usize,
    /// Gang-scheduled engine passes run (a cold, uncontended sweep runs
    /// exactly one).
    pub engine_passes: usize,
    /// True if every pending point was streamed before the token fired.
    pub complete: bool,
}

impl LeaderTicket {
    /// Publishes the led flight's `outcome` to every follower.
    fn publish(mut self, outcome: FlightOutcome) {
        self.executed = true;
        self.service.publish(&self.point, &self.state, outcome);
    }
}

impl Drop for LeaderTicket {
    fn drop(&mut self) {
        if self.executed {
            return;
        }
        // The leader died (shed, panicked, or dropped): publish `Shed` so
        // followers wake and retry instead of parking forever, and clear
        // the table entry so the next join opens a fresh flight.
        self.service
            .publish(&self.point, &self.state, FlightOutcome::Shed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{MachineConfig, RunOptions};
    use wp_workloads::Benchmark;

    fn service() -> PointService {
        PointService::new(SimEngine::serial())
    }

    fn point(ops: usize) -> SimPoint {
        SimPoint::new(
            Benchmark::Li,
            MachineConfig::baseline(),
            RunOptions::quick().with_ops(ops),
        )
    }

    #[test]
    fn a_lone_caller_leads_and_executes_once() {
        let service = service();
        let point = point(2_000);
        let a = service.run_point(&point, &CancelToken::never());
        let b = service.run_point(&point, &CancelToken::never());
        assert_eq!(service.executed(), 2, "sequential calls are not coalesced");
        let (FlightOutcome::Done(a), FlightOutcome::Done(b)) = (a, b) else {
            panic!("uncancelled runs complete");
        };
        assert!(a.exact_eq(&b));
    }

    #[test]
    fn followers_share_the_leaders_result() {
        let service = service();
        let point = point(30_000);
        let threads = 6;
        let barrier = std::sync::Barrier::new(threads);
        let results: Vec<FlightOutcome> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        service.run_point(&point, &CancelToken::never())
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"))
                .collect()
        });
        assert!(
            service.executed() >= 1,
            "someone must have led the first flight"
        );
        assert!(
            service.executed() + service.coalesced() >= threads as u64,
            "every caller either led or followed"
        );
        let mut iter = results.into_iter();
        let FlightOutcome::Done(first) = iter.next().expect("six results") else {
            panic!("uncancelled runs complete");
        };
        for outcome in iter {
            let FlightOutcome::Done(result) = outcome else {
                panic!("uncancelled runs complete");
            };
            assert!(first.exact_eq(&result), "every caller gets the same bytes");
        }
    }

    #[test]
    fn dropped_leaders_shed_their_followers() {
        let service = service();
        let point = point(2_000);
        let Join::Leader(ticket, flight) = service.join(&point) else {
            panic!("first join leads");
        };
        let Join::Follower(follower) = service.join(&point) else {
            panic!("second join follows");
        };
        drop(ticket);
        assert!(matches!(
            follower.wait(None),
            Some(FlightOutcome::Shed) | None
        ));
        assert!(matches!(flight.wait(None), Some(FlightOutcome::Shed)));
        assert_eq!(service.executed(), 0);
        // The shed flight is not sticky: the next join opens a fresh one.
        assert!(matches!(service.join(&point), Join::Leader(..)));
    }

    #[test]
    fn cache_hits_bypass_execution_but_return_identical_bytes() {
        let dir =
            std::env::temp_dir().join(format!("wpsdm-service-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service =
            PointService::new(SimEngine::serial().with_matrix_cache(MatrixCache::new(&dir)));
        let point = point(2_000);
        let FlightOutcome::Done(cold) = service.run_point(&point, &CancelToken::never()) else {
            panic!("uncancelled runs complete");
        };
        assert_eq!((service.executed(), service.cache_hits()), (1, 0));
        let FlightOutcome::Done(warm) = service.run_point(&point, &CancelToken::never()) else {
            panic!("uncancelled runs complete");
        };
        assert_eq!((service.executed(), service.cache_hits()), (1, 1));
        assert!(cold.exact_eq(&warm), "warm results are bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fired_tokens_cancel_with_progress() {
        let service = service();
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let token = CancelToken::never().with_flag(flag);
        let outcome = service.run_point(&point(5_000), &token);
        let FlightOutcome::Cancelled {
            ops_completed,
            ops_requested,
        } = outcome
        else {
            panic!("a pre-fired token must cancel");
        };
        assert_eq!(ops_requested, 5_000);
        assert_eq!(ops_completed, 0, "the token was checked before simulating");
    }

    #[test]
    fn waits_respect_deadlines() {
        let service = service();
        let point = point(2_000);
        let Join::Leader(_ticket, flight) = service.join(&point) else {
            panic!("first join leads");
        };
        // The leader never executes within the wait window.
        let waited = flight.wait(Some(Instant::now() + std::time::Duration::from_millis(20)));
        assert!(waited.is_none(), "the deadline expired mid-flight");
    }
}
