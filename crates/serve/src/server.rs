//! The daemon: listener, fairness-lane admission, worker pool, and
//! lifecycle.
//!
//! Request flow (`docs/SERVICE.md` has the operator's view):
//!
//! 1. The accept loop blocks in `accept()` and hands each connection to
//!    its own handler thread. Every connection owns a **fairness lane**;
//!    admission round-robins across lanes so one chatty connection (or one
//!    streaming sweep) cannot starve the rest.
//! 2. A handler parses one frame at a time through a persistent
//!    [`protocol::FrameReader`], so a read timeout mid-frame pauses the
//!    decode instead of discarding the bytes already received — only a
//!    timeout *between* frames counts as idleness. It reads and writes
//!    through `Conn`, the one connection type of the crate, which
//!    [`crate::Client`] dials too, and answers each request in one
//!    dispatch that hands a `sweep` to the streaming path.
//! 3. `simulate` and `sweep` pass one gate first: a draining daemon
//!    answers `shutting_down`, and a connection past its request budget
//!    is shed with `overloaded`; both close the connection. A `simulate`
//!    request whose point is in the matrix cache is then answered on the
//!    handler thread, before admission, like a sweep's warm points; both
//!    read through the warm-point index, so a point answered warm once is
//!    answered from memory after that. A
//!    cold one joins the [`PointService`] flight table *before* touching
//!    the queue: followers of an in-flight point consume **no** queue
//!    slot — a stampede of N identical requests occupies one slot and
//!    executes one simulation. A follower whose flight is cancelled or
//!    shed under the *leader's* deadline re-joins and leads a fresh flight
//!    while its own deadline still has budget; leader and follower map the
//!    flight's outcome to one response the same way.
//! 4. Flight leaders and sweep jobs are admitted by one helper through the
//!    bounded lane scheduler. A full queue (global or per-lane) sheds
//!    immediately with `overloaded` (the refused job is dropped, and a
//!    dropped leader ticket wakes any followers with the same outcome); a
//!    closed queue answers `shutting_down`.
//! 5. A fixed pool of workers pops jobs lane-by-lane and executes them
//!    through the shared service, whose one [`wp_experiments::SimEngine`]
//!    executes every simulation. A led point runs as a one-point engine
//!    pass, which walks its workload stream live; a `sweep` job runs the
//!    whole remaining plan through one gang-scheduled pass, streaming each
//!    completed point back to the handler's inbox. The scheduler reserves
//!    at least one worker for point requests while sweeps run.
//! 6. Shutdown (SIGTERM/SIGINT, or a `shutdown` request) sets the shutdown
//!    flag and dials the listener once, so the accept loop's blocked
//!    `accept()` returns and sees the flag; an idle daemon makes no
//!    periodic wake-ups. The loop then closes the queue, drains the
//!    workers, and lets in-flight responses finish; new requests get
//!    `shutting_down`.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wp_experiments::service::{FlightOutcome, Join, PointService, SweepReport};
use wp_experiments::{CancelToken, LeaderTicket, SimPoint};

use crate::protocol::{
    self, ErrorCode, HistogramSnapshot, LaneMetrics, LatencyMetrics, MetricsSnapshot, Request,
    SweepMetrics, SweepRequest,
};
use crate::warm::WarmIndex;

/// An idle connection handler blocks in a read for ten of these, then
/// re-checks the shutdown flag. (The accept loop does not poll: shutdown
/// wakes it by dialing the listener.)
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long the accept loop backs off after a failed `accept()` (such as
/// running out of file descriptors) before it tries again.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// How long a shutdown's wake-up dial may take to connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long past a request's own deadline a handler keeps waiting for the
/// flight (or sweep) to publish its terminal outcome, so the response can
/// carry real partial-progress counters instead of zeros. Cancellation is
/// cooperative at op-block granularity, so workers land well inside this.
const WAIT_GRACE: Duration = Duration::from_secs(2);

/// How long shutdown waits for connection handlers to finish responding.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Log2-millisecond latency buckets (bucket 0 is `< 1 ms`, the last bucket
/// collects everything from ~64 s up).
const LATENCY_BUCKETS: usize = 17;

/// How many `(uptime_ms, queued)` samples the queue-depth series keeps.
const DEPTH_SERIES_CAP: usize = 64;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP address like `127.0.0.1:0` (port 0 picks a free port).
    Tcp(String),
    /// A Unix domain socket path.
    Unix(PathBuf),
}

impl Listen {
    /// Parses a `--listen` value: anything containing `/` is a Unix socket
    /// path, everything else a TCP address.
    pub fn parse(spec: &str) -> Listen {
        if spec.contains('/') {
            Listen::Unix(PathBuf::from(spec))
        } else {
            Listen::Tcp(spec.to_string())
        }
    }
}

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub listen: Listen,
    /// Worker threads executing simulations.
    pub workers: usize,
    /// Global admission cap: jobs queued across every lane beyond this shed
    /// with `overloaded`.
    pub queue_depth: usize,
    /// Per-lane admission cap: jobs one connection may have queued.
    pub lane_depth: usize,
    /// Deadline for requests that do not carry their own, in milliseconds.
    pub default_deadline_ms: u64,
    /// Requests one connection may issue before it is shed and closed.
    pub max_conn_requests: u64,
    /// The shared singleflight executor, with the one engine (and its
    /// optional matrix cache) that runs every simulation.
    pub service: PointService,
}

impl ServerConfig {
    /// A config with the documented defaults: every core a worker, a
    /// 128-deep queue with 32-deep lanes, a 30-second default deadline, and
    /// a 1024-request connection budget.
    pub fn new(listen: Listen, service: PointService) -> Self {
        Self {
            listen,
            workers: wp_experiments::engine::available_threads(),
            queue_depth: 128,
            lane_depth: 32,
            default_deadline_ms: 30_000,
            max_conn_requests: 1024,
            service,
        }
    }
}

/// One admitted point job: a flight leadership plus its cancel token.
struct PointJob {
    ticket: LeaderTicket,
    token: CancelToken,
    priority: u8,
}

/// One admitted sweep job: the remaining plan plus the handler's inbox.
struct SweepJob {
    id: u64,
    points: Arc<Vec<SimPoint>>,
    pending: Vec<usize>,
    token: CancelToken,
    priority: u8,
    inbox: Arc<SweepInbox>,
}

/// One admitted unit of work in a fairness lane.
enum Job {
    Point(PointJob),
    Sweep(SweepJob),
}

impl Job {
    fn priority(&self) -> u8 {
        match self {
            Job::Point(job) => job.priority,
            Job::Sweep(job) => job.priority,
        }
    }

    fn is_sweep(&self) -> bool {
        matches!(self, Job::Sweep(_))
    }
}

/// Why [`LaneScheduler::try_push`] refused a job. The refused job is
/// dropped, so a point job's leader ticket sheds its followers.
#[derive(Debug, PartialEq, Eq)]
enum Refused {
    /// The global queue is at depth.
    Full,
    /// The connection's own lane is at depth.
    LaneFull,
    /// The scheduler is closed for shutdown.
    Closed,
}

/// The bounded, fairness-aware admission queue. `try_push` never blocks —
/// shedding is the point — while workers block in `pop` until a job or
/// shutdown arrives.
///
/// Jobs queue per **lane** (one lane per connection). `pop` scans lanes in
/// round-robin order and claims from the lane whose head job has the most
/// urgent priority (lowest number; round-robin position breaks ties), then
/// rotates that lane to the back — so a connection that queues a burst
/// advances one job per scheduler round while everyone else's heads go
/// first. While sweeps occupy all but one worker, lanes headed by another
/// sweep are passed over, reserving capacity for interactive points.
struct LaneScheduler {
    state: Mutex<LaneState>,
    ready: Condvar,
    queue_depth: usize,
    lane_depth: usize,
    workers: usize,
}

struct LaneState {
    /// Lane id → queued jobs. Invariant: a lane is in the map iff it is
    /// non-empty iff it appears exactly once in `rr`.
    lanes: HashMap<u64, VecDeque<Job>>,
    /// Round-robin order of non-empty lanes.
    rr: VecDeque<u64>,
    /// Jobs queued across all lanes.
    queued: usize,
    closed: bool,
    /// Sweep jobs currently held by workers.
    active_sweeps: usize,
}

impl LaneScheduler {
    fn new(queue_depth: usize, lane_depth: usize, workers: usize) -> Self {
        Self {
            state: Mutex::new(LaneState {
                lanes: HashMap::new(),
                rr: VecDeque::new(),
                queued: 0,
                closed: false,
                active_sweeps: 0,
            }),
            ready: Condvar::new(),
            queue_depth,
            lane_depth,
            workers,
        }
    }

    fn try_push(&self, lane: u64, job: Job) -> Result<(), Refused> {
        let mut state = self.state.lock().expect("scheduler lock poisoned");
        if state.closed {
            return Err(Refused::Closed);
        }
        if state.queued >= self.queue_depth {
            return Err(Refused::Full);
        }
        if state.lanes.get(&lane).map_or(0, VecDeque::len) >= self.lane_depth {
            return Err(Refused::LaneFull);
        }
        let queue = state.lanes.entry(lane).or_default();
        let newly_active = queue.is_empty();
        queue.push_back(job);
        if newly_active {
            state.rr.push_back(lane);
        }
        state.queued += 1;
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the scheduler is closed and
    /// drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("scheduler lock poisoned");
        loop {
            if let Some(job) = Self::claim(&mut state, self.workers) {
                return Some(job);
            }
            if state.closed && state.queued == 0 {
                return None;
            }
            state = self.ready.wait(state).expect("scheduler lock poisoned");
        }
    }

    /// One claim attempt under the lock: the most urgent eligible lane
    /// head, respecting the sweep-worker reservation.
    fn claim(state: &mut LaneState, workers: usize) -> Option<Job> {
        // Always leave one worker free of sweeps (unless there is only
        // one): a sweep must never absorb the whole pool.
        let allow_sweeps = workers == 1 || state.active_sweeps + 1 < workers;
        let mut best: Option<(usize, u8)> = None;
        for (pos, lane) in state.rr.iter().enumerate() {
            let head = state
                .lanes
                .get(lane)
                .and_then(VecDeque::front)
                .expect("rr lists only non-empty lanes");
            if head.is_sweep() && !allow_sweeps {
                continue;
            }
            let priority = head.priority();
            if best.map_or(true, |(_, p)| priority < p) {
                best = Some((pos, priority));
                if priority == 0 {
                    break;
                }
            }
        }
        let (pos, _) = best?;
        let lane = state.rr.remove(pos).expect("rr position vanished");
        let queue = state.lanes.get_mut(&lane).expect("claimed lane vanished");
        let job = queue.pop_front().expect("claimed lane is empty");
        state.queued -= 1;
        if queue.is_empty() {
            state.lanes.remove(&lane);
        } else {
            state.rr.push_back(lane);
        }
        if job.is_sweep() {
            state.active_sweeps += 1;
        }
        Some(job)
    }

    /// A worker finished a sweep: release its reservation slot and wake
    /// anyone whose claim was deferred by it.
    fn finish_sweep(&self) {
        let mut state = self.state.lock().expect("scheduler lock poisoned");
        state.active_sweeps = state.active_sweeps.saturating_sub(1);
        drop(state);
        self.ready.notify_all();
    }

    /// Closes the scheduler: pending jobs still drain, new pushes are
    /// refused, and idle workers wake up to exit.
    fn close(&self) {
        self.state.lock().expect("scheduler lock poisoned").closed = true;
        self.ready.notify_all();
    }

    /// `(active lanes, jobs queued)` for the metrics snapshot.
    fn depths(&self) -> (u64, u64) {
        let state = self.state.lock().expect("scheduler lock poisoned");
        (state.lanes.len() as u64, state.queued as u64)
    }
}

/// What [`SweepInbox::next`] delivered.
enum InboxEvent {
    /// A rendered stream frame to forward to the client.
    Frame(String),
    /// The worker finished the sweep (frames already drained).
    Finished(SweepReport),
    /// The terminal grace deadline passed with the worker still running.
    TimedOut,
}

/// The channel between a sweep worker and its connection handler: the
/// worker pushes rendered stream frames as points complete, the handler
/// drains them onto the socket in order, and a final report marks the
/// sweep finished. Frames are always delivered before the finish marker.
struct SweepInbox {
    state: Mutex<InboxState>,
    ready: Condvar,
}

struct InboxState {
    frames: VecDeque<String>,
    finished: Option<SweepReport>,
}

impl SweepInbox {
    fn new() -> Self {
        Self {
            state: Mutex::new(InboxState {
                frames: VecDeque::new(),
                finished: None,
            }),
            ready: Condvar::new(),
        }
    }

    fn push_frame(&self, frame: String) {
        let mut state = self.state.lock().expect("inbox lock poisoned");
        state.frames.push_back(frame);
        drop(state);
        self.ready.notify_all();
    }

    fn finish(&self, report: SweepReport) {
        let mut state = self.state.lock().expect("inbox lock poisoned");
        state.finished = Some(report);
        drop(state);
        self.ready.notify_all();
    }

    fn next(&self, terminal_deadline: Instant) -> InboxEvent {
        let mut state = self.state.lock().expect("inbox lock poisoned");
        loop {
            if let Some(frame) = state.frames.pop_front() {
                return InboxEvent::Frame(frame);
            }
            if let Some(report) = state.finished {
                return InboxEvent::Finished(report);
            }
            let now = Instant::now();
            if now >= terminal_deadline {
                return InboxEvent::TimedOut;
            }
            let (next, _) = self
                .ready
                .wait_timeout(state, terminal_deadline - now)
                .expect("inbox lock poisoned");
            state = next;
        }
    }
}

/// One lock-free latency histogram (log2-millisecond buckets).
struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    max_ms: AtomicU64,
}

impl LatencyHistogram {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max_ms: AtomicU64::new(0),
        }
    }

    fn record(&self, elapsed: Duration) {
        let ms = elapsed.as_millis().min(u128::from(u64::MAX)) as u64;
        let bucket = if ms == 0 {
            0
        } else {
            ((64 - ms.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_ms.fetch_max(ms, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            max_ms: self.max_ms.load(Ordering::Relaxed),
        }
    }
}

/// The daemon's live observability counters behind the v2 `metrics`
/// request.
struct Metrics {
    start: Instant,
    /// Followers that re-led after inheriting another request's
    /// cancellation (the deadline-inheritance fix at work).
    releads: AtomicU64,
    sweeps_started: AtomicU64,
    sweeps_completed: AtomicU64,
    sweeps_cancelled: AtomicU64,
    sweep_points_streamed: AtomicU64,
    engine_passes: AtomicU64,
    point_latency: LatencyHistogram,
    sweep_latency: LatencyHistogram,
    /// `(uptime_ms, jobs queued)` ring, sampled at admission and dispatch.
    depth_series: Mutex<VecDeque<(u64, u64)>>,
}

impl Metrics {
    fn new() -> Self {
        Self {
            start: Instant::now(),
            releads: AtomicU64::new(0),
            sweeps_started: AtomicU64::new(0),
            sweeps_completed: AtomicU64::new(0),
            sweeps_cancelled: AtomicU64::new(0),
            sweep_points_streamed: AtomicU64::new(0),
            engine_passes: AtomicU64::new(0),
            point_latency: LatencyHistogram::new(),
            sweep_latency: LatencyHistogram::new(),
            depth_series: Mutex::new(VecDeque::new()),
        }
    }

    fn uptime_ms(&self) -> u64 {
        self.start.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
    }

    fn note_depth(&self, queued: u64) {
        let mut series = self.depth_series.lock().expect("depth series poisoned");
        series.push_back((self.uptime_ms(), queued));
        if series.len() > DEPTH_SERIES_CAP {
            series.pop_front();
        }
    }
}

/// Shared state every handler and worker sees.
struct Shared {
    service: PointService,
    /// The rendered bodies of points the matrix cache already answered.
    warm: WarmIndex,
    scheduler: LaneScheduler,
    /// `Arc` so sweep cancel tokens can watch it directly.
    shutdown: Arc<AtomicBool>,
    /// The listener, as shutdown dials it to wake the accept loop.
    wake: Wake,
    active_connections: AtomicUsize,
    default_deadline_ms: u64,
    max_conn_requests: u64,
    /// Requests shed with `overloaded` (full queue, full lane, or
    /// connection budget).
    shed: AtomicU64,
    metrics: Metrics,
    /// Fairness-lane allocator: one id per accepted connection.
    next_lane: AtomicU64,
}

impl Shared {
    /// Sets the shutdown flag and, the first time, dials the listener so
    /// the accept loop's blocked `accept()` returns and sees the flag.
    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.wake.dial();
        }
    }

    /// The gate every `simulate` and `sweep` passes before anything else:
    /// refused while the daemon drains, and once the connection has spent
    /// its request budget (`served` counts the requests that got this far).
    fn gate(&self, served: &mut u64) -> Result<(), Rejection> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(Rejection::SHUTTING_DOWN);
        }
        *served += 1;
        if *served > self.max_conn_requests {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(Rejection {
                code: ErrorCode::Overloaded,
                message: "per-connection request budget exhausted; reconnect to continue",
                close: true,
            });
        }
        Ok(())
    }

    /// Queues `job` on `lane`, or says why not (a refused job is dropped).
    fn admit(&self, lane: u64, job: Job) -> Result<(), Rejection> {
        let message = match self.scheduler.try_push(lane, job) {
            Ok(()) => {
                let (_, queued) = self.scheduler.depths();
                self.metrics.note_depth(queued);
                return Ok(());
            }
            Err(Refused::Closed) => return Err(Rejection::SHUTTING_DOWN),
            Err(Refused::Full) => "the request queue is full",
            Err(Refused::LaneFull) => "the connection's fairness lane is full",
        };
        self.shed.fetch_add(1, Ordering::Relaxed);
        Err(Rejection {
            code: ErrorCode::Overloaded,
            message,
            close: false,
        })
    }
}

/// Why a `simulate` or `sweep` was refused before it ran: the error to
/// answer with, and whether the connection closes after it.
struct Rejection {
    code: ErrorCode,
    message: &'static str,
    close: bool,
}

impl Rejection {
    const SHUTTING_DOWN: Rejection = Rejection {
        code: ErrorCode::ShuttingDown,
        message: "the daemon is draining for shutdown",
        close: true,
    };

    fn response(&self, v: u64, id: u64) -> String {
        protocol::error_response(v, id, self.code, self.message)
    }
}

fn metrics_snapshot(shared: &Shared) -> MetricsSnapshot {
    let (active, queued) = shared.scheduler.depths();
    let metrics = &shared.metrics;
    MetricsSnapshot {
        uptime_ms: metrics.uptime_ms(),
        executed: shared.service.executed(),
        cache_hits: shared.service.cache_hits(),
        coalesced: shared.service.coalesced(),
        shed: shared.shed.load(Ordering::Relaxed),
        releads: metrics.releads.load(Ordering::Relaxed),
        lanes: LaneMetrics {
            active,
            queued,
            queue_cap: shared.scheduler.queue_depth as u64,
            lane_cap: shared.scheduler.lane_depth as u64,
        },
        sweeps: SweepMetrics {
            started: metrics.sweeps_started.load(Ordering::Relaxed),
            completed: metrics.sweeps_completed.load(Ordering::Relaxed),
            cancelled: metrics.sweeps_cancelled.load(Ordering::Relaxed),
            points_streamed: metrics.sweep_points_streamed.load(Ordering::Relaxed),
            engine_passes: metrics.engine_passes.load(Ordering::Relaxed),
        },
        queue_depth_series: metrics
            .depth_series
            .lock()
            .expect("depth series poisoned")
            .iter()
            .copied()
            .collect(),
        latency_ms: LatencyMetrics {
            point: metrics.point_latency.snapshot(),
            sweep: metrics.sweep_latency.snapshot(),
        },
    }
}

/// The listener half of [`Listen`]; `accept` blocks.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, PathBuf),
}

impl Listener {
    fn bind(listen: &Listen) -> io::Result<Listener> {
        match listen {
            Listen::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            #[cfg(unix)]
            Listen::Unix(path) => {
                // A stale socket file from a killed daemon would fail the
                // bind; crash idempotence includes re-binding after kill -9.
                let _ = std::fs::remove_file(path);
                let listener = std::os::unix::net::UnixListener::bind(path)?;
                Ok(Listener::Unix(listener, path.clone()))
            }
            #[cfg(not(unix))]
            Listen::Unix(_) => Err(unix_unsupported()),
        }
    }

    /// The bound address, as clients should dial it.
    fn addr(&self) -> String {
        match self {
            Listener::Tcp(listener) => listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".to_string()),
            #[cfg(unix)]
            Listener::Unix(_, path) => path.display().to_string(),
        }
    }

    /// Where shutdown dials to wake a blocked [`Listener::accept`]: the
    /// bound address, with a wildcard IP replaced by loopback.
    fn wake(&self) -> io::Result<Wake> {
        match self {
            Listener::Tcp(listener) => {
                let mut addr = listener.local_addr()?;
                match addr.ip() {
                    IpAddr::V4(ip) if ip.is_unspecified() => {
                        addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
                    }
                    IpAddr::V6(ip) if ip.is_unspecified() => {
                        addr.set_ip(IpAddr::V6(Ipv6Addr::LOCALHOST));
                    }
                    _ => {}
                }
                Ok(Wake::Tcp(addr))
            }
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(Wake::Unix(path.clone())),
        }
    }

    /// Blocks until a client connects.
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(listener) => listener.accept().map(|(stream, _)| Conn::Tcp(stream)),
            #[cfg(unix)]
            Listener::Unix(listener, _) => listener.accept().map(|(stream, _)| Conn::Unix(stream)),
        }
    }
}

/// The listener's address, as shutdown dials it.
enum Wake {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Wake {
    /// Connects once and hangs up: the accept loop's blocked `accept()`
    /// returns with this connection, and the loop sees the shutdown flag.
    /// A failed dial is ignored: with a full backlog the loop is busy
    /// accepting and reaches the flag anyway, and once the listener is
    /// gone there is no loop left to wake.
    fn dial(&self) {
        let _ = match self {
            Wake::Tcp(addr) => TcpStream::connect_timeout(addr, WAKE_TIMEOUT).map(drop),
            #[cfg(unix)]
            Wake::Unix(path) => std::os::unix::net::UnixStream::connect(path).map(drop),
        };
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The error a Unix socket address gives on a platform without them.
#[cfg(not(unix))]
fn unix_unsupported() -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        "unix sockets are not supported on this platform",
    )
}

/// One connection to the daemon: accepted by a handler, or dialled by a
/// [`crate::Client`].
pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Conn {
    /// Dials the daemon listening at `listen`.
    pub(crate) fn dial(listen: &Listen) -> io::Result<Conn> {
        match listen {
            Listen::Tcp(addr) => TcpStream::connect(addr).map(Conn::Tcp),
            #[cfg(unix)]
            Listen::Unix(path) => std::os::unix::net::UnixStream::connect(path).map(Conn::Unix),
            #[cfg(not(unix))]
            Listen::Unix(_) => Err(unix_unsupported()),
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(stream) => stream.set_read_timeout(Some(timeout)),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.set_read_timeout(Some(timeout)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(stream) => stream.read(buf),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(stream) => stream.write(buf),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(stream) => stream.flush(),
            #[cfg(unix)]
            Conn::Unix(stream) => stream.flush(),
        }
    }
}

/// A started daemon. Dropping the handle does not stop it; call
/// [`RunningServer::shutdown`] then [`RunningServer::join`].
pub struct RunningServer {
    addr: String,
    shared: Arc<Shared>,
    accept_thread: JoinHandle<()>,
}

impl RunningServer {
    /// The bound address (for TCP with port 0, the actual port).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The shared singleflight service (its counters drive the tests).
    pub fn service(&self) -> &PointService {
        &self.shared.service
    }

    /// Requests shed with `overloaded` so far.
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Followers that re-led a fresh flight after another request's
    /// cancellation or shed (the deadline-inheritance fix at work).
    pub fn releads(&self) -> u64 {
        self.shared.metrics.releads.load(Ordering::Relaxed)
    }

    /// Requests the daemon drain and stop. Idempotent; also triggered by a
    /// protocol `shutdown` request.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// True once shutdown was requested (by any path).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the accept loop to drain workers and connections.
    pub fn join(self) {
        let _ = self.accept_thread.join();
    }
}

/// Binds the listener, spawns the worker pool and accept loop, and returns
/// once the daemon is ready to serve.
pub fn start(config: ServerConfig) -> io::Result<RunningServer> {
    let listener = Listener::bind(&config.listen)?;
    let addr = listener.addr();
    let wake = listener.wake()?;
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        service: config.service,
        warm: WarmIndex::new(),
        scheduler: LaneScheduler::new(config.queue_depth.max(1), config.lane_depth.max(1), workers),
        shutdown: Arc::new(AtomicBool::new(false)),
        wake,
        active_connections: AtomicUsize::new(0),
        default_deadline_ms: config.default_deadline_ms.max(1),
        max_conn_requests: config.max_conn_requests.max(1),
        shed: AtomicU64::new(0),
        metrics: Metrics::new(),
        next_lane: AtomicU64::new(0),
    });
    let workers: Vec<JoinHandle<()>> = (0..workers)
        .map(|index| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("wp-serve-worker-{index}"))
                .spawn(move || worker_loop(&shared))
                .expect("worker thread spawn failed")
        })
        .collect();
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("wp-serve-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared, workers))
        .expect("accept thread spawn failed");
    Ok(RunningServer {
        addr,
        shared,
        accept_thread,
    })
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.scheduler.pop() {
        let (_, queued) = shared.scheduler.depths();
        shared.metrics.note_depth(queued);
        match job {
            Job::Point(job) => {
                // `execute` publishes the outcome to every waiter; the
                // handler threads own the responses.
                shared.service.execute(job.ticket, &job.token);
            }
            Job::Sweep(job) => {
                let report = shared.service.run_sweep(
                    &job.points,
                    &job.pending,
                    &job.token,
                    &|index, _point, result| {
                        job.inbox
                            .push_frame(protocol::stream_point_response(job.id, index, result));
                    },
                );
                shared
                    .metrics
                    .engine_passes
                    .fetch_add(report.engine_passes as u64, Ordering::Relaxed);
                job.inbox.finish(report);
                shared.scheduler.finish_sweep();
            }
        }
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>, workers: Vec<JoinHandle<()>>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // Shutdown's wake-up dial lands here (so may a client dialing at
        // the same moment); either connection is dropped unanswered.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        handlers.retain(|h| !h.is_finished());
        match accepted {
            Ok(conn) => {
                let conn_shared = Arc::clone(&shared);
                shared.active_connections.fetch_add(1, Ordering::SeqCst);
                let handle = std::thread::Builder::new()
                    .name("wp-serve-conn".to_string())
                    .spawn(move || {
                        handle_connection(conn, &conn_shared);
                        conn_shared
                            .active_connections
                            .fetch_sub(1, Ordering::SeqCst);
                    });
                match handle {
                    Ok(handle) => handlers.push(handle),
                    Err(_) => {
                        // Spawn failure already dropped the connection; the
                        // guard count must not leak.
                        shared.active_connections.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
    drop(listener); // stop accepting (and unlink a unix socket) first
    shared.scheduler.close();
    for worker in workers {
        let _ = worker.join();
    }
    let drain_deadline = Instant::now() + DRAIN_TIMEOUT;
    while shared.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn handle_connection(mut conn: Conn, shared: &Shared) {
    if conn.set_read_timeout(POLL_INTERVAL * 10).is_err() {
        return;
    }
    let lane = shared.next_lane.fetch_add(1, Ordering::Relaxed);
    let mut served: u64 = 0;
    let mut frames = protocol::FrameReader::new();
    loop {
        let payload = match frames.read(&mut conn) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean EOF
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // A timeout between frames is idleness: park until the
                // client sends or shutdown drains us. A timeout *mid-frame*
                // is just a slow writer — the reader holds the bytes it
                // already has and the next iteration resumes the decode.
                if !frames.mid_frame() && shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let request = match protocol::parse_request(&payload) {
            Ok(request) => request,
            Err((v, id, message)) => {
                let response = protocol::error_response(v, id, ErrorCode::BadRequest, &message);
                if protocol::write_frame(&mut conn, response.as_bytes()).is_err() {
                    return;
                }
                continue;
            }
        };
        match respond(&mut conn, request, &mut served, lane, shared) {
            Ok(false) => {}
            Ok(true) | Err(_) => return,
        }
    }
}

/// Answers one request on `conn`, and says whether the connection should
/// close after it; an `Err` means the socket died.
fn respond(
    conn: &mut Conn,
    request: Request,
    served: &mut u64,
    lane: u64,
    shared: &Shared,
) -> io::Result<bool> {
    let (response, close) = match request {
        Request::Health { v, id } => {
            let service = &shared.service;
            (
                protocol::health_response(
                    v,
                    id,
                    &service.cache_health(),
                    service.executed(),
                    service.cache_hits(),
                    service.coalesced(),
                    shared.shutdown.load(Ordering::SeqCst),
                ),
                false,
            )
        }
        Request::Metrics { id } => (
            protocol::metrics_response(id, &metrics_snapshot(shared)),
            false,
        ),
        Request::Shutdown { v, id } => {
            shared.request_shutdown();
            (protocol::ack_response(v, id), true)
        }
        Request::Simulate {
            v,
            id,
            point,
            deadline_ms,
            priority,
        } => match shared.gate(served) {
            Err(rejection) => (rejection.response(v, id), rejection.close),
            Ok(()) => simulate(v, id, &point, deadline_ms, priority, lane, shared),
        },
        Request::Sweep(sweep) => return handle_sweep(conn, sweep, lane, served, shared),
    };
    protocol::write_frame(conn, response.as_bytes())?;
    Ok(close)
}

/// The response to a `simulate` that passed the gate, and whether the
/// connection should close after it.
fn simulate(
    v: u64,
    id: u64,
    point: &SimPoint,
    deadline_ms: Option<u64>,
    priority: u8,
    lane: u64,
    shared: &Shared,
) -> (String, bool) {
    let started = Instant::now();
    // Warm pre-pass *before* admission, as for sweeps: a cached point is
    // answered here, with no flight, queue slot or worker hand-off.
    if let Some(body) = shared.warm.body(&shared.service, point) {
        shared.metrics.point_latency.record(started.elapsed());
        return (protocol::ok_response_with_body(v, id, &body), false);
    }
    let deadline_ms = deadline_ms.unwrap_or(shared.default_deadline_ms);
    let deadline = started + Duration::from_millis(deadline_ms);
    // Join → wait, re-joining when a *followed* flight dies under its own
    // leader's budget: another request's shorter deadline (or a shed sweep
    // ticket) must not be inherited by this one. A led flight's
    // cancellation IS this request's own deadline, so leaders never loop.
    let response = loop {
        let (flight, led) = match shared.service.join(point) {
            Join::Leader(ticket, flight) => {
                let token = CancelToken::never().with_deadline(deadline);
                let job = Job::Point(PointJob {
                    ticket,
                    token,
                    priority,
                });
                if let Err(rejection) = shared.admit(lane, job) {
                    break (rejection.response(v, id), rejection.close);
                }
                (flight, true)
            }
            Join::Follower(flight) => (flight, false),
        };
        let outcome = flight.wait(Some(deadline + WAIT_GRACE));
        let inherited = matches!(
            outcome,
            Some(FlightOutcome::Cancelled { .. } | FlightOutcome::Shed)
        );
        if !led && inherited && Instant::now() < deadline {
            shared.metrics.releads.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        break (point_response(v, id, outcome, point), false);
    };
    shared.metrics.point_latency.record(started.elapsed());
    response
}

/// The response to a `simulate` whose flight ended with `outcome`, or
/// whose wait expired (`None`) before it did.
fn point_response(v: u64, id: u64, outcome: Option<FlightOutcome>, point: &SimPoint) -> String {
    match outcome {
        Some(FlightOutcome::Done(result)) => protocol::ok_response_for(v, id, &result),
        Some(FlightOutcome::Cancelled {
            ops_completed,
            ops_requested,
        }) => protocol::deadline_response(v, id, ops_completed, ops_requested),
        Some(FlightOutcome::Shed) => protocol::error_response(
            v,
            id,
            ErrorCode::Overloaded,
            "the request was shed before executing",
        ),
        None => protocol::deadline_response(v, id, 0, point.options.ops as u64),
    }
}

/// Runs one `sweep` request end to end: warm pre-pass, admission, stream,
/// terminator. Returns whether the connection should close; an `Err` means
/// the socket died mid-stream.
fn handle_sweep(
    conn: &mut Conn,
    sweep: SweepRequest,
    lane: u64,
    served: &mut u64,
    shared: &Shared,
) -> io::Result<bool> {
    let SweepRequest {
        id,
        points,
        requested,
        deadline_ms,
        priority,
    } = sweep;
    let refuse = |conn: &mut Conn, rejection: Rejection| -> io::Result<bool> {
        let response = rejection.response(protocol::PROTOCOL_V2, id);
        protocol::write_frame(conn, response.as_bytes())?;
        Ok(rejection.close)
    };
    if let Err(rejection) = shared.gate(served) {
        return refuse(conn, rejection);
    }
    let started = Instant::now();
    let deadline =
        started + Duration::from_millis(deadline_ms.unwrap_or(shared.default_deadline_ms));
    // Warm pre-pass *before* admission: cached points stream immediately
    // and cost no queue slot, and a shed sweep is a clean `overloaded`
    // error rather than a half-streamed plan.
    let total = points.len();
    let mut warm = Vec::new();
    let mut pending: Vec<usize> = Vec::new();
    for (index, point) in points.iter().enumerate() {
        match shared.warm.body(&shared.service, point) {
            Some(body) => warm.push((index, body)),
            None => pending.push(index),
        }
    }
    let inbox = Arc::new(SweepInbox::new());
    if !pending.is_empty() {
        let token = CancelToken::never()
            .with_deadline(deadline)
            .with_flag(Arc::clone(&shared.shutdown));
        let job = Job::Sweep(SweepJob {
            id,
            points: Arc::new(points),
            pending: pending.clone(),
            token,
            priority,
            inbox: Arc::clone(&inbox),
        });
        if let Err(rejection) = shared.admit(lane, job) {
            return refuse(conn, rejection);
        }
    }
    shared
        .metrics
        .sweeps_started
        .fetch_add(1, Ordering::Relaxed);
    let mut streamed: usize = 0;
    for (index, body) in &warm {
        protocol::write_frame(
            conn,
            protocol::stream_point_response_with_body(id, *index, body).as_bytes(),
        )?;
        streamed += 1;
    }
    let terminal = if pending.is_empty() {
        shared
            .metrics
            .sweeps_completed
            .fetch_add(1, Ordering::Relaxed);
        protocol::sweep_summary_response(id, requested, total, streamed)
    } else {
        let terminal_deadline = deadline + WAIT_GRACE;
        loop {
            match inbox.next(terminal_deadline) {
                InboxEvent::Frame(frame) => {
                    protocol::write_frame(conn, frame.as_bytes())?;
                    streamed += 1;
                }
                InboxEvent::Finished(report) => {
                    break if report.complete {
                        shared
                            .metrics
                            .sweeps_completed
                            .fetch_add(1, Ordering::Relaxed);
                        protocol::sweep_summary_response(id, requested, total, streamed)
                    } else {
                        shared
                            .metrics
                            .sweeps_cancelled
                            .fetch_add(1, Ordering::Relaxed);
                        protocol::sweep_deadline_response(id, streamed, total)
                    };
                }
                InboxEvent::TimedOut => {
                    // The worker never finished inside the grace window
                    // (e.g. the job is still queued behind other sweeps).
                    // The job's own token is deadline-cancelled, so it will
                    // unwind; any frames it pushes late die with the inbox.
                    shared
                        .metrics
                        .sweeps_cancelled
                        .fetch_add(1, Ordering::Relaxed);
                    break protocol::sweep_deadline_response(id, streamed, total);
                }
            }
        }
    };
    shared
        .metrics
        .sweep_points_streamed
        .fetch_add(streamed as u64, Ordering::Relaxed);
    shared.metrics.sweep_latency.record(started.elapsed());
    protocol::write_frame(conn, terminal.as_bytes())?;
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    use wp_experiments::{MachineConfig, RunOptions, SimEngine};
    use wp_workloads::Benchmark;

    fn point_job(priority: u8) -> Job {
        let service = PointService::new(SimEngine::serial());
        let point = SimPoint::new(
            Benchmark::Gcc,
            MachineConfig::baseline(),
            RunOptions::default().with_ops(1_000 + priority as usize),
        );
        match service.join(&point) {
            Join::Leader(ticket, _flight) => Job::Point(PointJob {
                ticket,
                token: CancelToken::never(),
                priority,
            }),
            Join::Follower(_) => unreachable!("fresh service has no flights"),
        }
    }

    fn sweep_job(priority: u8) -> Job {
        Job::Sweep(SweepJob {
            id: 1,
            points: Arc::new(Vec::new()),
            pending: Vec::new(),
            token: CancelToken::never(),
            priority,
            inbox: Arc::new(SweepInbox::new()),
        })
    }

    #[test]
    fn lanes_round_robin_across_connections() {
        let scheduler = LaneScheduler::new(16, 8, 2);
        // Lane 1 queues a burst of three before lanes 2 and 3 queue one
        // each; round-robin must interleave, not drain lane 1 first.
        for _ in 0..3 {
            assert!(scheduler.try_push(1, point_job(4)).is_ok());
        }
        assert!(scheduler.try_push(2, point_job(4)).is_ok());
        assert!(scheduler.try_push(3, point_job(4)).is_ok());
        let mut order = Vec::new();
        let mut state = scheduler.state.lock().unwrap();
        loop {
            let before: HashMap<u64, usize> =
                state.lanes.iter().map(|(l, q)| (*l, q.len())).collect();
            if LaneScheduler::claim(&mut state, 2).is_none() {
                break;
            }
            // The lane whose queue shrank is the one just claimed from.
            let claimed = before
                .iter()
                .find(|(l, len)| state.lanes.get(l).map_or(0, VecDeque::len) + 1 == **len)
                .map(|(l, _)| *l)
                .expect("one lane shrank");
            order.push(claimed);
        }
        assert_eq!(state.queued, 0);
        drop(state);
        assert_eq!(
            order,
            vec![1, 2, 3, 1, 1],
            "round-robin lets every lane's head go before the burst drains"
        );
    }

    #[test]
    fn urgent_priorities_jump_the_rr_order() {
        let scheduler = LaneScheduler::new(16, 8, 2);
        assert!(scheduler.try_push(1, point_job(9)).is_ok());
        assert!(scheduler.try_push(2, point_job(0)).is_ok());
        let mut state = scheduler.state.lock().unwrap();
        let first = LaneScheduler::claim(&mut state, 2).expect("a job is queued");
        assert_eq!(first.priority(), 0, "the urgent head goes first");
        let second = LaneScheduler::claim(&mut state, 2).expect("a job is queued");
        assert_eq!(second.priority(), 9);
    }

    #[test]
    fn the_global_and_lane_caps_refuse_distinctly() {
        let scheduler = LaneScheduler::new(2, 1, 2);
        assert!(scheduler.try_push(1, point_job(4)).is_ok());
        assert_eq!(
            scheduler.try_push(1, point_job(4)),
            Err(Refused::LaneFull),
            "the second job on one lane must hit the lane cap"
        );
        assert!(scheduler.try_push(2, point_job(4)).is_ok());
        assert_eq!(
            scheduler.try_push(3, point_job(4)),
            Err(Refused::Full),
            "the third job must hit the global cap"
        );
    }

    #[test]
    fn sweeps_leave_one_worker_for_points() {
        let scheduler = LaneScheduler::new(16, 8, 2);
        assert!(scheduler.try_push(1, sweep_job(0)).is_ok());
        assert!(scheduler.try_push(2, sweep_job(0)).is_ok());
        assert!(scheduler.try_push(3, point_job(9)).is_ok());
        let mut state = scheduler.state.lock().unwrap();
        let first = LaneScheduler::claim(&mut state, 2).expect("first claim");
        assert!(first.is_sweep(), "one sweep may run");
        let second = LaneScheduler::claim(&mut state, 2).expect("second claim");
        assert!(
            !second.is_sweep(),
            "with a sweep active the reserved worker must take the point, \
             even at a worse priority"
        );
        assert!(
            LaneScheduler::claim(&mut state, 2).is_none(),
            "the second sweep stays queued while the reservation holds"
        );
        drop(state);
        scheduler.finish_sweep();
        let mut state = scheduler.state.lock().unwrap();
        let third = LaneScheduler::claim(&mut state, 2).expect("third claim");
        assert!(third.is_sweep(), "the freed slot admits the next sweep");
    }

    #[test]
    fn latency_histograms_bucket_by_log2_milliseconds() {
        let histogram = LatencyHistogram::new();
        histogram.record(Duration::from_micros(200)); // bucket 0
        histogram.record(Duration::from_millis(1)); // bucket 1
        histogram.record(Duration::from_millis(3)); // bucket 2
        histogram.record(Duration::from_millis(1_000)); // bucket 10
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 4);
        assert_eq!(snapshot.max_ms, 1_000);
        assert_eq!(snapshot.buckets[0], 1);
        assert_eq!(snapshot.buckets[1], 1);
        assert_eq!(snapshot.buckets[2], 1);
        assert_eq!(snapshot.buckets[10], 1);
    }

    #[test]
    fn the_inbox_delivers_frames_before_the_finish_marker() {
        let inbox = SweepInbox::new();
        inbox.push_frame("a".to_string());
        inbox.finish(SweepReport {
            streamed: 1,
            engine_passes: 1,
            complete: true,
        });
        let deadline = Instant::now() + Duration::from_millis(100);
        match inbox.next(deadline) {
            InboxEvent::Frame(frame) => assert_eq!(frame, "a"),
            _ => panic!("the buffered frame must drain first"),
        }
        match inbox.next(deadline) {
            InboxEvent::Finished(report) => assert!(report.complete),
            _ => panic!("then the finish marker"),
        }
    }
}
