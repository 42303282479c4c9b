//! A persistent, crash-safe on-disk cache of simulation results.
//!
//! Every [`SimPoint`] determines its [`SimResult`]
//! completely (workload identity, machine configuration, run options), so a
//! result computed once can be reused by every later process. The cache
//! stores one small binary file per point, named by a stable 64-bit FNV-1a
//! digest of the point (plus a format-version salt), under a directory that
//! defaults to `target/wp-matrix-cache` and can be moved with the
//! binaries' `--matrix-cache-dir` flag.
//!
//! Invalidation is by digest: changing any component of the point — the
//! trace seed or length, a cache parameter, a policy, or the workload
//! (trace workloads hash their *content digest*, not their path) — changes
//! the digest and therefore misses. Bumping [`CACHE_FORMAT_VERSION`]
//! invalidates every stored result at once; that is the knob to turn when a
//! simulator change alters what results mean. Unreadable, truncated, or
//! version-mismatched files are treated as misses, never as errors.
//!
//! Values round-trip exactly: every `f64` is stored via its IEEE-754 bit
//! pattern, so a result served from disk is bit-identical to the freshly
//! simulated one (asserted by `tests/matrix_cache.rs`).
//!
//! # Robustness (see `docs/RELIABILITY.md`)
//!
//! All I/O goes through the [`CacheIo`] trait (the real filesystem in
//! production, a deterministic fault injector in the crash harness), and
//! the cache is built to stay *correct* — results bit-identical to an
//! uncached run — under any I/O failure or crash:
//!
//! * **atomic records** — every store writes a uniquely named temporary
//!   file (digest + pid + per-process sequence number, so two threads
//!   storing the same digest never share a path), flushes it, and renames
//!   it into place: a reader observes a record fully or not at all;
//! * **startup recovery** — the first operation sweeps stale `*.tmp*`
//!   debris left by crashed processes and compacts away records from older
//!   [`CACHE_FORMAT_VERSION`] generations or with unrecognizable headers;
//! * **capacity cap** — with a byte cap configured (`--matrix-cache-cap`),
//!   stores evict the oldest-mtime records until the directory fits,
//!   guarded by an advisory lock file with retry/backoff bounded by 15 ms
//!   and dead-holder detection; an expired bound is a typed
//!   [`EvictLockTimeout`] from [`MatrixCache::evict_to_cap`], counted (and
//!   warned about) rather than silently swallowed on the store path;
//! * **circuit breaker** — after [`BREAKER_THRESHOLD`] *consecutive* I/O
//!   failures the cache degrades to pass-through (every load misses,
//!   every store is a no-op) and prints a one-line stderr warning, so a
//!   dead disk costs a bounded number of failed syscalls, not one per
//!   point;
//! * **observability** — the [`CacheHealth`] counter struct
//!   ([`MatrixCache::health`]) surfaces on [`crate::SimMatrix`], the
//!   `run_all`/`trace_replay` stderr reports, `run_all --health-json`, and
//!   the `wp-serve` daemon's `health` response.

use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use serde::Serialize;

use wp_cache::{DCacheStats, ICacheStats};
use wp_cpu::SimResult;
use wp_energy::ActivityCounts;
use wp_workloads::Fnv1a;

use crate::engine::SimPoint;
use crate::storage::{CacheIo, DirEntry, FsIo};

/// Bump to invalidate every previously stored result (the digest of every
/// point changes). Bump whenever the simulator's meaning of a result
/// changes — not for pure performance work, which must be bit-identical.
/// (2: records additionally store an independent verification digest of
/// the point, so a filename-digest collision can no longer serve one
/// point's result for another. 3: results grew the outcome-class coverage
/// counters — `single_way_load_hits`, `seldm_predicted_sa`,
/// `victim_list_hits`, `dirty_evictions`, `ras_correct`. 4: fetch reads
/// one i-cache block per access; it used the d-cache block size, which
/// changes results whenever the two block sizes differ.)
pub const CACHE_FORMAT_VERSION: u32 = 4;

/// Consecutive I/O failures that trip the circuit breaker and degrade the
/// cache to pass-through for the rest of the process ([`MatrixCache`] docs).
pub const BREAKER_THRESHOLD: u32 = 8;

/// Magic prefix of a stored result file.
const MAGIC: &[u8; 4] = b"WPSM";

/// Salt distinguishing the stored *verification* digest from the filename
/// digest: the two hash the same point through the same FNV-1a core but
/// from different initial states, so a 64-bit collision in one is
/// independent of a collision in the other (~2⁻¹²⁸ combined for distinct
/// points, vs. the 2⁻⁶⁴ a single digest gives).
const VERIFY_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Serialized size of one result: magic + version + digest + verification
/// digest + 41 numeric fields of 8 bytes each.
const RECORD_BYTES: usize = 4 + 4 + 8 + 8 + 41 * 8;

/// The advisory lock file guarding eviction (content: the holder's pid).
const EVICT_LOCK: &str = "evict.lock";

/// Bound on the total backoff spent waiting for the eviction lock: the
/// 1 + 2 + 4 + 8 ms retry schedule.
const LOCK_TIMEOUT: Duration = Duration::from_millis(15);

/// The eviction lock stayed contended past its 15 ms bound.
///
/// Returned by [`MatrixCache::evict_to_cap`]; the store path counts it in
/// [`MatrixCache::lock_timeouts`] (surfaced through [`CacheHealth`]) and
/// defers eviction to a later store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictLockTimeout {
    /// The contended lock file.
    pub lock: PathBuf,
    /// Total backoff waited before giving up, in milliseconds.
    pub waited_ms: u64,
}

impl std::fmt::Display for EvictLockTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "eviction lock `{}` still contended after {} ms; remove a stale \
             lock file",
            self.lock.display(),
            self.waited_ms
        )
    }
}

impl std::error::Error for EvictLockTimeout {}

/// The cache-health counters, as one machine-readable struct: what
/// `run_all --health-json` writes, the `wp-serve` daemon's `health`
/// response embeds, and [`crate::SimMatrix::cache_health`] carries. Its
/// `Display` is the `cache health:` line `run_all` and `trace_replay`
/// print.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheHealth {
    /// Total I/O errors observed (including injected ones).
    pub io_errors: u64,
    /// Records evicted to honour the capacity cap.
    pub evictions: u64,
    /// Eviction passes abandoned because the advisory lock stayed
    /// contended past its bound.
    pub lock_timeouts: u64,
    /// Stale temporary files swept by startup recovery.
    pub recovered_tmp: u64,
    /// Old-generation or header-corrupt records compacted away.
    pub compacted: u64,
    /// True once the circuit breaker has tripped (pass-through mode).
    pub degraded: bool,
}

impl std::fmt::Display for CacheHealth {
    /// The body of the batch binaries' `cache health:` stderr line.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} io errors, {} evictions, {} lock timeouts, {} tmp recovered, \
             {} compacted, degraded {}",
            self.io_errors,
            self.evictions,
            self.lock_timeouts,
            self.recovered_tmp,
            self.compacted,
            self.degraded
        )
    }
}

/// The persistent result store the engine consults before simulating.
///
/// Cloning is cheap and clones *share* state: the I/O backend, the
/// circuit-breaker, and every counter.
#[derive(Debug, Clone)]
pub struct MatrixCache {
    state: Arc<CacheState>,
}

#[derive(Debug)]
struct CacheState {
    dir: PathBuf,
    io: Arc<dyn CacheIo>,
    cap: Option<u64>,
    /// Startup recovery runs at most once per cache instance, lazily on
    /// the first load or store.
    recover_once: Once,
    /// Per-process store sequence: part of every temporary file name, so
    /// two threads storing the *same digest* concurrently can never write
    /// through one path (the pre-hardening race).
    seq: AtomicU64,
    io_errors: AtomicU64,
    consecutive_failures: AtomicU32,
    degraded: AtomicBool,
    evictions: AtomicU64,
    lock_timeouts: AtomicU64,
    recovered_tmp: AtomicU64,
    compacted: AtomicU64,
}

impl MatrixCache {
    /// A cache rooted at `dir` (created lazily on first store) over the
    /// real filesystem, with no capacity cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_io(dir, Arc::new(FsIo))
    }

    /// A cache rooted at `dir` over an explicit I/O backend — the fault
    /// injection seam ([`crate::storage::FaultyIo`]).
    pub fn with_io(dir: impl Into<PathBuf>, io: Arc<dyn CacheIo>) -> Self {
        Self {
            state: Arc::new(CacheState {
                dir: dir.into(),
                io,
                cap: None,
                recover_once: Once::new(),
                seq: AtomicU64::new(0),
                io_errors: AtomicU64::new(0),
                consecutive_failures: AtomicU32::new(0),
                degraded: AtomicBool::new(false),
                evictions: AtomicU64::new(0),
                lock_timeouts: AtomicU64::new(0),
                recovered_tmp: AtomicU64::new(0),
                compacted: AtomicU64::new(0),
            }),
        }
    }

    /// Returns a copy with the capacity cap set to `cap` bytes (`None`
    /// disables eviction). Fresh counters; configure before first use.
    pub fn with_cap(self, cap: Option<u64>) -> Self {
        let mut rebuilt = Self::with_io(self.state.dir.clone(), Arc::clone(&self.state.io));
        Arc::get_mut(&mut rebuilt.state)
            .expect("just constructed, uniquely owned")
            .cap = cap;
        rebuilt
    }

    /// The default cache location, `target/wp-matrix-cache` relative to the
    /// working directory.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target/wp-matrix-cache")
    }

    /// The directory results are stored under.
    pub fn dir(&self) -> &Path {
        &self.state.dir
    }

    /// The configured capacity cap in bytes, if any.
    pub fn cap(&self) -> Option<u64> {
        self.state.cap
    }

    /// Total I/O errors observed (including injected ones).
    pub fn io_errors(&self) -> u64 {
        self.state.io_errors.load(Ordering::Relaxed)
    }

    /// Records evicted to honour the capacity cap.
    pub fn evictions(&self) -> u64 {
        self.state.evictions.load(Ordering::Relaxed)
    }

    /// Eviction passes abandoned because the advisory lock stayed
    /// contended past its bound.
    pub fn lock_timeouts(&self) -> u64 {
        self.state.lock_timeouts.load(Ordering::Relaxed)
    }

    /// A snapshot of every health counter as one machine-readable struct.
    pub fn health(&self) -> CacheHealth {
        CacheHealth {
            io_errors: self.io_errors(),
            evictions: self.evictions(),
            lock_timeouts: self.lock_timeouts(),
            recovered_tmp: self.recovered_tmp(),
            compacted: self.compacted(),
            degraded: self.degraded(),
        }
    }

    /// Stale temporary files swept by startup recovery.
    pub fn recovered_tmp(&self) -> u64 {
        self.state.recovered_tmp.load(Ordering::Relaxed)
    }

    /// Old-generation or header-corrupt records removed by startup
    /// recovery (compaction).
    pub fn compacted(&self) -> u64 {
        self.state.compacted.load(Ordering::Relaxed)
    }

    /// True once the circuit breaker has tripped: the cache is a
    /// pass-through (every load misses, every store is a no-op) for the
    /// rest of this process.
    pub fn degraded(&self) -> bool {
        self.state.degraded.load(Ordering::Relaxed)
    }

    /// The stable digest naming `point`'s result file.
    pub fn digest(point: &SimPoint) -> u64 {
        let mut hasher = Fnv1a::new();
        CACHE_FORMAT_VERSION.hash(&mut hasher);
        point.hash(&mut hasher);
        hasher.finish()
    }

    /// A second, independently salted digest of `point`, stored *inside*
    /// the record and re-checked on load: the widened key check that keeps
    /// a filename-digest collision between two distinct points from
    /// serving one point's result for the other.
    pub fn verify_digest(point: &SimPoint) -> u64 {
        let mut hasher = Fnv1a::new();
        VERIFY_SALT.hash(&mut hasher);
        CACHE_FORMAT_VERSION.hash(&mut hasher);
        point.hash(&mut hasher);
        hasher.finish()
    }

    fn path_for(&self, digest: u64) -> PathBuf {
        self.state.dir.join(format!("{digest:016x}.wpsim"))
    }

    /// A fresh, process-unique temporary path for storing `digest`: the
    /// pid separates concurrent processes, the sequence number separates
    /// concurrent threads of *this* process storing the same digest.
    fn tmp_path_for(&self, digest: u64) -> PathBuf {
        let seq = self.state.seq.fetch_add(1, Ordering::Relaxed);
        self.state.dir.join(format!(
            "{digest:016x}.wpsim.tmp{}.{seq}",
            std::process::id()
        ))
    }

    /// Notes one failed I/O operation: counts it and advances the circuit
    /// breaker, tripping it (with a one-line stderr warning) at
    /// [`BREAKER_THRESHOLD`].
    fn note_failure(&self) {
        self.state.io_errors.fetch_add(1, Ordering::Relaxed);
        let consecutive = self
            .state
            .consecutive_failures
            .fetch_add(1, Ordering::Relaxed)
            .saturating_add(1);
        if consecutive >= BREAKER_THRESHOLD && !self.state.degraded.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: matrix cache degraded to pass-through after {consecutive} \
                 consecutive I/O errors (dir {}); results stay correct, everything \
                 re-simulates",
                self.state.dir.display()
            );
        }
    }

    /// Notes one successful I/O round: the breaker only counts
    /// *consecutive* failures.
    fn note_success(&self) {
        self.state.consecutive_failures.store(0, Ordering::Relaxed);
    }

    /// Runs startup recovery exactly once per cache instance: sweep stale
    /// `*.tmp*` debris from crashed stores, and compact away records from
    /// older format generations (or with headers no current reader could
    /// accept). Best-effort — every failure is counted and skipped.
    fn ensure_recovered(&self) {
        self.state.recover_once.call_once(|| self.recover());
    }

    fn recover(&self) {
        let entries = match self.state.io.list_dir(&self.state.dir) {
            Ok(entries) => entries,
            // No directory yet: nothing to recover (and not an error).
            Err(e) if e.kind() == io::ErrorKind::NotFound => return,
            Err(_) => {
                self.note_failure();
                return;
            }
        };
        for entry in entries {
            let path = self.state.dir.join(&entry.name);
            if entry.name.contains(".wpsim.tmp") {
                // A temporary file can only be observed here if the store
                // that owned it died mid-flight: live stores hold unique
                // names and remove them before returning.
                match self.state.io.remove_file(&path) {
                    Ok(()) => {
                        self.note_success();
                        self.state.recovered_tmp.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => self.note_failure(),
                }
            } else if entry.name.ends_with(".wpsim") && !self.header_is_current(&path) {
                // An old-generation or header-corrupt record would never
                // serve a hit again; reclaim its space now (compaction).
                match self.state.io.remove_file(&path) {
                    Ok(()) => {
                        self.note_success();
                        self.state.compacted.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => self.note_failure(),
                }
            }
        }
    }

    /// True if the record at `path` has the current magic, version, and
    /// length — i.e. could possibly serve a hit for some point.
    fn header_is_current(&self, path: &Path) -> bool {
        let Ok(bytes) = self.state.io.read(path) else {
            // Unreadable right now: leave it for a later recovery rather
            // than risk deleting a healthy record over a transient error.
            self.note_failure();
            return true;
        };
        self.note_success();
        bytes.len() == RECORD_BYTES
            && bytes.get(0..4).map(|m| m == MAGIC) == Some(true)
            && bytes
                .get(4..8)
                .and_then(|v| v.try_into().ok())
                .map(u32::from_le_bytes)
                == Some(CACHE_FORMAT_VERSION)
    }

    /// Loads the stored result for `point`, if an intact one exists.
    pub fn load(&self, point: &SimPoint) -> Option<SimResult> {
        self.load_at(Self::digest(point), point)
    }

    /// [`MatrixCache::load`] with the filename digest supplied by the
    /// caller. Hidden test seam: forcing two distinct points onto one
    /// digest simulates a 64-bit collision, and the stored verification
    /// digest must still keep their results apart.
    #[doc(hidden)]
    pub fn load_at(&self, digest: u64, point: &SimPoint) -> Option<SimResult> {
        if self.degraded() {
            return None;
        }
        self.ensure_recovered();
        let bytes = match self.state.io.read(&self.path_for(digest)) {
            Ok(bytes) => {
                self.note_success();
                bytes
            }
            // A miss, not an I/O failure: absence is the normal cold case,
            // and a definitive answer from a healthy backend — it resets
            // the breaker window like any other successful round trip
            // (otherwise a long cold sweep would accumulate scattered
            // transient faults into a spurious "consecutive" trip).
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.note_success();
                return None;
            }
            Err(_) => {
                self.note_failure();
                return None;
            }
        };
        decode(&bytes, digest, Self::verify_digest(point))
    }

    /// Stores `result` for `point`. Best-effort: I/O failures (read-only
    /// filesystem, ENOSPC, a tripped circuit breaker) silently degrade to
    /// an uncached run. The write goes through a uniquely named temporary
    /// file flushed and renamed into place, so no reader — concurrent
    /// process, concurrent thread, or post-crash successor — ever observes
    /// a torn record.
    pub fn store(&self, point: &SimPoint, result: &SimResult) {
        self.store_at(Self::digest(point), point, result);
    }

    /// [`MatrixCache::store`] with the filename digest supplied by the
    /// caller; see [`MatrixCache::load_at`].
    #[doc(hidden)]
    pub fn store_at(&self, digest: u64, point: &SimPoint, result: &SimResult) {
        if self.degraded() {
            return;
        }
        self.ensure_recovered();
        let tmp = self.tmp_path_for(digest);
        let bytes = encode(result, digest, Self::verify_digest(point));
        if self.state.io.write_file(&tmp, &bytes).is_err() {
            self.note_failure();
            // Clean up any torn prefix; if this fails too (crash, dead
            // disk) startup recovery sweeps the debris next time.
            let _ = self.state.io.remove_file(&tmp);
            return;
        }
        if self.state.io.rename(&tmp, &self.path_for(digest)).is_err() {
            self.note_failure();
            let _ = self.state.io.remove_file(&tmp);
            return;
        }
        self.note_success();
        self.maybe_evict();
    }

    /// Enforces the capacity cap after a successful store: best-effort on
    /// I/O failures, but a lock-contention timeout is *counted* (the
    /// [`MatrixCache::lock_timeouts`] health counter) and warned about —
    /// the work is deferred to a later store, never silently dropped.
    fn maybe_evict(&self) {
        if let Err(timeout) = self.evict_to_cap() {
            self.state.lock_timeouts.fetch_add(1, Ordering::Relaxed);
            eprintln!("warning: {timeout}; eviction deferred to a later store");
        }
    }

    /// Enforces the capacity cap now: while the records under the
    /// directory exceed the cap, evict oldest-mtime first (store time
    /// approximates recency: loads do not touch files), guarded by an
    /// advisory lock so concurrent processes do not shred each other's
    /// working set. Returns the number of records evicted; with no cap
    /// configured (or the directory already within it) this is `Ok(0)`.
    /// Plain I/O failures stay best-effort (counted, breaker-advanced,
    /// `Ok`), matching the rest of the cache.
    ///
    /// # Errors
    ///
    /// Returns [`EvictLockTimeout`] if the advisory lock stays contended
    /// past its 15 ms bound.
    pub fn evict_to_cap(&self) -> Result<u64, EvictLockTimeout> {
        let Some(cap) = self.state.cap else {
            return Ok(0);
        };
        // Unlocked pre-check: the common case (under cap) costs one
        // directory listing and no lock traffic.
        let Some(entries) = self.list_records() else {
            return Ok(0);
        };
        if total_record_bytes(&entries) <= cap {
            return Ok(0);
        }
        if !self.acquire_evict_lock()? {
            return Ok(0);
        }
        // Re-list under the lock: another process may have evicted
        // concurrently with our pre-check.
        let mut evicted = 0;
        if let Some(mut entries) = self.list_records() {
            entries
                .sort_by(|a, b| (a.modified, a.name.as_str()).cmp(&(b.modified, b.name.as_str())));
            let mut total = total_record_bytes(&entries);
            for entry in &entries {
                if total <= cap {
                    break;
                }
                match self.state.io.remove_file(&self.state.dir.join(&entry.name)) {
                    Ok(()) => {
                        self.note_success();
                        self.state.evictions.fetch_add(1, Ordering::Relaxed);
                        evicted += 1;
                        total = total.saturating_sub(entry.len);
                    }
                    Err(_) => self.note_failure(),
                }
            }
        }
        let _ = self.state.io.remove_file(&self.state.dir.join(EVICT_LOCK));
        Ok(evicted)
    }

    /// The current `*.wpsim` records, or `None` on a listing failure.
    fn list_records(&self) -> Option<Vec<DirEntry>> {
        match self.state.io.list_dir(&self.state.dir) {
            Ok(entries) => Some(
                entries
                    .into_iter()
                    .filter(|e| e.name.ends_with(".wpsim"))
                    .collect(),
            ),
            Err(_) => {
                self.note_failure();
                None
            }
        }
    }

    /// Tries to take the eviction lock with exponential backoff bounded by
    /// [`LOCK_TIMEOUT`], breaking locks whose holder is provably
    /// dead (the lock file carries the holder's pid). `Ok(false)` means an
    /// I/O failure (counted, best-effort skip); a lock that stays
    /// *contended* past the bound is the typed [`EvictLockTimeout`] — the
    /// caller decides whether to surface or count it, never blocks.
    fn acquire_evict_lock(&self) -> Result<bool, EvictLockTimeout> {
        let lock = self.state.dir.join(EVICT_LOCK);
        let pid_bytes = std::process::id().to_string().into_bytes();
        let mut slept = Duration::ZERO;
        let mut backoff = Duration::from_millis(1);
        loop {
            match self.state.io.create_exclusive(&lock, &pid_bytes) {
                Ok(()) => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if self.lock_is_stale(&lock) {
                        // The holder died mid-eviction; break its lock and
                        // retry immediately. A failed break is an I/O
                        // problem, not contention — skip best-effort.
                        if self.state.io.remove_file(&lock).is_err() {
                            self.note_failure();
                            return Ok(false);
                        }
                        continue;
                    }
                    if slept >= LOCK_TIMEOUT {
                        return Err(EvictLockTimeout {
                            lock,
                            waited_ms: slept.as_millis() as u64,
                        });
                    }
                    let nap = backoff.min(LOCK_TIMEOUT - slept);
                    std::thread::sleep(nap);
                    slept += nap;
                    backoff = backoff.saturating_mul(2);
                }
                Err(_) => {
                    self.note_failure();
                    return Ok(false);
                }
            }
        }
    }

    /// True if the eviction lock's holder is provably dead. A lock we
    /// cannot read or attribute to a live process is treated as stale
    /// (unparseable content can only be debris); a lock held by *this*
    /// process (another thread mid-eviction) is never stale.
    fn lock_is_stale(&self, lock: &Path) -> bool {
        let Ok(bytes) = self.state.io.read(lock) else {
            // Racing remove by the holder: not stale, just gone.
            return false;
        };
        let Some(pid) = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| text.trim().parse::<u32>().ok())
        else {
            return true;
        };
        if pid == std::process::id() {
            return false;
        }
        #[cfg(target_os = "linux")]
        {
            !Path::new("/proc").join(pid.to_string()).exists()
        }
        #[cfg(not(target_os = "linux"))]
        {
            // Without a portable liveness probe, never break a foreign
            // lock: losing eviction beats shredding a live working set.
            false
        }
    }
}

/// Sum of the record lengths in `entries`.
fn total_record_bytes(entries: &[DirEntry]) -> u64 {
    entries.iter().map(|e| e.len).sum()
}

fn encode(result: &SimResult, digest: u64, verify: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_BYTES);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&CACHE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&digest.to_le_bytes());
    out.extend_from_slice(&verify.to_le_bytes());
    // The value stream is exactly [`SimResult::fields`] — the canonical
    // field enumeration behind `exact_eq` — so the record format and the
    // equality contract can never disagree on what a result *is*.
    // `decode_fields` rebuilds the struct in the same declaration order;
    // the round-trip test in this module pins the pairing.
    for (_, bits) in result.fields() {
        out.extend_from_slice(&bits.to_le_bytes());
    }
    debug_assert_eq!(out.len(), RECORD_BYTES);
    out
}

/// A checked little-endian field reader over a stored record. Every read
/// is bounds-checked and reports exhaustion as `None`, so a truncated or
/// corrupt record decodes to a cache miss — never a panic — even if the
/// caller's length pre-check is ever weakened.
struct Fields<'a> {
    bytes: &'a [u8],
}

impl Fields<'_> {
    fn u64(&mut self) -> Option<u64> {
        let field = self.bytes.get(..8)?;
        let value = u64::from_le_bytes(field.try_into().ok()?);
        self.bytes = &self.bytes[8..];
        Some(value)
    }
}

fn decode(bytes: &[u8], digest: u64, verify: u64) -> Option<SimResult> {
    if bytes.len() != RECORD_BYTES || bytes.get(0..4)? != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes.get(4..8)?.try_into().ok()?);
    let stored_digest = u64::from_le_bytes(bytes.get(8..16)?.try_into().ok()?);
    let stored_verify = u64::from_le_bytes(bytes.get(16..24)?.try_into().ok()?);
    if version != CACHE_FORMAT_VERSION || stored_digest != digest || stored_verify != verify {
        return None;
    }
    let mut fields = Fields {
        bytes: &bytes[24..],
    };
    decode_fields(&mut fields)
}

/// Decodes the numeric fields through the checked reader; any exhausted
/// read aborts the whole decode via `?` (the existing miss path).
fn decode_fields(fields: &mut Fields<'_>) -> Option<SimResult> {
    let mut u = || fields.u64();
    let cycles = u()?;
    let activity = ActivityCounts {
        cycles: u()?,
        instructions: u()?,
        int_ops: u()?,
        fp_ops: u()?,
        loads: u()?,
        stores: u()?,
        branches: u()?,
        l2_accesses: u()?,
    };
    let dcache = DCacheStats {
        loads: u()?,
        load_misses: u()?,
        stores: u()?,
        store_misses: u()?,
        evictions: u()?,
        direct_mapped_accesses: u()?,
        parallel_accesses: u()?,
        way_predicted_accesses: u()?,
        sequential_accesses: u()?,
        mispredicted_accesses: u()?,
        way_predictions: u()?,
        way_predictions_correct: u()?,
        seldm_predicted_dm: u()?,
        seldm_predicted_dm_correct: u()?,
        conflicting_blocks_flagged: u()?,
        single_way_load_hits: u()?,
        seldm_predicted_sa: u()?,
        victim_list_hits: u()?,
        dirty_evictions: u()?,
        cache_energy: f64::from_bits(u()?),
        prediction_energy: f64::from_bits(u()?),
    };
    let icache = ICacheStats {
        fetches: u()?,
        fetch_misses: u()?,
        sawp_correct: u()?,
        btb_correct: u()?,
        ras_correct: u()?,
        no_prediction: u()?,
        mispredicted: u()?,
        cache_energy: f64::from_bits(u()?),
        prediction_energy: f64::from_bits(u()?),
    };
    let memory_accesses = u()?;
    let branch_accuracy = f64::from_bits(u()?);
    Some(SimResult {
        cycles,
        activity,
        dcache,
        icache,
        memory_accesses,
        branch_accuracy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{simulate_workload, MachineConfig, RunOptions};
    use crate::storage::{FaultKind, FaultPlan, FaultyIo};
    use wp_workloads::Benchmark;

    fn point() -> SimPoint {
        SimPoint::new(
            Benchmark::Li,
            MachineConfig::baseline(),
            RunOptions::quick().with_ops(3_000),
        )
    }

    fn temp_cache(tag: &str) -> MatrixCache {
        let dir = std::env::temp_dir().join(format!(
            "wpsdm-matrix-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        MatrixCache::new(dir)
    }

    #[test]
    fn digests_are_stable_and_distinguish_points() {
        let a = point();
        let b = SimPoint::new(
            Benchmark::Li,
            MachineConfig::baseline(),
            RunOptions::quick().with_ops(3_000).with_seed(7),
        );
        assert_eq!(MatrixCache::digest(&a), MatrixCache::digest(&a));
        assert_ne!(MatrixCache::digest(&a), MatrixCache::digest(&b));
    }

    #[test]
    fn results_round_trip_bit_identically() {
        let cache = temp_cache("roundtrip");
        let point = point();
        let result = simulate_workload(&point.workload, &point.machine, &point.options);
        assert!(cache.load(&point).is_none());
        cache.store(&point, &result);
        let loaded = cache.load(&point).expect("stored result must load");
        assert_eq!(loaded, result);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn tmp_names_are_unique_within_a_process() {
        // The pre-hardening race: two threads storing the same digest
        // wrote through one `…tmp{pid}` path, so one could rename the
        // other's half-written file into place. Unique per-store sequence
        // numbers make the collision impossible.
        let cache = temp_cache("tmpnames");
        let digest = 0xdead_beef_0000_0001;
        let a = cache.tmp_path_for(digest);
        let b = cache.tmp_path_for(digest);
        assert_ne!(a, b, "same digest, same process: tmp paths must differ");
        let clone = cache.clone();
        let c = clone.tmp_path_for(digest);
        assert_ne!(b, c, "clones share the sequence counter");
    }

    #[test]
    fn concurrent_same_digest_stores_never_tear() {
        // Hammer one digest from many threads; every interleaving must
        // leave an intact, loadable record and no temporary debris.
        let cache = temp_cache("hammer");
        let point = point();
        let result = simulate_workload(&point.workload, &point.machine, &point.options);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        cache.store(&point, &result);
                        if let Some(loaded) = cache.load(&point) {
                            assert_eq!(loaded, result, "no reader may observe a torn record");
                        }
                    }
                });
            }
        });
        assert_eq!(cache.load(&point), Some(result));
        let leftovers: Vec<String> = std::fs::read_dir(cache.dir())
            .expect("cache dir exists")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp"))
            .collect();
        assert_eq!(
            leftovers,
            Vec::<String>::new(),
            "no tmp debris after stores"
        );
        assert_eq!(cache.io_errors(), 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_records_decode_to_a_miss_at_every_length() {
        // Even with the whole-record length pre-check bypassed, the field
        // reader must treat a record cut off at *any* byte as a miss — the
        // decode-error path — never panic.
        let point = point();
        let result = simulate_workload(&point.workload, &point.machine, &point.options);
        let digest = MatrixCache::digest(&point);
        let verify = MatrixCache::verify_digest(&point);
        let full = encode(&result, digest, verify);
        assert_eq!(decode(&full, digest, verify), Some(result));
        for len in 0..full.len() {
            assert_eq!(
                decode(&full[..len], digest, verify),
                None,
                "truncated to {len}"
            );
        }
        // A record with a valid header but exhausted fields exercises the
        // checked reader directly.
        let mut fields = Fields {
            bytes: &full[24..full.len() - 1],
        };
        assert_eq!(decode_fields(&mut fields), None);
    }

    #[test]
    fn forced_digest_collisions_do_not_cross_contaminate() {
        // Two distinct points whose *filename* digests are forced equal:
        // the verification digest stored inside the record must keep their
        // results apart — point B reads a miss, never point A's result.
        let cache = temp_cache("collision");
        let a = point();
        let b = SimPoint::new(
            Benchmark::Li,
            MachineConfig::baseline(),
            RunOptions::quick().with_ops(3_000).with_seed(99),
        );
        assert_ne!(a, b);
        assert_ne!(
            MatrixCache::verify_digest(&a),
            MatrixCache::verify_digest(&b),
            "distinct points must have distinct verification digests"
        );
        let result_a = simulate_workload(&a.workload, &a.machine, &a.options);
        let collided = 0xdead_beef_cafe_f00d;
        cache.store_at(collided, &a, &result_a);
        // The rightful owner loads through the forced digest...
        assert_eq!(cache.load_at(collided, &a), Some(result_a));
        // ...the colliding point must not.
        assert_eq!(
            cache.load_at(collided, &b),
            None,
            "a digest collision must decode as a miss for the other point"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn verify_digest_is_independent_of_the_filename_digest() {
        // The two digests must not be trivially related (e.g. equal, or a
        // constant offset apart) — otherwise a collision in one implies a
        // collision in the other and the widened check buys nothing.
        let points: Vec<SimPoint> = (0..16)
            .map(|i| {
                SimPoint::new(
                    Benchmark::Li,
                    MachineConfig::baseline(),
                    RunOptions::quick().with_ops(1_000 + i),
                )
            })
            .collect();
        let deltas: std::collections::HashSet<u64> = points
            .iter()
            .map(|p| MatrixCache::digest(p).wrapping_sub(MatrixCache::verify_digest(p)))
            .collect();
        assert!(
            deltas.len() > 1,
            "digest and verify_digest differ by a constant — not independent"
        );
    }

    #[test]
    fn corrupt_and_truncated_files_are_misses() {
        let cache = temp_cache("corrupt");
        let point = point();
        let result = simulate_workload(&point.workload, &point.machine, &point.options);
        cache.store(&point, &result);
        let file = cache
            .dir()
            .join(format!("{:016x}.wpsim", MatrixCache::digest(&point)));
        // Truncated.
        let full = std::fs::read(&file).expect("stored file exists");
        std::fs::write(&file, &full[..full.len() - 1]).expect("rewrite");
        assert!(cache.load(&point).is_none());
        // Wrong magic.
        let mut bad = full.clone();
        bad[0] = b'X';
        std::fs::write(&file, &bad).expect("rewrite");
        assert!(cache.load(&point).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn startup_recovery_sweeps_tmp_debris_and_compacts_old_generations() {
        let cache = temp_cache("recovery");
        let dir = cache.dir().to_path_buf();
        std::fs::create_dir_all(&dir).expect("mkdir");
        // Debris a crashed process would leave: torn temporaries...
        std::fs::write(dir.join("0123456789abcdef.wpsim.tmp99999.0"), b"torn").expect("tmp");
        std::fs::write(dir.join("fedcba9876543210.wpsim.tmp99998.3"), b"").expect("tmp");
        // ...a record from an older format generation...
        let mut old = Vec::new();
        old.extend_from_slice(MAGIC);
        old.extend_from_slice(&(CACHE_FORMAT_VERSION - 1).to_le_bytes());
        old.resize(RECORD_BYTES, 0);
        std::fs::write(dir.join("00000000000000aa.wpsim"), &old).expect("old record");
        // ...and a header-corrupt one.
        std::fs::write(dir.join("00000000000000bb.wpsim"), b"not a record").expect("bad record");

        // A healthy record must survive recovery untouched.
        let point = point();
        let result = simulate_workload(&point.workload, &point.machine, &point.options);
        let healthy = encode(
            &result,
            MatrixCache::digest(&point),
            MatrixCache::verify_digest(&point),
        );
        std::fs::write(
            dir.join(format!("{:016x}.wpsim", MatrixCache::digest(&point))),
            &healthy,
        )
        .expect("healthy record");

        // First operation triggers recovery.
        assert_eq!(cache.load(&point), Some(result));
        assert_eq!(cache.recovered_tmp(), 2, "both temporaries swept");
        assert_eq!(
            cache.compacted(),
            2,
            "old-generation + corrupt record removed"
        );
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec![format!("{:016x}.wpsim", MatrixCache::digest(&point))],
            "only the healthy record survives"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn circuit_breaker_degrades_to_pass_through() {
        let dir = std::env::temp_dir().join(format!(
            "wpsdm-matrix-cache-test-breaker-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MatrixCache::with_io(&dir, Arc::new(FaultyIo::read_only()));
        let point = point();
        let result = simulate_workload(&point.workload, &point.machine, &point.options);
        for _ in 1..BREAKER_THRESHOLD {
            cache.store(&point, &result);
        }
        assert!(!cache.degraded(), "one failure short of the threshold");
        cache.store(&point, &result);
        assert!(
            cache.degraded(),
            "{BREAKER_THRESHOLD} consecutive failures must trip the breaker"
        );
        let errors_at_trip = cache.io_errors();
        // Degraded = pass-through: no further I/O, no further errors.
        cache.store(&point, &result);
        assert_eq!(cache.load(&point), None);
        assert_eq!(cache.io_errors(), errors_at_trip);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_success_resets_the_breaker_window() {
        let dir = std::env::temp_dir().join(format!(
            "wpsdm-matrix-cache-test-window-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Ops: recovery list (0), then per store a write and either a
        // rename (it worked) or its tmp removal (it failed), so store `i`
        // writes at op 1 + 2i. Stores 0..run and run+1..=2·run fail, one
        // short of the threshold each time, with store `run` working
        // between them; the last store works too.
        let run = u64::from(BREAKER_THRESHOLD) - 1;
        let plan = (0..run)
            .chain(run + 1..=2 * run)
            .fold(FaultPlan::new(), |plan, store| {
                plan.fail_nth(1 + 2 * store, FaultKind::Enospc)
            });
        let cache = MatrixCache::with_io(&dir, Arc::new(FaultyIo::with_plan(plan)));
        let point = point();
        let result = simulate_workload(&point.workload, &point.machine, &point.options);
        for _ in 0..2 * run + 2 {
            cache.store(&point, &result);
        }
        assert!(
            !cache.degraded(),
            "failure runs separated by a success must not trip the breaker"
        );
        assert_eq!(cache.io_errors(), 2 * run);
        assert_eq!(cache.load(&point), Some(result));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_cap_evicts_oldest_records_first() {
        let cache = temp_cache("evict");
        let dir = cache.dir().to_path_buf();
        let record_bytes = RECORD_BYTES as u64;
        // Room for exactly 3 records.
        let cache = cache.with_cap(Some(3 * record_bytes));
        let points: Vec<SimPoint> = (0..5)
            .map(|i| {
                SimPoint::new(
                    Benchmark::Li,
                    MachineConfig::baseline(),
                    RunOptions::quick().with_ops(2_000 + i),
                )
            })
            .collect();
        for point in &points {
            let result = simulate_workload(&point.workload, &point.machine, &point.options);
            cache.store(point, &result);
            // Distinct mtimes make the LRU order deterministic.
            std::thread::sleep(std::time::Duration::from_millis(15));
        }
        assert_eq!(cache.evictions(), 2, "two oldest records evicted");
        assert!(cache.load(&points[0]).is_none(), "oldest evicted");
        assert!(cache.load(&points[1]).is_none(), "second-oldest evicted");
        for point in &points[2..] {
            assert!(cache.load(point).is_some(), "recent records survive");
        }
        let total: u64 = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").metadata().expect("meta").len())
            .sum();
        assert!(total <= 3 * record_bytes, "directory fits the cap");
        assert!(!dir.join(EVICT_LOCK).exists(), "lock released");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_holder_eviction_locks_are_broken() {
        let cache = temp_cache("deadlock");
        let dir = cache.dir().to_path_buf();
        std::fs::create_dir_all(&dir).expect("mkdir");
        // A lock from a process that no longer exists (pid u32::MAX is
        // far above any real pid_max).
        std::fs::write(dir.join(EVICT_LOCK), u32::MAX.to_string()).expect("stale lock");
        let cache = cache.with_cap(Some(RECORD_BYTES as u64));
        let a = point();
        let b = SimPoint::new(
            Benchmark::Li,
            MachineConfig::baseline(),
            RunOptions::quick().with_ops(3_500),
        );
        for p in [&a, &b] {
            let result = simulate_workload(&p.workload, &p.machine, &p.options);
            cache.store(p, &result);
            std::thread::sleep(std::time::Duration::from_millis(15));
        }
        assert!(
            cache.evictions() >= 1,
            "the dead holder's lock must not block eviction forever"
        );
        assert!(
            !dir.join(EVICT_LOCK).exists(),
            "lock released after breaking"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn held_eviction_locks_are_respected() {
        let cache = temp_cache("heldlock");
        let dir = cache.dir().to_path_buf();
        std::fs::create_dir_all(&dir).expect("mkdir");
        // A lock held by a live process: our own pid stands in for a
        // concurrent evictor.
        std::fs::write(dir.join(EVICT_LOCK), std::process::id().to_string()).expect("lock");
        let cache = cache.with_cap(Some(1));
        let point = point();
        let result = simulate_workload(&point.workload, &point.machine, &point.options);
        cache.store(&point, &result);
        assert_eq!(cache.evictions(), 0, "a held lock skips eviction");
        assert_eq!(
            cache.lock_timeouts(),
            1,
            "the abandoned pass is counted, not silently swallowed"
        );
        assert_eq!(
            cache.load(&point),
            Some(result),
            "the store itself still lands"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contended_lock_times_out_with_the_exact_typed_error() {
        let cache = temp_cache("locktimeout");
        let dir = cache.dir().to_path_buf();
        std::fs::create_dir_all(&dir).expect("mkdir");
        // A lock held by a live process (our own pid): never stale, so the
        // acquire loop must exhaust its backoff budget. The 15 ms bound
        // sleeps exactly 1 + 2 + 4 + 8 ms, so the reported wait is
        // deterministic.
        std::fs::write(dir.join(EVICT_LOCK), std::process::id().to_string()).expect("lock");
        let cache = cache.with_cap(Some(1));
        let point = point();
        let result = simulate_workload(&point.workload, &point.machine, &point.options);
        cache.store(&point, &result);
        let error = cache
            .evict_to_cap()
            .expect_err("a held lock past the bound must be a typed error");
        assert_eq!(error.waited_ms, 15);
        assert_eq!(error.lock, dir.join(EVICT_LOCK));
        assert_eq!(
            error.to_string(),
            format!(
                "eviction lock `{}` still contended after 15 ms; remove a stale \
                 lock file",
                dir.join(EVICT_LOCK).display()
            )
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_to_cap_reports_the_evicted_count() {
        let cache = temp_cache("evictnow");
        let record_bytes = RECORD_BYTES as u64;
        // No cap: trivially Ok(0).
        assert_eq!(cache.clone().with_cap(None).evict_to_cap(), Ok(0));
        let cache = cache.with_cap(Some(record_bytes));
        let points: Vec<SimPoint> = (0..3)
            .map(|i| {
                SimPoint::new(
                    Benchmark::Li,
                    MachineConfig::baseline(),
                    RunOptions::quick().with_ops(2_000 + i),
                )
            })
            .collect();
        for point in &points {
            let result = simulate_workload(&point.workload, &point.machine, &point.options);
            cache.store(point, &result);
            std::thread::sleep(std::time::Duration::from_millis(15));
        }
        // Stores already evicted down to the cap; a manual pass finds the
        // directory within budget.
        assert_eq!(cache.evict_to_cap(), Ok(0));
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.lock_timeouts(), 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn health_snapshots_every_counter() {
        let cache = temp_cache("health");
        let point = point();
        let result = simulate_workload(&point.workload, &point.machine, &point.options);
        cache.store(&point, &result);
        assert_eq!(
            cache.health(),
            CacheHealth {
                io_errors: 0,
                evictions: 0,
                lock_timeouts: 0,
                recovered_tmp: 0,
                compacted: 0,
                degraded: false,
            }
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
