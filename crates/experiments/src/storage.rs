//! Storage backends for the persistent [`crate::MatrixCache`]: all cache
//! I/O goes through the [`CacheIo`] trait, so the same hardened cache logic
//! runs over the real filesystem ([`FsIo`]) in production and over a
//! deterministic fault-injecting wrapper ([`FaultyIo`]) in the crash
//! harness and CI.
//!
//! The fault model is the one `docs/RELIABILITY.md` spells out:
//!
//! * **transient and persistent I/O errors** — any operation can return
//!   EIO-, ENOSPC-, or EACCES-shaped errors ([`FaultKind`]), either at a
//!   scripted operation index ([`FaultPlan::fail_nth`]) or pseudo-randomly
//!   from a seed ([`FaultyIo::seeded`]: same seed, same fault sequence);
//! * **torn writes** — a failing write may first persist a prefix of the
//!   record ([`FaultPlan::tear_write`]), modelling a partial page flush;
//! * **process abort** — from one operation onward *everything* fails
//!   ([`FaultPlan::abort_at`]), including the cache's own cleanup, so
//!   temporary files are stranded exactly as a `kill -9` would strand
//!   them. Recovery of the debris is the next process's job
//!   ([`crate::MatrixCache`] sweeps it at startup).
//!
//! [`FaultyIo`] wraps any inner backend, counts the operations it passes
//! through and the faults it injects, and never consults wall-clock time.
//! Its two kinds of plan are deterministic in different senses:
//!
//! * a **seeded** decision depends on the seed, the operation kind, the
//!   record the operation touches (the digest part of the file name, so a
//!   record and its temporary files are one record), and how many times
//!   that (kind, record) pair has been tried before. Directory-level
//!   operations key on (kind, attempt). No decision depends on how threads
//!   interleave, so a failing seed reproduces exactly under a
//!   multi-threaded engine;
//! * a **scripted** plan ([`FaultPlan::fail_nth`], [`FaultPlan::tear_write`],
//!   [`FaultPlan::abort_at`]) targets the *n*-th operation the backend
//!   sees, counted across all threads. It is meant for single-threaded
//!   harnesses (a serial engine, or one request at a time), where that
//!   order is fixed.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hasher as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use wp_workloads::Fnv1a;

/// One directory entry as the cache sees it: enough metadata for recovery
/// (name), compaction (name + content read separately), and mtime-LRU
/// eviction (length + modification time).
#[derive(Debug, Clone)]
pub struct DirEntry {
    /// File name within the cache directory (no path components).
    pub name: String,
    /// File length in bytes.
    pub len: u64,
    /// Last-modified time (the eviction recency proxy).
    pub modified: SystemTime,
}

/// The complete I/O surface of the matrix cache. Every filesystem touch the
/// cache makes goes through exactly one of these methods, so a backend that
/// injects faults here has covered the cache's entire failure surface.
pub trait CacheIo: fmt::Debug + Send + Sync {
    /// Reads the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (or truncates) `path`, and any missing parent directories,
    /// writes `bytes`, and flushes them to stable storage before returning.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` to `to` (both within the cache directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Lists the plain files directly under `path`.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<DirEntry>>;
    /// Creates `path` with `bytes` only if it does not already exist
    /// (`O_EXCL`) — the advisory-lock primitive; fails with
    /// [`io::ErrorKind::AlreadyExists`] when another holder won.
    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
}

/// The real filesystem backend used in production.
#[derive(Debug, Clone, Default)]
pub struct FsIo;

impl CacheIo for FsIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = match std::fs::File::create(path) {
            // The first store into a cache directory that does not exist
            // (yet, or any more) creates it.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                std::fs::File::create(path)?
            }
            file => file?,
        };
        file.write_all(bytes)?;
        // Flush the record before the caller renames it into place: a
        // rename that becomes visible before its content is durable would
        // reintroduce the torn-record window on power loss.
        file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<DirEntry>> {
        let mut entries = Vec::new();
        for entry in std::fs::read_dir(path)? {
            let entry = entry?;
            let metadata = entry.metadata()?;
            if !metadata.is_file() {
                continue;
            }
            entries.push(DirEntry {
                name: entry.file_name().to_string_lossy().into_owned(),
                len: metadata.len(),
                modified: metadata.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        Ok(entries)
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)?;
        file.write_all(bytes)
    }
}

/// The error shape an injected fault takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A generic I/O error (EIO: bad disk, bit rot, controller reset).
    Eio,
    /// No space left on device (ENOSPC): the classic mid-store failure.
    Enospc,
    /// Permission denied (EACCES): a read-only cache directory.
    PermissionDenied,
}

impl FaultKind {
    /// The `io::Error` this fault materializes as.
    pub fn error(self) -> io::Error {
        match self {
            FaultKind::Eio => io::Error::other("injected fault: input/output error (EIO)"),
            // Built from the raw errno (28 on every unix) rather than
            // `ErrorKind::StorageFull`, which needs rustc 1.83; the kind
            // still maps to StorageFull on toolchains that know it.
            FaultKind::Enospc => io::Error::from_raw_os_error(28),
            FaultKind::PermissionDenied => io::Error::new(
                io::ErrorKind::PermissionDenied,
                "injected fault: permission denied (EACCES)",
            ),
        }
    }
}

/// One scripted fault: how the targeted operation fails, and — for writes —
/// how many bytes land on disk before it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The error shape returned.
    pub kind: FaultKind,
    /// For write operations: persist this many bytes of the record before
    /// failing (a torn write). `None` persists nothing.
    pub tear: Option<usize>,
}

/// A deterministic schedule of injected faults, consumed by [`FaultyIo`]
/// one backend operation at a time (operation indices start at 0; see the
/// module docs for what each kind of plan is keyed on).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Scripted faults by operation index.
    scripted: BTreeMap<u64, Fault>,
    /// From this operation onward, everything fails (process abort). The
    /// targeted operation itself honours `abort_tear` if it is a write.
    abort_at: Option<u64>,
    /// Bytes a write aborted *on* persists before the plug is pulled.
    abort_tear: usize,
    /// Every mutating operation fails with EACCES (read-only directory).
    read_only: bool,
    /// Pseudo-random faults: `(seed, permille)` — each operation fails with
    /// probability `permille / 1000`, with kind and tear point drawn from
    /// the same hash of (seed, kind, record, attempt).
    seeded: Option<(u64, u32)>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fails operation `n` with `kind` (no bytes persisted for writes).
    pub fn fail_nth(mut self, n: u64, kind: FaultKind) -> Self {
        self.scripted.insert(n, Fault { kind, tear: None });
        self
    }

    /// Fails operation `n` with `kind`; if it is a write, the first
    /// `bytes` bytes of the record are persisted first (a torn write).
    pub fn tear_write(mut self, n: u64, bytes: usize, kind: FaultKind) -> Self {
        self.scripted.insert(
            n,
            Fault {
                kind,
                tear: Some(bytes),
            },
        );
        self
    }

    /// Simulates a process abort at operation `n`: that operation and every
    /// later one fail, cleanup included. If operation `n` is a write, its
    /// first `tear` bytes are persisted first.
    pub fn abort_at(mut self, n: u64, tear: usize) -> Self {
        self.abort_at = Some(n);
        self.abort_tear = tear;
        self
    }

    /// Makes every mutating operation fail with EACCES, as a cache
    /// directory on a read-only mount would.
    pub fn read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    /// Adds pseudo-random faults: each operation independently fails with
    /// probability `permille / 1000`, deterministically derived from
    /// `seed`, the operation kind, the record it touches, and how often
    /// that (kind, record) pair was tried before.
    pub fn seeded(mut self, seed: u64, permille: u32) -> Self {
        self.seeded = Some((seed, permille.min(1000)));
        self
    }
}

/// The operation kinds of [`CacheIo`], for keying seeded decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OpKind {
    Read,
    WriteFile,
    Rename,
    RemoveFile,
    ListDir,
    CreateExclusive,
}

/// The record a file operation touches: the FNV-1a hash of its file name up
/// to the first `.`, which is the digest a record, its temporary files and
/// its tries share (`{digest}.wpsim`, `{digest}.wpsim.tmp{pid}.{seq}`).
fn record_of(path: &Path) -> u64 {
    let name = path
        .file_name()
        .and_then(|name| name.to_str())
        .unwrap_or("");
    let mut hasher = Fnv1a::new();
    hasher.write(name.split('.').next().unwrap_or("").as_bytes());
    hasher.finish()
}

/// What [`FaultyIo`] decided for one operation.
enum Decision {
    /// Pass through to the inner backend.
    Pass,
    /// Fail; for writes, persist `tear` bytes first.
    Inject(Fault),
}

/// A deterministic fault-injecting [`CacheIo`] wrapper. See the module
/// docs for the fault model; construction goes through [`FaultPlan`] or
/// the [`FaultyIo::seeded`] / [`FaultyIo::read_only`] shorthands.
#[derive(Debug)]
pub struct FaultyIo {
    inner: Arc<dyn CacheIo>,
    plan: FaultPlan,
    ops: AtomicU64,
    injected: AtomicU64,
    aborted: AtomicBool,
    /// Tries so far per (kind, record); directory-level operations use
    /// record 0. Kept only under a seeded plan.
    attempts: Mutex<HashMap<(OpKind, u64), u64>>,
}

/// SplitMix64: the per-operation hash behind seeded fault decisions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultyIo {
    /// Wraps `inner` with a fault plan.
    pub fn new(inner: Arc<dyn CacheIo>, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// A seeded pseudo-random fault injector over the real filesystem:
    /// each operation fails with probability `permille / 1000`. Same seed,
    /// same fault sequence — the crash harness's workhorse.
    pub fn seeded(seed: u64, permille: u32) -> Self {
        Self::new(Arc::new(FsIo), FaultPlan::new().seeded(seed, permille))
    }

    /// A backend on which every mutating operation fails with EACCES.
    pub fn read_only() -> Self {
        Self::new(Arc::new(FsIo), FaultPlan::new().read_only())
    }

    /// A backend scripted by `plan` over the real filesystem.
    pub fn with_plan(plan: FaultPlan) -> Self {
        Self::new(Arc::new(FsIo), plan)
    }

    /// The fault injector the `WPSDM_MATRIX_CACHE_FAULT_SEED` environment
    /// variable asks for, if set: `SEED` or `SEED:PERMILLE` (default 100,
    /// i.e. a 10% per-operation fault rate). Unparseable values are
    /// reported on stderr and ignored — a broken testing knob must not take
    /// the binaries down.
    pub fn from_env() -> Option<Arc<dyn CacheIo>> {
        Self::from_env_value(&std::env::var("WPSDM_MATRIX_CACHE_FAULT_SEED").ok()?)
    }

    /// [`FaultyIo::from_env`]'s parser, split out so tests can exercise it
    /// without mutating process-global environment.
    pub fn from_env_value(raw: &str) -> Option<Arc<dyn CacheIo>> {
        let (seed_text, permille_text) = match raw.split_once(':') {
            Some((seed, permille)) => (seed, Some(permille)),
            None => (raw, None),
        };
        let seed: u64 = match seed_text.trim().parse() {
            Ok(seed) => seed,
            Err(_) => {
                eprintln!(
                    "warning: ignoring unparseable WPSDM_MATRIX_CACHE_FAULT_SEED `{raw}` \
                     (expected SEED or SEED:PERMILLE)"
                );
                return None;
            }
        };
        let permille: u32 = match permille_text {
            None => 100,
            Some(text) => match text.trim().parse() {
                Ok(permille) => permille,
                Err(_) => {
                    eprintln!(
                        "warning: ignoring unparseable WPSDM_MATRIX_CACHE_FAULT_SEED `{raw}` \
                         (expected SEED or SEED:PERMILLE)"
                    );
                    return None;
                }
            },
        };
        Some(Arc::new(Self::seeded(seed, permille)))
    }

    /// How many operations have been issued through this backend.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// How many faults have been injected.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// True once a scripted abort has fired (everything fails from there).
    pub fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Decides the fate of the next operation: one of `kind` on the record
    /// of `file`, or on the directory itself when `file` is `None`.
    fn decide(&self, kind: OpKind, file: Option<&Path>) -> Decision {
        let index = self.ops.fetch_add(1, Ordering::Relaxed);
        let attempt = self.plan.seeded.map(|_| {
            let record = file.map_or(0, record_of);
            let mut attempts = self.attempts.lock().expect("fault attempts poisoned");
            let tries = attempts.entry((kind, record)).or_insert(0);
            *tries += 1;
            (record, *tries - 1)
        });
        if self.aborted.load(Ordering::Relaxed) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Decision::Inject(Fault {
                kind: FaultKind::Eio,
                tear: None,
            });
        }
        if self.plan.abort_at == Some(index) {
            self.aborted.store(true, Ordering::Relaxed);
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Decision::Inject(Fault {
                kind: FaultKind::Eio,
                tear: Some(self.plan.abort_tear),
            });
        }
        if self.plan.read_only && !matches!(kind, OpKind::Read | OpKind::ListDir) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Decision::Inject(Fault {
                kind: FaultKind::PermissionDenied,
                tear: None,
            });
        }
        if let Some(&fault) = self.plan.scripted.get(&index) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Decision::Inject(fault);
        }
        if let (Some((seed, permille)), Some((record, attempt))) = (self.plan.seeded, attempt) {
            let key = splitmix64(splitmix64(record ^ kind as u64) ^ attempt);
            let hash = splitmix64(seed ^ key);
            if ((hash % 1000) as u32) < permille {
                self.injected.fetch_add(1, Ordering::Relaxed);
                let kind = match (hash >> 10) % 3 {
                    0 => FaultKind::Eio,
                    1 => FaultKind::Enospc,
                    _ => FaultKind::PermissionDenied,
                };
                // Roughly half the injected write faults tear: the torn
                // prefix length is drawn from the hash too.
                let tear = if (hash >> 12) & 1 == 0 {
                    Some(((hash >> 13) % 512) as usize)
                } else {
                    None
                };
                return Decision::Inject(Fault { kind, tear });
            }
        }
        Decision::Pass
    }
}

impl CacheIo for FaultyIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.decide(OpKind::Read, Some(path)) {
            Decision::Pass => self.inner.read(path),
            Decision::Inject(fault) => Err(fault.kind.error()),
        }
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.decide(OpKind::WriteFile, Some(path)) {
            Decision::Pass => self.inner.write_file(path, bytes),
            Decision::Inject(fault) => {
                if let Some(tear) = fault.tear {
                    // A torn write: a prefix of the record lands on disk,
                    // then the operation fails. Best-effort — if even the
                    // torn write fails the outcome is simply "no bytes".
                    let torn = &bytes[..tear.min(bytes.len())];
                    let _ = self.inner.write_file(path, torn);
                }
                Err(fault.kind.error())
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.decide(OpKind::Rename, Some(to)) {
            Decision::Pass => self.inner.rename(from, to),
            Decision::Inject(fault) => Err(fault.kind.error()),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.decide(OpKind::RemoveFile, Some(path)) {
            Decision::Pass => self.inner.remove_file(path),
            Decision::Inject(fault) => Err(fault.kind.error()),
        }
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<DirEntry>> {
        match self.decide(OpKind::ListDir, None) {
            Decision::Pass => self.inner.list_dir(path),
            Decision::Inject(fault) => Err(fault.kind.error()),
        }
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.decide(OpKind::CreateExclusive, Some(path)) {
            Decision::Pass => self.inner.create_exclusive(path, bytes),
            Decision::Inject(fault) => Err(fault.kind.error()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wpsdm-storage-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fs_io_round_trips_files_and_lists_them() {
        let dir = temp_dir("fsio");
        let io = FsIo;
        std::fs::create_dir_all(&dir).expect("mkdir");
        io.write_file(&dir.join("a.bin"), b"hello").expect("write");
        io.rename(&dir.join("a.bin"), &dir.join("b.bin"))
            .expect("rename");
        assert_eq!(io.read(&dir.join("b.bin")).expect("read"), b"hello");
        let entries = io.list_dir(&dir).expect("list");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "b.bin");
        assert_eq!(entries[0].len, 5);
        io.remove_file(&dir.join("b.bin")).expect("remove");
        assert!(io.list_dir(&dir).expect("list").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_exclusive_is_exclusive() {
        let dir = temp_dir("excl");
        let io = FsIo;
        std::fs::create_dir_all(&dir).expect("mkdir");
        let lock = dir.join("evict.lock");
        io.create_exclusive(&lock, b"1").expect("first lock");
        let second = io.create_exclusive(&lock, b"2");
        assert_eq!(
            second.expect_err("second lock must fail").kind(),
            io::ErrorKind::AlreadyExists
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_decisions_are_deterministic() {
        let dir = temp_dir("seeded");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let outcomes = |seed: u64| -> Vec<bool> {
            let io = FaultyIo::seeded(seed, 300);
            (0..64)
                .map(|i| io.write_file(&dir.join(format!("probe-{i}")), b"x").is_ok())
                .collect()
        };
        assert_eq!(outcomes(7), outcomes(7), "same seed, same faults");
        assert_ne!(outcomes(7), outcomes(8), "different seed, different faults");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A backend on which every operation succeeds and touches nothing.
    #[derive(Debug)]
    struct NullIo;

    impl CacheIo for NullIo {
        fn read(&self, _: &Path) -> io::Result<Vec<u8>> {
            Ok(Vec::new())
        }
        fn write_file(&self, _: &Path, _: &[u8]) -> io::Result<()> {
            Ok(())
        }
        fn rename(&self, _: &Path, _: &Path) -> io::Result<()> {
            Ok(())
        }
        fn remove_file(&self, _: &Path) -> io::Result<()> {
            Ok(())
        }
        fn list_dir(&self, _: &Path) -> io::Result<Vec<DirEntry>> {
            Ok(Vec::new())
        }
        fn create_exclusive(&self, _: &Path, _: &[u8]) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn seeded_faults_follow_the_record_not_the_operation_order() {
        let dir = Path::new("cache");
        let records: Vec<String> = (1..=48u64)
            .map(|i| format!("{:016x}", splitmix64(i)))
            .collect();
        // Per record, what a cold and a warm pass issue: a load, a store's
        // tmp write and rename, and a second load. `step` keeps each
        // record's own order; the two runs interleave records differently.
        let run = |order: &[(usize, u8)]| -> BTreeMap<(usize, u8), bool> {
            let io = FaultyIo::new(Arc::new(NullIo), FaultPlan::new().seeded(42, 300));
            order
                .iter()
                .enumerate()
                .map(|(seq, &(r, step))| {
                    let record = dir.join(format!("{}.wpsim", records[r]));
                    // Tmp names carry a pid and sequence number that differ
                    // from run to run; only the digest part keys a fault.
                    let tmp = dir.join(format!("{}.wpsim.tmp{}.{seq}", records[r], 100 + step));
                    let ok = match step {
                        0 | 3 => io.read(&record).is_ok(),
                        1 => io.write_file(&tmp, b"record").is_ok(),
                        _ => io.rename(&tmp, &record).is_ok(),
                    };
                    ((r, step), ok)
                })
                .collect()
        };
        let record_major: Vec<(usize, u8)> = (0..records.len())
            .flat_map(|r| (0..4).map(move |step| (r, step)))
            .collect();
        let step_major: Vec<(usize, u8)> = (0..4)
            .flat_map(|step| (0..records.len()).rev().map(move |r| (r, step)))
            .collect();
        let a = run(&record_major);
        let b = run(&step_major);
        assert_eq!(a, b, "each record sees the same faults in either order");
        let injected = a.values().filter(|ok| !**ok).count();
        assert!(
            injected > 0 && injected < a.len(),
            "the plan must both pass and fail operations ({injected} of {} failed)",
            a.len()
        );
    }

    #[test]
    fn scripted_faults_hit_their_operation_and_tear_writes() {
        let dir = temp_dir("scripted");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let io = FaultyIo::with_plan(FaultPlan::new().fail_nth(1, FaultKind::Enospc).tear_write(
            2,
            3,
            FaultKind::Eio,
        ));
        // Op 0 passes.
        io.write_file(&dir.join("ok.bin"), b"abcdef").expect("op 0");
        // Op 1 fails ENOSPC, nothing written.
        let err = io
            .write_file(&dir.join("gone.bin"), b"abcdef")
            .expect_err("op 1 must fail");
        assert_eq!(err.raw_os_error(), Some(28), "must be ENOSPC-shaped");
        assert!(!dir.join("gone.bin").exists());
        // Op 2 tears: exactly 3 bytes land, then EIO.
        let err = io
            .write_file(&dir.join("torn.bin"), b"abcdef")
            .expect_err("op 2 must fail");
        assert_eq!(err.to_string(), FaultKind::Eio.error().to_string());
        assert_eq!(std::fs::read(dir.join("torn.bin")).expect("torn"), b"abc");
        assert_eq!(io.ops(), 3);
        assert_eq!(io.injected(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abort_fails_everything_from_the_abort_point() {
        let dir = temp_dir("abort");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let io = FaultyIo::with_plan(FaultPlan::new().abort_at(1, 2));
        io.write_file(&dir.join("before.bin"), b"abcd")
            .expect("op 0");
        let err = io
            .write_file(&dir.join("during.bin"), b"abcd")
            .expect_err("abort op");
        assert_eq!(err.to_string(), FaultKind::Eio.error().to_string());
        assert_eq!(
            std::fs::read(dir.join("during.bin")).expect("torn"),
            b"ab",
            "the aborted write persists its torn prefix"
        );
        assert!(io.aborted());
        // Everything after the abort fails, reads and cleanup included.
        assert!(io.read(&dir.join("before.bin")).is_err());
        assert!(io.remove_file(&dir.join("before.bin")).is_err());
        assert!(dir.join("before.bin").exists(), "cleanup never ran");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_fails_mutations_but_allows_reads() {
        let dir = temp_dir("readonly");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("existing.bin"), b"data").expect("seed file");
        let io = FaultyIo::read_only();
        assert_eq!(
            io.write_file(&dir.join("new.bin"), b"x")
                .expect_err("writes must fail")
                .kind(),
            io::ErrorKind::PermissionDenied
        );
        assert_eq!(
            io.read(&dir.join("existing.bin")).expect("reads pass"),
            b"data"
        );
        assert_eq!(io.list_dir(&dir).expect("lists pass").len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_env_value_parses_seed_and_permille() {
        assert!(FaultyIo::from_env_value("7").is_some());
        assert!(FaultyIo::from_env_value("7:250").is_some());
        assert!(FaultyIo::from_env_value(" 7 : 250 ").is_some());
        assert!(FaultyIo::from_env_value("nonsense").is_none());
        assert!(FaultyIo::from_env_value("7:many").is_none());
        assert!(FaultyIo::from_env_value("").is_none());
    }
}
