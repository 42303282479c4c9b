//! Shared workload streams for gang-scheduled sweeps.
//!
//! A parameter sweep evaluates many machine configurations over few
//! workloads: every point whose `(workload, ops, seed)` triple matches
//! consumes the *identical* micro-op stream, yet a naive sweep regenerates
//! it per point, paying the full generator/scenario/trace-decode cost each
//! time. [`StreamKey`] names that shared identity, and [`SharedStream`]
//! materializes the stream for a key exactly once so any number of
//! consumers ("the gang") can replay it from [`SharedStream::reader`] —
//! each reader serves the stream block by block, so the consumer-side loop
//! is the same as for a live generator. A resident stream's blocks are read
//! in place ([`OpBlockSource::next_block`]); [`OpBlockSource::fill`] copies
//! them into an [`OpBuffer`].
//!
//! Materialized streams are bounded: up to the byte cap the ops live in
//! one in-memory buffer (`ops × 40 B`; the default cap of
//! [`DEFAULT_STREAM_MEMORY_CAP`] holds ~1.6 M ops), and beyond it the
//! stream spills to a temporary file in the `WPTR` trace codec
//! ([`crate::trace`]) — the round-trip is bit-exact, so spilled and
//! in-memory replays produce the same op sequence. A reader replays a spill
//! file the way a trace workload is read, as a [`WorkloadStream::Replay`]
//! truncated to the stream's op count; so does an over-cap trace workload,
//! whose own file is borrowed in place. Spill files are deleted when the
//! [`SharedStream`] drops. A stream that only one consumer reads is better
//! not materialized at all: [`SharedStream::live`] hands that consumer the
//! live source, with no copy and no spill file.
//!
//! # Example
//!
//! ```
//! use wp_workloads::{Benchmark, OpBlockSource, OpBuffer, SharedStream, StreamKey, WorkloadSpec};
//!
//! let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Gcc), 3_000, 42);
//! let stream = SharedStream::materialize(&key).expect("generated workload");
//! assert_eq!(stream.ops(), 3_000);
//!
//! // Two consumers replay the one materialization independently.
//! for _ in 0..2 {
//!     let mut reader = stream.reader().expect("in-memory stream");
//!     let mut buf = OpBuffer::new();
//!     let mut total = 0;
//!     while reader.fill(&mut buf) > 0 {
//!         total += buf.ops().len();
//!     }
//!     assert_eq!(total, 3_000);
//! }
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::batch::{OpBlockSource, OpBuffer, DEFAULT_OP_BLOCK};
use crate::op::MicroOp;
use crate::trace::{TraceError, TraceReplay, TraceWriter};
use crate::workload::{WorkloadSpec, WorkloadStream};

/// Default per-stream memory cap before a materialized stream spills to the
/// `WPTR` codec: 64 MiB, ~1.6 M ops — comfortably above the sweep defaults
/// while bounding a gang's resident footprint.
pub const DEFAULT_STREAM_MEMORY_CAP: usize = 64 * 1024 * 1024;

/// Environment variable overriding the spill cap (bytes). A tiny value
/// forces every materialized stream down the spill path — how tests and CI
/// exercise the on-disk replay without generating 64 MiB of ops.
pub const STREAM_MEMORY_CAP_ENV: &str = "WPSDM_STREAM_MEMORY_CAP";

/// The effective spill cap: [`STREAM_MEMORY_CAP_ENV`] if set, else
/// [`DEFAULT_STREAM_MEMORY_CAP`]. Engines and [`SharedStream::materialize`]
/// consult this, so an environment override reaches every materialization
/// (every binary and the `wp-serve` daemon) without a code change.
pub fn stream_memory_cap() -> usize {
    cap_from_env_value(std::env::var_os(STREAM_MEMORY_CAP_ENV).as_deref())
}

/// Parses an override value; `None`, empty, or unparsable values fall back
/// to the default (a misconfigured cap must degrade to correct behaviour,
/// never to a panic — spilling is a memory knob, not a semantic one).
fn cap_from_env_value(value: Option<&std::ffi::OsStr>) -> usize {
    value
        .and_then(|v| v.to_str())
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_STREAM_MEMORY_CAP)
}

/// The identity of a workload *stream*: everything that determines the
/// micro-op sequence and nothing that does not.
///
/// Two simulation points with equal keys consume bit-identical streams
/// regardless of their machine configurations, so a sweep engine can group
/// points by key and materialize each stream once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreamKey {
    /// The workload generating the stream.
    pub spec: WorkloadSpec,
    /// Maximum ops produced.
    pub ops: usize,
    /// Generator seed (ignored by trace replays but kept in the key so it
    /// never splits or merges identities the engine relies on).
    pub seed: u64,
}

impl StreamKey {
    /// Builds the key.
    pub fn new(spec: WorkloadSpec, ops: usize, seed: u64) -> Self {
        Self { spec, ops, seed }
    }
}

impl std::fmt::Display for StreamKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} ops/seed {}", self.spec, self.ops, self.seed)
    }
}

/// Distinguishes concurrent spill files of one process.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
enum Storage {
    /// The whole stream, resident.
    Memory(Vec<MicroOp>),
    /// The stream encoded in a `WPTR` file: an `owned` temp spill (deleted
    /// on drop), or a borrowed pre-existing trace file (left alone).
    Spilled { path: PathBuf, owned: bool },
    /// Nothing stored: each reader opens the live source.
    Live(StreamKey),
}

/// One workload stream, produced once and replayable any number of times.
#[derive(Debug)]
pub struct SharedStream {
    ops: usize,
    storage: Storage,
}

impl SharedStream {
    /// Materializes the stream for `key` under the default memory cap
    /// ([`stream_memory_cap`]: the `WPSDM_STREAM_MEMORY_CAP` environment
    /// override if set, else [`DEFAULT_STREAM_MEMORY_CAP`]).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if a trace-file workload cannot be opened,
    /// or if spilling to the temp file fails.
    pub fn materialize(key: &StreamKey) -> Result<Self, TraceError> {
        Self::materialize_capped(key, stream_memory_cap())
    }

    /// Materializes the stream for `key`, keeping at most `cap_bytes` of
    /// ops in memory; longer streams spill to a `WPTR` temp file whose
    /// decode reproduces the generated sequence bit-exactly.
    ///
    /// # Errors
    ///
    /// See [`SharedStream::materialize`].
    pub fn materialize_capped(key: &StreamKey, cap_bytes: usize) -> Result<Self, TraceError> {
        Ok(Self::materialize_until(key, cap_bytes, &|| false)?
            .expect("a build that is never stopped completes"))
    }

    /// [`SharedStream::materialize_capped`], asking `stop` once per op
    /// block ([`DEFAULT_OP_BLOCK`] ops, the first block included). When it
    /// answers true the build ends early with `Ok(None)`, and any partial
    /// spill file is deleted before returning.
    ///
    /// # Errors
    ///
    /// See [`SharedStream::materialize`].
    pub fn materialize_until(
        key: &StreamKey,
        cap_bytes: usize,
        stop: &dyn Fn() -> bool,
    ) -> Result<Option<Self>, TraceError> {
        let cap_ops = (cap_bytes / std::mem::size_of::<MicroOp>()).max(1);
        // A trace-file workload that will not fit in memory already *is* a
        // `WPTR` file on disk: borrow it in place (the reader truncates at
        // `ops`) instead of decoding and re-encoding a byte-identical temp
        // copy.
        if let WorkloadSpec::Trace(handle) = &key.spec {
            let ops = key.ops.min(handle.records() as usize);
            if ops > cap_ops {
                return Ok(Some(Self {
                    ops,
                    storage: Storage::Spilled {
                        path: handle.path().to_path_buf(),
                        owned: false,
                    },
                }));
            }
        }
        let mut stream = key.spec.stream(key.ops, key.seed)?;
        let mut resident: Vec<MicroOp> = Vec::with_capacity(key.ops.min(cap_ops));
        let overflow = loop {
            if resident.len() % DEFAULT_OP_BLOCK == 0 && stop() {
                return Ok(None);
            }
            match stream.next() {
                Some(op) if resident.len() == cap_ops => break Some(op),
                Some(op) => resident.push(op),
                // The stream ended within the cap (exactly-at-cap included):
                // it stays resident.
                None => {
                    return Ok(Some(Self {
                        ops: resident.len(),
                        storage: Storage::Memory(resident),
                    }))
                }
            }
        };
        // Over the cap: spill everything — the already-collected prefix,
        // the op that overflowed, and the live rest — through the codec.
        // The owned stream exists before its file does, so that dropping it
        // on an early return (a stop or an error) deletes the partial file.
        let path = std::env::temp_dir().join(format!(
            "wpsdm-stream-spill-{}-{}.wptr",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut spilled = Self {
            ops: 0,
            storage: Storage::Spilled {
                path: path.clone(),
                owned: true,
            },
        };
        let mut writer = TraceWriter::create(&path, &key.spec.label())?;
        for (written, op) in resident.drain(..).chain(overflow).chain(stream).enumerate() {
            if written % DEFAULT_OP_BLOCK == 0 && stop() {
                return Ok(None);
            }
            writer.write_op(&op)?;
        }
        spilled.ops = writer.records() as usize;
        writer.finish()?;
        Ok(Some(spilled))
    }

    /// The stream for `key`, not materialized: every
    /// [`reader`](Self::reader) opens the live generator or trace replay
    /// and walks it as [`WorkloadSpec::stream`] produces it, so nothing is
    /// copied or spilled, and each reader pays the generation cost again.
    /// This suits a stream that one consumer reads.
    pub fn live(key: &StreamKey) -> Self {
        let ops = match &key.spec {
            WorkloadSpec::Trace(handle) => key.ops.min(handle.records() as usize),
            _ => key.ops,
        };
        Self {
            ops,
            storage: Storage::Live(key.clone()),
        }
    }

    /// Number of ops the stream holds (may be below the requested `ops` for
    /// trace workloads shorter than the request).
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// True if the stream lives in a file rather than memory.
    pub fn is_spilled(&self) -> bool {
        matches!(self.storage, Storage::Spilled { .. })
    }

    /// Opens an independent reader over the stream. Readers replay the
    /// identical op sequence the live generator produces, from the start,
    /// truncated to [`SharedStream::ops`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if a spill file or a live trace-file
    /// workload cannot be re-opened; in-memory and live generated streams
    /// never fail.
    pub fn reader(&self) -> Result<SharedStreamReader<'_>, TraceError> {
        Ok(match &self.storage {
            Storage::Memory(ops) => SharedStreamReader::Memory { ops, pos: 0 },
            Storage::Spilled { path, .. } => SharedStreamReader::Stream(WorkloadStream::Replay(
                TraceReplay::open(path)?.take(self.ops),
            )),
            Storage::Live(key) => SharedStreamReader::Stream(key.spec.stream(key.ops, key.seed)?),
        })
    }
}

impl Drop for SharedStream {
    fn drop(&mut self) {
        if let Storage::Spilled { path, owned: true } = &self.storage {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A block-producing cursor over a [`SharedStream`]; any number may be live
/// at once.
#[derive(Debug)]
pub enum SharedStreamReader<'a> {
    /// Serves blocks straight out of the resident op buffer.
    Memory {
        /// The whole materialized stream.
        ops: &'a [MicroOp],
        /// Next op to serve.
        pos: usize,
    },
    /// Reads a stream that is not resident the way a workload is read: a
    /// spill file or a borrowed trace file replays as a trace workload
    /// truncated to the stream's op count, and a live stream walks its
    /// source.
    Stream(WorkloadStream),
}

impl OpBlockSource for SharedStreamReader<'_> {
    fn fill(&mut self, buf: &mut OpBuffer) -> usize {
        match self {
            SharedStreamReader::Memory { ops, pos } => {
                buf.clear();
                let take = buf.capacity().min(ops.len() - *pos);
                buf.push_slice(&ops[*pos..*pos + take]);
                *pos += take;
                take
            }
            SharedStreamReader::Stream(stream) => stream.fill(buf),
        }
    }

    fn next_block<'b>(&'b mut self, buf: &'b mut OpBuffer) -> &'b [MicroOp] {
        let SharedStreamReader::Memory { ops, pos } = self else {
            self.fill(buf);
            return buf.ops();
        };
        let block = &ops[*pos..ops.len().min(*pos + buf.capacity())];
        *pos += block.len();
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Benchmark;
    use crate::scenario::Scenario;
    use std::cell::Cell;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes the tests that spill, so one of them can name the spill
    /// file the next build will create.
    fn spilling() -> MutexGuard<'static, ()> {
        static SPILLS: Mutex<()> = Mutex::new(());
        SPILLS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn drain(stream: &SharedStream) -> Vec<MicroOp> {
        let mut reader = stream.reader().expect("reader opens");
        let mut buf = OpBuffer::with_capacity(777);
        let mut all = Vec::new();
        while reader.fill(&mut buf) > 0 {
            all.extend_from_slice(buf.ops());
        }
        all
    }

    /// [`drain`] through `next_block` instead of `fill`.
    fn drain_blocks(stream: &SharedStream) -> Vec<MicroOp> {
        let mut reader = stream.reader().expect("reader opens");
        let mut buf = OpBuffer::with_capacity(777);
        let mut all = Vec::new();
        loop {
            let block = reader.next_block(&mut buf);
            if block.is_empty() {
                return all;
            }
            all.extend_from_slice(block);
        }
    }

    #[test]
    fn memory_stream_reproduces_the_live_sequence() {
        let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Li), 5_000, 9);
        let shared = SharedStream::materialize(&key).expect("generated");
        assert!(!shared.is_spilled());
        assert_eq!(shared.ops(), 5_000);
        let direct: Vec<MicroOp> = key.spec.stream(key.ops, key.seed).expect("opens").collect();
        assert_eq!(drain(&shared), direct);
        // A second reader replays from the start, unaffected by the first.
        assert_eq!(drain(&shared), direct);
        // So does each reader of a live stream, which stores nothing.
        let live = SharedStream::live(&key);
        assert_eq!((live.ops(), live.is_spilled()), (5_000, false));
        assert_eq!(drain(&live), direct);
        assert_eq!(drain(&live), direct);
    }

    #[test]
    fn next_block_yields_the_fill_blocks() {
        let _spills = spilling();
        // 5,000 ops in 777-op blocks: six full blocks and a short seventh.
        let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Perl), 5_000, 6);
        let resident = SharedStream::materialize(&key).expect("generated");
        let spilled = SharedStream::materialize_capped(&key, 1).expect("spills");
        let live = SharedStream::live(&key);
        assert!(!resident.is_spilled() && spilled.is_spilled());
        for stream in [&resident, &spilled, &live] {
            let mut filled = Vec::new();
            let mut reader = stream.reader().expect("reader opens");
            let mut buf = OpBuffer::with_capacity(777);
            while reader.fill(&mut buf) > 0 {
                filled.push(buf.ops().to_vec());
            }
            let mut blocks = Vec::new();
            let mut reader = stream.reader().expect("reader opens");
            loop {
                let block = reader.next_block(&mut buf);
                if block.is_empty() {
                    break;
                }
                blocks.push(block.to_vec());
            }
            assert_eq!(blocks.len(), 7);
            assert_eq!(blocks[6].len(), 5_000 - 6 * 777);
            assert_eq!(blocks, filled);
            assert!(reader.next_block(&mut buf).is_empty(), "stays exhausted");
        }
    }

    #[test]
    fn spilled_stream_reproduces_the_live_sequence() {
        let _spills = spilling();
        let key = StreamKey::new(WorkloadSpec::Scenario(Scenario::pointer_chase()), 4_000, 3);
        // A 1-byte cap forces the spill path immediately.
        let shared = SharedStream::materialize_capped(&key, 1).expect("spills");
        assert!(shared.is_spilled());
        assert_eq!(shared.ops(), 4_000);
        let direct: Vec<MicroOp> = key.spec.stream(key.ops, key.seed).expect("opens").collect();
        assert_eq!(drain(&shared), direct);
        assert_eq!(drain(&shared), direct);
    }

    #[test]
    fn spill_files_are_deleted_on_drop() {
        let _spills = spilling();
        let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Gcc), 500, 1);
        let shared = SharedStream::materialize_capped(&key, 1).expect("spills");
        let path = match &shared.storage {
            Storage::Spilled { path, owned } => {
                assert!(*owned, "a generated spill is owned");
                path.clone()
            }
            Storage::Memory(_) | Storage::Live(_) => panic!("stream must spill under a 1-byte cap"),
        };
        assert!(path.exists());
        drop(shared);
        assert!(!path.exists());
    }

    #[test]
    fn stream_exactly_at_the_cap_stays_resident() {
        let _spills = spilling();
        let ops = 64usize;
        let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Li), ops, 5);
        let cap = ops * std::mem::size_of::<MicroOp>();
        let shared = SharedStream::materialize_capped(&key, cap).expect("fits");
        assert!(
            !shared.is_spilled(),
            "an exactly-at-cap stream must not spill"
        );
        assert_eq!(shared.ops(), ops);
        // One op over the cap spills.
        let over = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Li), ops + 1, 5);
        let spilled = SharedStream::materialize_capped(&over, cap).expect("spills");
        assert!(spilled.is_spilled());
        assert_eq!(spilled.ops(), ops + 1);
        let direct: Vec<MicroOp> = over
            .spec
            .stream(over.ops, over.seed)
            .expect("opens")
            .collect();
        assert_eq!(drain(&spilled), direct);
    }

    #[test]
    fn over_cap_trace_workloads_borrow_the_original_file() {
        // Capture a trace, then materialize it under a tiny cap: the
        // original file is used in place (not copied, not deleted) and the
        // reader truncates at the requested ops.
        let dir = std::env::temp_dir().join(format!("wpsdm-shared-trace-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("borrow.wptr");
        let source = WorkloadSpec::Benchmark(Benchmark::Gcc);
        let captured = source.stream(600, 2).expect("generated");
        crate::trace::capture_to_file(captured, &path, "borrow-test").expect("capture");
        let spec = WorkloadSpec::from_trace_file(&path).expect("opens");

        let key = StreamKey::new(spec.clone(), 400, 0);
        let shared = SharedStream::materialize_capped(&key, 1).expect("borrows");
        assert!(shared.is_spilled());
        assert_eq!(shared.ops(), 400, "truncates at the requested ops");
        // The first 400 ops of the live stream the file was captured from,
        // through both ways a reader serves blocks.
        let direct: Vec<MicroOp> = source
            .stream(600, 2)
            .expect("generated")
            .take(400)
            .collect();
        assert_eq!(drain(&shared), direct);
        assert_eq!(drain_blocks(&shared), direct);
        let live = SharedStream::live(&key);
        assert_eq!(live.ops(), 400, "a live replay truncates the same way");
        assert_eq!(drain(&live), direct);
        assert_eq!(drain_blocks(&live), direct);
        drop(shared);
        assert!(path.exists(), "a borrowed trace file must survive the drop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_cap_boundaries_are_exact() {
        let _spills = spilling();
        // A stream of exactly `cap` bytes stays resident; one byte less
        // spills; one byte more than the stream needs changes nothing.
        let ops = 48usize;
        let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Gcc), ops, 11);
        let stream_bytes = ops * std::mem::size_of::<MicroOp>();
        let direct: Vec<MicroOp> = key.spec.stream(key.ops, key.seed).expect("opens").collect();

        let at_cap = SharedStream::materialize_capped(&key, stream_bytes).expect("fits");
        assert!(!at_cap.is_spilled(), "exactly-at-cap must stay resident");
        assert_eq!(drain(&at_cap), direct);

        let below_cap = SharedStream::materialize_capped(&key, stream_bytes - 1).expect("spills");
        assert!(below_cap.is_spilled(), "cap minus one byte must spill");
        assert_eq!(drain(&below_cap), direct, "spilled replay is bit-exact");

        let above_cap = SharedStream::materialize_capped(&key, stream_bytes + 1).expect("fits");
        assert!(!above_cap.is_spilled(), "cap plus one byte must not spill");
        assert_eq!(drain(&above_cap), direct);
    }

    #[test]
    fn a_build_asks_to_stop_once_per_op_block() {
        let key = StreamKey::new(
            WorkloadSpec::Benchmark(Benchmark::Li),
            10 * DEFAULT_OP_BLOCK,
            4,
        );
        let asked = Cell::new(0);
        let resident = SharedStream::materialize_until(&key, usize::MAX, &|| {
            asked.set(asked.get() + 1);
            false
        })
        .expect("generated")
        .expect("never stopped");
        assert_eq!(resident.ops(), 10 * DEFAULT_OP_BLOCK);
        // Before each of the ten blocks, and once more at the end.
        assert_eq!(asked.get(), 11);

        asked.set(0);
        let stopped = SharedStream::materialize_until(&key, usize::MAX, &|| {
            asked.set(asked.get() + 1);
            asked.get() == 3
        })
        .expect("generated");
        assert!(stopped.is_none(), "the build stops when asked");
        assert_eq!(asked.get(), 3);
    }

    #[test]
    fn a_stopped_spill_deletes_its_partial_file() {
        let _spills = spilling();
        let key = StreamKey::new(
            WorkloadSpec::Benchmark(Benchmark::Gcc),
            10 * DEFAULT_OP_BLOCK,
            2,
        );
        let path = std::env::temp_dir().join(format!(
            "wpsdm-stream-spill-{}-{}.wptr",
            std::process::id(),
            SPILL_COUNTER.load(Ordering::Relaxed)
        ));
        let asked = Cell::new(0);
        let file_seen = Cell::new(false);
        // A 1-byte cap spills at the second op; the third question comes
        // one block into the spill.
        let stopped = SharedStream::materialize_until(&key, 1, &|| {
            asked.set(asked.get() + 1);
            file_seen.set(file_seen.get() || path.exists());
            asked.get() == 3
        })
        .expect("no I/O error");
        assert!(stopped.is_none());
        assert!(file_seen.get(), "the build had reached its spill file");
        assert!(!path.exists(), "a stopped build deletes its partial file");
    }

    #[test]
    fn env_cap_parser_falls_back_on_garbage() {
        use std::ffi::OsStr;
        assert_eq!(super::cap_from_env_value(None), DEFAULT_STREAM_MEMORY_CAP);
        assert_eq!(
            super::cap_from_env_value(Some(OsStr::new(""))),
            DEFAULT_STREAM_MEMORY_CAP
        );
        assert_eq!(
            super::cap_from_env_value(Some(OsStr::new("not-a-number"))),
            DEFAULT_STREAM_MEMORY_CAP
        );
        assert_eq!(super::cap_from_env_value(Some(OsStr::new("4096"))), 4096);
        assert_eq!(super::cap_from_env_value(Some(OsStr::new(" 80 "))), 80);
    }

    #[test]
    fn stream_keys_hash_by_identity() {
        use std::collections::HashSet;
        let spec = WorkloadSpec::Benchmark(Benchmark::Gcc);
        let mut set = HashSet::new();
        assert!(set.insert(StreamKey::new(spec.clone(), 100, 1)));
        assert!(!set.insert(StreamKey::new(spec.clone(), 100, 1)));
        assert!(set.insert(StreamKey::new(spec.clone(), 200, 1)));
        assert!(set.insert(StreamKey::new(spec, 100, 2)));
        assert!(set.insert(StreamKey::new(
            WorkloadSpec::Benchmark(Benchmark::Li),
            100,
            1
        )));
    }
}
