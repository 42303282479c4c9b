//! On-disk reference traces: a versioned, compact binary format with a
//! human-readable text twin for inspection.
//!
//! The paper's evaluation — like the related way-memoization and
//! cache-level-prediction work — is driven by recorded reference streams.
//! This module lets any workload's [`MicroOp`] stream be captured once and
//! replayed bit-identically, so predictor policies can be compared on the
//! *same* accesses rather than regenerated synthetic ones.
//!
//! Three layers:
//!
//! * [`TraceWriter`] / [`TraceReader`] — the binary codec (format `WPTR`
//!   version 1, documented in `docs/TRACE_FORMAT.md`): a fixed little-endian
//!   header followed by one variable-length record per op, with
//!   delta+varint-compressed program counters and addresses;
//! * [`TextTraceWriter`] — the text twin, one op per line, for inspection
//!   and diffing; nothing reads it back, so `WPTR` is the one format the
//!   workspace decodes;
//! * [`TraceHandle`] / [`TraceReplay`] — a validated reference to a trace
//!   *file* (identity = version + record count + content digest, used by the
//!   experiment engine's dedup key) and the streaming iterator that replays
//!   it without materializing the trace in memory.
//!
//! # Example
//!
//! Capture a generator's stream into an in-memory buffer and replay it:
//!
//! ```
//! use std::io::Cursor;
//! use wp_workloads::{Benchmark, TraceConfig, TraceGenerator};
//! use wp_workloads::{TraceReader, TraceWriter};
//!
//! # fn main() -> Result<(), wp_workloads::TraceError> {
//! let config = TraceConfig::new(Benchmark::Gcc).with_ops(1_000);
//! let live: Vec<_> = TraceGenerator::new(config).collect();
//!
//! let mut writer = TraceWriter::new(Cursor::new(Vec::new()), "gcc demo")?;
//! for op in &live {
//!     writer.write_op(op)?;
//! }
//! let buffer = writer.finish()?.into_inner();
//!
//! let reader = TraceReader::new(Cursor::new(buffer))?;
//! assert_eq!(reader.records(), 1_000);
//! assert_eq!(reader.source(), "gcc demo");
//! let replayed: Vec<_> = reader.collect::<Result<_, _>>()?;
//! assert_eq!(replayed, live);
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use wp_mem::Addr;

use crate::op::{BranchClass, MicroOp, OpKind};

/// Magic bytes opening every binary trace file.
pub const TRACE_MAGIC: [u8; 4] = *b"WPTR";

/// The binary format version this build writes and the only one it reads.
pub const TRACE_VERSION: u16 = 1;

/// Byte offset of the record-count field in the binary header (patched by
/// [`TraceWriter::finish`]).
const COUNT_OFFSET: u64 = 8;

/// Record tag values (low three bits of the tag byte).
const TAG_INT: u8 = 0;
const TAG_FP: u8 = 1;
const TAG_LOAD: u8 = 2;
const TAG_STORE: u8 = 3;
const TAG_BRANCH: u8 = 4;
/// Branch class field (tag bits 3–4) and taken flag (tag bit 5).
const BRANCH_CLASS_SHIFT: u8 = 3;
const BRANCH_TAKEN_BIT: u8 = 1 << 5;

/// Errors produced by the trace codec.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `WPTR` magic.
    BadMagic([u8; 4]),
    /// The file's format version is not supported by this build.
    UnsupportedVersion(u16),
    /// The byte stream violates the format (context explains where).
    Corrupt(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic(m) => {
                write!(f, "not a wpsdm trace (magic {m:02x?}, expected \"WPTR\")")
            }
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (this build reads version {TRACE_VERSION})"
                )
            }
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// varint / zigzag primitives
// ---------------------------------------------------------------------------

/// LEB128-encodes `value` into `out`.
fn write_varint<W: Write>(out: &mut W, mut value: u64) -> io::Result<()> {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            return out.write_all(&[byte]);
        }
        out.write_all(&[byte | 0x80])?;
    }
}

/// Decodes one LEB128 value (at most ten bytes for a u64).
fn read_varint<R: Read>(input: &mut R) -> Result<u64, TraceError> {
    let mut value: u64 = 0;
    for shift in 0..10 {
        let mut byte = [0u8; 1];
        input.read_exact(&mut byte).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => {
                TraceError::Corrupt("record truncated mid-varint".into())
            }
            _ => TraceError::Io(e),
        })?;
        value |= u64::from(byte[0] & 0x7f) << (7 * shift);
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(TraceError::Corrupt("varint longer than 10 bytes".into()))
}

/// Zigzag-maps a signed delta onto an unsigned varint-friendly value.
fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// The wrapping two's-complement delta `to - from`, as a signed value.
fn delta(from: u64, to: u64) -> i64 {
    to.wrapping_sub(from) as i64
}

/// Applies a signed delta to a base value (inverse of [`delta`]).
fn apply_delta(from: u64, d: i64) -> u64 {
    from.wrapping_add(d as u64)
}

// ---------------------------------------------------------------------------
// Binary writer
// ---------------------------------------------------------------------------

/// Streaming binary trace writer.
///
/// Records are encoded as they arrive; [`TraceWriter::finish`] patches the
/// record count into the header, so the op count need not be known up front
/// and any `Write + Seek` sink works (files, `Cursor<Vec<u8>>`).
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    out: W,
    records: u64,
    prev_pc: Addr,
    prev_data_addr: Addr,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates a trace file at `path` (truncating any existing file) with
    /// the given human-readable source label.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file, or
    /// [`TraceError::Corrupt`] if `label` exceeds 65 535 bytes.
    pub fn create(path: &Path, label: &str) -> Result<Self, TraceError> {
        Self::new(BufWriter::new(File::create(path)?), label)
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Starts a trace on `out`, writing the header with a zero record count
    /// (patched on [`TraceWriter::finish`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error, or [`TraceError::Corrupt`] if `label` exceeds
    /// 65 535 bytes.
    pub fn new(mut out: W, label: &str) -> Result<Self, TraceError> {
        let label_len = u16::try_from(label.len())
            .map_err(|_| TraceError::Corrupt("source label longer than 65535 bytes".into()))?;
        out.write_all(&TRACE_MAGIC)?;
        out.write_all(&TRACE_VERSION.to_le_bytes())?;
        out.write_all(&0u16.to_le_bytes())?; // reserved flags
        out.write_all(&0u64.to_le_bytes())?; // record count, patched later
        out.write_all(&label_len.to_le_bytes())?;
        out.write_all(label.as_bytes())?;
        Ok(Self {
            out,
            records: 0,
            prev_pc: 0,
            prev_data_addr: 0,
        })
    }

    /// Appends one op.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying sink.
    pub fn write_op(&mut self, op: &MicroOp) -> Result<(), TraceError> {
        let (tag, payload): (u8, [Option<i64>; 2]) = match op.kind {
            OpKind::IntAlu => (TAG_INT, [None, None]),
            OpKind::FpAlu => (TAG_FP, [None, None]),
            OpKind::Load { addr, approx_addr } => (
                TAG_LOAD,
                [
                    Some(delta(self.prev_data_addr, addr)),
                    Some(delta(addr, approx_addr)),
                ],
            ),
            OpKind::Store { addr } => (TAG_STORE, [Some(delta(self.prev_data_addr, addr)), None]),
            OpKind::Branch {
                taken,
                target,
                class,
            } => {
                let class_bits = match class {
                    BranchClass::Conditional => 0u8,
                    BranchClass::Call => 1,
                    BranchClass::Return => 2,
                    BranchClass::Jump => 3,
                };
                let tag = TAG_BRANCH
                    | (class_bits << BRANCH_CLASS_SHIFT)
                    | if taken { BRANCH_TAKEN_BIT } else { 0 };
                (tag, [Some(delta(op.pc, target)), None])
            }
        };
        self.out.write_all(&[tag])?;
        write_varint(&mut self.out, zigzag(delta(self.prev_pc, op.pc)))?;
        for field in payload.into_iter().flatten() {
            write_varint(&mut self.out, zigzag(field))?;
        }
        write_varint(&mut self.out, u64::from(op.src_deps[0]))?;
        write_varint(&mut self.out, u64::from(op.src_deps[1]))?;

        self.prev_pc = op.pc;
        if let OpKind::Load { addr, .. } | OpKind::Store { addr } = op.kind {
            self.prev_data_addr = addr;
        }
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Patches the record count into the header, flushes, and returns the
    /// underlying sink.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from seeking, writing, or flushing.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.out.seek(SeekFrom::Start(COUNT_OFFSET))?;
        self.out.write_all(&self.records.to_le_bytes())?;
        self.out.seek(SeekFrom::End(0))?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Captures every op of `ops` into a new trace file at `path`, returning the
/// number of records written.
///
/// # Errors
///
/// Returns any error from creating or writing the file.
pub fn capture_to_file(
    ops: impl IntoIterator<Item = MicroOp>,
    path: &Path,
    label: &str,
) -> Result<u64, TraceError> {
    let mut writer = TraceWriter::create(path, label)?;
    for op in ops {
        writer.write_op(&op)?;
    }
    let records = writer.records();
    writer.finish()?;
    Ok(records)
}

// ---------------------------------------------------------------------------
// Binary reader
// ---------------------------------------------------------------------------

/// Streaming binary trace reader: an iterator of `Result<MicroOp, TraceError>`
/// that never materializes the whole trace.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: R,
    records: u64,
    read: u64,
    source: String,
    prev_pc: Addr,
    prev_data_addr: Addr,
}

impl TraceReader<BufReader<File>> {
    /// Opens the trace file at `path` and validates its header.
    ///
    /// # Errors
    ///
    /// Returns an I/O error, [`TraceError::BadMagic`],
    /// [`TraceError::UnsupportedVersion`], or [`TraceError::Corrupt`] for a
    /// malformed header.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Starts reading a trace from `input`, validating the header.
    ///
    /// # Errors
    ///
    /// Returns an I/O error, [`TraceError::BadMagic`],
    /// [`TraceError::UnsupportedVersion`], or [`TraceError::Corrupt`] for a
    /// malformed header.
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 4];
        input.read_exact(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let mut u16buf = [0u8; 2];
        input.read_exact(&mut u16buf)?;
        let version = u16::from_le_bytes(u16buf);
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        input.read_exact(&mut u16buf)?; // reserved flags
        let mut u64buf = [0u8; 8];
        input.read_exact(&mut u64buf)?;
        let records = u64::from_le_bytes(u64buf);
        input.read_exact(&mut u16buf)?;
        let mut label = vec![0u8; usize::from(u16::from_le_bytes(u16buf))];
        input.read_exact(&mut label)?;
        let source = String::from_utf8(label)
            .map_err(|_| TraceError::Corrupt("source label is not UTF-8".into()))?;
        Ok(Self {
            input,
            records,
            read: 0,
            source,
            prev_pc: 0,
            prev_data_addr: 0,
        })
    }

    /// Total records the header declares.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The human-readable source label recorded at capture time.
    pub fn source(&self) -> &str {
        &self.source
    }

    fn read_op(&mut self) -> Result<MicroOp, TraceError> {
        let mut tag = [0u8; 1];
        self.input
            .read_exact(&mut tag)
            .map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => TraceError::Corrupt(format!(
                    "file ends after {} of {} records",
                    self.read, self.records
                )),
                _ => TraceError::Io(e),
            })?;
        let tag = tag[0];
        let pc = apply_delta(self.prev_pc, unzigzag(read_varint(&mut self.input)?));
        let kind = match tag & 0x07 {
            TAG_INT => OpKind::IntAlu,
            TAG_FP => OpKind::FpAlu,
            TAG_LOAD => {
                let addr =
                    apply_delta(self.prev_data_addr, unzigzag(read_varint(&mut self.input)?));
                let approx_addr = apply_delta(addr, unzigzag(read_varint(&mut self.input)?));
                self.prev_data_addr = addr;
                OpKind::Load { addr, approx_addr }
            }
            TAG_STORE => {
                let addr =
                    apply_delta(self.prev_data_addr, unzigzag(read_varint(&mut self.input)?));
                self.prev_data_addr = addr;
                OpKind::Store { addr }
            }
            TAG_BRANCH => {
                let class = match (tag >> BRANCH_CLASS_SHIFT) & 0x03 {
                    0 => BranchClass::Conditional,
                    1 => BranchClass::Call,
                    2 => BranchClass::Return,
                    _ => BranchClass::Jump,
                };
                let target = apply_delta(pc, unzigzag(read_varint(&mut self.input)?));
                OpKind::Branch {
                    taken: tag & BRANCH_TAKEN_BIT != 0,
                    target,
                    class,
                }
            }
            other => {
                return Err(TraceError::Corrupt(format!(
                    "unknown record tag {other} at record {}",
                    self.read
                )))
            }
        };
        let dep = |v: u64, read: u64| -> Result<u16, TraceError> {
            u16::try_from(v).map_err(|_| {
                TraceError::Corrupt(format!("dependence distance {v} at record {read}"))
            })
        };
        let src_deps = [
            dep(read_varint(&mut self.input)?, self.read)?,
            dep(read_varint(&mut self.input)?, self.read)?,
        ];
        self.prev_pc = pc;
        Ok(MicroOp { pc, kind, src_deps })
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<MicroOp, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.read >= self.records {
            return None;
        }
        let op = self.read_op();
        self.read += 1;
        if op.is_err() {
            // Do not keep decoding past a corrupt record.
            self.read = self.records;
        }
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.records - self.read) as usize;
        (remaining, Some(remaining))
    }
}

// ---------------------------------------------------------------------------
// Text twin
// ---------------------------------------------------------------------------

/// Writer for the human-readable text twin of the binary format: a
/// `wptrace v1` header line, a `# source:` comment, then one op per line
/// (see `docs/TRACE_FORMAT.md`).
#[derive(Debug)]
pub struct TextTraceWriter<W: Write> {
    out: W,
    records: u64,
}

impl<W: Write> TextTraceWriter<W> {
    /// Starts a text trace on `out`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the sink, or [`TraceError::Corrupt`] if
    /// `label` contains control characters — the format is line-oriented,
    /// so an embedded newline would inject phantom records.
    pub fn new(mut out: W, label: &str) -> Result<Self, TraceError> {
        if label.chars().any(|c| c.is_control()) {
            return Err(TraceError::Corrupt(
                "source label must not contain control characters".into(),
            ));
        }
        writeln!(out, "wptrace v{TRACE_VERSION}")?;
        if !label.is_empty() {
            writeln!(out, "# source: {label}")?;
        }
        Ok(Self { out, records: 0 })
    }

    /// Appends one op as a text line.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the sink.
    pub fn write_op(&mut self, op: &MicroOp) -> Result<(), TraceError> {
        let [d0, d1] = op.src_deps;
        match op.kind {
            OpKind::IntAlu => writeln!(self.out, "I {:#x} {d0} {d1}", op.pc)?,
            OpKind::FpAlu => writeln!(self.out, "F {:#x} {d0} {d1}", op.pc)?,
            OpKind::Load { addr, approx_addr } => writeln!(
                self.out,
                "L {:#x} {addr:#x} {approx_addr:#x} {d0} {d1}",
                op.pc
            )?,
            OpKind::Store { addr } => writeln!(self.out, "S {:#x} {addr:#x} {d0} {d1}", op.pc)?,
            OpKind::Branch {
                taken,
                target,
                class,
            } => {
                let class = match class {
                    BranchClass::Conditional => 'c',
                    BranchClass::Call => 'C',
                    BranchClass::Return => 'R',
                    BranchClass::Jump => 'J',
                };
                let taken = if taken { 'T' } else { 'N' };
                writeln!(
                    self.out,
                    "B {:#x} {target:#x} {taken} {class} {d0} {d1}",
                    op.pc
                )?
            }
        }
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying sink.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from flushing.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

// ---------------------------------------------------------------------------
// File identity and replay
// ---------------------------------------------------------------------------

/// The content identity of a trace: format version, record count, and an
/// FNV-1a digest of the file's bytes. Two copies of the same capture — even
/// at different paths — have equal identities, which is what the experiment
/// engine's dedup key uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId {
    /// Format version of the file.
    pub version: u16,
    /// Number of records the header declares.
    pub records: u64,
    /// FNV-1a (64-bit) digest over the entire file contents.
    pub digest: u64,
}

/// A validated reference to a binary trace file: the path it was opened
/// from plus its content [`TraceId`].
///
/// Equality and hashing use the **identity only**, not the path, so a trace
/// copied to two locations deduplicates to one simulation in the experiment
/// engine.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    path: PathBuf,
    id: TraceId,
    source: String,
}

impl PartialEq for TraceHandle {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for TraceHandle {}

impl std::hash::Hash for TraceHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl TraceHandle {
    /// Opens and validates the trace at `path`: checks the header and
    /// computes the content digest (one streaming pass over the file).
    ///
    /// # Errors
    ///
    /// Returns an I/O error or any header-validation error from
    /// [`TraceReader::open`].
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, TraceError> {
        let path = path.into();
        let reader = TraceReader::open(&path)?;
        let records = reader.records();
        let source = reader.source().to_string();
        let digest = file_digest(&path)?;
        Ok(Self {
            path,
            id: TraceId {
                version: TRACE_VERSION,
                records,
                digest,
            },
            source,
        })
    }

    /// The path the handle was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The content identity used for dedup.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Number of records in the trace.
    pub fn records(&self) -> u64 {
        self.id.records
    }

    /// The source label recorded at capture time.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// A short display label: the file stem plus the digest prefix.
    pub fn label(&self) -> String {
        let stem = self
            .path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_string());
        format!("trace:{stem}#{:08x}", self.id.digest as u32)
    }

    /// Opens a streaming replay of this trace.
    ///
    /// # Errors
    ///
    /// Returns an I/O or header-validation error from re-opening the file.
    pub fn replay(&self) -> Result<TraceReplay, TraceError> {
        Ok(TraceReplay {
            reader: TraceReader::open(&self.path)?,
            path: self.path.clone(),
        })
    }
}

/// A deterministic, Rust-version-stable 64-bit FNV-1a hasher — the one
/// content-identity hash of the workspace, shared by the trace digest and
/// the experiment engine's on-disk result cache. (The standard library's
/// default hasher is randomly keyed per process, which would make on-disk
/// identities unstable.)
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    // The integer methods are overridden with explicit little-endian
    // encodings (usize widened to u64): the std defaults feed native-endian,
    // pointer-width-dependent bytes and are documented as unstable across
    // releases, which would break on-disk identities derived through
    // `#[derive(Hash)]`.

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// FNV-1a (64-bit) digest over a file's bytes, streamed in 64 KiB chunks.
///
/// # Errors
///
/// Returns any I/O error from reading the file.
pub fn file_digest(path: &Path) -> Result<u64, TraceError> {
    use std::hash::Hasher as _;
    let mut file = File::open(path)?;
    let mut hash = Fnv1a::new();
    let mut buffer = [0u8; 64 * 1024];
    loop {
        let n = file.read(&mut buffer)?;
        if n == 0 {
            return Ok(hash.finish());
        }
        hash.write(&buffer[..n]);
    }
}

/// A trace-file workload: streams [`MicroOp`]s off disk without
/// materializing the trace, so it plugs into [`wp_cpu`-style]
/// `run(impl IntoIterator<Item = MicroOp>)` consumers exactly like a live
/// generator.
///
/// [`wp_cpu`-style]: crate::TraceGenerator
///
/// # Panics
///
/// Iteration panics if the file is corrupt or truncated mid-record — the
/// header was validated when the [`TraceHandle`] was opened, so a mid-stream
/// decode failure means the file changed underneath the simulation and the
/// run's results would be meaningless.
#[derive(Debug)]
pub struct TraceReplay {
    reader: TraceReader<BufReader<File>>,
    path: PathBuf,
}

impl TraceReplay {
    /// Opens a replay directly from a path (validating the header).
    ///
    /// # Errors
    ///
    /// Returns an I/O or header-validation error.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, TraceError> {
        let path = path.into();
        Ok(Self {
            reader: TraceReader::open(&path)?,
            path,
        })
    }

    /// Total records the trace declares.
    pub fn records(&self) -> u64 {
        self.reader.records()
    }

    /// The source label recorded at capture time.
    pub fn source(&self) -> &str {
        self.reader.source()
    }
}

impl Iterator for TraceReplay {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        self.reader.next().map(|op| {
            op.unwrap_or_else(|e| panic!("trace {} failed mid-replay: {e}", self.path.display()))
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.reader.size_hint()
    }
}

impl ExactSizeIterator for TraceReplay {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Benchmark, TraceConfig, TraceGenerator};
    use std::io::Cursor;

    fn sample_ops() -> Vec<MicroOp> {
        TraceGenerator::generate(TraceConfig::new(Benchmark::Li).with_ops(5_000))
    }

    fn write_binary(ops: &[MicroOp]) -> Vec<u8> {
        let mut writer = TraceWriter::new(Cursor::new(Vec::new()), "test").expect("header");
        for op in ops {
            writer.write_op(op).expect("record");
        }
        writer.finish().expect("finish").into_inner()
    }

    #[test]
    fn binary_round_trip_is_bit_identical() {
        let ops = sample_ops();
        let bytes = write_binary(&ops);
        let reader = TraceReader::new(Cursor::new(bytes)).expect("header");
        assert_eq!(reader.records(), ops.len() as u64);
        assert_eq!(reader.source(), "test");
        let replayed: Vec<_> = reader.collect::<Result<_, _>>().expect("decode");
        assert_eq!(replayed, ops);
    }

    #[test]
    fn binary_format_is_compact() {
        let ops = sample_ops();
        let bytes = write_binary(&ops);
        // A naive fixed-width encoding of MicroOp costs >= 21 bytes/record
        // (tag + pc + one address + deps); delta+varint should beat half of
        // that comfortably on real streams.
        assert!(
            bytes.len() < ops.len() * 10,
            "encoding too large: {} bytes for {} ops",
            bytes.len(),
            ops.len()
        );
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let err = TraceReader::new(Cursor::new(b"NOPE\x01\x00".to_vec())).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic(_)));

        let mut bytes = write_binary(&sample_ops()[..4]);
        bytes[4] = 99; // version field
        let err = TraceReader::new(Cursor::new(bytes)).unwrap_err();
        assert!(matches!(err, TraceError::UnsupportedVersion(99)));
    }

    #[test]
    fn truncated_records_are_reported_once() {
        let ops = sample_ops();
        let mut bytes = write_binary(&ops);
        bytes.truncate(bytes.len() / 2);
        let reader = TraceReader::new(Cursor::new(bytes)).expect("header survives");
        let decoded: Vec<_> = reader.collect();
        assert!(decoded.last().expect("some records").is_err());
        assert_eq!(decoded.iter().filter(|r| r.is_err()).count(), 1);
    }

    #[test]
    fn text_writer_rejects_labels_with_control_characters() {
        let err = TextTraceWriter::new(Vec::new(), "demo\nI 0x0 0 0").unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)));
        assert!(TextTraceWriter::new(Vec::new(), "plain label").is_ok());
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for n in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(n)), n);
        }
        for (from, to) in [(0u64, u64::MAX), (u64::MAX, 0), (5, 3), (3, 5)] {
            assert_eq!(apply_delta(from, delta(from, to)), to);
        }
    }

    #[test]
    fn varint_round_trips() {
        for value in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, value).expect("write");
            let decoded = read_varint(&mut Cursor::new(buf)).expect("read");
            assert_eq!(decoded, value);
        }
    }
}
