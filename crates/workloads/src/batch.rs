//! Batched micro-op production.
//!
//! The processor's hot loop used to pull one [`MicroOp`] at a time through
//! an enum-dispatched iterator ([`crate::WorkloadStream`]), paying a
//! variant match per op. [`OpBlockSource`] inverts that: the source refills
//! a reusable fixed-size [`OpBuffer`] in blocks, resolving the source kind
//! once per block, and the consumer iterates a plain `&[MicroOp]` slice.
//! The op sequence is exactly the one the underlying iterator produces, so
//! block-driven and op-driven runs are bit-identical. A source holding its
//! ops in memory serves them in place ([`OpBlockSource::next_block`]).
//!
//! # Example
//!
//! ```
//! use wp_workloads::{Benchmark, OpBlockSource, OpBuffer, WorkloadSpec};
//!
//! let spec = WorkloadSpec::Benchmark(Benchmark::Gcc);
//! let mut stream = spec.stream(2_500, 42).expect("generated workload");
//! let mut buf = OpBuffer::new();
//! let mut total = 0;
//! while stream.fill(&mut buf) > 0 {
//!     total += buf.ops().len();
//! }
//! assert_eq!(total, 2_500);
//! ```

use crate::op::MicroOp;

/// Default number of ops per refill: large enough to amortise per-block
/// dispatch to nothing, small enough to stay resident in L1/L2.
pub const DEFAULT_OP_BLOCK: usize = 1024;

/// A reusable fixed-capacity micro-op buffer refilled by an
/// [`OpBlockSource`].
#[derive(Debug)]
pub struct OpBuffer {
    ops: Vec<MicroOp>,
    capacity: usize,
}

impl OpBuffer {
    /// A buffer of [`DEFAULT_OP_BLOCK`] capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_OP_BLOCK)
    }

    /// A buffer of the given capacity (clamped to at least one op).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ops: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum ops one refill can produce.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The ops of the current block.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Empties the buffer for the next refill.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// Appends one op; ignores ops beyond the capacity (sources check
    /// [`OpBuffer::is_full`] instead of relying on this).
    pub fn push(&mut self, op: MicroOp) {
        if self.ops.len() < self.capacity {
            self.ops.push(op);
        }
    }

    /// True once the current block holds `capacity` ops.
    pub fn is_full(&self) -> bool {
        self.ops.len() == self.capacity
    }

    /// Appends a slice of ops in one copy, truncating at the capacity —
    /// the bulk path shared-stream readers use instead of per-op pushes.
    pub fn push_slice(&mut self, ops: &[MicroOp]) {
        let room = self.capacity - self.ops.len();
        self.ops.extend_from_slice(&ops[..ops.len().min(room)]);
    }
}

impl Default for OpBuffer {
    fn default() -> Self {
        Self::new()
    }
}

/// A producer of micro-op blocks: generators, scenarios, and the trace
/// decoder all implement this so the processor consumes every source the
/// same way, one slice at a time.
pub trait OpBlockSource {
    /// Clears `buf` and refills it with up to `buf.capacity()` ops.
    /// Returns the number produced; `0` means the source is exhausted.
    fn fill(&mut self, buf: &mut OpBuffer) -> usize;

    /// The next block [`fill`](Self::fill) would produce, empty once the
    /// source is exhausted. The default fills `buf`; a source that holds
    /// its ops in memory returns them in place, without the copy.
    fn next_block<'b>(&'b mut self, buf: &'b mut OpBuffer) -> &'b [MicroOp] {
        self.fill(buf);
        buf.ops()
    }
}

/// Refills `buf` from any micro-op iterator — the shared body of every
/// [`OpBlockSource`] implementation.
pub fn fill_from_iter<I: Iterator<Item = MicroOp>>(iter: &mut I, buf: &mut OpBuffer) -> usize {
    buf.clear();
    while !buf.is_full() {
        match iter.next() {
            Some(op) => buf.push(op),
            None => break,
        }
    }
    buf.ops().len()
}

impl OpBlockSource for crate::generator::TraceGenerator {
    fn fill(&mut self, buf: &mut OpBuffer) -> usize {
        fill_from_iter(self, buf)
    }
}

impl OpBlockSource for crate::scenario::ScenarioGenerator {
    fn fill(&mut self, buf: &mut OpBuffer) -> usize {
        fill_from_iter(self, buf)
    }
}

impl OpBlockSource for crate::trace::TraceReplay {
    fn fill(&mut self, buf: &mut OpBuffer) -> usize {
        fill_from_iter(self, buf)
    }
}

/// Adapts any micro-op iterator into an [`OpBlockSource`] (the processor's
/// iterator-based `run` entry point wraps its trace in this to reuse the
/// block-driven loop).
#[derive(Debug)]
pub struct IterBlockSource<I>(pub I);

impl<I: Iterator<Item = MicroOp>> OpBlockSource for IterBlockSource<I> {
    fn fill(&mut self, buf: &mut OpBuffer) -> usize {
        fill_from_iter(&mut self.0, buf)
    }
}

/// The inverse adapter: any [`OpBlockSource`] walked one op at a time.
///
/// This is how a single materialized [`crate::SharedStream`] fans out to
/// *two* consumers with different appetites — the optimized processor pulls
/// blocks from one reader while a per-op reference simulator (the
/// `wp-oracle` conformance backend) iterates another through this adapter.
/// The sequence is exactly the one the source's blocks concatenate to.
///
/// # Example
///
/// ```
/// use wp_workloads::{Benchmark, BlockSourceIter, SharedStream, StreamKey, WorkloadSpec};
///
/// let key = StreamKey::new(WorkloadSpec::Benchmark(Benchmark::Li), 1_000, 7);
/// let stream = SharedStream::materialize(&key).expect("generated workload");
/// let ops: Vec<_> = BlockSourceIter::new(stream.reader().expect("in-memory")).collect();
/// let direct: Vec<_> = key.spec.stream(key.ops, key.seed).expect("opens").collect();
/// assert_eq!(ops, direct);
/// ```
#[derive(Debug)]
pub struct BlockSourceIter<S> {
    source: S,
    buf: OpBuffer,
    pos: usize,
}

impl<S: OpBlockSource> BlockSourceIter<S> {
    /// Wraps `source`, refilling a default-capacity buffer block by block.
    pub fn new(source: S) -> Self {
        Self {
            source,
            buf: OpBuffer::new(),
            pos: 0,
        }
    }
}

impl<S: OpBlockSource> Iterator for BlockSourceIter<S> {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        if self.pos == self.buf.ops().len() {
            // `fill` clears the buffer either way, so the cursor must
            // reset with it — including on exhaustion, which keeps the
            // iterator fused (polling past the end keeps returning None).
            self.pos = 0;
            if self.source.fill(&mut self.buf) == 0 {
                return None;
            }
        }
        let op = self.buf.ops()[self.pos];
        self.pos += 1;
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TraceConfig, TraceGenerator};
    use crate::profile::Benchmark;

    fn generator(ops: usize) -> TraceGenerator {
        TraceGenerator::new(TraceConfig::new(Benchmark::Li).with_ops(ops).with_seed(3))
    }

    #[test]
    fn blocks_reproduce_the_iterator_sequence_exactly() {
        let direct: Vec<MicroOp> = generator(5_000).collect();
        let mut source = IterBlockSource(generator(5_000));
        let mut buf = OpBuffer::with_capacity(768);
        let mut batched = Vec::new();
        while source.fill(&mut buf) > 0 {
            batched.extend_from_slice(buf.ops());
        }
        assert_eq!(batched, direct);
    }

    #[test]
    fn fill_reports_exhaustion_with_zero() {
        let mut source = IterBlockSource(generator(10));
        let mut buf = OpBuffer::with_capacity(64);
        assert_eq!(source.fill(&mut buf), 10);
        assert_eq!(source.fill(&mut buf), 0);
        assert!(buf.ops().is_empty());
    }

    #[test]
    fn block_source_iter_matches_and_is_fused() {
        let direct: Vec<MicroOp> = generator(2_500).collect();
        let mut iter = BlockSourceIter::new(generator(2_500));
        let walked: Vec<MicroOp> = iter.by_ref().collect();
        assert_eq!(walked, direct);
        // Polling past exhaustion keeps returning None (never panics).
        assert_eq!(iter.next(), None);
        assert_eq!(iter.next(), None);
    }

    #[test]
    fn buffer_capacity_is_respected() {
        let mut buf = OpBuffer::with_capacity(2);
        assert_eq!(buf.capacity(), 2);
        let op = MicroOp::independent(0x100, crate::op::OpKind::IntAlu);
        buf.push(op);
        assert!(!buf.is_full());
        buf.push(op);
        assert!(buf.is_full());
        buf.push(op);
        assert_eq!(buf.ops().len(), 2);
        buf.clear();
        assert!(buf.ops().is_empty());
        assert_eq!(OpBuffer::with_capacity(0).capacity(), 1);
    }
}
