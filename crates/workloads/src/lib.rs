//! Synthetic SPEC CPU95-like workloads for the wpsdm reproduction of
//! *Reducing Set-Associative Cache Energy via Way-Prediction and Selective
//! Direct-Mapping* (Powell et al., MICRO 2001).
//!
//! The paper evaluates eleven SPEC CPU95 applications (Table 2). We do not
//! have the binaries, inputs, or an Alpha ISA toolchain, so this crate
//! synthesises micro-op traces whose *statistical properties* match what the
//! techniques are sensitive to:
//!
//! * d-cache miss rates under direct-mapped and 4-way set-associative
//!   organisations (Table 4), including swim's pathological behaviour where
//!   the 4-way cache misses *more* than the direct-mapped one,
//! * per-instruction block locality (drives PC-based way-prediction
//!   accuracy, ~60 % on average),
//! * the accuracy of the XOR approximation of the load address (~70 %),
//! * the fraction of non-conflicting accesses captured by selective
//!   direct-mapping (~77 %),
//! * instruction-stream structure — basic-block lengths, call/return
//!   behaviour, branch bias, and code footprint (fpppp's footprint thrashes
//!   a 16 KB i-cache, every other benchmark fits comfortably).
//!
//! Traces are produced by [`TraceGenerator`], an iterator of [`MicroOp`]s
//! that is fully deterministic given a [`TraceConfig`] seed.
//!
//! Beyond the paper's profiles, the crate provides two more reference-stream
//! sources, unified behind [`WorkloadSpec`]:
//!
//! * [`scenario`] — parameterised stress scenarios (pointer chasing, strided
//!   streaming with configurable conflict pressure, a phase-switching mix);
//! * [`trace`] — a versioned on-disk trace format with capture
//!   ([`TraceWriter`]) and streaming replay ([`TraceReplay`]), so predictor
//!   policies can be compared on bit-identical recorded streams.
//!
//! # Example
//!
//! ```
//! use wp_workloads::{Benchmark, TraceConfig, TraceGenerator};
//!
//! let config = TraceConfig::new(Benchmark::Gcc).with_ops(10_000).with_seed(7);
//! let trace: Vec<_> = TraceGenerator::new(config).collect();
//! assert_eq!(trace.len(), 10_000);
//! // Identical configurations produce identical traces.
//! let again: Vec<_> = TraceGenerator::new(config).collect();
//! assert_eq!(trace, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod generator;
mod op;
mod profile;
pub mod profile_spec;
pub mod scenario;
pub mod shared;
pub mod trace;
mod workload;

pub use batch::{fill_from_iter, IterBlockSource, OpBlockSource, OpBuffer, DEFAULT_OP_BLOCK};
pub use generator::{TraceConfig, TraceGenerator};
pub use op::{BranchClass, MicroOp, OpKind};
pub use profile::{Benchmark, BenchmarkProfile};
pub use profile_spec::{ProfileError, ProfileSpec, ProfileTier, PROFILE_VERSION};
pub use scenario::{Scenario, ScenarioGenerator, REF_ASSOC};
pub use shared::{
    stream_memory_cap, SharedStream, SharedStreamReader, StreamKey, DEFAULT_STREAM_MEMORY_CAP,
    STREAM_MEMORY_CAP_ENV,
};
pub use trace::{
    capture_to_file, file_digest, Fnv1a, TextTraceWriter, TraceError, TraceHandle, TraceId,
    TraceReader, TraceReplay, TraceWriter, TRACE_MAGIC, TRACE_VERSION,
};
pub use workload::{WorkloadSpec, WorkloadStream};
