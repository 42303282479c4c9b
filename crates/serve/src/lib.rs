//! Sweep-as-a-service: a crash-tolerant daemon over the simulation engine.
//!
//! The batch tools (`run_all`, `trace_replay`) pay full simulation cost per
//! invocation; `wp-serve` keeps a warm [`wp_experiments::MatrixCache`] and a
//! fixed worker pool behind a versioned length-prefixed JSON protocol
//! ([`protocol`]), so interactive sweeps get cached points in microseconds
//! and fresh points exactly once — with four robustness layers the batch
//! path never needed:
//!
//! - **Admission control** ([`server`]): a bounded queue that sheds with a
//!   typed `overloaded` error instead of stalling, plus a per-connection
//!   request budget.
//! - **Deadlines** ([`wp_experiments::CancelToken`]): every request carries
//!   (or inherits) a deadline; simulations cancel cooperatively at op-block
//!   granularity and report partial progress.
//! - **Cross-request singleflight** ([`wp_experiments::PointService`]):
//!   identical concurrent points execute once; every caller gets the same
//!   bytes.
//! - **Graceful degradation + crash idempotence**: the matrix cache's
//!   circuit breaker turns storage faults into compute-only service, and a
//!   `kill -9` + restart serves warm results bit-identical to the cold
//!   batch path.
//!
//! `docs/SERVICE.md` documents the wire protocol and the operational
//! runbook; the `serve` and `serve_client` binaries are thin CLIs over
//! [`server`] and [`client`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod signal;
mod warm;

pub use client::Client;
pub use server::{start, Listen, RunningServer, ServerConfig};
