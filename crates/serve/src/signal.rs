//! Minimal async-signal-safe SIGTERM/SIGINT latching.
//!
//! The daemon's contract is that `kill -TERM` (or ctrl-c) drains in-flight
//! work and exits 0. Registering a handler needs `libc::signal`, which the
//! workspace does not vendor — so this module carries the one `unsafe`
//! block in the crate, declared against the platform C library directly.
//! The handler does the only async-signal-safe thing possible: it stores a
//! relaxed atomic flag the main loop polls.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_signum: i32) {
    REQUESTED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Installs the latching handler for SIGTERM and SIGINT. Call once at
/// daemon startup; a no-op off Unix.
pub fn install() {
    #[cfg(unix)]
    unsafe {
        let handler = on_signal as *const () as usize;
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
    #[cfg(not(unix))]
    {
        let _ = on_signal as extern "C" fn(i32);
        let _ = (SIGINT, SIGTERM);
    }
}

/// True once SIGTERM or SIGINT has been delivered.
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}
