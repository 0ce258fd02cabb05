//! Dependency-free POSIX signal hook for graceful drain.
//!
//! The daemon must finish in-flight queries and flush telemetry on
//! SIGTERM/SIGINT instead of dying mid-response. The handler does the
//! only async-signal-safe thing possible: set a flag. The accept loop
//! polls [`termination_requested`] and runs the drain itself.

use std::sync::atomic::AtomicBool;

static TERMINATE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_sig: i32) {
        // A relaxed store of a static atomic is async-signal-safe.
        super::TERMINATE.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

/// Install the SIGTERM/SIGINT → flag handler (no-op off Unix; the
/// shutdown flag can still be set programmatically).
pub fn install() {
    #[cfg(unix)]
    imp::install();
}

/// The flag the handler sets. Pass to [`crate::Server::run`] as the
/// shutdown signal, or poll/set it directly in tests.
pub fn termination_requested() -> &'static AtomicBool {
    &TERMINATE
}
