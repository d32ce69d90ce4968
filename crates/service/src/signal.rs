//! SIGINT/SIGTERM → a process-wide shutdown flag.
//!
//! The workspace carries no `libc`/`signal-hook` dependency, so the
//! daemon registers its handlers through the C `signal(2)` symbol libstd
//! already links. The handler does the only thing an async-signal-safe
//! handler may: flip an atomic. `tass-select serve` polls
//! [`shutdown_requested`] and runs the checkpointed shutdown path from
//! its normal thread context.

// the one module that needs FFI; the crate denies unsafe elsewhere
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install the SIGINT and SIGTERM handlers (idempotent).
pub fn install() {
    let handler = on_signal as extern "C" fn(i32) as usize;
    // SAFETY: signal(2) with a handler that only touches an atomic is
    // async-signal-safe; both signums are valid constants.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Whether a SIGINT/SIGTERM has arrived since [`install`].
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clear the flag: signals are process-global.
    fn reset() {
        SHUTDOWN.store(false, Ordering::SeqCst);
    }

    #[test]
    fn flag_flips_on_raised_signal() {
        install();
        reset();
        assert!(!shutdown_requested());
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        // SAFETY: raising SIGTERM at ourselves with the handler installed.
        unsafe {
            raise(SIGTERM);
        }
        assert!(shutdown_requested());
        reset();
    }
}
