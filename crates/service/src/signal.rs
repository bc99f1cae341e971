//! Minimal async-signal-safe SIGTERM/SIGINT latch, without the `libc`
//! crate: `signal(2)` is declared directly against the C runtime that std
//! already links. The handler only flips a static flag — the accept loops
//! poll it and turn it into a graceful shutdown.

use std::sync::atomic::AtomicBool;

static SHUTDOWN_FLAG: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: a relaxed store.
        super::SHUTDOWN_FLAG.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    pub fn install() {}
}

/// Installs SIGTERM/SIGINT handlers (idempotent) and returns the latch the
/// handlers set. Pass it to [`crate::server::Server::serve_until_shutdown`].
pub fn install_shutdown_flag() -> &'static AtomicBool {
    sys::install();
    &SHUTDOWN_FLAG
}
