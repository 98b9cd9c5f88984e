//! Exponential backoff for wait loops.
//!
//! The resize protocol (Appendix B) and I/O completion paths contain loops
//! that wait for *another thread* to make progress — a chunk migrator waiting
//! for prepare-phase pinners to drain, a session waiting for async reads. Hot
//! `yield_now` spinning in those loops starves the very thread being waited
//! on when cores are scarce (a single-core host turns the wait into a
//! livelock). [`Backoff`] escalates spin → yield → capped sleep so a waiter's
//! CPU share decays geometrically while the latency cost on multi-core hosts
//! stays negligible (the first several iterations never leave userspace).

use std::time::Duration;

/// Number of leading iterations that only execute `spin_loop` hints.
const SPIN_LIMIT: u32 = 6;
/// Iterations (after spinning) that yield to the OS scheduler.
const YIELD_LIMIT: u32 = 10;
/// Cap on the sleep interval once the waiter starts sleeping.
const MAX_SLEEP: Duration = Duration::from_millis(1);

/// An exponential-backoff helper: `snooze()` costs ~nothing at first and
/// decays to a capped 1 ms sleep for long waits.
///
/// Unlike everything else in this crate, `snooze` may *block* (sleep); it is
/// meant for slow-path wait loops, never for latch-free operation paths.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// A fresh backoff at the cheapest (pure-spin) stage.
    pub const fn new() -> Self {
        Self { step: 0 }
    }

    /// Resets to the pure-spin stage — call after observing progress, so one
    /// slow interval does not penalize subsequent short waits.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Waits one backoff step: `2^step` spin hints, then OS yields, then
    /// exponentially growing sleeps capped at [`MAX_SLEEP`].
    pub fn snooze(&mut self) {
        if self.step <= SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step <= SPIN_LIMIT + YIELD_LIMIT {
            std::thread::yield_now();
        } else {
            let exp = (self.step - SPIN_LIMIT - YIELD_LIMIT).min(10);
            let sleep = Duration::from_micros(1u64 << exp).min(MAX_SLEEP);
            std::thread::sleep(sleep);
        }
        self.step = self.step.saturating_add(1);
    }
}
