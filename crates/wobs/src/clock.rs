//! Injected monotonic clocks.
//!
//! Library crates must not read the wall clock (clippy.toml bans it):
//! a wall-clock read is ambient, nondeterministic input, and WiMi results
//! must be bitwise reproducible under any thread count. Span timing is
//! therefore parameterised over a [`Clock`] trait. The default
//! [`NullClock`] reads nothing (every span lasts 0 ns); tests use the
//! deterministic [`TickClock`]; a real wall clock can be injected by
//! *binary* crates (the experiments runner ships one) where determinism
//! is explicitly waived.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic nanosecond source for span timing.
///
/// Implementations must be cheap and thread-safe: spans may open and close
/// concurrently inside the `WIMI_THREADS` fan-out.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Current reading in nanoseconds. Only differences are meaningful;
    /// the epoch is implementation-defined.
    fn now_ns(&self) -> u64;
}

/// The no-op default: always reads 0, so spans cost two branches and no
/// time syscalls. Counters and histograms still accumulate normally.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullClock;

impl Clock for NullClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        0
    }
}

/// A deterministic fake clock that advances by a fixed step on every
/// read. Useful for testing span accounting without wall time.
#[derive(Debug, Default)]
pub struct TickClock {
    step_ns: u64,
    reads: AtomicU64,
}

impl TickClock {
    /// A clock that advances `step_ns` nanoseconds per read.
    pub fn new(step_ns: u64) -> Self {
        TickClock {
            step_ns,
            reads: AtomicU64::new(0),
        }
    }
}

impl Clock for TickClock {
    fn now_ns(&self) -> u64 {
        let reads = self.reads.fetch_add(1, Ordering::Relaxed);
        reads.saturating_mul(self.step_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_clock_reads_zero() {
        assert_eq!(NullClock.now_ns(), 0);
        assert_eq!(NullClock.now_ns(), 0);
    }

    #[test]
    fn tick_clock_advances_per_read() {
        let c = TickClock::new(10);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 10);
        assert_eq!(c.now_ns(), 20);
    }
}
