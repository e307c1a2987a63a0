//! Atomic counters and gauges, plus the span-style [`StageTimer`].

// ORDERING (max 9): Relaxed Counter/Gauge primitives by contract: single-value cells whose readers
// never infer other memory from them
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use crate::hist::Histogram;

/// A monotonically increasing counter. All operations are relaxed atomics —
/// counters are statistical, not synchronization primitives.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move in both directions (queue depth, active
/// sessions). Signed so that a decrement racing ahead of its matching
/// increment is representable instead of wrapping.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Set the gauge to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A span-style timer for stage-level latency breakdowns.
///
/// A request's life is a chain of stages (admission → batch → forward →
/// reply); `StageTimer` marks the chain's current position and [`lap`]s the
/// elapsed microseconds into a per-stage histogram, restarting the clock so
/// consecutive laps tile the total latency with no gaps or double counting.
///
/// [`lap`]: StageTimer::lap
#[derive(Debug)]
pub struct StageTimer {
    last: Instant,
}

impl Default for StageTimer {
    fn default() -> Self {
        Self::start()
    }
}

impl StageTimer {
    /// Start the timer at the current instant.
    #[inline]
    pub fn start() -> Self {
        StageTimer { last: Instant::now() }
    }

    /// Record the microseconds since the previous lap (or start) into
    /// `stage`, restart the clock, and return the elapsed microseconds.
    #[inline]
    pub fn lap(&mut self, stage: &Histogram) -> f64 {
        let now = Instant::now();
        let us = now.duration_since(self.last).as_secs_f64() * 1e6;
        stage.record(us);
        self.last = now;
        us
    }
}

/// Track a high-water mark across threads: `observe` folds a candidate in
/// with `fetch_max`, `get` reads the current maximum.
#[derive(Debug, Default)]
pub struct HighWater(AtomicU64);

impl HighWater {
    /// A high-water mark starting at zero.
    pub const fn new() -> Self {
        HighWater(AtomicU64::new(0))
    }

    /// Fold `v` into the maximum.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current maximum.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn stage_timer_laps_tile_the_total() {
        let a = Histogram::new();
        let b = Histogram::new();
        let mut t = StageTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let lap_a = t.lap(&a);
        let lap_b = t.lap(&b);
        assert!(lap_a >= 1000.0, "first lap should cover the sleep, got {lap_a}");
        assert!(lap_b < lap_a, "second lap restarts the clock");
        assert_eq!(a.count(), 1);
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn high_water_keeps_the_max() {
        let h = HighWater::new();
        h.observe(10);
        h.observe(3);
        h.observe(17);
        assert_eq!(h.get(), 17);
    }
}
