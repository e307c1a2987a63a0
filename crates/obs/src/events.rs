//! A fixed-capacity ring buffer of structured events with a leveled stderr
//! filter.
//!
//! Operational events (shed, swap, retrain, parse error, shutdown, …) are
//! rare relative to requests, so they can afford a `Mutex`-guarded ring.
//! A request that is admitted and answered never touches it; the one
//! request-path writer is the shed arm of `lmkg-serve`'s
//! `MicroBatcher::submit`, which logs a `shed` event per rejected request —
//! so the ring's lock sees request-rate traffic exactly when the queue is
//! overflowing. Every event is recorded in the
//! ring (bounded: the oldest entry is evicted at capacity) and counted
//! per-kind and per-level; whether it *also* goes to stderr is governed by
//! the `LMKG_LOG` environment variable (`off|error|warn|info|debug`,
//! default `info`), read once per [`EventLog`].

use std::collections::VecDeque;
// ORDERING (max 11): Relaxed seq/kind/level counters; the ring buffer body is guarded by its own
// mutex, and counts need no ordering relative to it
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Something failed and was not recovered transparently.
    Error,
    /// Something degraded (shed, blacklisted cell) but service continues.
    Warn,
    /// Normal operational milestones (swap, retrain, shutdown).
    Info,
    /// High-volume diagnostics (per-session lifecycle).
    Debug,
}

impl Level {
    /// Lowercase name used in the exposition text and `LMKG_LOG` values.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// The stderr verbosity parsed from `LMKG_LOG`. `None` means `off`.
fn stderr_filter_from_env() -> Option<Level> {
    match std::env::var("LMKG_LOG") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => None,
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "debug" | "trace" => Some(Level::Debug),
            // Unrecognised values fall back to the default rather than
            // silencing operational logging.
            _ => Some(Level::Info),
        },
        Err(_) => Some(Level::Info),
    }
}

/// One structured event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotonic sequence number (1-based, never reused within a log).
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch at record time.
    pub unix_ms: u64,
    /// Severity.
    pub level: Level,
    /// Machine-readable kind (e.g. `"shed"`, `"swap"`, `"retrain"`).
    pub kind: &'static str,
    /// Human-readable message.
    pub message: String,
}

/// A fixed-capacity ring of recent [`Event`]s plus per-kind counters.
///
/// Kinds listed at construction get a dedicated counter that is rendered
/// even when zero (so dashboards and smoke tests can assert the series
/// exists before the first event); unlisted kinds are still stored in the
/// ring and counted under `"other"`.
#[derive(Debug)]
pub struct EventLog {
    cap: usize,
    seq: AtomicU64,
    stderr_filter: Option<Level>,
    kinds: Vec<&'static str>,
    kind_counts: Vec<AtomicU64>,
    other_count: AtomicU64,
    level_counts: [AtomicU64; 4],
    ring: Mutex<VecDeque<Event>>,
}

impl EventLog {
    /// A ring holding at most `cap` events, with dedicated counters for
    /// `kinds`. The stderr filter is read from `LMKG_LOG` once, here.
    pub fn new(cap: usize, kinds: &[&'static str]) -> Self {
        let cap = cap.max(1);
        EventLog {
            cap,
            seq: AtomicU64::new(0),
            stderr_filter: stderr_filter_from_env(),
            kinds: kinds.to_vec(),
            kind_counts: kinds.iter().map(|_| AtomicU64::new(0)).collect(),
            other_count: AtomicU64::new(0),
            level_counts: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            ring: Mutex::new(VecDeque::with_capacity(cap)),
        }
    }

    /// Record an event: count it, append it to the ring (evicting the
    /// oldest at capacity), and echo the message to stderr when `level`
    /// passes the `LMKG_LOG` filter.
    pub fn log(&self, level: Level, kind: &'static str, message: String) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        match self.kinds.iter().position(|k| *k == kind) {
            Some(i) => self.kind_counts[i].fetch_add(1, Ordering::Relaxed),
            None => self.other_count.fetch_add(1, Ordering::Relaxed),
        };
        self.level_counts[level as usize].fetch_add(1, Ordering::Relaxed);
        if self.stderr_filter.is_some_and(|max| level <= max) {
            eprintln!("{message}");
        }
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let event = Event {
            seq,
            unix_ms,
            level,
            kind,
            message,
        };
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Total number of events ever recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// The registered kinds and their counts, followed by `("other", n)`.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = self
            .kinds
            .iter()
            .zip(&self.kind_counts)
            .map(|(k, c)| (*k, c.load(Ordering::Relaxed)))
            .collect();
        out.push(("other", self.other_count.load(Ordering::Relaxed)));
        out
    }

    /// Event counts per level, most severe first.
    pub fn level_counts(&self) -> [(Level, u64); 4] {
        [
            (Level::Error, self.level_counts[0].load(Ordering::Relaxed)),
            (Level::Warn, self.level_counts[1].load(Ordering::Relaxed)),
            (Level::Info, self.level_counts[2].load(Ordering::Relaxed)),
            (Level::Debug, self.level_counts[3].load(Ordering::Relaxed)),
        ]
    }

    /// The events currently in the ring, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_log(cap: usize, kinds: &[&'static str]) -> EventLog {
        // Tests must not depend on the ambient LMKG_LOG value; silence stderr.
        let mut log = EventLog::new(cap, kinds);
        log.stderr_filter = None;
        log
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let log = quiet_log(3, &["shed"]);
        for i in 0..5 {
            log.log(Level::Info, "shed", format!("event {i}"));
        }
        let recent = log.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].seq, 3, "the two oldest events were evicted");
        assert_eq!(recent[2].message, "event 4");
        assert_eq!(log.total(), 5);
    }

    #[test]
    fn kind_counters_track_registered_and_other() {
        let log = quiet_log(8, &["shed", "swap"]);
        log.log(Level::Warn, "shed", "s".into());
        log.log(Level::Info, "swap", "w".into());
        log.log(Level::Info, "swap", "w".into());
        log.log(Level::Debug, "mystery", "m".into());
        let counts = log.kind_counts();
        assert_eq!(counts, vec![("shed", 1), ("swap", 2), ("other", 1)]);
        let levels = log.level_counts();
        assert_eq!(levels[1], (Level::Warn, 1));
        assert_eq!(levels[2], (Level::Info, 2));
        assert_eq!(levels[3], (Level::Debug, 1));
    }

    #[test]
    fn level_ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }
}
