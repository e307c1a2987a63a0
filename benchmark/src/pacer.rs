//! The open-loop schedule: request `i` is due at `i / rate` after the start,
//! whatever happened to the requests before it.
//!
//! A sender that falls behind (it was descheduled, or a write blocked) sends
//! the overdue requests at once instead of shifting the schedule, and every
//! latency is counted from the due time. A stall therefore shows up in the
//! latency of each request it delayed, which a closed loop or a
//! send-time clock would hide (coordinated omission).

use std::time::Duration;

pub struct Schedule {
    interval: Duration,
}

#[derive(Debug, PartialEq)]
pub enum Action {
    /// The request is not due yet: sleep this long, then send.
    Wait(Duration),
    /// The request is due or overdue: send now.
    Send,
}

impl Schedule {
    pub fn new(requests_per_second: u64) -> Schedule {
        Schedule {
            interval: Duration::from_secs(1) / requests_per_second as u32,
        }
    }

    /// When request `i` is due, counted from the start.
    pub fn due(&self, i: u64) -> Duration {
        self.interval * i as u32
    }

    /// How many requests are due before `window` has passed.
    pub fn due_before(&self, window: Duration) -> u64 {
        window.as_nanos().div_ceil(self.interval.as_nanos()) as u64
    }

    /// What the sender does about request `i` at time `now` (since start).
    pub fn action(&self, i: u64, now: Duration) -> Action {
        match self.due(i).checked_sub(now) {
            Some(early) if !early.is_zero() => Action::Wait(early),
            _ => Action::Send,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// Plays the sender against a simulated clock: the sender loses
    /// `stall` once, just before request `stall_at`; a request takes
    /// `service` from the moment it is sent. Returns per request the lag
    /// (sent − due) and the latency as the benchmark counts it
    /// (reply − due).
    fn simulate(n: u64, stall_at: u64, stall: Duration, service: Duration) -> Vec<(Duration, Duration)> {
        let schedule = Schedule::new(1_000);
        let mut now = Duration::ZERO;
        (0..n)
            .map(|i| {
                if i == stall_at {
                    now += stall;
                }
                if let Action::Wait(d) = schedule.action(i, now) {
                    now += d;
                }
                let sent = now;
                (sent - schedule.due(i), sent + service - schedule.due(i))
            })
            .collect()
    }

    #[test]
    fn requests_are_evenly_spaced_and_on_time_without_a_stall() {
        let schedule = Schedule::new(1_000);
        assert_eq!(schedule.due(0), Duration::ZERO);
        assert_eq!(schedule.due(250), 250 * MS);
        assert_eq!(schedule.due_before(10 * MS), 10);
        assert_eq!(schedule.due_before(10 * MS + Duration::from_nanos(1)), 11);
        assert_eq!(schedule.action(3, 2 * MS), Action::Wait(MS));
        assert_eq!(schedule.action(3, 3 * MS), Action::Send);
        for (lag, latency) in simulate(50, u64::MAX, Duration::ZERO, MS / 2) {
            assert_eq!((lag, latency), (Duration::ZERO, MS / 2));
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        // The sender freezes for 10 ms just before request 5.
        let runs = simulate(30, 5, 10 * MS, MS / 2);
        // Requests 5..14 came due during the stall: they leave back to back
        // when it ends (at 14 ms), each late by what was left of it …
        for i in 5..14u32 {
            let (lag, latency) = runs[i as usize];
            assert_eq!(lag, (14 - i) * MS, "request {i}");
            // … and their latency counts from the due time, so it holds the
            // wait a real client would have seen, not just the service time.
            assert_eq!(latency, lag + MS / 2, "request {i}");
        }
        // The schedule itself never moved: later requests are on time again.
        for &(lag, latency) in &runs[14..] {
            assert_eq!((lag, latency), (Duration::ZERO, MS / 2));
        }
        // All thirty requests were sent; none was dropped to catch up.
        assert_eq!(runs.len(), 30);
    }
}
