//! Client-side spans of a traced run.
//!
//! Spans are kept in memory while the workload runs and written when it has
//! ended. A request is one root span with four children; its self time is
//! its duration minus theirs. Spans inside the server are not recorded: the
//! server's share of a request is split with the `us=` field of its reply.

use std::io::Write;
use std::time::Instant;

/// At most this many request records are written out; the per-layer
/// metrics are computed from every record kept in memory.
const MAX_REQUESTS_WRITTEN: usize = 20_000;

/// The timestamps of one request, as the client saw it.
#[derive(Clone, Copy)]
pub struct RequestRecord {
    pub id: u64,
    /// When the request was due (open loop) or generated (closed loop).
    pub due: Instant,
    pub send_start: Instant,
    pub send_end: Instant,
    pub received: Instant,
    pub parsed: Instant,
    /// The reply's `us=` field: admission to reply inside the server.
    pub inside_us: f64,
}

impl RequestRecord {
    /// Send end to reply received: the client-observed round trip.
    pub fn round_trip_us(&self) -> f64 {
        micros(self.send_end, self.received)
    }

    /// The round trip minus the server's own figure: transport, protocol
    /// and SPARQL parsing, and the session's writer thread.
    pub fn outside_us(&self) -> f64 {
        (self.round_trip_us() - self.inside_us).max(0.0)
    }
}

pub fn micros(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// One timed batch of calls into a layer, from the in-process probes.
pub struct ProbeSpan {
    /// The per-layer metric the batch feeds.
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub calls: u64,
}

#[derive(Default)]
pub struct Trace {
    pub requests: Vec<RequestRecord>,
    pub probes: Vec<ProbeSpan>,
}

impl Trace {
    /// Writes the spans as JSON lines: `trace` groups the spans of one
    /// request (or of the probe pass), `parent` names the span that caused
    /// this one, times are nanoseconds since `origin`.
    pub fn write(&self, out: &mut impl Write, workload: &str, origin: Instant) -> std::io::Result<()> {
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos();
        for r in self.requests.iter().take(MAX_REQUESTS_WRITTEN) {
            let trace = format!("{workload}:{}", r.id);
            let mut span = |name: &str, parent: &str, start: u128, end: u128| {
                writeln!(
                    out,
                    "{{\"trace\":\"{trace}\",\"span\":\"{name}\",\"parent\":{parent},\"start_ns\":{start},\"end_ns\":{end}}}"
                )
            };
            let inside_ns = (r.inside_us * 1e3) as u128;
            // Where inside the round trip the server's part lies is not
            // observable from the client; it is drawn at the end.
            let inside_start = ns(r.received).saturating_sub(inside_ns).max(ns(r.send_end));
            span("request", "null", ns(r.due), ns(r.parsed))?;
            span("client.send", "\"request\"", ns(r.send_start), ns(r.send_end))?;
            span("server.outside", "\"request\"", ns(r.send_end), inside_start)?;
            span("server.inside", "\"request\"", inside_start, ns(r.received))?;
            span("client.parse_reply", "\"request\"", ns(r.received), ns(r.parsed))?;
        }
        if let (Some(first), Some(last)) = (self.probes.first(), self.probes.last()) {
            writeln!(
                out,
                "{{\"trace\":\"{workload}:probes\",\"span\":\"probe\",\"parent\":null,\"start_ns\":{},\"end_ns\":{}}}",
                ns(first.start),
                ns(last.end)
            )?;
        }
        for p in &self.probes {
            writeln!(
                out,
                "{{\"trace\":\"{workload}:probes\",\"span\":\"{}\",\"parent\":\"probe\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                p.name,
                ns(p.start),
                ns(p.end),
                p.calls
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_tile_the_request_and_outside_is_the_remainder() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let r = RequestRecord {
            id: 7,
            due: at(100),
            send_start: at(150),
            send_end: at(160),
            received: at(2160),
            parsed: at(2170),
            inside_us: 1900.0,
        };
        assert_eq!(r.round_trip_us(), 2000.0);
        assert_eq!(r.outside_us(), 100.0);
        let trace = Trace {
            requests: vec![r],
            probes: vec![ProbeSpan {
                name: "nn.forward_m1_us",
                start: at(3000),
                end: at(4000),
                calls: 64,
            }],
        };
        let mut text = Vec::new();
        trace.write(&mut text, "paced", t0).unwrap();
        let text = String::from_utf8(text).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        assert_eq!(
            lines[0],
            "{\"trace\":\"paced:7\",\"span\":\"request\",\"parent\":null,\"start_ns\":100000,\"end_ns\":2170000}"
        );
        assert!(
            lines[2].contains("\"server.outside\"") && lines[2].ends_with("\"start_ns\":160000,\"end_ns\":260000}")
        );
        assert!(
            lines[3].contains("\"server.inside\"") && lines[3].ends_with("\"start_ns\":260000,\"end_ns\":2160000}")
        );
        assert!(lines[6].contains("\"nn.forward_m1_us\"") && lines[6].ends_with("\"calls\":64}"));
        for line in lines {
            crate::json::parse(line).unwrap();
        }
    }
}
