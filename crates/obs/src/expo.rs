//! Prometheus-style text exposition.
//!
//! [`Expo`] accumulates `# HELP` / `# TYPE` headers and sample lines into a
//! single string. Every family is rendered from its [`MetricDef`]: the def
//! names the series, its kind picks the `# TYPE` keyword, and its help is
//! the `# HELP` text, so a caller never spells either. The dialect is the
//! Prometheus text format with two deliberate extensions, both
//! comment-prefixed so standard parsers skip them: a `# EVENTS <n>` header
//! followed by `# EVENT <seq> <unix_ms> <level> <kind> <message>` lines for
//! the structured event ring, and no trailing `# EOF` (the transport layer
//! appends its own terminator).
//!
//! Labels are passed as a *scope*: the inside of a label set with a
//! trailing comma (`tenant="a",`, or `tenant="a",stage="batch",`), and `""`
//! for an unlabeled sample.
//!
//! Histograms are rendered sparsely: only non-empty buckets get a
//! `_bucket{le="..."}` line (cumulative, as the format requires), always
//! followed by `le="+Inf"`, `_sum`, and `_count`.

use std::fmt::{Display, Write};

use crate::events::EventLog;
use crate::hist::{bucket_bound, HistSnapshot, NUM_BUCKETS};

/// Exposition kind of a series family, mirroring the `# TYPE` header
/// (`Info` families render a `# HELP` line only, with no samples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone count; renders `# TYPE <name> counter`.
    Counter,
    /// Point-in-time value; renders `# TYPE <name> gauge`.
    Gauge,
    /// Log-bucketed distribution with `_bucket`/`_sum`/`_count` samples.
    Histogram,
    /// Help-only family (a `# HELP` line, no samples).
    Info,
}

impl MetricKind {
    /// The `# TYPE` keyword, or `None` for help-only info families.
    pub fn type_keyword(self) -> Option<&'static str> {
        match self {
            MetricKind::Counter => Some("counter"),
            MetricKind::Gauge => Some("gauge"),
            MetricKind::Histogram => Some("histogram"),
            MetricKind::Info => None,
        }
    }
}

/// One series family: the name it has on the wire, its kind, and the
/// `# HELP` text it is sent with.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The family name as it appears on the wire.
    pub name: &'static str,
    /// Exposition kind (the `# TYPE` keyword).
    pub kind: MetricKind,
    /// The `# HELP` text. An [`MetricKind::Info`] family appends a runtime
    /// detail to it ([`Expo::info`]).
    pub help: &'static str,
}

/// A text exposition under construction.
#[derive(Debug, Default)]
pub struct Expo {
    out: String,
}

impl Expo {
    /// An empty exposition.
    pub fn new() -> Self {
        Expo {
            out: String::with_capacity(4096),
        }
    }

    fn header(&mut self, def: &MetricDef) {
        let _ = writeln!(self.out, "# HELP {} {}", def.name, def.help);
        if let Some(kind) = def.kind.type_keyword() {
            let _ = writeln!(self.out, "# TYPE {} {kind}", def.name);
        }
    }

    /// One sample line: `name[suffix][{scope}] value`, the scope's trailing
    /// comma dropped.
    fn sample(&mut self, name: &str, suffix: &str, scope: &str, value: impl Display) {
        self.out.push_str(name);
        self.out.push_str(suffix);
        if !scope.is_empty() {
            let _ = write!(self.out, "{{{}}}", scope.trim_end_matches(','));
        }
        let _ = writeln!(self.out, " {value}");
    }

    /// Emit a counter or gauge with a single sample under `scope`.
    pub fn scalar(&mut self, def: &MetricDef, scope: &str, value: impl Display) {
        debug_assert!(matches!(def.kind, MetricKind::Counter | MetricKind::Gauge));
        self.header(def);
        self.sample(def.name, "", scope, value);
    }

    /// Emit a counter family: one header, one sample per `(scope, value)`.
    pub fn family(&mut self, def: &MetricDef, series: &[(String, u64)]) {
        debug_assert_eq!(def.kind, MetricKind::Counter);
        self.header(def);
        for (scope, value) in series {
            self.sample(def.name, "", scope, value);
        }
    }

    /// Emit a histogram family: one header, then the `_bucket` / `_sum` /
    /// `_count` samples of each `(scope, snapshot)` series.
    pub fn histogram(&mut self, def: &MetricDef, series: &[(String, HistSnapshot)]) {
        debug_assert_eq!(def.kind, MetricKind::Histogram);
        self.header(def);
        for (scope, snap) in series {
            let mut cumulative = 0u64;
            for i in 0..NUM_BUCKETS {
                if snap.buckets[i] == 0 {
                    continue;
                }
                cumulative += snap.buckets[i];
                let _ = writeln!(
                    self.out,
                    "{}_bucket{{{scope}le=\"{}\"}} {cumulative}",
                    def.name,
                    bucket_bound(i)
                );
            }
            let _ = writeln!(self.out, "{}_bucket{{{scope}le=\"+Inf\"}} {}", def.name, snap.count);
            self.sample(def.name, "_sum", scope, snap.sum);
            self.sample(def.name, "_count", scope, snap.count);
        }
    }

    /// Emit a help-only info family whose help ends in a runtime `detail`:
    /// `# HELP <name> <help> (<detail>)`.
    pub fn info(&mut self, def: &MetricDef, detail: &str) {
        debug_assert_eq!(def.kind, MetricKind::Info);
        let _ = writeln!(self.out, "# HELP {} {} ({detail})", def.name, def.help);
    }

    /// Emit the structured event section: the per-kind (`by_kind`) and
    /// per-level (`by_level`) counter families under `scope`, then the ring
    /// contents as `# EVENT` comment lines (newlines inside messages are
    /// flattened to spaces so one event is always one line).
    pub fn events(&mut self, by_kind: &MetricDef, by_level: &MetricDef, scope: &str, log: &EventLog) {
        let kinds: Vec<(String, u64)> = log
            .kind_counts()
            .iter()
            .map(|(k, n)| (format!("{scope}kind=\"{k}\","), *n))
            .collect();
        self.family(by_kind, &kinds);
        let levels: Vec<(String, u64)> = log
            .level_counts()
            .iter()
            .map(|(l, n)| (format!("{scope}level=\"{}\",", l.name()), *n))
            .collect();
        self.family(by_level, &levels);
        let recent = log.recent();
        let _ = writeln!(self.out, "# EVENTS {}", recent.len());
        for e in recent {
            let msg = e.message.replace(['\n', '\r'], " ");
            let _ = writeln!(
                self.out,
                "# EVENT {} {} {} {} {msg}",
                e.seq,
                e.unix_ms,
                e.level.name(),
                e.kind
            );
        }
    }

    /// Finish and return the exposition text (no trailing terminator; the
    /// transport appends its own `# EOF`).
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    const THINGS: MetricDef = MetricDef {
        name: "t_total",
        kind: MetricKind::Counter,
        help: "things",
    };
    const DEPTH: MetricDef = MetricDef {
        name: "depth",
        kind: MetricKind::Gauge,
        help: "queue depth",
    };
    const EVENTS: MetricDef = MetricDef {
        name: "ev_total",
        kind: MetricKind::Counter,
        help: "events by kind",
    };
    const EVENTS_BY_LEVEL: MetricDef = MetricDef {
        name: "ev_by_level_total",
        kind: MetricKind::Counter,
        help: "events by level",
    };

    fn hist(name: &'static str, help: &'static str) -> MetricDef {
        MetricDef {
            name,
            kind: MetricKind::Histogram,
            help,
        }
    }

    #[test]
    fn counter_and_gauge_render() {
        let mut e = Expo::new();
        e.scalar(&THINGS, "", 7u64);
        e.scalar(&DEPTH, "", -2i64);
        let text = e.finish();
        assert!(text.contains("# HELP t_total things\n"));
        assert!(text.contains("# TYPE t_total counter\n"));
        assert!(text.contains("\nt_total 7\n"));
        assert!(text.contains("# TYPE depth gauge\n"));
        assert!(text.contains("depth -2\n"));
    }

    #[test]
    fn histogram_renders_cumulative_sparse_buckets() {
        let h = Histogram::new();
        h.record(1.5);
        h.record(1.5);
        h.record(100.0);
        let mut e = Expo::new();
        e.histogram(&hist("lat_us", "latency"), &[("stage=\"fwd\",".into(), h.snapshot())]);
        let text = e.finish();
        assert!(text.contains("# TYPE lat_us histogram\n"));
        // Two non-empty buckets, cumulative counts.
        let buckets: Vec<&str> = text.lines().filter(|l| l.starts_with("lat_us_bucket")).collect();
        assert_eq!(buckets.len(), 3, "two sparse buckets + +Inf: {buckets:?}");
        assert!(buckets[0].contains("stage=\"fwd\""));
        assert!(buckets[0].ends_with(" 2"));
        assert!(buckets[1].ends_with(" 3"));
        assert!(buckets[2].contains("le=\"+Inf\"") && buckets[2].ends_with(" 3"));
        assert!(text.contains("lat_us_count{stage=\"fwd\"} 3\n"));
        // Per-sample truncation: 1.5 + 1.5 + 100.0 records as 1 + 1 + 100.
        assert!(text.contains("lat_us_sum{stage=\"fwd\"} 102\n"));
    }

    #[test]
    fn unlabeled_histogram_has_plain_sum_and_count() {
        let h = Histogram::new();
        h.record(3.0);
        let mut e = Expo::new();
        e.histogram(&hist("w", "w"), &[(String::new(), h.snapshot())]);
        let text = e.finish();
        assert!(text.contains("\nw_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("\nw_sum 3\n"));
        assert!(text.contains("\nw_count 1\n"));
    }

    #[test]
    fn labeled_singles_render_full_label_sets() {
        let mut e = Expo::new();
        e.scalar(&THINGS, "tenant=\"a\",", 7u64);
        e.scalar(&DEPTH, "tenant=\"a\",", -2i64);
        e.scalar(&DEPTH, "tenant=\"a\",", 0.25f64);
        e.family(&THINGS, &[("path=\"x\",kernel=\"y\",".into(), 3)]);
        let text = e.finish();
        assert!(text.contains("\nt_total{tenant=\"a\"} 7\n"));
        assert!(text.contains("\ndepth{tenant=\"a\"} -2\n"));
        assert!(text.contains("\ndepth{tenant=\"a\"} 0.25\n"));
        assert!(text.contains("\nt_total{path=\"x\",kernel=\"y\"} 3\n"));
    }

    #[test]
    fn info_family_is_help_only_with_its_runtime_detail() {
        let mut e = Expo::new();
        let def = MetricDef {
            name: "active",
            kind: MetricKind::Info,
            help: "The active kernel",
        };
        e.info(&def, "avx2");
        assert_eq!(e.finish(), "# HELP active The active kernel (avx2)\n");
    }

    #[test]
    fn events_with_prepends_the_extra_label() {
        let log = EventLog::new(4, &["shed"]);
        log.log(crate::events::Level::Info, "shed", "one".into());
        let mut e = Expo::new();
        e.events(&EVENTS, &EVENTS_BY_LEVEL, "tenant=\"b\",", &log);
        let text = e.finish();
        assert!(text.contains("ev_total{tenant=\"b\",kind=\"shed\"} 1\n"));
        assert!(text.contains("ev_by_level_total{tenant=\"b\",level=\"info\"} 1\n"));
    }

    #[test]
    fn events_section_renders_counters_and_ring() {
        let log = EventLog::new(4, &["shed", "swap"]);
        log.log(crate::events::Level::Info, "swap", "model swapped\nin 2 lines".into());
        let mut e = Expo::new();
        e.events(&EVENTS, &EVENTS_BY_LEVEL, "", &log);
        let text = e.finish();
        assert!(text.contains("# HELP ev_total events by kind\n# TYPE ev_total counter\n"));
        assert!(
            text.contains("ev_total{kind=\"shed\"} 0\n"),
            "zero-valued kinds still render"
        );
        assert!(text.contains("ev_total{kind=\"swap\"} 1\n"));
        assert!(text.contains("ev_by_level_total{level=\"info\"} 1\n"));
        assert!(text.contains("# EVENTS 1\n"));
        let ev = text.lines().find(|l| l.starts_with("# EVENT ")).expect("event line");
        assert!(
            ev.contains("info swap model swapped in 2 lines"),
            "newline flattened: {ev}"
        );
    }
}
