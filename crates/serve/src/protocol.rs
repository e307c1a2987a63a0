//! The line-based wire protocol both transports (pipe and TCP) speak —
//! **protocol v2**, namespace-routed: every verb can carry a tenant token,
//! and a v1 line without one routes to the `default` tenant.
//!
//! One request per line, one reply per line; requests carry a client-chosen
//! id token so replies can be matched even though the micro-batcher may
//! reorder completions. The v2 grammar (whitespace-separated tokens,
//! `<sparql>` and `<message>` run to end of line):
//!
//! ```text
//! request  := "EST" [<tenant>] <id> <sparql>   estimate one SPARQL BGP
//!           | "STATS" [<tenant>] <id>          serving statistics of one tenant
//!           | "METRICS" [<tenant>] <id>        metrics exposition of one tenant
//!           | "TENANTS" <id>                   list the served tenant namespaces
//!           | "QUIT"                           close the session
//! reply    := "OK" <id> <estimate> us=<micros>
//!           | "ERR" <id> code=<kebab-code> <message>
//!           | "OVERLOADED" <id> depth=<queue-depth>
//!           | "STATS" <id> served=<n> shed=<n> batches=<n>
//!                          retrains=<n> added=<n> model=<bytes> tv=<f>
//!                          uncovered=<f> p50us=<f> p95us=<f> p99us=<f>
//!           | "TENANTS" <id> <name> ...
//!           | "METRICS" <id> lines=<n>
//!             <n lines of Prometheus-style exposition text,
//!              the last of which is "# EOF">
//! ```
//!
//! **v1 compatibility rule.** The tenant token is optional, and a line
//! without one parses exactly as protocol v1 did and routes to the
//! `default` tenant — every pre-v2 client, workload file, and transcript
//! keeps working unchanged. Disambiguation is deterministic:
//!
//! * `STATS`/`METRICS` with **one** token after the verb is v1 (the token
//!   is the id); with **two** tokens it is v2 (`<tenant> <id>`).
//! * `EST`: the query text always begins with the keyword `SELECT`, so the
//!   token *before* `SELECT` is the id and anything before that is the
//!   tenant. `EST q1 SELECT …` is v1; `EST lubm q1 SELECT …` is v2.
//!   Consequently neither a tenant name nor an id may be the literal token
//!   `SELECT` ([`ServeBuilder`](crate::server::ServeBuilder) rejects such
//!   tenant names at build time).
//!
//! Error replies carry a structured **error taxonomy**: `code=<kebab-code>`
//! as the first message token, one of [`ErrorCode::Parse`] (malformed
//! request line or SPARQL), [`ErrorCode::UnknownTenant`] (the tenant token
//! names no served namespace), [`ErrorCode::Quota`] (the tenant's admission
//! quota is zero — suspended), or [`ErrorCode::Internal`]. A v1 parser that
//! treats everything after the id as the message still accepts the line —
//! the code token simply folds into the message text — and parsing a legacy
//! `ERR` line without a code yields [`Reply::Error`] with `code: None`.
//!
//! `METRICS` is the one multi-line reply: the header's `lines=<n>` field
//! frames the body (so a client reads exactly `n` more lines), and the body
//! independently ends with a `# EOF` sentinel for stream-oriented consumers.
//! Every other reply remains a single line.
//!
//! The `retrains`/`added`/`tv`/`uncovered` fields report the online
//! adaptation loop (retrain events, models added, last drift evaluation)
//! and `model` the published model's memory footprint in bytes (which
//! shrinks when a `--quantized` framework is served and follows adapter
//! swaps); all of them are optional on the parse side (defaulting to zero)
//! so transcripts from older servers still parse. `p50us`/`p95us`/`p99us`
//! are percentiles of every request served since start — the same
//! histogram `METRICS` renders as `lmkg_request_latency_us` — so a client
//! that wants recency takes deltas of two scrapes.
//!
//! `<id>` is any non-empty token without whitespace (and not `SELECT`); a
//! served `<tenant>` matches `[A-Za-z0-9_-]+`
//! ([`is_valid_tenant_name`](crate::server::is_valid_tenant_name)). Floats are rendered with Rust's shortest-round-trip
//! formatting, so parsing an `OK` reply recovers the estimate **bitwise** —
//! the serving parity suite relies on this. Blank lines and `#` comments
//! are skipped by the server before parsing, so a workload file can be
//! annotated.

// Serving hot path: no panics outside tests (README "Static analysis & safety").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::latency::StatsSnapshot;
use std::fmt;

/// The tenant a v1 line (no tenant token) routes to.
pub const DEFAULT_TENANT: &str = "default";

/// A malformed request or reply line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Description of the failure, sent back verbatim in an `ERR` reply.
    pub message: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// The structured error taxonomy carried by `ERR` replies as
/// `code=<kebab-code>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request named a tenant the server does not serve.
    UnknownTenant,
    /// The request line or its SPARQL text did not parse.
    Parse,
    /// The tenant's admission quota is zero (suspended namespace). A
    /// tenant *at* its quota sheds with `OVERLOADED` instead — `quota`
    /// marks requests that can never be admitted, not transient pressure.
    Quota,
    /// An unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// The kebab-case wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::UnknownTenant => "unknown-tenant",
            ErrorCode::Parse => "parse",
            ErrorCode::Quota => "quota",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a kebab-case code token.
    pub fn parse(token: &str) -> Option<ErrorCode> {
        match token {
            "unknown-tenant" => Some(ErrorCode::UnknownTenant),
            "parse" => Some(ErrorCode::Parse),
            "quota" => Some(ErrorCode::Quota),
            "internal" => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, ProtocolError> {
    Err(ProtocolError {
        message: message.into(),
    })
}

/// Splits the next whitespace-delimited token off `input`, returning it and
/// the rest with leading whitespace removed. Runs of whitespace are one
/// separator, so tab-aligned or double-spaced lines parse like single-spaced
/// ones.
fn next_token(input: &str) -> (&str, &str) {
    let input = input.trim_start();
    match input.find(char::is_whitespace) {
        Some(end) => (&input[..end], input[end..].trim_start()),
        None => (input, ""),
    }
}

fn parse_id(token: &str, what: &str) -> Result<String, ProtocolError> {
    if token.is_empty() {
        err(format!("{what} requires an id token"))
    } else {
        Ok(token.to_string())
    }
}

/// Parses the `[<tenant>] <id>` prefix of a `STATS`/`METRICS` line: one
/// token is a v1 id, two tokens are a v2 `<tenant> <id>` pair.
fn parse_scope(rest: &str, what: &str) -> Result<(Option<String>, String), ProtocolError> {
    let (first, after_first) = next_token(rest);
    let (second, extra) = next_token(after_first);
    if second.is_empty() {
        Ok((None, parse_id(first, what)?))
    } else if extra.trim_end().is_empty() {
        Ok((Some(first.to_string()), parse_id(second, what)?))
    } else {
        err(format!("unexpected tokens after {what} tenant and id: {extra:?}"))
    }
}

/// A client→server request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `EST [<tenant>] <id> <sparql>` — estimate the cardinality of a
    /// SPARQL BGP against one tenant's graph and models.
    Estimate {
        /// Target namespace; `None` is a v1 line routed to the
        /// [`DEFAULT_TENANT`].
        tenant: Option<String>,
        /// Client-chosen reply-matching token.
        id: String,
        /// The query text, `SELECT … WHERE { … }`.
        sparql: String,
    },
    /// `STATS [<tenant>] <id>` — report one tenant's serving counters and
    /// latency percentiles.
    Stats {
        /// Target namespace; `None` routes to the [`DEFAULT_TENANT`].
        tenant: Option<String>,
        /// Client-chosen reply-matching token.
        id: String,
    },
    /// `METRICS [<tenant>] <id>` — report one tenant's full metrics
    /// exposition (counters, stage histograms, kernel-dispatch counters,
    /// recent events). With an explicit tenant, every series carries a
    /// `tenant="<name>"` label.
    Metrics {
        /// Target namespace; `None` routes to the [`DEFAULT_TENANT`] and
        /// renders the v1 (unlabeled) exposition.
        tenant: Option<String>,
        /// Client-chosen reply-matching token.
        id: String,
    },
    /// `TENANTS <id>` — list the tenant namespaces this server serves.
    Tenants {
        /// Client-chosen reply-matching token.
        id: String,
    },
    /// `QUIT` — end the session.
    Quit,
}

impl Request {
    /// Parses one request line (already trimmed, non-empty).
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let (verb, rest) = next_token(line);
        match verb {
            "EST" => {
                // The query text always starts with SELECT; the token before
                // it is the id, an earlier token is the tenant.
                let (first, after_first) = next_token(rest);
                let id = parse_id(first, "EST")?;
                let (second, after_second) = next_token(after_first);
                if second == "SELECT" {
                    // v1: EST <id> SELECT …
                    Ok(Request::Estimate {
                        tenant: None,
                        id,
                        sparql: after_first.trim_end().to_string(),
                    })
                } else if next_token(after_second).0 == "SELECT" {
                    // v2: EST <tenant> <id> SELECT …
                    Ok(Request::Estimate {
                        tenant: Some(id),
                        id: second.to_string(),
                        sparql: after_second.trim_end().to_string(),
                    })
                } else {
                    err("EST requires a SPARQL query (SELECT …) after the id")
                }
            }
            "STATS" => {
                let (tenant, id) = parse_scope(rest, "STATS")?;
                Ok(Request::Stats { tenant, id })
            }
            "METRICS" => {
                let (tenant, id) = parse_scope(rest, "METRICS")?;
                Ok(Request::Metrics { tenant, id })
            }
            "TENANTS" => {
                let (id, extra) = next_token(rest);
                let id = parse_id(id, "TENANTS")?;
                if extra.trim_end().is_empty() {
                    Ok(Request::Tenants { id })
                } else {
                    err(format!("unexpected tokens after TENANTS id: {extra:?}"))
                }
            }
            "QUIT" => {
                if rest.trim_end().is_empty() {
                    Ok(Request::Quit)
                } else {
                    err(format!("unexpected tokens after QUIT: {rest:?}"))
                }
            }
            other => err(format!(
                "unknown request verb {other:?} (expected EST, STATS, METRICS, TENANTS, or QUIT)"
            )),
        }
    }

    /// The namespace this request targets ([`DEFAULT_TENANT`] for v1
    /// lines); `None` for verbs without a tenant scope.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Request::Estimate { tenant, .. } | Request::Stats { tenant, .. } | Request::Metrics { tenant, .. } => {
                Some(tenant.as_deref().unwrap_or(DEFAULT_TENANT))
            }
            Request::Tenants { .. } | Request::Quit => None,
        }
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let scope = |tenant: &Option<String>| match tenant {
            Some(t) => format!("{t} "),
            None => String::new(),
        };
        match self {
            Request::Estimate { tenant, id, sparql } => write!(f, "EST {}{id} {sparql}", scope(tenant)),
            Request::Stats { tenant, id } => write!(f, "STATS {}{id}", scope(tenant)),
            Request::Metrics { tenant, id } => write!(f, "METRICS {}{id}", scope(tenant)),
            Request::Tenants { id } => write!(f, "TENANTS {id}"),
            Request::Quit => write!(f, "QUIT"),
        }
    }
}

/// A server→client reply line.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `OK <id> <estimate> us=<micros>` — the estimate plus the request's
    /// measured in-server latency.
    Estimate {
        /// Echo of the request id.
        id: String,
        /// The cardinality estimate.
        estimate: f64,
        /// Submit→reply latency in microseconds.
        micros: f64,
    },
    /// `ERR <id> code=<kebab-code> <message>` — malformed line, unknown
    /// tenant, suspended quota, or internal error; `id` is `-` when the
    /// line was too malformed to carry one. The server always sends a
    /// code; `code: None` only arises from parsing a pre-v2 transcript.
    Error {
        /// Echo of the request id, or `-`.
        id: String,
        /// The structured error class (`None` on legacy lines without one).
        code: Option<ErrorCode>,
        /// Human-readable description.
        message: String,
    },
    /// `OVERLOADED <id> depth=<n>` — admission control shed the request
    /// because the tenant's bounded queue (its quota, depth `n`) was full.
    Overloaded {
        /// Echo of the request id.
        id: String,
        /// The configured queue depth that was exhausted.
        depth: usize,
    },
    /// `STATS <id> …` — serving counters and latency percentiles of the
    /// addressed tenant.
    Stats {
        /// Echo of the request id.
        id: String,
        /// The snapshot.
        snapshot: StatsSnapshot,
    },
    /// `TENANTS <id> <name> …` — the served namespaces, sorted.
    Tenants {
        /// Echo of the request id.
        id: String,
        /// Tenant names, ascending.
        names: Vec<String>,
    },
    /// `METRICS <id> lines=<n>` followed by `n` lines of exposition text —
    /// the one multi-line reply. `text` is the exposition body *without*
    /// the terminating `# EOF` line; Display appends it (and the header's
    /// `lines=` count includes it), so the wire form always ends with the
    /// sentinel.
    Metrics {
        /// Echo of the request id.
        id: String,
        /// The Prometheus-style exposition body (no `# EOF`). Empty when
        /// this value came from parsing a header line: the body travels on
        /// subsequent lines, which the line-oriented parser does not
        /// consume — clients read `lines=<n>` more lines themselves.
        text: String,
    },
}

impl Reply {
    /// An `ERR` reply with a structured code (the only form the server
    /// emits — every error site routes through here).
    pub fn error(id: impl Into<String>, code: ErrorCode, message: impl Into<String>) -> Reply {
        Reply::Error {
            id: id.into(),
            code: Some(code),
            message: message.into(),
        }
    }

    /// Parses one reply line (the client side of the protocol; the load
    /// generator and tests use this to close the loop).
    pub fn parse(line: &str) -> Result<Reply, ProtocolError> {
        let (verb, after_verb) = next_token(line);
        let (id_token, rest) = next_token(after_verb);
        match verb {
            "OK" => {
                let id = parse_id(id_token, "OK")?;
                let mut fields = rest.split_whitespace();
                let estimate: f64 = fields
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ProtocolError {
                        message: "OK requires a numeric estimate".into(),
                    })?;
                let micros: f64 = fields
                    .next()
                    .and_then(|t| t.strip_prefix("us="))
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ProtocolError {
                        message: "OK requires a us=<micros> field".into(),
                    })?;
                Ok(Reply::Estimate { id, estimate, micros })
            }
            "ERR" => {
                let id = parse_id(id_token, "ERR")?;
                // `code=<kebab-code>` as the first message token is the v2
                // taxonomy; a line without one is a legacy transcript and
                // the whole rest is the message.
                let (first, after_first) = next_token(rest);
                let (code, message) = match first.strip_prefix("code=").and_then(ErrorCode::parse) {
                    Some(code) => (Some(code), after_first.trim_end().to_string()),
                    None => (None, rest.trim_end().to_string()),
                };
                if message.is_empty() {
                    return err("ERR requires a message");
                }
                Ok(Reply::Error { id, code, message })
            }
            "OVERLOADED" => {
                let id = parse_id(id_token, "OVERLOADED")?;
                let depth = rest
                    .trim_end()
                    .strip_prefix("depth=")
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ProtocolError {
                        message: "OVERLOADED requires a depth=<n> field".into(),
                    })?;
                Ok(Reply::Overloaded { id, depth })
            }
            "STATS" => {
                let id = parse_id(id_token, "STATS")?;
                let mut served = None;
                let mut shed = None;
                let mut batches = None;
                let mut retrains = None;
                let mut added = None;
                let mut evicted = None;
                let mut gen = None;
                let mut model = None;
                let mut tv = None;
                let mut uncovered = None;
                let mut p50 = None;
                let mut p95 = None;
                let mut p99 = None;
                for field in rest.split_whitespace() {
                    let Some((key, value)) = field.split_once('=') else {
                        return err(format!("malformed STATS field {field:?}"));
                    };
                    match key {
                        "served" => served = value.parse().ok(),
                        "shed" => shed = value.parse().ok(),
                        "batches" => batches = value.parse().ok(),
                        "retrains" => retrains = value.parse().ok(),
                        "added" => added = value.parse().ok(),
                        "evicted" => evicted = value.parse().ok(),
                        "gen" => gen = value.parse().ok(),
                        "model" => model = value.parse().ok(),
                        "tv" => tv = value.parse().ok(),
                        "uncovered" => uncovered = value.parse().ok(),
                        "p50us" => p50 = value.parse().ok(),
                        "p95us" => p95 = value.parse().ok(),
                        "p99us" => p99 = value.parse().ok(),
                        other => return err(format!("unknown STATS field {other:?}")),
                    }
                }
                match (served, shed, batches, p50, p95, p99) {
                    (Some(served), Some(shed), Some(batches), Some(p50_us), Some(p95_us), Some(p99_us)) => {
                        Ok(Reply::Stats {
                            id,
                            snapshot: StatsSnapshot {
                                served,
                                shed,
                                batches,
                                retrains: retrains.unwrap_or(0),
                                models_added: added.unwrap_or(0),
                                evicted: evicted.unwrap_or(0),
                                generation: gen.unwrap_or(0),
                                model_bytes: model.unwrap_or(0),
                                drift_tv: tv.unwrap_or(0.0),
                                drift_uncovered: uncovered.unwrap_or(0.0),
                                p50_us,
                                p95_us,
                                p99_us,
                            },
                        })
                    }
                    _ => err("STATS reply is missing fields"),
                }
            }
            "TENANTS" => {
                let id = parse_id(id_token, "TENANTS")?;
                let names: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
                Ok(Reply::Tenants { id, names })
            }
            "METRICS" => {
                let id = parse_id(id_token, "METRICS")?;
                let has_lines = rest
                    .trim_end()
                    .strip_prefix("lines=")
                    .and_then(|t| t.parse::<u64>().ok())
                    .is_some();
                if !has_lines {
                    return err("METRICS requires a lines=<n> field");
                }
                // The body is on subsequent lines; a line-oriented parser
                // only sees the header. Callers consume `lines=<n>` more
                // lines (ending in `# EOF`) themselves.
                Ok(Reply::Metrics {
                    id,
                    text: String::new(),
                })
            }
            other => err(format!("unknown reply verb {other:?}")),
        }
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reply::Estimate { id, estimate, micros } => write!(f, "OK {id} {estimate} us={micros}"),
            Reply::Error { id, code, message } => match code {
                Some(code) => write!(f, "ERR {id} code={code} {message}"),
                None => write!(f, "ERR {id} {message}"),
            },
            Reply::Overloaded { id, depth } => write!(f, "OVERLOADED {id} depth={depth}"),
            Reply::Stats { id, snapshot } => write!(f, "STATS {id} {snapshot}"),
            Reply::Tenants { id, names } => {
                write!(f, "TENANTS {id}")?;
                for name in names {
                    write!(f, " {name}")?;
                }
                Ok(())
            }
            Reply::Metrics { id, text } => {
                let body = text.trim_end_matches('\n');
                // lines= counts everything after the header, # EOF included.
                let lines = if body.is_empty() { 1 } else { body.lines().count() + 1 };
                if body.is_empty() {
                    write!(f, "METRICS {id} lines={lines}\n# EOF")
                } else {
                    write!(f, "METRICS {id} lines={lines}\n{body}\n# EOF")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn request_round_trips() {
        let cases = [
            Request::Estimate {
                tenant: None,
                id: "q17".into(),
                sparql: "SELECT * WHERE { ?x :p ?y . ?y :q ?z . }".into(),
            },
            Request::Estimate {
                tenant: Some("lubm".into()),
                id: "q17".into(),
                sparql: "SELECT * WHERE { ?x :p ?y . }".into(),
            },
            Request::Stats {
                tenant: None,
                id: "s1".into(),
            },
            Request::Stats {
                tenant: Some("swdf".into()),
                id: "s1".into(),
            },
            Request::Metrics {
                tenant: None,
                id: "m1".into(),
            },
            Request::Metrics {
                tenant: Some("yago-a".into()),
                id: "m1".into(),
            },
            Request::Tenants { id: "t1".into() },
            Request::Quit,
        ];
        for req in cases {
            let line = req.to_string();
            assert_eq!(Request::parse(&line).unwrap(), req, "round trip of {line:?}");
        }
    }

    #[test]
    fn v1_lines_route_to_the_default_tenant() {
        for (line, expected_tenant) in [
            ("EST q1 SELECT * WHERE { ?x :p ?y . }", DEFAULT_TENANT),
            ("EST lubm q1 SELECT * WHERE { ?x :p ?y . }", "lubm"),
            ("STATS s1", DEFAULT_TENANT),
            ("STATS swdf s1", "swdf"),
            ("METRICS m1", DEFAULT_TENANT),
            ("METRICS swdf m1", "swdf"),
        ] {
            let req = Request::parse(line).unwrap();
            assert_eq!(req.tenant(), Some(expected_tenant), "tenant routing of {line:?}");
        }
        assert_eq!(Request::parse("TENANTS t0").unwrap().tenant(), None);
        assert_eq!(Request::parse("QUIT").unwrap().tenant(), None);
    }

    #[test]
    fn v2_est_keeps_the_id_before_select() {
        let req = Request::parse("EST lubm q3 SELECT * WHERE { ?x :p ?y . }").unwrap();
        assert_eq!(
            req,
            Request::Estimate {
                tenant: Some("lubm".into()),
                id: "q3".into(),
                sparql: "SELECT * WHERE { ?x :p ?y . }".into(),
            }
        );
    }

    #[test]
    fn reply_round_trips_estimates_bitwise() {
        for estimate in [1.0, 1e-300, 123456.789, 0.1 + 0.2, f64::MAX, 7.0 / 3.0] {
            let reply = Reply::Estimate {
                id: "a".into(),
                estimate,
                micros: 41.75,
            };
            let parsed = Reply::parse(&reply.to_string()).unwrap();
            let Reply::Estimate {
                estimate: back, micros, ..
            } = parsed
            else {
                panic!("wrong variant");
            };
            assert_eq!(
                back.to_bits(),
                estimate.to_bits(),
                "estimate must survive the wire bitwise"
            );
            assert_eq!(micros, 41.75);
        }
    }

    #[test]
    fn reply_round_trips_all_variants() {
        let cases = [
            Reply::error(
                "q1",
                ErrorCode::Parse,
                "unknown node term \":Nobody\" (not in the graph's dictionary)",
            ),
            Reply::error("q3", ErrorCode::UnknownTenant, "unknown tenant \"nope\""),
            Reply::error("q4", ErrorCode::Quota, "tenant \"idle\" is suspended (quota 0)"),
            Reply::error("q5", ErrorCode::Internal, "reply channel closed"),
            Reply::Overloaded {
                id: "q2".into(),
                depth: 1024,
            },
            Reply::Tenants {
                id: "t1".into(),
                names: vec!["default".into(), "lubm".into(), "swdf".into()],
            },
            Reply::Stats {
                id: "s".into(),
                snapshot: StatsSnapshot {
                    served: 12,
                    shed: 3,
                    batches: 4,
                    retrains: 2,
                    models_added: 3,
                    evicted: 1,
                    generation: 5,
                    model_bytes: 123456,
                    drift_tv: 0.875,
                    drift_uncovered: 0.25,
                    p50_us: 10.5,
                    p95_us: 99.25,
                    p99_us: 150.0,
                },
            },
        ];
        for reply in cases {
            let line = reply.to_string();
            assert_eq!(Reply::parse(&line).unwrap(), reply, "round trip of {line:?}");
        }
    }

    #[test]
    fn legacy_err_lines_without_codes_still_parse() {
        // A transcript from a pre-v2 server has no code token.
        let reply = Reply::parse("ERR q1 unknown node term \":Nobody\"").unwrap();
        assert_eq!(
            reply,
            Reply::Error {
                id: "q1".into(),
                code: None,
                message: "unknown node term \":Nobody\"".into(),
            }
        );
        // And re-displays without inventing one.
        assert_eq!(reply.to_string(), "ERR q1 unknown node term \":Nobody\"");

        // A v1 parser that treats everything after the id as the message
        // still sees the v2 line: the code token folds into the message.
        let v2_line = Reply::error("q1", ErrorCode::Parse, "bad query").to_string();
        assert_eq!(v2_line, "ERR q1 code=parse bad query");
        let (verb, rest) = next_token(&v2_line);
        let (id, v1_message) = next_token(rest);
        assert_eq!((verb, id), ("ERR", "q1"));
        assert_eq!(v1_message, "code=parse bad query");
    }

    #[test]
    fn error_codes_round_trip_the_taxonomy() {
        for code in [
            ErrorCode::UnknownTenant,
            ErrorCode::Parse,
            ErrorCode::Quota,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
            assert!(
                code.as_str().chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{code} is not kebab-case"
            );
        }
        assert_eq!(ErrorCode::parse("no-such-code"), None);
        // An unknown code token is legacy-folded into the message, not lost.
        let reply = Reply::parse("ERR q1 code=future-code something new").unwrap();
        let Reply::Error { code, message, .. } = reply else {
            panic!("wrong variant");
        };
        assert_eq!(code, None);
        assert_eq!(message, "code=future-code something new");
    }

    #[test]
    fn metrics_reply_frames_its_body() {
        let reply = Reply::Metrics {
            id: "m1".into(),
            text: "# HELP x y\n# TYPE x counter\nx 3\n".into(),
        };
        let wire = reply.to_string();
        let mut lines = wire.lines();
        // Header counts body lines + the # EOF sentinel.
        assert_eq!(lines.next(), Some("METRICS m1 lines=4"));
        assert_eq!(wire.lines().last(), Some("# EOF"));
        assert_eq!(wire.lines().count(), 5);
        assert!(!wire.ends_with('\n'), "transport's writeln! supplies the final newline");

        // The header alone parses back into a (body-less) Metrics reply.
        let parsed = Reply::parse("METRICS m1 lines=4").unwrap();
        assert_eq!(
            parsed,
            Reply::Metrics {
                id: "m1".into(),
                text: String::new()
            }
        );

        // Empty body still frames a lone # EOF.
        let empty = Reply::Metrics {
            id: "m2".into(),
            text: String::new(),
        };
        assert_eq!(empty.to_string(), "METRICS m2 lines=1\n# EOF");
    }

    #[test]
    fn stats_adaptation_fields_are_optional() {
        // A transcript from a server without an adapter (or an older one)
        // carries no retrains/added/model/tv/uncovered fields; they default
        // to 0.
        let reply = Reply::parse("STATS s served=5 shed=0 batches=2 p50us=1.5 p95us=2.5 p99us=3.5").unwrap();
        let Reply::Stats { snapshot, .. } = reply else {
            panic!("wrong variant");
        };
        assert_eq!(snapshot.retrains, 0);
        assert_eq!(snapshot.models_added, 0);
        assert_eq!(snapshot.model_bytes, 0);
        assert_eq!(snapshot.drift_tv, 0.0);
        assert_eq!(snapshot.drift_uncovered, 0.0);
        assert_eq!(snapshot.served, 5);
    }

    #[test]
    fn repeated_whitespace_is_one_separator() {
        // Tab-aligned or double-spaced lines are well-formed per the grammar.
        let req = Request::parse("EST \t q1   SELECT * WHERE { ?x :p ?y . }").unwrap();
        assert_eq!(
            req,
            Request::Estimate {
                tenant: None,
                id: "q1".into(),
                sparql: "SELECT * WHERE { ?x :p ?y . }".into(),
            }
        );
        let req = Request::parse("EST \t lubm \t q1   SELECT * WHERE { ?x :p ?y . }").unwrap();
        assert_eq!(
            req,
            Request::Estimate {
                tenant: Some("lubm".into()),
                id: "q1".into(),
                sparql: "SELECT * WHERE { ?x :p ?y . }".into(),
            }
        );
        assert_eq!(
            Request::parse("STATS   s1").unwrap(),
            Request::Stats {
                tenant: None,
                id: "s1".into()
            }
        );
        let reply = Reply::parse("OK  q1   2.5 us=7").unwrap();
        assert_eq!(
            reply,
            Reply::Estimate {
                id: "q1".into(),
                estimate: 2.5,
                micros: 7.0,
            }
        );
        assert_eq!(
            Reply::parse("OVERLOADED  q2  depth=8").unwrap(),
            Reply::Overloaded {
                id: "q2".into(),
                depth: 8
            }
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("FOO q1 whatever", "unknown request verb"),
            ("EST", "requires an id"),
            ("EST q1", "requires a SPARQL query"),
            ("EST q1    ", "requires a SPARQL query"),
            // Neither the second nor the third token starts the query text.
            ("EST q1 whatever", "requires a SPARQL query"),
            ("EST t q1 whatever", "requires a SPARQL query"),
            ("STATS", "requires an id"),
            ("STATS t s1 extra", "unexpected tokens"),
            ("METRICS", "requires an id"),
            ("METRICS t m1 extra", "unexpected tokens"),
            ("TENANTS", "requires an id"),
            ("TENANTS t0 extra", "unexpected tokens"),
            ("QUIT now", "unexpected tokens"),
        ] {
            let e = Request::parse(line).unwrap_err();
            assert!(
                e.message.contains(needle),
                "{line:?} should fail mentioning {needle:?}, got {:?}",
                e.message
            );
        }
    }

    const README: &str = include_str!("../../../README.md");

    /// What `readme` documents as (request verbs, reply verbs, error codes):
    /// the quoted all-caps tokens of its grammar fence (`request :=`), split
    /// at the `reply` production, and the backticked words of its "`code=`
    /// is one of" sentence.
    fn documented_vocabulary(readme: &str) -> [BTreeSet<String>; 3] {
        let fence = readme.split("```").find(|block| block.contains("request :=")).unwrap();
        let (mut requests, mut replies) = (BTreeSet::new(), BTreeSet::new());
        let mut production = &mut requests;
        for line in fence.lines() {
            if line.starts_with("reply") {
                production = &mut replies;
            }
            for quoted in line.split('"').skip(1).step_by(2) {
                if quoted.len() >= 2 && quoted.bytes().all(|b| b.is_ascii_uppercase()) {
                    production.insert(quoted.to_string());
                }
            }
        }
        let (_, tail) = readme.split_once("`code=` is one of").unwrap();
        let sentence = tail.split_once('.').map_or(tail, |(sentence, _)| sentence);
        let errors = sentence.split('`').skip(1).step_by(2).map(str::to_string).collect();
        [requests, replies, errors]
    }

    /// What this module speaks as (request verbs, reply verbs, error codes):
    /// one value of each variant, spelled by its own `Display`. The
    /// `match`es have no wildcard arm, so a new variant does not compile
    /// until it has a value here.
    fn spoken_vocabulary() -> [BTreeSet<String>; 3] {
        let verb = |line: String| line.split_whitespace().next().unwrap_or_default().to_string();
        let mut requests = BTreeSet::new();
        for request in ["EST q SELECT", "STATS s", "METRICS m", "TENANTS t", "QUIT"].map(|l| Request::parse(l).unwrap())
        {
            match request {
                Request::Estimate { .. }
                | Request::Stats { .. }
                | Request::Metrics { .. }
                | Request::Tenants { .. }
                | Request::Quit => assert!(requests.insert(verb(request.to_string()))),
            }
        }
        let mut replies = BTreeSet::new();
        for reply in [
            "OK q 1 us=1",
            "ERR q code=parse m",
            "OVERLOADED q depth=1",
            "STATS s served=0 shed=0 batches=0 p50us=0 p95us=0 p99us=0",
            "TENANTS t",
            "METRICS m lines=1",
        ]
        .map(|l| Reply::parse(l).unwrap())
        {
            match reply {
                Reply::Estimate { .. }
                | Reply::Error { .. }
                | Reply::Overloaded { .. }
                | Reply::Stats { .. }
                | Reply::Tenants { .. }
                | Reply::Metrics { .. } => assert!(replies.insert(verb(reply.to_string()))),
            }
        }
        let mut errors = BTreeSet::new();
        for code in [
            ErrorCode::UnknownTenant,
            ErrorCode::Parse,
            ErrorCode::Quota,
            ErrorCode::Internal,
        ] {
            match code {
                ErrorCode::UnknownTenant | ErrorCode::Parse | ErrorCode::Quota | ErrorCode::Internal => {
                    assert!(errors.insert(code.as_str().to_string()))
                }
            }
        }
        [requests, replies, errors]
    }

    /// One line per vocabulary on which `readme` and this module disagree.
    fn vocabulary_drift(readme: &str) -> Vec<String> {
        let (documented, spoken) = (documented_vocabulary(readme), spoken_vocabulary());
        ["request verbs", "reply verbs", "error codes"]
            .iter()
            .zip(documented.iter().zip(&spoken))
            .filter(|(_, (doc, code))| doc != code)
            .map(|(what, (doc, code))| format!("{what}: README {doc:?} vs code {code:?}"))
            .collect()
    }

    /// The verbs and error codes the README documents are exactly the ones
    /// this module speaks. Aliases are caught by asking the parsers about
    /// every token quoted in this file.
    #[test]
    fn readme_documents_exactly_the_wire_vocabulary() {
        let drift = vocabulary_drift(README);
        assert!(drift.is_empty(), "{}", drift.join("\n"));

        // A second spelling that parses to an existing variant is a verb or
        // code too: any token quoted in this file that a parser accepts must
        // be documented.
        let [doc_requests, doc_replies, doc_errors] = documented_vocabulary(README);
        let accepts = |parsed: Result<(), ProtocolError>, unknown: &str| {
            parsed.map_or_else(|e| !e.message.starts_with(unknown), |()| true)
        };
        for token in include_str!("protocol.rs").split('"') {
            if token.is_empty() || token.contains(char::is_whitespace) {
                continue;
            }
            if accepts(Request::parse(token).map(drop), "unknown request verb") {
                assert!(
                    doc_requests.contains(token),
                    "request verb {token:?} is not in the README"
                );
            }
            if accepts(Reply::parse(token).map(drop), "unknown reply verb") {
                assert!(doc_replies.contains(token), "reply verb {token:?} is not in the README");
            }
            if ErrorCode::parse(token).is_some() {
                assert!(doc_errors.contains(token), "error code {token:?} is not in the README");
            }
        }
    }

    /// Edits `README` with `from` → `to` once and returns the drift it makes.
    fn drift_after(from: &str, to: &str) -> Vec<String> {
        assert!(README.contains(from), "{from:?} is not in the README");
        vocabulary_drift(&README.replacen(from, to, 1))
    }

    #[test]
    fn readme_check_flags_a_verb_missing_from_the_readme() {
        let dropped = drift_after("  |  \"QUIT\"", "");
        assert_eq!(dropped.len(), 1, "{dropped:?}");
        assert!(dropped[0].starts_with("request verbs"), "{dropped:?}");
        let dropped = drift_after("         | \"OVERLOADED\" <id> depth=<queue-depth>\n", "");
        assert_eq!(dropped.len(), 1, "{dropped:?}");
        assert!(dropped[0].starts_with("reply verbs"), "{dropped:?}");
        // A verb documented but not spoken drifts too.
        let added = drift_after("\"QUIT\"", "\"QUIT\"  |  \"PING\" <id>");
        assert_eq!(added.len(), 1, "{added:?}");
        assert!(added[0].starts_with("request verbs"), "{added:?}");
    }

    #[test]
    fn readme_check_flags_an_error_code_drift_in_the_readme() {
        for (from, to) in [
            ("`quota`", "`over-quota`"),
            (", or `internal`", ""),
            ("`parse`", "`parse`, `timeout`"),
        ] {
            let drift = drift_after(from, to);
            assert_eq!(drift.len(), 1, "{from:?} -> {to:?}: {drift:?}");
            assert!(drift[0].starts_with("error codes"), "{drift:?}");
        }
    }

    #[test]
    fn malformed_replies_are_rejected() {
        for line in [
            "OK q1",
            "OK q1 notanumber us=3",
            "OK q1 3.5",
            "OK q1 3.5 us=abc",
            "OVERLOADED q1",
            "OVERLOADED q1 depth=x",
            "ERR q1",
            "STATS s1 served=1",
            "STATS s1 bogus=2",
            "METRICS m1",
            "METRICS m1 lines=abc",
            "TENANTS",
            "NOPE q1 1",
        ] {
            assert!(Reply::parse(line).is_err(), "{line:?} should not parse");
        }
    }
}
