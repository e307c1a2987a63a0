//! Cross-crate suite for the observability surface: a `METRICS` request
//! over each transport (pipe and TCP) must return one framed, parseable
//! exposition carrying the serving counters, the stage-latency histograms,
//! the kernel-dispatch profile, and the structured event ring.

use lmkg::GraphSummary;
use lmkg_integration_tests::small_lubm;
use lmkg_serve::{
    serve_stream, serve_tcp, BatchConfig, EstimationService, Reply, ServeBuilder, ShutdownFlag, TenantSpec,
    DEFAULT_TENANT, REGISTRY, STAGE_NAMES,
};
use lmkg_store::KnowledgeGraph;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

fn service(graph: Arc<KnowledgeGraph>) -> EstimationService {
    let summary = GraphSummary::build(&graph);
    ServeBuilder::new()
        .batch(BatchConfig::default())
        .tenant(TenantSpec::new(DEFAULT_TENANT, graph, Arc::new(summary)))
        .build()
        .unwrap()
}

/// Extracts the framed METRICS body from a session transcript: the lines
/// after the `METRICS <id> lines=<n>` header, which the framing promises
/// are exactly `n` (including the `# EOF` sentinel) and contiguous — the
/// whole reply is written as one unit, so concurrent estimate replies
/// cannot interleave into the body.
fn extract_metrics_body<'a>(transcript: &'a str, id: &str) -> Vec<&'a str> {
    let mut lines = transcript.lines();
    let header = lines
        .by_ref()
        .find(|l| l.starts_with(&format!("METRICS {id} ")))
        .unwrap_or_else(|| panic!("no METRICS {id} header in transcript:\n{transcript}"));
    match Reply::parse(header).expect("METRICS header parses as a reply") {
        Reply::Metrics { id: got, .. } => assert_eq!(got, id),
        other => panic!("expected a METRICS reply, got {other:?}"),
    }
    let n: usize = header
        .rsplit_once("lines=")
        .and_then(|(_, n)| n.parse().ok())
        .expect("framed line count");
    let body: Vec<&str> = lines.by_ref().take(n).collect();
    assert_eq!(body.len(), n, "body shorter than the framed line count");
    assert_eq!(*body.last().unwrap(), "# EOF", "framing must end at the sentinel");
    body
}

/// The assertions both transports share: every series family the issue
/// demands is present, and every sample line is machine-parseable.
fn assert_full_exposition(body: &[&str]) {
    let text = body.join("\n");
    for stage in STAGE_NAMES {
        assert!(
            text.contains(&format!("lmkg_stage_us_count{{stage=\"{stage}\"}}")),
            "missing stage series {stage:?}:\n{text}"
        );
    }
    for needle in [
        "# TYPE lmkg_requests_served_total counter",
        "lmkg_requests_shed_total",
        "lmkg_batches_total",
        "lmkg_queue_depth",
        "lmkg_sessions_total 1",
        "lmkg_sessions_active 1",
        "lmkg_bytes_read_total",
        "lmkg_request_latency_us_count",
        "lmkg_kernel_dispatch_total{path=\"gemv\",kernel=",
        "lmkg_kernel_dispatch_total{path=\"blocked\",kernel=",
        "lmkg_kernel_flops_total",
        "lmkg_workspace_high_water_bytes",
        "lmkg_events_total{kind=\"shed\"}",
        "lmkg_events_total{kind=\"swap\"}",
        "# EVENTS",
    ] {
        assert!(text.contains(needle), "exposition missing {needle:?}:\n{text}");
    }
    for line in body {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(value.parse::<f64>().is_ok(), "unparseable sample value in {line:?}");
    }
}

#[test]
fn metrics_over_pipe_carries_every_family_and_the_parse_error_event() {
    let svc = service(Arc::new(small_lubm()));
    // Two estimates, one malformed line (a counted parse error with a ring
    // event), then the scrape. handle_line is sequential in the reader
    // loop, so the parse error is visible by the time METRICS renders.
    let input = "\
EST q0 SELECT * WHERE { ?x ?p ?y . }
EST q1 SELECT * WHERE { ?x ?p ?y . ?y ?q ?z . }
NOT-A-VERB q2
METRICS m1
QUIT
";
    let out = serve_stream(&svc, input.as_bytes(), Vec::new());
    let transcript = String::from_utf8(out).unwrap();
    let body = extract_metrics_body(&transcript, "m1");
    assert_full_exposition(&body);
    let text = body.join("\n");
    assert!(
        text.contains("lmkg_parse_errors_total 1"),
        "parse error not counted:\n{text}"
    );
    assert!(
        text.contains("lmkg_events_total{kind=\"parse_error\"} 1"),
        "parse error not in the event ring:\n{text}"
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("# EVENT ") && l.contains("parse_error")),
        "no structured parse_error event line:\n{text}"
    );
}

#[test]
fn metrics_over_tcp_matches_the_pipe_surface() {
    let svc = Arc::new(service(Arc::new(small_lubm())));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn({
        let svc = Arc::clone(&svc);
        move || serve_tcp(&svc, listener, Some(1), &ShutdownFlag::new()).unwrap()
    });

    let mut client = TcpStream::connect(addr).unwrap();
    client
        .write_all(b"EST t0 SELECT * WHERE { ?x ?p ?y . }\nMETRICS tm\nQUIT\n")
        .unwrap();
    let mut transcript = String::new();
    let mut reader = BufReader::new(client.try_clone().unwrap());
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break; // server closed after QUIT
        }
        transcript.push_str(&line);
    }
    server.join().unwrap();

    let body = extract_metrics_body(&transcript, "tm");
    assert_full_exposition(&body);
    // The byte counters saw this very session's traffic.
    let text = body.join("\n");
    let bytes_in: f64 = text
        .lines()
        .find(|l| l.starts_with("lmkg_bytes_read_total "))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(bytes_in > 0.0, "request bytes not accounted:\n{text}");
}

/// The registry ↔ live-surface contract: every series family in a real
/// `METRICS` scrape is declared in `lmkg_serve::REGISTRY` with the right
/// exposition kind, and every registered family shows up in the scrape.
/// (`lmkg-xtask check` L4 enforces the renderer ↔ registry direction
/// statically; this closes the loop against the running code.)
#[test]
fn live_scrape_families_match_the_registry_exactly() {
    let svc = service(Arc::new(small_lubm()));
    // One estimate first so conditional families (stage timings, batch
    // sizes) have samples; the global (un-namespaced) scrape also carries
    // the process-wide kernel-profile block.
    let input = "EST q0 SELECT * WHERE { ?x ?p ?y . }\nMETRICS reg\nQUIT\n";
    let out = serve_stream(&svc, input.as_bytes(), Vec::new());
    let transcript = String::from_utf8(out).unwrap();
    let body = extract_metrics_body(&transcript, "reg");

    // Scraped families: `# TYPE <name> <kind>` for sampled families plus
    // `# HELP <name> …` for help-only info families.
    let mut scraped: std::collections::BTreeMap<&str, Option<&str>> = std::collections::BTreeMap::new();
    for line in &body {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, kind) = (parts.next().unwrap(), parts.next().unwrap());
            scraped.insert(name, Some(kind));
        } else if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap();
            scraped.entry(name).or_insert(None);
        }
    }

    for def in REGISTRY {
        let kind = scraped
            .get(def.name)
            .unwrap_or_else(|| panic!("registered family {} missing from the live scrape", def.name));
        match def.kind.type_keyword() {
            Some(expected) => assert_eq!(*kind, Some(expected), "family {} exposes the wrong kind", def.name),
            // Info families render help-only.
            None => assert_eq!(*kind, None, "info family {} grew samples", def.name),
        }
    }
    for name in scraped.keys() {
        assert!(
            REGISTRY.iter().any(|d| d.name == *name),
            "live scrape carries unregistered family {name} — add it to metrics_registry.rs"
        );
    }
    // Guard the guard: the registry covers the full surface, so an
    // accidentally-emptied scrape can't vacuously pass.
    assert!(scraped.len() >= 26, "suspiciously small scrape: {scraped:?}");
}
