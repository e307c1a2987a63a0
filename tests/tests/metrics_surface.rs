//! Cross-crate suite for the observability surface: a `METRICS` request
//! over each transport (pipe and TCP) must return one framed, parseable
//! exposition carrying the serving counters, the stage-latency histograms,
//! the kernel-dispatch profile, and the structured event ring.

use lmkg::GraphSummary;
use lmkg_integration_tests::small_lubm;
use lmkg_serve::metrics_registry::{KERNEL_ACTIVE, KERNEL_DISPATCH, KERNEL_FLOPS, WORKSPACE_HIGH_WATER_BYTES};
use lmkg_serve::{
    serve_stream, serve_tcp, BatchConfig, EstimationService, MetricDef, MetricKind, Reply, ServeBuilder, ShutdownFlag,
    TenantSpec, DEFAULT_TENANT, REGISTRY, STAGE_NAMES,
};
use lmkg_store::KnowledgeGraph;
use std::collections::BTreeMap;
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

/// The families of one scraped exposition: name → (`# TYPE` kind, `# HELP`
/// text). Help-only info families have no kind.
fn scraped_families<'a>(body: &[&'a str]) -> BTreeMap<&'a str, (Option<&'a str>, &'a str)> {
    let mut scraped = BTreeMap::new();
    for line in body {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap();
            scraped.insert(name, (None, help));
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap();
            scraped.get_mut(name).expect("# TYPE follows its # HELP").0 = Some(kind);
        }
    }
    scraped
}

/// Asserts `def` is in the scrape with its registry kind and help text.
/// The info family's help ends in the runtime-selected kernel, so it is
/// checked by prefix.
fn assert_family_matches_registry(scraped: &BTreeMap<&str, (Option<&str>, &str)>, def: &MetricDef) {
    let (kind, help) = scraped
        .get(def.name)
        .unwrap_or_else(|| panic!("registered family {} missing from the live scrape", def.name));
    assert_eq!(
        *kind,
        def.kind.type_keyword(),
        "family {} exposes the wrong kind",
        def.name
    );
    match def.kind {
        MetricKind::Info => assert!(
            help.strip_prefix(def.help).is_some_and(|rest| rest.starts_with(" (")),
            "family {} help {help:?} does not extend its registry row",
            def.name
        ),
        _ => assert_eq!(
            *help, def.help,
            "family {} help differs from its registry row",
            def.name
        ),
    }
}

/// Runs one estimate, then `metrics_line` (a `METRICS … reg` request),
/// over a pipe session and returns the transcript.
fn scrape(svc: &EstimationService, metrics_line: &str) -> String {
    // One estimate first so conditional families (stage timings, batch
    // sizes) have samples.
    let input = format!("EST q0 SELECT * WHERE {{ ?x ?p ?y . }}\n{metrics_line}\nQUIT\n");
    String::from_utf8(serve_stream(svc, input.as_bytes(), Vec::new())).unwrap()
}

/// The registry ↔ live-surface contract: every series family in a real
/// `METRICS` scrape is declared in `lmkg_serve::REGISTRY` with the right
/// exposition kind and its exact help text, and every registered family
/// shows up in the scrape. The renderer takes every name, kind and help
/// from the registry rows, so this closes the loop against the running
/// code.
#[test]
fn live_scrape_families_match_the_registry_exactly() {
    let svc = service(Arc::new(small_lubm()));
    // The global (un-namespaced) scrape also carries the process-wide
    // kernel-profile block.
    let transcript = scrape(&svc, "METRICS reg");
    let body = extract_metrics_body(&transcript, "reg");
    let scraped = scraped_families(&body);

    for def in REGISTRY {
        assert_family_matches_registry(&scraped, def);
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

/// The labeled (v2) scrape: every registry family but the process-global
/// kernel block, each with its registry help, every sample under
/// `tenant="default"`, and no kernel family at all.
#[test]
fn labeled_scrape_carries_every_tenant_family_under_the_tenant_label() {
    let svc = service(Arc::new(small_lubm()));
    let transcript = scrape(&svc, "METRICS default reg");
    let body = extract_metrics_body(&transcript, "reg");
    let scraped = scraped_families(&body);

    // The process-global kernel-profile block renders unlabeled only.
    let kernel = [KERNEL_DISPATCH, KERNEL_FLOPS, WORKSPACE_HIGH_WATER_BYTES, KERNEL_ACTIVE];
    for def in REGISTRY {
        if kernel.iter().any(|k| k.name == def.name) {
            assert!(
                !scraped.contains_key(def.name),
                "process-global family {} in a tenant scrape",
                def.name
            );
        } else {
            assert_family_matches_registry(&scraped, def);
        }
    }
    assert_eq!(scraped.len(), REGISTRY.len() - kernel.len(), "{scraped:?}");
    for line in &body {
        if line.starts_with('#') {
            continue;
        }
        assert!(
            line.contains("{tenant=\"default\""),
            "sample without the tenant label: {line:?}"
        );
    }
}
