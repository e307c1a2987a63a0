//! Cross-crate suite for the serving layer: a full protocol session over a
//! trained LMKG framework must return estimates **bitwise-identical** to
//! calling `estimate_batch` directly — the wire (shortest-round-trip float
//! formatting), the micro-batcher's arbitrary re-partitioning of arrivals
//! into batches, and the reply reordering must all be invisible.

use lmkg::framework::{Grouping, Lmkg, LmkgConfig, ModelType};
use lmkg::supervised::LmkgSConfig;
use lmkg::CardinalityEstimator;
use lmkg_integration_tests::{small_lubm, test_queries};
use lmkg_serve::{serve_stream, BatchConfig, Reply, ServeBuilder, TenantSpec, DEFAULT_TENANT};

use lmkg_store::{sparql, KnowledgeGraph, Query, QueryShape};
use std::collections::HashMap;
use std::sync::Arc;

fn quick_lmkg(graph: &KnowledgeGraph) -> Lmkg {
    let cfg = LmkgConfig {
        model_type: ModelType::Supervised,
        grouping: Grouping::BySize,
        shapes: vec![QueryShape::Star, QueryShape::Chain],
        sizes: vec![2, 3],
        queries_per_size: 200,
        s_config: LmkgSConfig {
            hidden: vec![64],
            epochs: 10,
            ..Default::default()
        },
        u_config: Default::default(),
        workload_seed: 3,
    };
    Lmkg::build(graph, &cfg)
}

/// Covered sizes, an uncovered size (batched decomposition), and reply ids
/// dense enough to reassemble the order.
fn served_workload(graph: &KnowledgeGraph) -> Vec<Query> {
    let mut queries: Vec<Query> = Vec::new();
    for (shape, size, count) in [
        (QueryShape::Star, 2, 10),
        (QueryShape::Chain, 3, 10),
        (QueryShape::Star, 3, 10),
        (QueryShape::Star, 5, 5), // no covering model → decomposition path
    ] {
        queries.extend(test_queries(graph, shape, size, count).into_iter().map(|lq| lq.query));
    }
    queries
}

#[test]
fn served_estimates_are_bitwise_identical_to_direct_estimate_batch() {
    let graph = Arc::new(small_lubm());
    let lmkg = quick_lmkg(&graph);
    let queries = served_workload(&graph);
    assert!(queries.len() >= 30, "workload too small: {}", queries.len());

    let direct = lmkg.estimate_batch(&queries);

    // Session input: one EST line per query, ids q0..qN, through the text
    // protocol with a micro-batch configuration that forces the batcher to
    // re-partition the stream into many small forwards.
    let mut input = String::new();
    for (i, q) in queries.iter().enumerate() {
        input.push_str(&format!("EST q{i} {}\n", sparql::format_query(q, &graph)));
    }
    input.push_str("STATS final\nQUIT\n");

    let svc = ServeBuilder::new()
        .batch(BatchConfig {
            max_batch: 7, // deliberately not a divisor of the workload size
            queue_depth: 4096,
            workers: 2,
        })
        .tenant(TenantSpec::new(DEFAULT_TENANT, Arc::clone(&graph), Arc::new(lmkg)))
        .build()
        .unwrap();
    let out = serve_stream(&svc, input.as_bytes(), Vec::new());
    let transcript = String::from_utf8(out).expect("utf-8 replies");

    let mut served: HashMap<usize, f64> = HashMap::new();
    let mut stats = None;
    for line in transcript.lines() {
        match Reply::parse(line).expect("every reply line parses") {
            Reply::Estimate { id, estimate, micros } => {
                assert!(micros >= 0.0);
                let i: usize = id.strip_prefix('q').unwrap().parse().unwrap();
                assert!(served.insert(i, estimate).is_none(), "duplicate reply for {id}");
            }
            Reply::Stats { id, snapshot } => {
                assert_eq!(id, "final");
                stats = Some(snapshot);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(served.len(), queries.len(), "one estimate reply per request");
    for (i, direct_est) in direct.iter().enumerate() {
        let served_est = served[&i];
        assert!(
            served_est.to_bits() == direct_est.to_bits(),
            "query {i}: served {served_est} != direct {direct_est}"
        );
    }
    // The micro-batcher actually batched (fewer forwards than requests) and
    // the stats reply reflects the session. The STATS snapshot races with
    // the last in-flight batches only if requests were still queued; QUIT
    // comes after, so by the time the writer drained everything served is
    // complete — but the snapshot itself was taken when the STATS line was
    // handled, so only a lower bound is asserted.
    let stats = stats.expect("STATS reply present");
    assert!(stats.shed == 0, "nothing should shed at depth 4096: {stats:?}");
    assert!(
        stats.batches < stats.served || stats.served < queries.len() as u64,
        "expected coalescing: {stats:?}"
    );
}

#[test]
fn malformed_and_overload_replies_are_structured() {
    let graph = Arc::new(small_lubm());
    let summary = lmkg::GraphSummary::build(&graph);
    let svc = ServeBuilder::new()
        .batch(BatchConfig::default())
        .tenant(TenantSpec::new(DEFAULT_TENANT, Arc::clone(&graph), Arc::new(summary)))
        .build()
        .unwrap();

    let input = "\
EST
EST q1 SELECT nonsense
EST q2 SELECT * WHERE { ?x :no_such_predicate_anywhere ?y . }
BOGUS line here
QUIT
";
    let out = serve_stream(&svc, input.as_bytes(), Vec::new());
    let transcript = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = transcript.lines().collect();
    assert_eq!(lines.len(), 4, "unexpected transcript: {transcript}");
    // Every reply is a parseable ERR with the right id attribution.
    let ids: Vec<String> = lines
        .iter()
        .map(|l| match Reply::parse(l).expect("structured reply") {
            Reply::Error { id, .. } => id,
            other => panic!("expected ERR, got {other:?}"),
        })
        .collect();
    assert_eq!(ids, vec!["-", "q1", "q2", "-"]);
}
