//! Cross-crate suite for multi-tenant serving: namespaces must be
//! *invisible* to the numbers. Two tenants served concurrently by one
//! process return estimates bitwise-identical to two single-tenant servers
//! run one after the other; a tenant at its admission quota sheds without
//! disturbing its neighbours; v1 and v2 request lines round-trip the wire;
//! and the adapter retrains one tenant under live traffic on another with
//! zero dropped replies.

use lmkg::framework::{Grouping, Lmkg, LmkgConfig, ModelType};
use lmkg::supervised::LmkgSConfig;
use lmkg::{CardinalityEstimator, GraphSummary};
use lmkg_integration_tests::{small_lubm, small_swdf, test_queries};
use lmkg_serve::{
    AdapterConfig, BatchConfig, EstimationService, LmkgTenant, Reply, Request, ServeBuilder, TenantSpec, DEFAULT_TENANT,
};
use lmkg_store::{sparql, KnowledgeGraph, Query, QueryShape};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// A deliberately narrow training recipe (star-2 only) so tests that need a
/// real learned framework stay fast and star-3 remains an uncovered cell.
fn narrow_config() -> LmkgConfig {
    LmkgConfig {
        model_type: ModelType::Supervised,
        grouping: Grouping::BySize,
        shapes: vec![QueryShape::Star],
        sizes: vec![2],
        queries_per_size: 200,
        s_config: LmkgSConfig {
            hidden: vec![64],
            epochs: 10,
            ..Default::default()
        },
        u_config: Default::default(),
        workload_seed: 3,
    }
}

/// A tenant's graph and the [`narrow_config`] framework trained on it.
type TrainedTenant = (Arc<KnowledgeGraph>, Arc<Lmkg>);

/// The LUBM-like and SWDF-like tenants, trained once for the whole suite:
/// every test serves them through `Arc`s and none mutates a framework.
fn trained_tenants() -> (TrainedTenant, TrainedTenant) {
    static TENANTS: OnceLock<(TrainedTenant, TrainedTenant)> = OnceLock::new();
    TENANTS
        .get_or_init(|| {
            let train = |graph: KnowledgeGraph| {
                let model = Arc::new(Lmkg::build(&graph, &narrow_config()));
                (Arc::new(graph), model)
            };
            (train(small_lubm()), train(small_swdf()))
        })
        .clone()
}

/// Covered star-2 queries plus a few uncovered star-3 ones (decomposition
/// path), formatted as protocol SPARQL lines.
fn tenant_workload(graph: &KnowledgeGraph) -> (Vec<Query>, Vec<String>) {
    let mut queries: Vec<Query> = Vec::new();
    for (shape, size, count) in [(QueryShape::Star, 2, 20), (QueryShape::Star, 3, 5)] {
        queries.extend(test_queries(graph, shape, size, count).into_iter().map(|lq| lq.query));
    }
    let lines = queries.iter().map(|q| sparql::format_query(q, graph)).collect();
    (queries, lines)
}

/// Replays `lines` as v2 `EST <tenant> …` requests against `svc` from this
/// thread and returns the id→bits map once every reply arrived.
fn replay_tenant(svc: &EstimationService, tenant: &str, lines: &[String]) -> HashMap<usize, u64> {
    let (tx, rx) = mpsc::channel::<Reply>();
    for (i, line) in lines.iter().enumerate() {
        svc.handle_line(&format!("EST {tenant} q{i} {line}"), &tx);
    }
    let mut got = HashMap::new();
    for _ in 0..lines.len() {
        match rx.recv_timeout(Duration::from_secs(60)).expect("no reply dropped") {
            Reply::Estimate { id, estimate, .. } => {
                let i: usize = id.strip_prefix('q').unwrap().parse().unwrap();
                assert!(got.insert(i, estimate.to_bits()).is_none(), "duplicate reply {id}");
            }
            other => panic!("unexpected reply for tenant {tenant}: {other:?}"),
        }
    }
    got
}

/// Two tenants served concurrently out of one process must be bitwise-equal
/// to two single-tenant servers run sequentially: the shared process, the
/// interleaved batching, and the namespace routing change nothing about the
/// numbers.
#[test]
fn two_tenants_concurrent_equal_two_single_tenant_servers_sequential() {
    let ((graph_a, model_a), (graph_b, model_b)) = trained_tenants();
    let (_, lines_a) = tenant_workload(&graph_a);
    let (_, lines_b) = tenant_workload(&graph_b);
    let batch = BatchConfig {
        max_batch: 5,
        queue_depth: 4096,
        workers: 2,
    };

    // Reference: one single-tenant server per graph, run sequentially.
    let mut reference: Vec<HashMap<usize, u64>> = Vec::new();
    for (graph, model, lines) in [(&graph_a, &model_a, &lines_a), (&graph_b, &model_b, &lines_b)] {
        let svc = ServeBuilder::new()
            .batch(batch.clone())
            .tenant(TenantSpec::new(
                DEFAULT_TENANT,
                Arc::clone(graph),
                Arc::clone(model) as lmkg_serve::SharedEstimator,
            ))
            .build()
            .unwrap();
        reference.push(replay_tenant(&svc, DEFAULT_TENANT, lines));
    }

    // One multi-tenant server, both tenants driven concurrently.
    let svc = ServeBuilder::new()
        .batch(batch)
        .tenant(TenantSpec::new(
            "lubm",
            Arc::clone(&graph_a),
            Arc::clone(&model_a) as lmkg_serve::SharedEstimator,
        ))
        .tenant(TenantSpec::new(
            "swdf",
            Arc::clone(&graph_b),
            Arc::clone(&model_b) as lmkg_serve::SharedEstimator,
        ))
        .build()
        .unwrap();
    let (got_a, got_b) = std::thread::scope(|s| {
        let a = s.spawn(|| replay_tenant(&svc, "lubm", &lines_a));
        let b = s.spawn(|| replay_tenant(&svc, "swdf", &lines_b));
        (a.join().unwrap(), b.join().unwrap())
    });

    for (name, got, want) in [("lubm", &got_a, &reference[0]), ("swdf", &got_b, &reference[1])] {
        assert_eq!(got.len(), want.len());
        for (i, bits) in want {
            assert_eq!(
                got[i], *bits,
                "tenant {name} query {i}: concurrent multi-tenant estimate diverges from the sequential single-tenant server"
            );
        }
    }
}

/// An estimator that holds every forward for a fixed pause, so a tenant's
/// bounded queue can be saturated deterministically.
struct SlowEstimator(Duration);

impl CardinalityEstimator for SlowEstimator {
    fn name(&self) -> &str {
        "slow"
    }
    fn memory_bytes(&self) -> usize {
        0
    }
    fn estimate(&self, _query: &Query) -> f64 {
        std::thread::sleep(self.0);
        1.0
    }
    fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        std::thread::sleep(self.0);
        vec![1.0; queries.len()]
    }
}

/// A tenant at its admission quota sheds with `OVERLOADED` while its
/// neighbour, behind the same transport, keeps answering everything.
#[test]
fn quota_exhaustion_does_not_starve_the_neighbour_tenant() {
    let graph = Arc::new(small_lubm());
    let summary = Arc::new(GraphSummary::build(&graph));
    let svc = ServeBuilder::new()
        .batch(BatchConfig {
            max_batch: 1,
            queue_depth: 256,
            workers: 1,
        })
        .tenant(
            TenantSpec::new(
                "hot",
                Arc::clone(&graph),
                Arc::new(SlowEstimator(Duration::from_millis(20))),
            )
            .quota(2),
        )
        .tenant(TenantSpec::new("cool", Arc::clone(&graph), summary))
        .build()
        .unwrap();

    let line = sparql::format_query(&test_queries(&graph, QueryShape::Star, 2, 1)[0].query, &graph);
    let (tx_hot, rx_hot) = mpsc::channel::<Reply>();
    for i in 0..60 {
        svc.handle_line(&format!("EST hot h{i} {line}"), &tx_hot);
    }
    // While the hot tenant is drowning, the cool tenant must answer all.
    let (tx_cool, rx_cool) = mpsc::channel::<Reply>();
    for i in 0..30 {
        svc.handle_line(&format!("EST cool c{i} {line}"), &tx_cool);
    }
    let mut cool_ok = 0;
    for _ in 0..30 {
        match rx_cool.recv_timeout(Duration::from_secs(30)).unwrap() {
            Reply::Estimate { .. } => cool_ok += 1,
            other => panic!("cool tenant reply degraded by the hot tenant: {other:?}"),
        }
    }
    assert_eq!(cool_ok, 30);
    let (mut hot_ok, mut hot_shed) = (0u64, 0u64);
    for _ in 0..60 {
        match rx_hot.recv_timeout(Duration::from_secs(60)).unwrap() {
            Reply::Estimate { .. } => hot_ok += 1,
            Reply::Overloaded { .. } => hot_shed += 1,
            other => panic!("unexpected hot reply: {other:?}"),
        }
    }
    assert_eq!(hot_ok + hot_shed, 60);
    assert!(hot_shed > 0, "quota 2 under a 60-request burst must shed");
    let cool = svc.tenant_stats("cool").unwrap();
    assert_eq!(cool.shed, 0, "the neighbour tenant may never shed: {cool:?}");
    let hot = svc.tenant_stats("hot").unwrap();
    assert_eq!(
        hot.shed, hot_shed,
        "per-tenant stats attribute the shed to the hot tenant"
    );
}

/// The adapter retrains and swaps one tenant's models while live traffic on
/// the other tenant keeps flowing: zero dropped replies, zero sheds, and
/// the untouched tenant's framework stays exactly as built.
#[test]
fn adapter_swaps_one_tenant_under_live_traffic_on_the_other() {
    let cfg = narrow_config();
    let ((graph_a, base_a), (graph_b, base_b)) = trained_tenants();
    let shift_cell = (QueryShape::Star, 3);
    assert!(!base_a.covers(shift_cell.0, shift_cell.1));

    let shifted: Vec<String> = test_queries(&graph_a, QueryShape::Star, 3, 12)
        .iter()
        .map(|lq| sparql::format_query(&lq.query, &graph_a))
        .collect();
    let steady: Vec<String> = test_queries(&graph_b, QueryShape::Star, 2, 12)
        .iter()
        .map(|lq| sparql::format_query(&lq.query, &graph_b))
        .collect();

    let (svc, adapter) = ServeBuilder::new()
        .batch(BatchConfig {
            max_batch: 8,
            queue_depth: 8192,
            workers: 2,
        })
        .lmkg_tenant(LmkgTenant::new(
            "a",
            Arc::clone(&graph_a),
            Arc::clone(&base_a),
            cfg.clone(),
        ))
        .lmkg_tenant(LmkgTenant::new(
            "b",
            Arc::clone(&graph_b),
            Arc::clone(&base_b),
            cfg.clone(),
        ))
        .build_adaptive(Some(AdapterConfig {
            interval: Duration::from_millis(50),
            window: 64,
            min_observed: 16,
            tv_threshold: 0.3,
            uncovered_threshold: 0.2,
            max_models: 8,
            max_new_per_cycle: 2,
        }))
        .unwrap();

    // Tenant b's live traffic runs on its own thread for the whole retrain.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (b_sent, b_ok) = std::thread::scope(|s| {
        let b_thread = s.spawn(|| {
            let (tx, rx) = mpsc::channel::<Reply>();
            let mut sent = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for line in &steady {
                    svc.handle_line(&format!("EST b s{sent} {line}"), &tx);
                    sent += 1;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            let mut ok = 0usize;
            for _ in 0..sent {
                match rx.recv_timeout(Duration::from_secs(60)).expect("b reply dropped") {
                    Reply::Estimate { .. } => ok += 1,
                    other => panic!("tenant b degraded during a's retrain: {other:?}"),
                }
            }
            (sent, ok)
        });

        // Shifted waves on tenant a until its adapter fires.
        let (tx_a, rx_a) = mpsc::channel::<Reply>();
        let mut sent_a = 0usize;
        let deadline = Instant::now() + Duration::from_secs(600);
        loop {
            for line in &shifted {
                svc.handle_line(&format!("EST a g{sent_a} {line}"), &tx_a);
                sent_a += 1;
            }
            if svc.tenant_stats("a").unwrap().retrains >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "adapter never fired for tenant a: {:?}",
                svc.tenant_stats("a")
            );
            std::thread::sleep(Duration::from_millis(100));
        }
        for _ in 0..sent_a {
            match rx_a.recv_timeout(Duration::from_secs(60)).expect("a reply dropped") {
                Reply::Estimate { .. } => {}
                other => panic!("unexpected reply on tenant a: {other:?}"),
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        b_thread.join().unwrap()
    });
    assert!(b_sent > 0);
    assert_eq!(b_ok, b_sent, "every tenant-b request must be answered");

    let stats_a = svc.tenant_stats("a").unwrap();
    assert!(stats_a.retrains >= 1 && stats_a.models_added >= 1, "a: {stats_a:?}");
    assert_eq!(stats_a.shed, 0, "a: {stats_a:?}");
    let stats_b = svc.tenant_stats("b").unwrap();
    assert_eq!(stats_b.retrains, 0, "b must not retrain: {stats_b:?}");
    assert_eq!(stats_b.models_added, 0, "b: {stats_b:?}");
    assert_eq!(stats_b.shed, 0, "b: {stats_b:?}");

    // The published frameworks: a grew by the shifted cell, b is untouched.
    let published_a = adapter.current_for("a").unwrap();
    assert!(published_a.covers(shift_cell.0, shift_cell.1));
    assert_eq!(published_a.model_count(), base_a.model_count() + 1);
    let published_b = adapter.current_for("b").unwrap();
    assert_eq!(published_b.model_count(), base_b.model_count());
    adapter.stop();
}

const TENANT_POOL: [&str; 4] = ["default", "lubm", "swdf_v2", "t-9"];
const ID_POOL: [&str; 4] = ["q1", "0", "req-42", "x_y.z"];
const SPARQL_POOL: [&str; 3] = [
    "SELECT * WHERE { ?x ?p ?y . }",
    "SELECT * WHERE { ?x :p ?y . ?y :q ?z . }",
    "SELECT ?a WHERE { ?a :knows ?b . ?b :knows ?c . ?c :knows ?a . }",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every v1 (no tenant token) and v2 (tenant token) request formats to a
    /// line that parses back to exactly the same request — the wire is a
    /// lossless round trip in both protocol generations.
    #[test]
    fn v1_and_v2_requests_round_trip_the_wire(
        t in 0usize..TENANT_POOL.len(),
        with_tenant in any::<bool>(),
        i in 0usize..ID_POOL.len(),
        s in 0usize..SPARQL_POOL.len(),
    ) {
        let tenant = with_tenant.then(|| TENANT_POOL[t].to_string());
        let id = ID_POOL[i].to_string();
        for req in [
            Request::Estimate { tenant: tenant.clone(), id: id.clone(), sparql: SPARQL_POOL[s].to_string() },
            Request::Stats { tenant: tenant.clone(), id: id.clone() },
            Request::Metrics { tenant: tenant.clone(), id: id.clone() },
            Request::Tenants { id: id.clone() },
        ] {
            let line = req.to_string();
            let back = Request::parse(&line).expect("formatted requests parse");
            prop_assert_eq!(back, req, "line {} did not round-trip", line);
        }
    }
}
