//! The model lifecycle, end to end: versioned snapshots, cold-start
//! serving, and memory-budgeted eviction under live traffic.
//!
//! Every service here is built the way the `serve` binary builds its own:
//! an `LmkgTenant` description handed to `ServeBuilder`, whose lifecycle
//! (`lmkg_serve::adapter`) runs tick zero at build time and the same stages
//! on every adapter tick.
//!
//! * cold start is **bitwise** — a replica restarted from a store snapshot
//!   answers the full serving path with exactly the bits the trained
//!   replica produced, and reaches serving far faster than retraining;
//! * startup is tick zero: a budget below the base evicts at build time
//!   exactly what `evict_to_budget` predicts, and a cold start that evicts
//!   persists the smaller set like any later tick would;
//! * eviction converges below the budget, keeps the workload-dominant cell
//!   covered (its estimates never change bits, so no batch was torn while
//!   the smaller set was swapped in), and the evicted set is persisted;
//! * corruption fuzzing: flipping any byte of a store file is a typed
//!   error, truncating a snapshot stream at any point is a typed error —
//!   never a panic, never a silently different model.

use lmkg::framework::{Grouping, Lmkg, LmkgConfig, ModelType};
use lmkg::supervised::LmkgSConfig;
use lmkg::unsupervised::LmkgUConfig;
use lmkg::{CardinalityEstimator, QuantMode};
use lmkg_integration_tests::{golden_fixture_path, small_lubm, test_queries};
use lmkg_modelstore::ModelStore;
use lmkg_serve::{
    render_metrics, AdapterConfig, BatchConfig, EstimationService, LmkgTenant, Origin, Reply, ServeBuilder,
    DEFAULT_TENANT,
};
use lmkg_store::{sparql, KnowledgeGraph, NodeTerm, PredId, PredTerm, Query, QueryShape, TriplePattern, VarId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// A unique throwaway store directory per call.
fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "lmkg-lifecycle-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A deliberately small supervised configuration — fast to train, slow
/// enough that loading must beat it by a wide margin.
fn small_config() -> LmkgConfig {
    LmkgConfig {
        model_type: ModelType::Supervised,
        grouping: Grouping::BySize,
        shapes: vec![QueryShape::Star, QueryShape::Chain],
        sizes: vec![2],
        queries_per_size: 150,
        s_config: LmkgSConfig {
            hidden: vec![32],
            epochs: 6,
            ..Default::default()
        },
        u_config: Default::default(),
        workload_seed: 3,
    }
}

/// One tiny trained framework, shared by the fuzzing properties (training
/// per proptest case would dominate the suite).
fn fuzz_model() -> Arc<Lmkg> {
    static MODEL: OnceLock<Arc<Lmkg>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let graph = small_lubm();
        let cfg = LmkgConfig {
            queries_per_size: 100,
            s_config: LmkgSConfig {
                hidden: vec![16],
                epochs: 2,
                ..Default::default()
            },
            ..small_config()
        };
        Arc::new(Lmkg::build(&graph, &cfg))
    }))
}

fn star2_queries(graph: &KnowledgeGraph, count: usize) -> Vec<Query> {
    test_queries(graph, QueryShape::Star, 2, count)
        .into_iter()
        .map(|lq| lq.query)
        .collect()
}

/// The specialized 2x2 grid (star/chain x sizes 2/3, one model per cell)
/// over `small_lubm`, trained once for the budget tests.
fn grid_config() -> LmkgConfig {
    LmkgConfig {
        grouping: Grouping::Specialized,
        sizes: vec![2, 3],
        ..small_config()
    }
}

fn grid_base() -> (Arc<KnowledgeGraph>, Arc<Lmkg>) {
    static BASE: OnceLock<(Arc<KnowledgeGraph>, Arc<Lmkg>)> = OnceLock::new();
    let (graph, base) = BASE.get_or_init(|| {
        let graph = Arc::new(small_lubm());
        let base = Arc::new(Lmkg::build(&graph, &grid_config()));
        assert!(base.model_count() >= 4, "specialized 2x2 grid expected");
        (graph, base)
    });
    (Arc::clone(graph), Arc::clone(base))
}

/// Sends every query as `EST q<i> …` through `svc` and returns the reply
/// bits in query order; the queue must hold the whole replay.
fn served_bits(svc: &EstimationService, graph: &KnowledgeGraph, queries: &[Query]) -> Vec<u64> {
    let (tx, rx) = mpsc::channel::<Reply>();
    for (i, q) in queries.iter().enumerate() {
        svc.handle_line(&format!("EST q{i} {}", sparql::format_query(q, graph)), &tx);
    }
    let mut bits = vec![None; queries.len()];
    for _ in queries {
        match rx.recv_timeout(Duration::from_secs(20)).expect("reply arrives") {
            Reply::Estimate { id, estimate, .. } => {
                let i: usize = id.strip_prefix('q').unwrap().parse().unwrap();
                bits[i] = Some(estimate.to_bits());
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    bits.into_iter()
        .map(|b| b.expect("every request answered once"))
        .collect()
}

#[test]
fn cold_start_is_bitwise_and_at_least_ten_times_faster_than_training() {
    let graph = Arc::new(small_lubm());
    let queries = star2_queries(&graph, 24);
    assert!(queries.len() >= 8, "workload too small: {}", queries.len());
    let dir = temp_store_dir("coldstart");

    // One replica start, as the binary does it: obtain the model set from the
    // store directory (timed), build the service — tick zero persists what
    // is not on disk yet — and replay every request through the full serving
    // path; the queue holds the whole replay, so nothing is shed.
    struct Replica {
        origin: Origin,
        obtain_time: Duration,
        snapshot_bytes: usize,
        generation: u64,
        bits: Vec<u64>,
    }
    let start_replica = || {
        let t0 = Instant::now();
        let tenant = LmkgTenant::load_or_train(DEFAULT_TENANT, Arc::clone(&graph), small_config(), Some(&dir), None)
            .expect("store is usable");
        let obtain_time = t0.elapsed();
        let origin = tenant.origin;
        let snapshot_bytes = tenant.base.save_to_vec().expect("serializes").len();
        let svc = ServeBuilder::new()
            .batch(BatchConfig {
                queue_depth: queries.len(),
                ..BatchConfig::default()
            })
            .lmkg_tenant(tenant)
            .build()
            .expect("one tenant builds");
        Replica {
            origin,
            obtain_time,
            snapshot_bytes,
            generation: svc.stats().generation,
            bits: served_bits(&svc, &graph, &queries),
        }
    };
    let trained = start_replica();
    let restarted = start_replica();
    assert_eq!(trained.origin, Origin::Trained, "an empty store trains");
    assert_eq!(
        restarted.origin,
        Origin::ColdStarted { generation: 1 },
        "a published generation loads"
    );

    assert_eq!(
        trained.bits, restarted.bits,
        "restarted replica must answer bitwise identically"
    );
    assert_eq!(restarted.bits.len(), queries.len());
    assert_eq!(
        (trained.generation, restarted.generation),
        (1, 1),
        "first publish into an empty store"
    );
    assert!(trained.snapshot_bytes > 0);
    let (train_time, load_time) = (trained.obtain_time, restarted.obtain_time);
    let speedup = train_time.as_secs_f64() / load_time.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 10.0,
        "loading must beat retraining by >= 10x, got {speedup:.1}x (train {train_time:?}, load {load_time:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Startup and run time are the same code: a tenant whose budget sits below
/// its base is evicted at build time — no adapter thread, a cold monitor, so
/// usage is empty and the order is by size — to exactly the set
/// `evict_to_budget` predicts, and serves that set's estimates.
#[test]
fn startup_enforces_the_budget_as_tick_zero() {
    let (graph, base) = grid_base();
    let budget = base.total_memory_bytes() - 1;
    let (predicted, predicted_dropped) = base.evict_to_budget(budget, &[]);
    assert!(predicted_dropped >= 1, "the budget must force at least one drop");

    // Cells that kept their model and cells that lost it (decomposition).
    let queries: Vec<Query> = [QueryShape::Star, QueryShape::Chain]
        .into_iter()
        .flat_map(|shape| [2, 3].map(|size| test_queries(&graph, shape, size, 6)))
        .flatten()
        .map(|lq| lq.query)
        .collect();
    assert!(queries.len() >= 12, "workload too small: {}", queries.len());

    let mut tenant = LmkgTenant::new(DEFAULT_TENANT, Arc::clone(&graph), Arc::clone(&base), grid_config());
    tenant.memory_budget = Some(budget);
    let svc = ServeBuilder::new()
        .batch(BatchConfig {
            queue_depth: queries.len(),
            ..BatchConfig::default()
        })
        .lmkg_tenant(tenant)
        .build()
        .expect("one tenant builds");
    let stats = svc.stats();
    assert_eq!(stats.evicted as usize, predicted_dropped, "stats: {stats}");
    assert_eq!(stats.model_bytes as usize, predicted.memory_bytes(), "stats: {stats}");
    assert_eq!(stats.generation, 0, "no store, nothing persisted: {stats}");
    let want: Vec<u64> = predicted.estimate_batch(&queries).iter().map(|e| e.to_bits()).collect();
    assert_eq!(served_bits(&svc, &graph, &queries), want);
}

/// The run-time rule — retrained or evicted ⇒ persist — holds at tick zero
/// too: restarting a published set under a lowered budget evicts once,
/// advances the generation, and the next restart loads the smaller set and
/// has nothing left to evict. `METRICS` tells the same story as `STATS`.
#[test]
fn cold_start_that_evicts_persists_the_smaller_set() {
    let graph = Arc::new(small_lubm());
    let cfg = LmkgConfig {
        grouping: Grouping::Specialized,
        ..small_config()
    };
    let dir = temp_store_dir("coldstart-evict");
    let restart = |budget: Option<usize>| {
        let mut tenant = LmkgTenant::load_or_train(DEFAULT_TENANT, Arc::clone(&graph), cfg.clone(), Some(&dir), None)
            .expect("store is usable");
        tenant.memory_budget = budget;
        let origin = tenant.origin;
        let (svc, adapter) = ServeBuilder::new()
            .lmkg_tenant(tenant)
            .build_adaptive(None)
            .expect("one tenant builds");
        (origin, svc.stats(), render_metrics(&svc.serve_stats()), adapter.stop())
    };

    let (origin, stats, _, full) = restart(None);
    assert_eq!(origin, Origin::Trained);
    assert_eq!((stats.evicted, stats.generation), (0, 1), "stats: {stats}");
    assert!(full.model_count() >= 2, "one model per shape expected");

    let budget = Some(full.total_memory_bytes() - 1);
    let (origin, stats, metrics, smaller) = restart(budget);
    assert_eq!(origin, Origin::ColdStarted { generation: 1 });
    assert_eq!(
        (stats.evicted, stats.generation),
        (1, 2),
        "an eviction is persisted: {stats}"
    );
    assert_eq!(smaller.model_count(), full.model_count() - 1);
    assert!(metrics.contains("\nlmkg_models_evicted_total 1\n"), "{metrics}");
    assert!(metrics.contains("\nlmkg_snapshot_generation 2\n"), "{metrics}");
    let (on_disk, generation) = ModelStore::open(&dir)
        .and_then(|store| store.load_latest())
        .expect("generation 2 loads");
    assert_eq!((generation, on_disk.model_count()), (2, smaller.model_count()));

    let (origin, stats, metrics, reloaded) = restart(budget);
    assert_eq!(origin, Origin::ColdStarted { generation: 2 });
    assert_eq!(
        (stats.evicted, stats.generation),
        (0, 2),
        "nothing left to evict: {stats}"
    );
    assert_eq!(reloaded.model_count(), smaller.model_count());
    assert!(metrics.contains("\nlmkg_models_evicted_total 0\n"), "{metrics}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quantized_set_cold_starts_bitwise_through_the_store() {
    let graph = Arc::new(small_lubm());
    let base = Lmkg::build(&graph, &small_config()).quantized(QuantMode::Int8);
    let dir = temp_store_dir("quantized");
    let store = ModelStore::open(&dir).expect("store opens");
    let generation = store.publish(&base).expect("publish succeeds");
    let (loaded, loaded_gen) = store.load_latest().expect("reload succeeds");
    assert_eq!(loaded_gen, generation);
    assert_eq!(
        loaded.memory_bytes(),
        base.memory_bytes(),
        "quantized footprint survives"
    );
    for q in star2_queries(&graph, 16) {
        assert_eq!(
            base.estimate(&q).to_bits(),
            loaded.estimate(&q).to_bits(),
            "quantized estimates must survive the store bitwise"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The evict-swap discipline under live traffic. The four-model grid fits its
/// budget exactly, so tick zero only persists it; a star-4 share in the
/// workload then makes the adapter train a fifth model, which pushes the set
/// over the budget in the same tick. The dominant star-2 cell must stay
/// covered, every star-2 reply during the transition must be bitwise the
/// base model's answer (survivor routing is unchanged, so a torn batch is the
/// only way to get different bits), the eviction must be exactly the
/// deterministic `evict_to_budget` result, and the smaller set must land in
/// the store as a new generation.
#[test]
fn adapter_evicts_to_budget_and_persists_without_tearing_a_batch() {
    let (graph, base) = grid_base();
    let cfg = grid_config();
    let budget = base.total_memory_bytes();
    let shift_cell = (QueryShape::Star, 4usize);
    let grown = base.extend(&graph, &[shift_cell], &cfg);
    assert!(grown.total_memory_bytes() > budget, "the retrain must break the budget");
    // Observed cells are pinned and the rest go largest-first, so the exact
    // counts do not matter — only which cells the window has seen.
    let usage = [((QueryShape::Star, 2usize), 2u64), (shift_cell, 1u64)];
    let (expected, expected_dropped) = grown.evict_to_budget(budget, &usage);
    assert!(expected_dropped >= 1, "the budget must force at least one drop");
    assert!(expected.covers(QueryShape::Star, 2), "the live cell must survive");

    let queries = star2_queries(&graph, 10);
    assert!(queries.len() >= 4);
    let mut lines: Vec<String> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| format!("EST q{i} {}", sparql::format_query(q, &graph)))
        .collect();
    let expected_bits: Vec<u64> = queries.iter().map(|q| base.estimate(q).to_bits()).collect();
    // The shifted share: answered by decomposition, then by the new model —
    // the `x` replies are not compared.
    let shifted = test_queries(&graph, shift_cell.0, shift_cell.1, 6);
    assert!(shifted.len() >= 4, "shifted workload too small: {}", shifted.len());
    lines.extend(
        shifted
            .iter()
            .enumerate()
            .map(|(i, lq)| format!("EST x{i} {}", sparql::format_query(&lq.query, &graph))),
    );

    let dir = temp_store_dir("evict");
    let store = ModelStore::open(&dir).expect("store opens");
    let mut tenant = LmkgTenant::new(DEFAULT_TENANT, Arc::clone(&graph), Arc::clone(&base), cfg);
    tenant.memory_budget = Some(budget);
    tenant.store = Some(store.clone());
    let (svc, adapter) = ServeBuilder::new()
        .batch(BatchConfig {
            max_batch: 8,
            queue_depth: 1024,
            workers: 2,
        })
        .lmkg_tenant(tenant)
        .build_adaptive(Some(AdapterConfig {
            interval: Duration::from_millis(20),
            min_observed: 16,
            ..AdapterConfig::default()
        }))
        .expect("one tenant builds");
    let stats = svc.stats();
    assert_eq!(
        (stats.evicted, stats.generation),
        (0, 1),
        "tick zero persists the base: {stats}"
    );

    let (tx, rx) = mpsc::channel::<Reply>();
    let check_replies = |round: &str| {
        for line in &lines {
            svc.handle_line(line, &tx);
        }
        for _ in &lines {
            match rx.recv_timeout(Duration::from_secs(20)).expect("reply arrives") {
                Reply::Estimate { id, estimate, .. } => {
                    let Some(i) = id.strip_prefix('q').map(|i| i.parse::<usize>().unwrap()) else {
                        continue;
                    };
                    assert_eq!(
                        estimate.to_bits(),
                        expected_bits[i],
                        "{round}: reply for q{i} must be the base model's bits — a different \
                         value means the evict-swap tore a batch or uncovered the live cell"
                    );
                }
                other => panic!("{round}: unexpected reply {other:?}"),
            }
        }
    };
    check_replies("warmup");

    // Keep traffic flowing while the adapter retrains, evicts and swaps;
    // every star-2 reply must keep the base bits throughout the transition.
    let deadline = Instant::now() + Duration::from_secs(120);
    while svc.stats().evicted == 0 {
        assert!(Instant::now() < deadline, "adapter never evicted under budget pressure");
        check_replies("during-evict");
        std::thread::sleep(Duration::from_millis(10));
    }
    check_replies("post-evict");

    let published = adapter.stop();
    assert_eq!(
        published.model_count(),
        expected.model_count(),
        "the adapter must publish exactly the deterministic eviction result"
    );
    assert!(
        published.total_memory_bytes() <= budget,
        "published set fits the budget"
    );
    assert!(published.covers(QueryShape::Star, 2), "live cell stays covered");
    for (q, &bits) in queries.iter().zip(&expected_bits) {
        assert_eq!(published.estimate(q).to_bits(), bits, "survivor routing is unchanged");
    }

    let stats = svc.stats();
    assert!(stats.evicted as usize >= expected_dropped);
    assert!(stats.generation >= 2, "the evicted set must have been persisted");
    let (reloaded, generation) = store.load_latest().expect("persisted generation loads");
    assert_eq!(generation, stats.generation);
    assert_eq!(reloaded.model_count(), published.model_count());
    for (q, &bits) in queries.iter().zip(&expected_bits) {
        assert_eq!(reloaded.estimate(q).to_bits(), bits, "restart serves the same bits");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Golden snapshots: the on-disk format across versions.
//
// `fixtures/lmkgset1_<set>.bin` are `LMKGSET1` snapshots written by an
// earlier build; `fixtures/lmkgset1_<set>.txt` holds each set's
// `total_memory_bytes` and the bit patterns of its estimates for
// `golden_probes`, the same on every GEMM kernel. The round-trip proptests
// above save and load with the same build, so a self-consistent format
// change passes them; this test is the one that fails when bytes a
// published `--model-dir` generation already holds stop loading, re-saving
// identically, or answering the same.
//
// Regenerate only after an *intentional* format or numerics change:
// `LMKG_UPDATE_FIXTURES=1 cargo test -p lmkg-integration-tests --test
// model_lifecycle golden` rewrites every sidecar from the committed
// `.bin`s. It never retrains a committed `.bin`: only a missing one is
// rebuilt first (trained, or quantized from its family's f32 set), so
// delete a `.bin` to regenerate it.

/// `(fixture name, family, weight store)` of every committed golden set.
const GOLDEN_SETS: [(&str, ModelType, Option<QuantMode>); 5] = [
    ("s_f32", ModelType::Supervised, None),
    ("s_int8", ModelType::Supervised, Some(QuantMode::Int8)),
    ("s_bf16", ModelType::Supervised, Some(QuantMode::Bf16)),
    ("u_f32", ModelType::Unsupervised, None),
    ("u_int8", ModelType::Unsupervised, Some(QuantMode::Int8)),
];

/// Tiny models: the fixtures guard the byte format, not accuracy.
fn golden_config(model_type: ModelType) -> LmkgConfig {
    LmkgConfig {
        model_type,
        queries_per_size: 100,
        s_config: LmkgSConfig {
            hidden: vec![16],
            epochs: 3,
            outlier_buffer: 4,
            ..Default::default()
        },
        // LMKG-U grows with the node domain (embeddings, output layer), so
        // its sets carry one star model at the narrowest useful widths.
        shapes: match model_type {
            ModelType::Supervised => vec![QueryShape::Star, QueryShape::Chain],
            ModelType::Unsupervised => vec![QueryShape::Star],
        },
        u_config: LmkgUConfig {
            hidden: 8,
            blocks: 1,
            embed_dim: 4,
            epochs: 4,
            train_samples: 2000,
            particles: 32,
            ..Default::default()
        },
        ..small_config()
    }
}

/// Twenty probes: covered star-2 and chain-2 workload queries, star-4
/// queries that no model covers (answered by decomposition), and eight
/// predicate-only stars whose high cardinality keeps LMKG-U's sampled
/// estimates off the floor of 1.
fn golden_probes(graph: &KnowledgeGraph) -> Vec<Query> {
    let mut probes: Vec<Query> = [
        (QueryShape::Star, 2, 6),
        (QueryShape::Chain, 2, 4),
        (QueryShape::Star, 4, 2),
    ]
    .into_iter()
    .flat_map(|(shape, size, count)| test_queries(graph, shape, size, 64).into_iter().take(count))
    .map(|lq| lq.query)
    .collect();
    let preds = graph.num_preds() as u32;
    let arm = |pred: u32, object: u16| {
        TriplePattern::new(
            NodeTerm::Var(VarId(0)),
            PredTerm::Bound(PredId(pred % preds)),
            NodeTerm::Var(VarId(object)),
        )
    };
    probes.extend((0..8).map(|i| Query::new(vec![arm(i, 1), arm(i + 1, 2)])));
    probes
}

fn render_golden_sidecar(set: &Lmkg, probes: &[Query]) -> String {
    let mut out = String::from(
        "# total_memory_bytes and estimate bits (f64, hex) of the golden\n\
         # probes; written by model_lifecycle.rs under LMKG_UPDATE_FIXTURES.\n",
    );
    out.push_str(&format!("memory_bytes {}\n", set.total_memory_bytes()));
    for est in set.estimate_query_batch(probes) {
        out.push_str(&format!("est {:016x}\n", est.to_bits()));
    }
    out
}

fn parse_golden_sidecar(text: &str) -> (usize, Vec<f64>) {
    let mut memory = None;
    let mut estimates = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        match line.split_once(' ') {
            Some(("memory_bytes", v)) => memory = Some(v.parse().expect("memory_bytes value")),
            Some(("est", v)) => estimates.push(f64::from_bits(u64::from_str_radix(v, 16).expect("estimate bits"))),
            _ => panic!("bad golden sidecar line: {line}"),
        }
    }
    (memory.expect("sidecar has a memory_bytes line"), estimates)
}

#[test]
fn golden_snapshots_load_resave_and_answer_as_committed() {
    let graph = small_lubm();
    let probes = golden_probes(&graph);
    assert_eq!(probes.len(), 20, "probe workload drifted");
    let read = |set: &str, ext: &str| {
        std::fs::read(golden_fixture_path(set, ext)).unwrap_or_else(|e| {
            panic!("missing golden fixture {set}.{ext} ({e}); regenerate with LMKG_UPDATE_FIXTURES=1")
        })
    };
    let load = |set: &str| {
        Lmkg::load(&mut read(set, "bin").as_slice()).unwrap_or_else(|e| panic!("{set}: committed bytes must load: {e}"))
    };
    let f32_set_of = |model_type: ModelType| {
        GOLDEN_SETS
            .iter()
            .find(|(_, t, m)| *t == model_type && m.is_none())
            .expect("every family has an f32 set")
            .0
    };

    if std::env::var("LMKG_UPDATE_FIXTURES").is_ok() {
        // GOLDEN_SETS lists each family's f32 set before its quantized ones.
        for (name, model_type, mode) in GOLDEN_SETS {
            let bin = golden_fixture_path(name, "bin");
            if !bin.exists() {
                let set = match mode {
                    None => Lmkg::build(&graph, &golden_config(model_type)),
                    Some(mode) => load(f32_set_of(model_type)).quantized(mode),
                };
                std::fs::create_dir_all(bin.parent().unwrap()).unwrap();
                std::fs::write(&bin, set.save_to_vec().expect("serializes")).unwrap();
                eprintln!("rebuilt golden set {name}");
            }
            std::fs::write(
                golden_fixture_path(name, "txt"),
                render_golden_sidecar(&load(name), &probes),
            )
            .unwrap();
            eprintln!("rewrote golden sidecar {name}");
        }
    }

    for (name, model_type, mode) in GOLDEN_SETS {
        let bytes = read(name, "bin");
        let (memory, want) = parse_golden_sidecar(&String::from_utf8(read(name, "txt")).expect("sidecar is text"));
        assert_eq!(want.len(), probes.len(), "{name}: sidecar is stale");

        let loaded = load(name);
        assert!(
            loaded.save_to_vec().expect("serializes") == bytes,
            "{name}: re-saving the loaded set must reproduce the committed bytes"
        );
        assert_eq!(loaded.total_memory_bytes(), memory, "{name}: memory accounting drifted");
        if let Some(mode) = mode {
            // Quantization is part of the contract too: converting the
            // committed f32 set must yield the committed int8/bf16 bytes.
            let f32_set = f32_set_of(model_type);
            assert!(
                load(f32_set).quantized(mode).save_to_vec().expect("serializes") == bytes,
                "{name}: quantizing the committed {f32_set} set must reproduce the committed bytes"
            );
        }

        let got = loaded.estimate_query_batch(&probes);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{name} probe {i}: estimate {g} must equal the committed {w} bitwise"
            );
        }
    }
}

/// The LMKG-S golden set is also a training pin: rebuilding it from its
/// config reproduces the committed bytes. (The LMKG-U set guards only the
/// format: an older build wrote it, and a rebuild today differs from it.)
#[test]
fn golden_lmkgs_set_retrains_byte_for_byte() {
    let built = Lmkg::build(&small_lubm(), &golden_config(ModelType::Supervised));
    let committed = std::fs::read(golden_fixture_path("s_f32", "bin")).expect("committed s_f32 set");
    assert!(
        built.save_to_vec().expect("serializes") == committed,
        "retraining the s_f32 golden config must reproduce the committed bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Flipping any single byte of a published store file must surface as a
    /// typed error on load — the CRC (or a header check) catches it; it
    /// never panics and never yields a silently different model.
    #[test]
    fn store_rejects_any_single_byte_corruption(offset in 0usize..1_000_000, flip in 1u8..255) {
        let model = fuzz_model();
        let dir = temp_store_dir("fuzz-corrupt");
        let store = ModelStore::open(&dir).expect("store opens");
        let generation = store.publish(&model).expect("publish succeeds");
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|e| e == "lmkg"))
            .expect("snapshot file exists");
        let mut bytes = std::fs::read(&file).unwrap();
        let at = offset % bytes.len();
        bytes[at] ^= flip;
        std::fs::write(&file, &bytes).unwrap();
        let err = store.load_generation(generation).expect_err("corruption must be detected");
        // Any typed error is acceptable; formatting it must not panic.
        let _ = err.to_string();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating a raw model-set snapshot stream at any point must be a
    /// typed `SnapshotError`, never a panic and never a successful load.
    #[test]
    fn snapshot_rejects_any_truncation(frac in 0.0f64..1.0) {
        static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
        let bytes = BYTES.get_or_init(|| fuzz_model().save_to_vec().expect("serializes"));
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        let err = Lmkg::load(&mut &bytes[..cut]).expect_err("truncation must be detected");
        let _ = err.to_string();
    }
}
