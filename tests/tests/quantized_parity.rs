//! The estimator-level gates on int8/bf16 inference. Quantized estimates
//! are not bitwise-equal to f32 ones, so the fidelity gate is statistical —
//! q-error within 10 % of the f32 model — next to the memory floor (≥ 3.5×
//! for int8, ≈ 2× for bf16); what *is* bitwise is a quantized set against
//! itself: a batch answers exactly as a per-query loop, for both model
//! families.

use lmkg::framework::Lmkg;
use lmkg::metrics::QErrorStats;
use lmkg::supervised::{LmkgS, LmkgSConfig, QueryEncoder};
use lmkg::QuantMode;
use lmkg_data::workload::{self, WorkloadConfig};
use lmkg_data::{Dataset, Scale};
use lmkg_encoder::SgEncoder;
use lmkg_integration_tests::{golden_fixture_path, small_lubm, test_queries};
use lmkg_store::{Query, QueryShape};

/// The q-error regression gate for quantized serving: on a deterministic
/// trained fixture, the quantized estimator's median and p95 q-error must
/// stay within 10% of the f32 model's — quantization is a memory trade, not
/// an accuracy cliff. Int8 must also shrink the model ≥ 3.5×, bf16 ≥ ~2×.
#[test]
fn quantized_q_error_within_ten_percent_of_f32() {
    let g = Dataset::LubmLike.generate(Scale::Ci, 3);
    let data = workload::generate(&g, &WorkloadConfig::train_default(QueryShape::Star, 2, 400, 17));
    let enc = QueryEncoder::Sg(SgEncoder::capacity_for_size(g.num_nodes(), g.num_preds(), 2));
    let mut model = LmkgS::new(
        enc,
        LmkgSConfig {
            hidden: vec![64, 64],
            epochs: 60,
            batch_size: 64,
            dropout: 0.0,
            ..Default::default()
        },
    );
    model.train(&data);

    let eval = data.iter().take(200).collect::<Vec<_>>();
    let stats_of = |pred: &dyn Fn(&Query) -> f64| {
        let pairs: Vec<(f64, u64)> = eval.iter().map(|lq| (pred(&lq.query), lq.cardinality)).collect();
        QErrorStats::from_pairs(pairs).unwrap()
    };
    let f32_stats = stats_of(&|q| model.predict(q).unwrap());
    let f32_bytes = model.memory_bytes();

    for mode in [QuantMode::Int8, QuantMode::Bf16] {
        let q = model.quantized(mode);
        let q_stats = stats_of(&|query| q.predict(query).unwrap());
        assert!(
            q_stats.median <= f32_stats.median * 1.10,
            "{}: median {} vs f32 {}",
            mode.name(),
            q_stats.median,
            f32_stats.median
        );
        assert!(
            q_stats.p95 <= f32_stats.p95 * 1.10,
            "{}: p95 {} vs f32 {}",
            mode.name(),
            q_stats.p95,
            f32_stats.p95
        );
        let ratio_x10 = f32_bytes * 10 / q.memory_bytes();
        match mode {
            QuantMode::Int8 => assert!(ratio_x10 >= 35, "int8 reduction {}×/10 < 3.5×", ratio_x10),
            QuantMode::Bf16 => assert!(ratio_x10 >= 19, "bf16 reduction {}×/10 < ~2×", ratio_x10),
        }
    }
}

/// A whole quantized framework — routing, batched forwards, decomposition of
/// uncovered queries — answers a batch exactly as a per-query loop, for both
/// families and both precisions, keeps the routing of its f32 original, and
/// reports a smaller footprint. The trained f32 sets are the committed
/// golden snapshots, so the check costs no training.
#[test]
fn quantized_sets_answer_batches_as_per_query_loops_bitwise() {
    let graph = small_lubm();
    let queries: Vec<Query> = [(QueryShape::Star, 2), (QueryShape::Chain, 2), (QueryShape::Star, 4)]
        .into_iter()
        .flat_map(|(shape, size)| test_queries(&graph, shape, size, 12))
        .map(|lq| lq.query)
        .collect();
    assert!(queries.len() >= 20, "workload too small: {}", queries.len());

    for family in ["s_f32", "u_f32"] {
        let path = golden_fixture_path(family, "bin");
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("golden fixture {}: {e}", path.display()));
        let base = Lmkg::load(&mut bytes.as_slice()).expect("golden set loads");
        for mode in [QuantMode::Int8, QuantMode::Bf16] {
            let q = base.quantized(mode);
            assert_eq!(q.model_count(), base.model_count());
            for shape in [QueryShape::Star, QueryShape::Chain] {
                assert_eq!(
                    q.covers(shape, 2),
                    base.covers(shape, 2),
                    "{family}: routing must carry over"
                );
            }
            assert!(
                q.total_memory_bytes() < base.total_memory_bytes(),
                "{family} {}: {} bytes is not smaller than f32 {}",
                mode.name(),
                q.total_memory_bytes(),
                base.total_memory_bytes()
            );
            let looped: Vec<u64> = queries.iter().map(|query| q.estimate_query(query).to_bits()).collect();
            let batched: Vec<u64> = q.estimate_query_batch(&queries).iter().map(|e| e.to_bits()).collect();
            assert_eq!(
                batched,
                looped,
                "{family} {}: batch must equal the per-query loop",
                mode.name()
            );
        }
    }
}
