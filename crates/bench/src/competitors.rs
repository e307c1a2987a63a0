//! Construction and training of the full estimator line-up of §VIII:
//! impr, jsub, sumrdf, wj, cset, mscn-0, mscn-1k, LMKG-U, LMKG-S —
//! in the paper's legend order. Both LMKG rows are [`Lmkg::build`] — the
//! framework `serve` publishes and `benchmark/` measures — so the
//! reproduction scores the served model path, not a harness-private one.

use crate::BenchConfig;
use lmkg::framework::{self, Grouping, Lmkg, LmkgConfig, ModelKey, ModelType};
use lmkg::supervised::LmkgSConfig;
use lmkg::unsupervised::LmkgUConfig;
use lmkg::CardinalityEstimator;
use lmkg_baselines::{
    CharacteristicSets, Impr, ImprConfig, Jsub, JsubConfig, Mscn, MscnConfig, SumRdf, SumRdfConfig, WanderJoin,
    WanderJoinConfig,
};
use lmkg_store::{KnowledgeGraph, QueryShape};
use std::time::Instant;

/// The per-estimator columns that do not depend on the query; they travel
/// next to the estimator as a pair.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorInfo {
    /// The paper's legend label (the estimator's own name, except for the
    /// two LMKG framework configurations).
    pub label: String,
    /// Model or summary size in bytes.
    pub memory_bytes: usize,
    /// Construction + training wall time in seconds.
    pub train_s: f64,
}

/// One row of the line-up.
pub type Entrant<'g> = (EstimatorInfo, Box<dyn CardinalityEstimator + 'g>);

fn entrant<'g, E: CardinalityEstimator + 'g>(label: Option<&str>, build: impl FnOnce() -> E) -> Entrant<'g> {
    let start = Instant::now();
    let estimator = build();
    let info = EstimatorInfo {
        label: label.unwrap_or(estimator.name()).to_string(),
        memory_bytes: estimator.memory_bytes(),
        train_s: start.elapsed().as_secs_f64(),
    };
    (info, Box::new(estimator))
}

/// The key of the size-grouped LMKG-S model for `size`-triple queries.
fn size_key(size: usize) -> ModelKey {
    ModelKey {
        shape: None,
        min_size: size,
        max_size: size,
    }
}

/// LMKG-U hyper-parameters at this scale (32-dimensional term embeddings,
/// one residual block — §VIII-B).
pub fn u_config(cfg: &BenchConfig) -> LmkgUConfig {
    LmkgUConfig {
        hidden: cfg.u_hidden,
        blocks: 1,
        embed_dim: 32,
        epochs: cfg.u_epochs,
        train_samples: cfg.u_samples,
        particles: cfg.particles,
        seed: cfg.seed,
        ..Default::default()
    }
}

/// The framework configuration behind the LMKG-S / LMKG-U rows: the paper's
/// main configuration (§VIII-B) — SG-Encoding with query-size grouping for
/// LMKG-S, one model per (type, size) for LMKG-U. A size-grouped model
/// covers two shapes, so `2 × train_queries` per model is `train_queries`
/// per (shape, size) cell.
pub fn lmkg_config(cfg: &BenchConfig, model_type: ModelType) -> LmkgConfig {
    LmkgConfig {
        model_type,
        grouping: Grouping::BySize,
        shapes: vec![QueryShape::Star, QueryShape::Chain],
        sizes: cfg.sizes.clone(),
        queries_per_size: 2 * cfg.train_queries,
        s_config: LmkgSConfig {
            hidden: vec![cfg.s_hidden, cfg.s_hidden],
            epochs: cfg.s_epochs,
            seed: cfg.seed,
            ..Default::default()
        },
        u_config: u_config(cfg),
        workload_seed: cfg.seed,
    }
}

/// The full estimator line-up over one graph, in the paper's legend order.
/// `include_lmkg_u = false` reproduces the paper's YAGO setting.
pub fn build_all<'g>(graph: &'g KnowledgeGraph, cfg: &BenchConfig, include_lmkg_u: bool) -> Vec<Entrant<'g>> {
    let (runs, seed) = (30, cfg.seed);
    let mut out = vec![
        entrant(None, || {
            let imp = ImprConfig {
                runs,
                samples_per_run: 20,
                burn_in: 12,
                seed,
            };
            Impr::new(graph, imp)
        }),
        entrant(None, || {
            Jsub::new(
                graph,
                JsubConfig {
                    runs,
                    walks_per_run: 50,
                    seed,
                },
            )
        }),
        entrant(None, || SumRdf::build(graph, SumRdfConfig::default())),
        entrant(None, || {
            WanderJoin::new(
                graph,
                WanderJoinConfig {
                    runs,
                    walks_per_run: 50,
                    seed,
                },
            )
        }),
        entrant(None, || CharacteristicSets::build(graph)),
    ];

    // "Always train on the same queries as LMKG-S" (§VIII): MSCN gets the
    // training workloads of the size-grouped LMKG-S models, concatenated.
    let s_cfg = lmkg_config(cfg, ModelType::Supervised);
    let mscn_train: Vec<_> = cfg
        .sizes
        .iter()
        .flat_map(|&k| framework::training_workload(graph, &s_cfg, size_key(k)))
        .collect();
    for samples in [0usize, 1000] {
        out.push(entrant(None, || {
            let mut mscn = Mscn::new(
                graph,
                MscnConfig {
                    samples,
                    hidden: cfg.s_hidden.min(128),
                    epochs: cfg.s_epochs,
                    seed,
                    ..Default::default()
                },
            );
            mscn.train(&mscn_train);
            mscn
        }));
    }

    if include_lmkg_u {
        let mut models = 0;
        let u = entrant(Some("LMKG-U"), || {
            let u = Lmkg::build(graph, &lmkg_config(cfg, ModelType::Unsupervised));
            models = u.model_count();
            u
        });
        // Every cell over the node-domain guard (the paper-scale YAGO case)
        // leaves a framework without a model: no row, as in the paper.
        if models > 0 {
            out.push(u);
        }
    }
    out.push(entrant(Some("LMKG-S"), || Lmkg::build(graph, &s_cfg)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::{tiny_cfg, tiny_sweeps};
    use crate::sweep::Sweep;
    use lmkg_data::{Dataset, Scale};

    /// The paper's legend order on every dataset, and no LMKG-U on YAGO.
    #[test]
    fn build_all_produces_the_lineup() {
        const LEGEND: [&str; 9] = [
            "impr", "jsub", "sumrdf", "wj", "cset", "mscn-0", "mscn-1k", "LMKG-U", "LMKG-S",
        ];
        let [swdf, yago] = tiny_sweeps() else {
            panic!("two sweeps")
        };
        let labels = |s: &Sweep| s.estimators.iter().map(|e| e.label.clone()).collect::<Vec<_>>();
        assert_eq!(labels(swdf), LEGEND);
        let without_u: Vec<&str> = LEGEND.iter().copied().filter(|l| *l != "LMKG-U").collect();
        assert_eq!(labels(yago), without_u);
        for s in [swdf, yago] {
            // Every estimator answered every evaluation query, plausibly.
            assert_eq!(s.records.len() % s.estimators.len(), 0);
            assert!(s.records.iter().all(|r| r.estimator < s.estimators.len()));
            assert!(s.records.iter().all(|r| r.estimate >= 1.0 && r.truth >= 1));
        }
    }

    /// The one training-workload function covers every cell LMKG-S trains
    /// on: a size-grouped key yields `train_queries` star and as many chain
    /// queries of exactly its size.
    #[test]
    fn train_pools_cover_all_cells() {
        let g = Dataset::LubmLike.generate(Scale::Ci, 1);
        let cfg = tiny_cfg();
        let s_cfg = lmkg_config(&cfg, ModelType::Supervised);
        for &k in &cfg.sizes {
            let pool = framework::training_workload(&g, &s_cfg, size_key(k));
            assert_eq!(pool.len(), 2 * cfg.train_queries);
            assert!(pool.iter().all(|lq| lq.query.size() == k));
            for shape in [QueryShape::Star, QueryShape::Chain] {
                let of_shape = pool.iter().filter(|lq| lq.query.shape() == shape).count();
                assert_eq!(of_shape, cfg.train_queries, "{shape} size {k}");
            }
        }
    }
}
