//! The experiments that are not views over the [`crate::sweep`]: Table I,
//! Figs. 4–7, Table II and the sampling ablation. Each prints one
//! table/figure for a configuration.

use crate::{competitors, report, BenchConfig};
use lmkg::framework::{self, Grouping, Lmkg, ModelKey, ModelType};
use lmkg::metrics::{result_size_bucket, GroupedQErrors};
use lmkg::supervised::{LmkgS, LmkgSConfig, QueryEncoder};
use lmkg::unsupervised::{LmkgU, LmkgUConfig};
use lmkg::{CardinalityEstimator, QErrorStats};
use lmkg_baselines::{CharacteristicSets, Mscn, MscnConfig, SumRdf, SumRdfConfig};
use lmkg_data::workload::{self, WorkloadConfig};
use lmkg_data::{Dataset, LabeledQuery, SamplingStrategy};
use lmkg_encoder::SgEncoder;
use lmkg_store::{GraphStats, KnowledgeGraph, LogHistogram, QueryShape};

/// A subcommand name and the experiment it runs.
pub type Experiment = (&'static str, fn(&BenchConfig));

/// The experiments in the order `all` runs them.
pub const EXPERIMENTS: [Experiment; 7] = [
    ("table1", table1),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("table2", table2),
    ("ablation", ablation),
];

/// An untrained SG-encoded LMKG-S sized for `size`-triple queries.
fn sg_model(g: &KnowledgeGraph, size: usize, cfg: LmkgSConfig) -> LmkgS {
    let enc = QueryEncoder::Sg(SgEncoder::capacity_for_size(g.num_nodes(), g.num_preds(), size));
    LmkgS::new(enc, cfg)
}

/// q-error statistics of the queries an estimator answered.
fn stats(queries: &[LabeledQuery], estimate: impl Fn(&LabeledQuery) -> Option<f64>) -> QErrorStats {
    let pairs = queries
        .iter()
        .filter_map(|lq| estimate(lq).map(|e| (e, lq.cardinality)));
    QErrorStats::from_pairs(pairs).expect("non-empty")
}

/// `count` natural (unbalanced) test queries of one cell.
fn test_queries(g: &KnowledgeGraph, shape: QueryShape, size: usize, count: usize, seed: u64) -> Vec<LabeledQuery> {
    let mut wl = WorkloadConfig::test_default(shape, size, seed);
    wl.count = count;
    workload::generate(g, &wl)
}

/// Table I: experiment and dataset specifications — the generated datasets'
/// statistics next to the paper's numbers so the scale factor is explicit.
pub fn table1(cfg: &BenchConfig) {
    println!(
        "LMKG Table I — dataset specifications (scale {:?}, seed {})",
        cfg.scale, cfg.seed
    );
    println!(
        "query topologies: Chain, Star; query sizes: {:?}; result-size buckets: powers of 5",
        cfg.sizes
    );

    let mut rows = Vec::new();
    for d in Dataset::ALL {
        let g = d.generate(cfg.scale, cfg.seed);
        let s = GraphStats::compute(&g);
        let p = d.paper_stats();
        rows.push(vec![
            d.name().to_string(),
            s.triples.to_string(),
            s.entities.to_string(),
            s.predicates.to_string(),
            format!("~{}K", p.triples / 1000),
            format!("~{}K", p.entities / 1000),
            p.predicates.to_string(),
            format!("{:.2}", s.entities as f64 / s.triples as f64),
            format!("{:.2}", p.entities as f64 / p.triples as f64),
        ]);
    }
    report::print_table(
        "Table I (ours vs paper)",
        &[
            "dataset",
            "triples",
            "entities",
            "preds",
            "paper-triples",
            "paper-entities",
            "paper-preds",
            "ent/tri",
            "paper-ent/tri",
        ],
        &rows,
    );
}

/// Fig. 4: query-cardinality distribution per dataset (averaged over query
/// sizes). The paper's takeaway: "the vast amount of queries have a small
/// cardinality" with a heavy outlier tail.
pub fn fig4(cfg: &BenchConfig) {
    println!("LMKG Fig. 4 — query cardinality distribution (scale {:?})", cfg.scale);

    for d in Dataset::ALL {
        let g = d.generate(cfg.scale, cfg.seed);
        let mut hist = LogHistogram::new(5);
        // The paper plots the *natural* (unbalanced) distribution of query
        // cardinalities, averaged over the different query sizes and shapes.
        for shape in [QueryShape::Star, QueryShape::Chain] {
            for &size in &cfg.sizes {
                let seed = cfg.seed ^ ((size as u64) << 21);
                for lq in test_queries(&g, shape, size, cfg.queries_per_cell, seed) {
                    hist.add(lq.cardinality);
                }
            }
        }
        let total = hist.total().max(1);
        let rows: Vec<Vec<String>> = hist
            .counts
            .iter()
            .enumerate()
            .map(|(b, &c)| {
                vec![
                    hist.label(b),
                    c.to_string(),
                    format!("{:.1}%", 100.0 * c as f64 / total as f64),
                    "#".repeat((60 * c / total) as usize),
                ]
            })
            .collect();
        report::print_table(
            &format!("Fig. 4 — {} ({} queries)", d.name(), total),
            &["bucket", "queries", "share", "histogram"],
            &rows,
        );
    }
}

/// Fig. 5: impact of outliers on LMKG-S (star queries).
///
/// "even if we remove the top-10 outliers from the query data, we achieve a
/// higher accuracy of the model. This trend continues when a larger fraction
/// of the outliers is removed." We additionally ablate the §VIII-C
/// improvement: an outlier buffer list storing the top cardinalities.
pub fn fig5(cfg: &BenchConfig) {
    println!(
        "LMKG Fig. 5 — impact of outliers on LMKG-S (star queries, scale {:?})",
        cfg.scale
    );

    let g = Dataset::LubmLike.generate(cfg.scale, cfg.seed);
    let size = 2usize;
    let wl = WorkloadConfig::train_default(QueryShape::Star, size, cfg.train_queries.max(600), cfg.seed);
    let mut data = workload::generate(&g, &wl);
    data.sort_by_key(|lq| std::cmp::Reverse(lq.cardinality)); // outliers first

    let eval = |label: String, data: &[LabeledQuery], outlier_buffer: usize| -> Vec<String> {
        let mut model = sg_model(
            &g,
            size,
            LmkgSConfig {
                hidden: vec![cfg.s_hidden],
                epochs: cfg.s_epochs,
                outlier_buffer,
                seed: cfg.seed,
                ..Default::default()
            },
        );
        model.train(data);
        let stats = stats(data, |lq| Some(model.predict(&lq.query).unwrap_or(1.0)));
        vec![
            label,
            report::fmt(stats.mean),
            report::fmt(stats.median),
            report::fmt(stats.max),
        ]
    };

    let mut rows = Vec::new();
    for removed in [0usize, 10, 25, 50] {
        rows.push(eval(
            format!("top-{removed} removed"),
            &data[removed.min(data.len())..],
            0,
        ));
    }
    // §VIII-C improvement: keep all data, store outliers on the side.
    rows.push(eval("outlier buffer (25)".into(), &data, 25));

    report::print_table(
        "Fig. 5 — LMKG-S accuracy vs outlier handling (in-sample, star size 2)",
        &["configuration", "mean q-err", "median", "max"],
        &rows,
    );
    println!("\nexpected shape: accuracy improves monotonically as more outliers are\nremoved; the buffer-list variant recovers accuracy without dropping data.");
}

const CHECKPOINT_HEADERS: [&str; 3] = ["epochs", "avg q-err", "max q-err"];

/// One Fig. 6 row per checkpoint: `train_then_eval(n)` trains `n` more
/// epochs and returns the accuracy reached.
fn checkpoint_rows(checkpoints: [usize; 4], mut train_then_eval: impl FnMut(usize) -> QErrorStats) -> Vec<Vec<String>> {
    let mut done = 0usize;
    let mut rows = Vec::new();
    for ck in checkpoints {
        let stats = train_then_eval(ck - done);
        done = ck;
        rows.push(vec![ck.to_string(), report::fmt(stats.mean), report::fmt(stats.max)]);
    }
    rows
}

/// Fig. 6: training time vs accuracy — max and average q-error measured
/// after checkpoints of 1/2/5/10 epochs (LMKG-U) and 20/50/100/200 epochs
/// (LMKG-S), on a LUBM sample.
pub fn fig6(cfg: &BenchConfig) {
    println!("LMKG Fig. 6 — epochs vs accuracy (LUBM sample, scale {:?})", cfg.scale);
    let g = Dataset::LubmLike.generate(cfg.scale, cfg.seed);
    let size = 2usize;
    let eval_queries = test_queries(&g, QueryShape::Star, size, cfg.queries_per_cell, cfg.seed + 1);

    // (a) LMKG-U: checkpoints at 1, 2, 5, 10 epochs.
    let u_cfg = LmkgUConfig {
        epochs: 0,
        ..competitors::u_config(cfg)
    };
    let mut u = LmkgU::new(&g, QueryShape::Star, size, u_cfg).expect("domain fits at bench scale");
    let tuples = u.sample_training_tuples(&g);
    let rows_u = checkpoint_rows([1, 2, 5, 10], |epochs| {
        for _ in 0..epochs {
            u.train_epoch(&tuples);
        }
        stats(&eval_queries, |lq| u.estimate_query(&lq.query).ok())
    });
    report::print_table("Fig. 6a — LMKG-U (star size 2)", &CHECKPOINT_HEADERS, &rows_u);

    // (b) LMKG-S: checkpoints at 20, 50, 100, 200 epochs.
    let train = workload::generate(
        &g,
        &WorkloadConfig::train_default(QueryShape::Star, size, cfg.train_queries, cfg.seed),
    );
    let mut s = sg_model(
        &g,
        size,
        LmkgSConfig {
            hidden: vec![cfg.s_hidden, cfg.s_hidden],
            epochs: 0,
            seed: cfg.seed,
            ..Default::default()
        },
    );
    s.prepare(&train);
    let rows_s = checkpoint_rows([20, 50, 100, 200], |epochs| {
        for _ in 0..epochs {
            s.train_epoch(&train);
        }
        stats(&eval_queries, |lq| s.predict(&lq.query).ok())
    });
    report::print_table("Fig. 6b — LMKG-S (star size 2)", &CHECKPOINT_HEADERS, &rows_s);
    println!("\nexpected shape: both models reach satisfactory average q-error after a\nreasonable number of epochs (paper picks 5 for LMKG-U, 200 for LMKG-S).");
}

/// Fig. 7: accuracy of the grouping strategies — specialized vs size-grouped
/// vs type-grouped vs single model — per result-size bucket, for star and
/// chain queries (LMKG-S, 50 epochs, same configuration everywhere).
pub fn fig7(cfg: &BenchConfig) {
    println!(
        "LMKG Fig. 7 — grouping strategies (LUBM-like, 50 epochs, scale {:?})",
        cfg.scale
    );
    let g = Dataset::LubmLike.generate(cfg.scale, cfg.seed);

    let strategies: [(&str, Grouping); 4] = [
        ("Specialized", Grouping::Specialized),
        ("SizeGrouped", Grouping::BySize),
        ("TypeGrouped", Grouping::ByType),
        ("SingleModel", Grouping::Single),
    ];

    // Paper: "We stop after 50 epochs, where every model consists of two
    // layers and the same configuration." The framework gives every grouping
    // the same SG encoder and the same per-model training budget, so the
    // only variable is the grouping itself.
    let mk_cfg = |grouping| {
        let mut c = competitors::lmkg_config(cfg, ModelType::Supervised);
        c.grouping = grouping;
        c.queries_per_size = cfg.train_queries;
        c.s_config.epochs = 50;
        c
    };

    // The paper's Fig. 7 shows fitting quality under a fixed per-model
    // budget: "the specialized model overfits the queries and produces the
    // best estimates", while the single model spreads one budget over every
    // cell. Evaluate on the specialized models' training workloads — the
    // full per-cell workloads, of which every other grouping's training set
    // is a per-cell prefix.
    let base = mk_cfg(Grouping::Specialized);
    let eval_cells: Vec<(QueryShape, Vec<LabeledQuery>)> = base
        .cells()
        .into_iter()
        .map(|(shape, k)| {
            let key = ModelKey {
                shape: Some(shape),
                min_size: k,
                max_size: k,
            };
            (shape, framework::training_workload(&g, &base, key))
        })
        .collect();

    // Each grouping is trained once and evaluated on both shapes.
    let models: Vec<Lmkg> = strategies
        .iter()
        .map(|&(_, grouping)| Lmkg::build(&g, &mk_cfg(grouping)))
        .collect();
    let headers: Vec<String> = std::iter::once("result size".to_string())
        .chain(strategies.iter().map(|(name, _)| format!("{name} avg q-err")))
        .collect();

    for shape in [QueryShape::Star, QueryShape::Chain] {
        let per_strategy: Vec<Vec<(usize, QErrorStats)>> = models
            .iter()
            .map(|lmkg| {
                let mut grouped = GroupedQErrors::new();
                for (_, queries) in eval_cells.iter().filter(|(s, _)| *s == shape) {
                    for lq in queries {
                        let est = lmkg.estimate_query(&lq.query);
                        grouped.record(result_size_bucket(lq.cardinality, 5), est, lq.cardinality);
                    }
                }
                grouped.stats()
            })
            .collect();

        // One row per bucket, one column per strategy.
        let mut rows = Vec::new();
        for (b, _) in &per_strategy[0] {
            let mut row = vec![format!("[5^{b}, 5^{})", b + 1)];
            for stats in &per_strategy {
                let v = stats.iter().find(|(bb, _)| bb == b).map(|(_, s)| report::fmt(s.mean));
                row.push(v.unwrap_or_else(|| "-".into()));
            }
            rows.push(row);
        }
        report::print_table(&format!("Fig. 7 — {shape} queries"), &headers, &rows);
    }
    println!("\nexpected shape: Specialized best, Size/Type grouped close behind,\nSingleModel worst (paper §VIII-A, Fig. 7).");
}

fn human(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1}MB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1}KB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes}B")
    }
}

/// Table II: memory consumption of the approaches — LMKG-U and LMKG-S per
/// query size (k = 2, 3, 5), SUMRDF and CSET complete summaries, MSCN-0/1k.
/// LMKG-U reports "X" when the dataset's term domain exceeds its guard (the
/// YAGO case).
pub fn table2(cfg: &BenchConfig) {
    println!("LMKG Table II — memory consumption (scale {:?})", cfg.scale);
    println!("(models are *untrained* instantiations — parameter memory is fixed by architecture)");

    let ks = [2usize, 3, 5];
    let mut rows = Vec::new();
    for d in Dataset::ALL {
        let g = d.generate(cfg.scale, cfg.seed);
        let mut row = vec![d.name().to_string()];

        // LMKG-U per k (star models; chain models have identical shape).
        for &k in &ks {
            // The default guard (500K distinct nodes). At CI/bench scales
            // every dataset fits; at Scale::Paper the YAGO-like domain (≈12M
            // entities) exceeds it and the column reads X, as in the paper.
            row.push(match LmkgU::new(&g, QueryShape::Star, k, competitors::u_config(cfg)) {
                Ok(u) => human(CardinalityEstimator::memory_bytes(&u)),
                Err(_) => "X".into(),
            });
        }
        // LMKG-S per k (SG encoding).
        for &k in &ks {
            let s_cfg = LmkgSConfig {
                hidden: vec![cfg.s_hidden, cfg.s_hidden],
                ..Default::default()
            };
            row.push(human(CardinalityEstimator::memory_bytes(&sg_model(&g, k, s_cfg))));
        }
        // Summaries and MSCN.
        row.push(human(SumRdf::build(&g, SumRdfConfig::default()).memory_bytes()));
        row.push(human(CharacteristicSets::build(&g).memory_bytes()));
        for samples in [0, 1000] {
            let mscn_cfg = MscnConfig {
                samples,
                hidden: cfg.s_hidden.min(128),
                ..Default::default()
            };
            row.push(human(Mscn::new(&g, mscn_cfg).memory_bytes()));
        }
        rows.push(row);
    }

    report::print_table(
        "Table II — memory",
        &[
            "dataset", "U k=2", "U k=3", "U k=5", "S k=2", "S k=3", "S k=5", "SUMRDF", "CSET", "MSCN-0", "MSCN-1k",
        ],
        &rows,
    );
    println!("\nexpected shape: LMKG-S small and nearly flat in k; LMKG-U one to two\norders larger, growing with the term domain (X once the domain exceeds\nthe 500K guard — the paper-scale YAGO case); CSET small on clean schemas\n(LUBM) and larger on heterogeneous data.");
}

/// Ablation (paper §VII-A / §VIII-C): random-walk vs exact-uniform training
/// sampling for LMKG-U. The paper names "the quality of the samples" as the
/// main cause of inaccurate LMKG-U estimation and leaves "a more optimal
/// sampling approach" to future work — the uniform tuple-space sampler is
/// that approach, implementable exactly on our substrate.
pub fn ablation(cfg: &BenchConfig) {
    println!(
        "LMKG ablation — RW vs uniform training sampling for LMKG-U (scale {:?})",
        cfg.scale
    );

    let mut rows = Vec::new();
    for d in [Dataset::SwdfLike, Dataset::LubmLike] {
        let g = d.generate(cfg.scale, cfg.seed);
        let queries = test_queries(&g, QueryShape::Star, 2, cfg.queries_per_cell, cfg.seed + 3);

        for strategy in [SamplingStrategy::RandomWalk, SamplingStrategy::Uniform] {
            let u_cfg = LmkgUConfig {
                strategy,
                ..competitors::u_config(cfg)
            };
            let mut model = LmkgU::new(&g, QueryShape::Star, 2, u_cfg).expect("domain fits at bench scale");
            model.train(&g);
            let stats = stats(&queries, |lq| model.estimate_query(&lq.query).ok());
            rows.push(vec![
                d.name().to_string(),
                format!("{strategy:?}"),
                report::fmt(stats.mean),
                report::fmt(stats.median),
                report::fmt(stats.p95),
                report::fmt(stats.max),
            ]);
        }
    }
    report::print_table(
        "LMKG-U training-sampling ablation (star size 2)",
        &["dataset", "strategy", "mean q-err", "median", "p95", "max"],
        &rows,
    );
    println!("\nreading: RW training matches the (RW-generated) evaluation workload's\nterm distribution and tends to win on mean/median; exact-uniform sampling\ncovers the whole tuple space and tends to cut the worst case (max q-error).\nThe paper's §VII-A/§VIII-C discussion of sample quality is exactly this\ntension.");
}
