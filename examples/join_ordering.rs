//! Join ordering with learned cardinalities — the paper's motivating use
//! case ("producing efficient query plans heavily relies on accurate
//! cardinality estimates", §I; "practically useful when considering query
//! optimization, where a reordering of different patterns of smaller sizes
//! is needed", §VIII-C).
//!
//! A greedy left-deep optimizer orders the triple patterns of a star query
//! by estimated selectivity. We measure the *actual* intermediate-result
//! work of each plan and compare three estimators: the exact oracle, LMKG-S,
//! and the independence-assumption statistics block the early systems of
//! §II used.
//!
//! Run with `cargo run --release --example join_ordering`.

use lmkg::framework::{Grouping, Lmkg, LmkgConfig, ModelType};
use lmkg::supervised::LmkgSConfig;
use lmkg::GraphSummary;
use lmkg_data::{Dataset, Scale};
use lmkg_store::{counter, KnowledgeGraph, Query, QueryShape, TriplePattern};

/// Cost of a left-deep plan = total intermediate results produced, measured
/// by actually counting each prefix join.
fn plan_cost(graph: &KnowledgeGraph, order: &[TriplePattern]) -> u64 {
    let mut cost = 0u64;
    for len in 1..=order.len() {
        let prefix = Query::new(order[..len].to_vec());
        cost = cost.saturating_add(counter::cardinality(graph, &prefix));
    }
    cost
}

/// Greedy left-deep ordering: repeatedly append the pattern whose addition
/// the estimator considers most selective.
fn greedy_order(query: &Query, mut estimate: impl FnMut(&Query) -> f64) -> Vec<TriplePattern> {
    let mut remaining = query.triples.clone();
    let mut order: Vec<TriplePattern> = Vec::new();
    while !remaining.is_empty() {
        let scores: Vec<f64> = remaining
            .iter()
            .map(|t| {
                let mut cand = order.clone();
                cand.push(*t);
                estimate(&Query::new(cand))
            })
            .collect();
        let best = (0..scores.len())
            .min_by(|&a, &b| scores[a].total_cmp(&scores[b]))
            .expect("non-empty");
        order.push(remaining.remove(best));
    }
    order
}

fn main() {
    let graph = Dataset::LubmLike.generate(Scale::Ci, 11);
    println!("LUBM-like graph: {} triples", graph.num_triples());

    // Train LMKG-S on stars of sizes 2 and 3 (prefixes of our 3-way joins).
    let cfg = LmkgConfig {
        model_type: ModelType::Supervised,
        grouping: Grouping::BySize,
        shapes: vec![QueryShape::Star, QueryShape::Chain],
        sizes: vec![2, 3],
        queries_per_size: 700,
        s_config: LmkgSConfig {
            hidden: vec![128, 128],
            epochs: 60,
            ..Default::default()
        },
        u_config: Default::default(),
        workload_seed: 3,
    };
    println!("training LMKG-S…");
    let lmkg = Lmkg::build(&graph, &cfg);
    let summary = GraphSummary::build(&graph);

    // Evaluation queries: 3-way stars from the test workload generator.
    let wl = lmkg_data::WorkloadConfig::test_default(QueryShape::Star, 3, 99);
    let queries = lmkg_data::workload::generate(&graph, &wl);

    let mut totals = [0u64; 3]; // exact, lmkg, independence
    let mut wins_vs_independence = 0usize;
    let n = queries.len().min(60);
    for lq in queries.iter().take(n) {
        let exact_order = greedy_order(&lq.query, |q| counter::cardinality(&graph, q) as f64);
        let lmkg_order = greedy_order(&lq.query, |q| lmkg.estimate_query(q));
        let indep_order = greedy_order(&lq.query, |q| summary.estimate_query_independent(q));

        let costs = [
            plan_cost(&graph, &exact_order),
            plan_cost(&graph, &lmkg_order),
            plan_cost(&graph, &indep_order),
        ];
        for (t, c) in totals.iter_mut().zip(costs) {
            *t += c;
        }
        if costs[1] <= costs[2] {
            wins_vs_independence += 1;
        }
    }

    println!("\ntotal intermediate-result work across {n} three-way star joins:");
    println!("  exact-cost oracle ordering : {:>10}", totals[0]);
    println!("  LMKG-S ordering            : {:>10}", totals[1]);
    println!("  independence ordering      : {:>10}", totals[2]);
    println!(
        "\nLMKG-S plan ≤ independence plan on {wins_vs_independence}/{n} queries \
         ({:.0}% of the oracle's plan quality)",
        100.0 * totals[0] as f64 / totals[1].max(1) as f64
    );
}
