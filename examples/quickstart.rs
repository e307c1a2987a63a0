//! Quickstart: build a small book knowledge graph (the paper's running
//! example from §V / Fig. 2), train a supervised LMKG-S estimator, and ask it
//! the paper's example query:
//!
//! ```sparql
//! SELECT ?x WHERE { ?x :hasAuthor :StephenKing ; :genre :Horror . }
//! ```
//!
//! Run with `cargo run --release --example quickstart`.

use lmkg::framework::{Grouping, Lmkg, LmkgConfig, ModelType};
use lmkg::supervised::LmkgSConfig;
use lmkg_store::{counter, GraphBuilder, NodeId, NodeTerm, PredId, PredTerm, Query, QueryShape, TriplePattern, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // 1. Build a knowledge graph: books, authors, genres.
    let mut rng = StdRng::seed_from_u64(1);
    let mut b = GraphBuilder::new();
    let authors = [":StephenKing", ":AgathaChristie", ":IsaacAsimov", ":UrsulaLeGuin"];
    let genres = [":Horror", ":Mystery", ":SciFi", ":Fantasy"];
    for i in 0..400 {
        let book = format!(":book{i}");
        // Stephen King is prolific, and writes mostly horror.
        let author_idx = if rng.gen_bool(0.4) {
            0
        } else {
            rng.gen_range(1..authors.len())
        };
        b.add(&book, ":hasAuthor", authors[author_idx]);
        let genre_idx = if author_idx == 0 && rng.gen_bool(0.8) {
            0
        } else {
            rng.gen_range(0..genres.len())
        };
        b.add(&book, ":genre", genres[genre_idx]);
        if rng.gen_bool(0.3) {
            b.add(&book, ":translatedTo", ":German");
        }
        b.add(authors[author_idx], ":wrote", &book);
    }
    b.add(":StephenKing", ":bornIn", ":USA");
    b.add(":IsaacAsimov", ":bornIn", ":USA");
    let graph = b.build();
    println!(
        "graph: {} triples, {} nodes, {} predicates",
        graph.num_triples(),
        graph.num_nodes(),
        graph.num_preds()
    );

    // 2. Creation phase: train LMKG-S for star and chain queries of size 2.
    let cfg = LmkgConfig {
        model_type: ModelType::Supervised,
        grouping: Grouping::BySize,
        shapes: vec![QueryShape::Star, QueryShape::Chain],
        sizes: vec![2],
        queries_per_size: 800,
        s_config: LmkgSConfig {
            hidden: vec![128, 128],
            epochs: 80,
            ..Default::default()
        },
        u_config: Default::default(),
        workload_seed: 7,
    };
    println!(
        "training LMKG-S ({} training queries per shape/size)…",
        cfg.queries_per_size
    );
    let lmkg = Lmkg::build(&graph, &cfg);
    println!("framework holds {} model(s)", lmkg.model_count());

    // 3. Execution phase: the Fig. 2 query.
    let has_author = PredId(graph.preds().get(":hasAuthor").expect("predicate exists"));
    let genre = PredId(graph.preds().get(":genre").expect("predicate exists"));
    let king = NodeId(graph.nodes().get(":StephenKing").expect("node exists"));
    let horror = NodeId(graph.nodes().get(":Horror").expect("node exists"));
    let book = NodeTerm::Var(VarId(0));
    let query = Query::new(vec![
        TriplePattern::new(book, PredTerm::Bound(has_author), NodeTerm::Bound(king)),
        TriplePattern::new(book, PredTerm::Bound(genre), NodeTerm::Bound(horror)),
    ]);

    let estimate = lmkg.estimate_query(&query);
    let exact = counter::cardinality(&graph, &query);
    let q_err = lmkg::q_error(estimate, exact);
    println!("\nSELECT ?x WHERE {{ ?x :hasAuthor :StephenKing ; :genre :Horror . }}");
    println!("  exact cardinality : {exact}");
    println!("  LMKG-S estimate   : {estimate:.1}");
    println!("  q-error           : {q_err:.2}");

    // 4. A chain query: ?x :hasAuthor ?y . ?y :bornIn :USA
    let born_in = PredId(graph.preds().get(":bornIn").expect("predicate exists"));
    let usa = NodeId(graph.nodes().get(":USA").expect("node exists"));
    let x = NodeTerm::Var(VarId(0));
    let y = NodeTerm::Var(VarId(1));
    let chain = Query::new(vec![
        TriplePattern::new(x, PredTerm::Bound(has_author), y),
        TriplePattern::new(y, PredTerm::Bound(born_in), NodeTerm::Bound(usa)),
    ]);
    let estimate = lmkg.estimate_query(&chain);
    let exact = counter::cardinality(&graph, &chain);
    println!("\nSELECT ?x WHERE {{ ?x :hasAuthor ?y . ?y :bornIn :USA . }}");
    println!("  exact cardinality : {exact}");
    println!("  LMKG-S estimate   : {estimate:.1}");
    println!("  q-error           : {:.2}", lmkg::q_error(estimate, exact));
}
