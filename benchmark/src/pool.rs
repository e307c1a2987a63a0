//! The query pool and the seeded request order.
//!
//! The pool itself is fixed (its generator seeds are constants, like the
//! dataset and model seeds): the q-error metrics are medians over the whole
//! pool, and they must not move when only the workload seed changes. The
//! `--seed` argument decides what the program actually receives: which query
//! each request carries, in which order, and where the uncovered ones fall.
//! Whatever the seed, the covered requests take the four covered cells (star
//! and chain of size 2 and 3) in turn: a session of four, a chunk of sixteen
//! and a batch of 256 then hold the same mix every time, so that one sample
//! is comparable with the next (an LMKG-U chunk costs a quarter more when it
//! happens to draw mostly size-3 queries).

use lmkg_data::workload::{self, WorkloadConfig};
use lmkg_store::{sparql, KnowledgeGraph, Query, QueryShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Sizes the served models are trained for; larger queries are decomposed.
pub const COVERED_SIZES: [usize; 2] = [2, 3];
const UNCOVERED_SIZE: usize = 5;
/// Base of the pool's generator seeds. Training workloads use
/// `model seed ^ (size << 8)`, so the pool never repeats a training query
/// stream.
const POOL_SEED: u64 = 0x1a_b001;

pub struct PoolQuery {
    pub query: Query,
    /// `SELECT * WHERE { … }`, formatted once, before any timing.
    pub sparql: String,
    /// Exact cardinality from the counting oracle.
    pub exact: u64,
}

/// `queries[..covered]` route straight to a model (star/chain of size 2
/// and 3); the rest (size 5) take the decomposition path.
pub struct Pool {
    pub queries: Vec<PoolQuery>,
    pub covered: usize,
    /// The index range of each covered (size, shape) cell.
    covered_cells: Vec<Range<usize>>,
}

impl Pool {
    pub fn generate(graph: &KnowledgeGraph, covered_per_cell: usize, uncovered_per_cell: usize) -> Pool {
        let cell = |shape: QueryShape, size: usize, count: usize| {
            let mut cfg = WorkloadConfig::test_default(shape, size, POOL_SEED ^ ((size as u64) << 8) ^ shape as u64);
            cfg.count = count;
            workload::generate(graph, &cfg).into_iter().map(|lq| PoolQuery {
                sparql: sparql::format_query(&lq.query, graph),
                query: lq.query,
                exact: lq.cardinality,
            })
        };
        let shapes = [QueryShape::Star, QueryShape::Chain];
        let mut queries: Vec<PoolQuery> = Vec::new();
        let mut covered_cells = Vec::new();
        for size in COVERED_SIZES {
            for shape in shapes {
                let start = queries.len();
                queries.extend(cell(shape, size, covered_per_cell));
                covered_cells.push(start..queries.len());
            }
        }
        let covered = queries.len();
        if uncovered_per_cell > 0 {
            queries.extend(
                shapes
                    .iter()
                    .flat_map(|&shape| cell(shape, UNCOVERED_SIZE, uncovered_per_cell)),
            );
        }
        Pool {
            queries,
            covered,
            covered_cells,
        }
    }

    pub fn plain_queries(&self) -> Vec<Query> {
        self.queries.iter().map(|q| q.query.clone()).collect()
    }
}

/// Endless walk through a seeded shuffle of an index range: every index is
/// visited once per lap, so a run touches the whole range evenly.
struct Cycle {
    perm: Vec<u32>,
    pos: usize,
}

impl Cycle {
    fn new(range: Range<usize>, rng: &mut StdRng) -> Cycle {
        let mut perm: Vec<u32> = range.map(|i| i as u32).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        Cycle { perm, pos: 0 }
    }

    fn next(&mut self) -> u32 {
        let v = self.perm[self.pos];
        self.pos = (self.pos + 1) % self.perm.len();
        v
    }
}

/// The pool index each successive request carries.
pub struct RequestOrder {
    /// One walk per covered cell; covered request `i` comes from cell
    /// `i % cells`.
    covered: Vec<Cycle>,
    covered_sent: usize,
    uncovered: Option<Cycle>,
    uncovered_share: f64,
    rng: StdRng,
}

impl RequestOrder {
    /// `stream` separates the connections of one run; `uncovered_share` of
    /// the requests (0 for none) come from the uncovered part of the pool.
    pub fn new(pool: &Pool, seed: u64, stream: u64, uncovered_share: f64) -> RequestOrder {
        let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let covered = pool
            .covered_cells
            .iter()
            .map(|cell| Cycle::new(cell.clone(), &mut rng))
            .collect();
        let uncovered = (uncovered_share > 0.0 && pool.covered < pool.queries.len())
            .then(|| Cycle::new(pool.covered..pool.queries.len(), &mut rng));
        RequestOrder {
            covered,
            covered_sent: 0,
            uncovered,
            uncovered_share,
            rng,
        }
    }
}

impl Iterator for RequestOrder {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        Some(match &mut self.uncovered {
            Some(uncovered) if self.rng.gen_bool(self.uncovered_share) => uncovered.next(),
            _ => {
                let cell = self.covered_sent % self.covered.len();
                self.covered_sent += 1;
                self.covered[cell].next()
            }
        })
    }
}

/// The wire form of request `id` for pool query `q` (`tenant` makes it a v2
/// line).
pub fn request_line(tenant: Option<&str>, id: u64, q: &PoolQuery) -> String {
    match tenant {
        Some(t) => format!("EST {t} {id} {}\n", q.sparql),
        None => format!("EST {id} {}\n", q.sparql),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg_data::{Dataset, Scale};

    fn lines(pool: &Pool, seed: u64, n: usize) -> Vec<String> {
        RequestOrder::new(pool, seed, 0, 0.1)
            .take(n)
            .enumerate()
            .map(|(i, q)| request_line(None, i as u64, &pool.queries[q as usize]))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_request_lines_and_another_seed_another_order() {
        let graph = Dataset::LubmLike.generate(Scale::Ci, 42);
        let pool = Pool::generate(&graph, 40, 10);
        assert!(pool.covered >= 100 && pool.queries.len() > pool.covered);
        // The same seed reproduces the byte-identical stream, from a pool
        // generated afresh.
        let again = Pool::generate(&graph, 40, 10);
        assert_eq!(lines(&pool, 1, 500), lines(&again, 1, 500));
        assert_ne!(lines(&pool, 1, 500), lines(&pool, 2, 500));
        // Streams of one run differ from each other too.
        let a: Vec<u32> = RequestOrder::new(&pool, 1, 0, 0.0).take(50).collect();
        let b: Vec<u32> = RequestOrder::new(&pool, 1, 1, 0.0).take(50).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn one_lap_visits_every_covered_query_once() {
        let graph = Dataset::LubmLike.generate(Scale::Ci, 42);
        let pool = Pool::generate(&graph, 20, 5);
        let mut lap: Vec<u32> = RequestOrder::new(&pool, 7, 0, 0.0).take(pool.covered).collect();
        // Any four in a row hold one query of each covered cell.
        for four in lap.chunks(4) {
            let cells: Vec<u32> = four.iter().map(|q| q / 20).collect();
            assert_eq!(cells, [0, 1, 2, 3]);
        }
        lap.sort_unstable();
        assert_eq!(lap, (0..pool.covered as u32).collect::<Vec<_>>());
        // With a share of uncovered traffic, both parts of the pool show up.
        let mixed: Vec<u32> = RequestOrder::new(&pool, 7, 0, 0.1).take(2000).collect();
        let uncovered = mixed.iter().filter(|&&q| q as usize >= pool.covered).count();
        assert!((100..300).contains(&uncovered), "{uncovered} of 2000 uncovered");
    }

    #[test]
    fn pool_labels_are_exact_counts() {
        let graph = Dataset::LubmLike.generate(Scale::Ci, 42);
        let pool = Pool::generate(&graph, 10, 3);
        for q in &pool.queries {
            assert_eq!(q.exact, lmkg_store::counter::cardinality(&graph, &q.query));
            assert!(q.exact >= 1);
            assert_eq!(sparql::parse(&q.sparql, &graph).unwrap().query, q.query);
        }
    }
}
