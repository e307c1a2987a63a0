//! The two in-process workloads: the crates are linked as a library and one
//! caller thread asks for estimates in chunks, with no transport and no
//! batcher in the way — the paper's own measurement (Fig. 11).

use crate::pool::{Pool, RequestOrder};
use crate::report::{Metric, Outcome};
use crate::server::{own_rss_peak_mb, CpuClock};
use crate::stats::{
    best_cpu_us_per_sample, highest_over, median, percentile, slice_count, sort, Samples, Timing, COARSE_SLICE_S,
    FINE_SLICE_S, P50, P95,
};
use crate::trace::{ProbeSpan, Trace};
use crate::RunCfg;
use lmkg::framework::{Grouping, Lmkg, LmkgConfig, ModelType};
use lmkg::supervised::LmkgSConfig;
use lmkg::unsupervised::LmkgUConfig;
use lmkg_data::{Dataset, Scale};
use lmkg_store::{KnowledgeGraph, Query, QueryShape};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// LMKG-S, the model the TCP workloads serve; chunks of 256,
    /// alternating a covered and an uncovered (decomposed) chunk.
    S,
    /// LMKG-U: ResMADE plus particle sampling; covered chunks of 16.
    U,
}

impl Kind {
    fn chunk(self) -> usize {
        match self {
            Kind::S => 256,
            Kind::U => 16,
        }
    }
}

/// The framework configuration `serve` builds from the pinned model flags
/// (`--sizes 2,3 --hidden 256,256 --epochs 40 --train-queries 2000`).
fn s_config() -> LmkgConfig {
    LmkgConfig {
        model_type: ModelType::Supervised,
        grouping: Grouping::BySize,
        shapes: vec![QueryShape::Star, QueryShape::Chain],
        sizes: crate::pool::COVERED_SIZES.to_vec(),
        queries_per_size: 2000,
        s_config: LmkgSConfig {
            hidden: vec![256, 256],
            epochs: 40,
            ..Default::default()
        },
        u_config: Default::default(),
        workload_seed: crate::tcp::MODEL_SEED,
    }
}

/// LMKG-U small enough to build in a few seconds; the estimate path (one
/// sliced forward per position over every particle) is the full one.
fn u_config() -> LmkgConfig {
    LmkgConfig {
        model_type: ModelType::Unsupervised,
        u_config: LmkgUConfig {
            epochs: 1,
            train_samples: 2000,
            particles: 128,
            ..Default::default()
        },
        ..s_config()
    }
}

/// A graph, the model built on it, and the pool asked of it.
pub struct Built {
    pub graph: Arc<KnowledgeGraph>,
    pub model: Arc<Lmkg>,
    pub pool: Pool,
    /// `Dataset::generate`, seconds.
    pub graph_s: f64,
    /// `Lmkg::build`, seconds.
    pub build_s: f64,
}

pub fn build(kind: Kind) -> Built {
    let t0 = Instant::now();
    let (graph, cfg) = match kind {
        Kind::S => (
            Dataset::LubmLike.generate(Scale::Default, crate::tcp::MODEL_SEED),
            s_config(),
        ),
        Kind::U => (
            Dataset::LubmLike.generate(Scale::Ci, crate::tcp::MODEL_SEED),
            u_config(),
        ),
    };
    let graph_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let model = Lmkg::build(&graph, &cfg);
    let build_s = t1.elapsed().as_secs_f64();
    // The pool is the benchmark's own cost: generated after the clocks stop.
    let pool = match kind {
        Kind::S => Pool::generate(&graph, 500, 150),
        Kind::U => Pool::generate(&graph, 24, 0),
    };
    Built {
        graph: Arc::new(graph),
        model: Arc::new(model),
        pool,
        graph_s,
        build_s,
    }
}

/// One pre-assembled chunk: the queries and their indices in the pool.
struct Chunk {
    queries: Vec<Query>,
    indices: Vec<u32>,
}

fn chunks(pool: &Pool, order: RequestOrder, len: usize, count: usize) -> Vec<Chunk> {
    let indices: Vec<u32> = order.take(len * count).collect();
    indices
        .chunks(len)
        .map(|idx| Chunk {
            queries: idx.iter().map(|&q| pool.queries[q as usize].query.clone()).collect(),
            indices: idx.to_vec(),
        })
        .collect()
}

struct Window {
    /// Microseconds per estimate, one sample per round of chunks.
    est_us: Samples,
    attempted: u64,
    failed: u64,
    /// Estimates per sample: every round has the same length.
    round_len: usize,
    /// (Seconds into the window, CPU seconds this process had used by then)
    /// at the boundaries of the coarse slices, start and end included.
    cpu_marks: Vec<(f64, f64)>,
    spans: Vec<ProbeSpan>,
}

impl Window {
    fn cpu_s(&self) -> f64 {
        self.cpu_marks[self.cpu_marks.len() - 1].1 - self.cpu_marks[0].1
    }
}

/// Calls `estimate_query_batch` round after round for `seconds`. A round is
/// one covered chunk (plus one uncovered chunk on `bulk-s`, so a sample
/// never flips between the two costs).
fn window(
    kind: Kind,
    built: &Built,
    reference: &[f64],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Window, String> {
    let pool = &built.pool;
    let laps = pool.covered.div_ceil(kind.chunk()) + 1;
    let covered = chunks(pool, RequestOrder::new(pool, seed, 0, 0.0), kind.chunk(), laps);
    let uncovered = match kind {
        Kind::S => chunks(pool, RequestOrder::new(pool, seed, 1, 1.0), kind.chunk(), 3),
        Kind::U => Vec::new(),
    };
    let mut w = Window {
        est_us: Samples::default(),
        attempted: 0,
        failed: 0,
        round_len: 0,
        cpu_marks: Vec::new(),
        spans: Vec::new(),
    };
    let slices = slice_count(seconds, COARSE_SLICE_S);
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(seconds);
    w.cpu_marks.push((0.0, CpuClock::OWN.seconds()?));
    let mut round = 0usize;
    while Instant::now() < end {
        let parts = [
            Some(&covered[round % covered.len()]),
            uncovered.get(round % uncovered.len().max(1)),
        ];
        let mut round_s = 0.0;
        let mut round_len = 0;
        for chunk in parts.into_iter().flatten() {
            let t0 = Instant::now();
            let estimates = std::hint::black_box(built.model.estimate_query_batch(&chunk.queries));
            let t1 = Instant::now();
            round_s += (t1 - t0).as_secs_f64();
            round_len += chunk.queries.len();
            w.failed += estimates
                .iter()
                .zip(&chunk.indices)
                .filter(|(est, &q)| est.to_bits() != reference[q as usize].to_bits())
                .count() as u64;
            if traced {
                w.spans.push(ProbeSpan {
                    name: "core.estimate_query_batch",
                    start: t0,
                    end: t1,
                    calls: 1,
                });
            }
        }
        w.attempted += round_len as u64;
        w.round_len = round_len;
        let at = started.elapsed().as_secs_f64();
        w.est_us.push(at, round_s * 1e6 / round_len as f64);
        if w.cpu_marks.len() < slices && at >= seconds * w.cpu_marks.len() as f64 / slices as f64 {
            w.cpu_marks.push((at, CpuClock::OWN.seconds()?));
        }
        round += 1;
    }
    w.cpu_marks
        .push((started.elapsed().as_secs_f64(), CpuClock::OWN.seconds()?));
    Ok(w)
}

/// Returns the outcome and what was built, which a traced run hands on to
/// the probes instead of building it again.
pub fn run(kind: Kind, cfg: &RunCfg, trace: &mut Trace) -> Result<(Outcome, Built), String> {
    let built = build(kind);

    // One pass over the whole pool before any timing: the q-error sample,
    // the reference every timed estimate is compared with, and the warm-up.
    let reference: Vec<f64> = built
        .pool
        .plain_queries()
        .chunks(kind.chunk())
        .flat_map(|chunk| built.model.estimate_query_batch(chunk))
        .collect();
    if let Some(bad) = reference.iter().find(|e| !e.is_finite() || **e < 1.0) {
        return Err(format!("preflight: the model returned the estimate {bad}"));
    }
    let again = built.model.estimate_query(&built.pool.queries[0].query);
    if again.to_bits() != reference[0].to_bits() {
        return Err("preflight: the same query gave two different estimates".into());
    }
    let mut qerrors: Vec<f64> = reference
        .iter()
        .zip(&built.pool.queries)
        .map(|(est, q)| lmkg::q_error(*est, q.exact))
        .collect();
    sort(&mut qerrors);

    // As on the TCP workloads: a short unmeasured stretch of the real loop.
    window(kind, &built, &reference, cfg.seed, crate::WARMUP_SECONDS, false)?;

    let mut out = Outcome::default();
    if cfg.traced {
        let plain = window(kind, &built, &reference, cfg.seed, cfg.seconds / 4.0, false)?;
        let traced = window(kind, &built, &reference, cfg.seed, cfg.seconds / 2.0, true)?;
        out.attempted = traced.attempted;
        out.failed = traced.failed;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        out.push("loadgen.cpu_share", traced.cpu_s() / (cfg.seconds / 2.0 * cores), 1);
        out.push(
            "loadgen.trace_overhead_ratio",
            Timing::of(&traced.est_us, cfg.seconds / 2.0).p50
                / Timing::of(&plain.est_us, cfg.seconds / 4.0).p50.max(f64::MIN_POSITIVE),
            traced.est_us.len() as u64,
        );
        trace.probes.extend(traced.spans);
    } else {
        let w = window(kind, &built, &reference, cfg.seed, cfg.seconds, false)?;
        let correct = w.attempted - w.failed;
        out.attempted = w.attempted;
        out.failed = w.failed;
        let timing = Timing::of(&w.est_us, cfg.seconds);
        out.push("est_p50_us", timing.p50, timing.n as u64);
        out.metrics
            .push(Metric::new("est_p99_us", timing.tail, timing.n as u64).noted(format!("p{}", timing.tail_p)));
        // Estimates per second of time inside the library: every round has
        // the same length, so a slice's rate is one over its mean sample.
        let fine = w.est_us.slices(cfg.seconds, slice_count(cfg.seconds, FINE_SLICE_S));
        let rate = highest_over(&fine, |slice| {
            1e6 * slice.len() as f64 / slice.iter().sum::<f64>().max(f64::MIN_POSITIVE)
        });
        out.push("est_per_s", rate, correct);
        out.push(
            "cpu_us_per_est",
            best_cpu_us_per_sample(&w.cpu_marks, &w.est_us) / w.round_len.max(1) as f64,
            correct,
        );
        out.push("qerror_p50", percentile(&qerrors, P50), qerrors.len() as u64);
        out.push("qerror_p95", percentile(&qerrors, P95), qerrors.len() as u64);
        out.push("model_bytes", built.model.total_memory_bytes() as f64, 1);
        out.push("rss_peak_mb", own_rss_peak_mb(), 1);
        out.push("failed_share", w.failed as f64 / w.attempted.max(1) as f64, w.attempted);
        // The other set-ups come after the window, as on the TCP workloads.
        let mut setups = vec![built.graph_s + built.build_s];
        for _ in 1..cfg.setups {
            let again = build(kind);
            setups.push(again.graph_s + again.build_s);
        }
        out.metrics
            .insert(0, Metric::new("setup_s", median(setups.clone()), setups.len() as u64));
    }
    Ok((out, built))
}
