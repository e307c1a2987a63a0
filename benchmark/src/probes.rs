//! The probe pass of a traced run: every layer is timed on its own, from
//! outside, through its public functions (or, for the server, over the
//! wire). The same pass runs after every workload, so the per-layer numbers
//! mean the same thing whichever workload they are printed with.

use crate::bulk::{self, Built};
use crate::report::{unit_of, Outcome};
use crate::server::{Conn, Server};
use crate::stats::median;
use crate::trace::{ProbeSpan, Trace};
use crate::RunCfg;
use lmkg::supervised::QueryEncoder;
use lmkg::QuantMode;
use lmkg_data::workload::{self, WorkloadConfig};
use lmkg_encoder::SgEncoder;
use lmkg_modelstore::ModelStore;
use lmkg_nn::{Dense, Layer, Matrix, Relu, Sequential, Sigmoid, Workspace};
use lmkg_serve::{render_metrics, Reply, Request, ServeBuilder, SharedEstimator, TenantSpec};
use lmkg_store::{counter, sparql, Query, QueryShape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A timed batch aims at this length; short calls are repeated to fill it.
const BATCH_TARGET: Duration = Duration::from_millis(2);
/// Timed batches per probe (fewer when a single call is slow).
const BATCHES: usize = 9;
/// What one probe may cost in all.
const PROBE_BUDGET: Duration = Duration::from_millis(60);

struct Prober<'a> {
    out: &'a mut Outcome,
    trace: &'a mut Trace,
}

impl Prober<'_> {
    /// Median time of one call of `f`, in the unit of metric `name`.
    fn time(&mut self, name: &'static str, f: impl FnMut()) -> f64 {
        self.time_per(name, 1, f)
    }

    /// Median time of one call of `f` divided by the `items` a call works
    /// through, in the unit of metric `name`. Each timed batch of calls is
    /// one span named after the metric.
    fn time_per(&mut self, name: &'static str, items: usize, mut f: impl FnMut()) -> f64 {
        f(); // warm caches and lazy set-up
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().max(Duration::from_nanos(20));
        let calls = (BATCH_TARGET.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
        let batch = once * calls as u32;
        let batches = (PROBE_BUDGET.as_nanos() / batch.as_nanos().max(1)).clamp(3, BATCHES as u128) as usize;
        let samples: Vec<f64> = (0..batches)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..calls {
                    f();
                }
                let end = Instant::now();
                self.trace.probes.push(ProbeSpan {
                    name,
                    start,
                    end,
                    calls,
                });
                (end - start).as_nanos() as f64 / calls as f64
            })
            .collect();
        let value = median(samples) * per_ns(name) / items as f64;
        self.out.push(name, value, batches as u64 * calls * items as u64);
        value
    }

    /// Records one already-measured duration as a span and a value.
    fn once(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.trace.probes.push(ProbeSpan {
            name,
            start,
            end,
            calls: 1,
        });
        self.out.push(name, (end - start).as_nanos() as f64 * per_ns(name), 1);
    }
}

/// Factor from nanoseconds to the unit of metric `name`.
fn per_ns(name: &str) -> f64 {
    match unit_of(name) {
        "ns" => 1.0,
        "us" => 1e-3,
        "ms" => 1e-6,
        "s" => 1e-9,
        unit => unreachable!("{name} has the unit {unit:?}, not a time"),
    }
}

/// Runs every probe. `s` and `u` are the models a `bulk-*` workload already
/// built in this process; what is missing is built here.
pub fn run(
    workload: &str,
    cfg: &RunCfg,
    s: Option<Built>,
    u: Option<Built>,
    out: &mut Outcome,
    trace: &mut Trace,
) -> Result<(), String> {
    let s = s.unwrap_or_else(|| bulk::build(bulk::Kind::S));
    let u = u.unwrap_or_else(|| bulk::build(bulk::Kind::U));
    let mut p = Prober { out, trace };
    p.out.push("data.graph_generate_ms", s.graph_s * 1e3, 1);
    p.out.push("core.build_s", s.build_s, 1);
    p.out.push("core.build_lmkgu_s", u.build_s, 1);

    let graph = &*s.graph;
    let covered: Vec<Query> = s.pool.queries[..s.pool.covered]
        .iter()
        .map(|q| q.query.clone())
        .collect();
    let uncovered: Vec<Query> = s.pool.queries[s.pool.covered..]
        .iter()
        .map(|q| q.query.clone())
        .collect();
    // Rotating through a slice of the pool keeps a probe from timing one
    // lucky query.
    let mut turn = 0usize;
    let mut next = move |len: usize| {
        turn = (turn + 1) % len;
        turn
    };

    // data
    p.time("data.workload_generate_ms", || {
        let mut wl = WorkloadConfig::test_default(QueryShape::Star, 3, 1234);
        wl.count = 100;
        black_box(workload::generate(graph, &wl));
    });

    // store
    let texts: Vec<&str> = s.pool.queries[..256].iter().map(|q| q.sparql.as_str()).collect();
    let sparql_parse_ns = p.time("store.sparql_parse_ns", || {
        black_box(sparql::parse(texts[next(texts.len())], graph).expect("pool text parses"));
    });
    p.time("store.sparql_format_ns", || {
        black_box(sparql::format_query(&covered[next(256)], graph));
    });
    p.time("store.exact_count_us", || {
        black_box(counter::cardinality(graph, &covered[next(256)]));
    });

    // encoder: the SG encoder of the size-3 model, as `Lmkg::build` makes it.
    let encoder = QueryEncoder::Sg(SgEncoder::capacity_for_size(graph.num_nodes(), graph.num_preds(), 3));
    let size3: Vec<&Query> = covered.iter().filter(|q| q.size() == 3).take(256).collect();
    let mut row = vec![0.0f32; encoder.width()];
    p.time("encoder.encode_row_ns", || {
        row.fill(0.0);
        encoder
            .encode(size3[next(size3.len())], &mut row)
            .expect("a size-3 query encodes");
    });
    let mut rows = Vec::new();
    p.time_per("encoder.encode_batch256_ns_per_row", size3.len(), || {
        rows.clear();
        black_box(encoder.encode_batch(size3.iter().copied(), &mut rows));
    });

    // nn: the dense stack LMKG-S serves, with fresh weights and one reused
    // workspace.
    let width = encoder.width();
    let mut rng = StdRng::seed_from_u64(1);
    let mut stack = Sequential::new();
    stack.push(Dense::new_he(&mut rng, width, 256));
    stack.push(Relu::new());
    stack.push(Dense::new_he(&mut rng, 256, 256));
    stack.push(Relu::new());
    stack.push(Dense::new_xavier(&mut rng, 256, 1));
    stack.push(Sigmoid::new());
    let int8 = stack.quantized(QuantMode::Int8);
    let mut ws = Workspace::new();
    for (name, int8_name, m) in [
        ("nn.forward_m1_us", Some("nn.forward_int8_m1_us"), 1),
        ("nn.forward_m64_us", None, 64),
        ("nn.forward_m256_us", Some("nn.forward_int8_m256_us"), 256),
    ] {
        // One-hot-like rows, as sparse as real encodings.
        let x = Matrix::from_fn(m, width, |r, c| if (r * 31 + c) % 97 == 0 { 1.0 } else { 0.0 });
        p.time(name, || {
            let y = stack.forward_infer(&x, &mut ws);
            ws.recycle(black_box(y));
        });
        if let Some(int8_name) = int8_name {
            p.time(int8_name, || {
                let y = int8.forward_infer(&x, &mut ws);
                ws.recycle(black_box(y));
            });
        }
    }

    // core: LMKG-S
    let model = &*s.model;
    p.time("core.predict_one_us", || {
        black_box(model.estimate_query(&covered[next(256)]));
    });
    for (name, len) in [
        ("core.predict_batch64_us_per_est", 64),
        ("core.predict_batch256_us_per_est", 256),
    ] {
        p.time_per(name, len, || {
            black_box(model.estimate_query_batch(&covered[..len]));
        });
    }
    let decompose_chunk = &uncovered[..uncovered.len().min(256)];
    p.time_per("core.decompose_us_per_est", decompose_chunk.len(), || {
        black_box(model.estimate_query_batch(decompose_chunk));
    });
    let parts: usize = uncovered
        .iter()
        .map(|q| lmkg::decompose::decompose(q, model.max_covered_size()).len())
        .sum();
    p.out.push(
        "core.decompose_parts_mean",
        parts as f64 / uncovered.len() as f64,
        uncovered.len() as u64,
    );

    // nn counters over one pass of the whole pool in chunks of 256: these
    // repeat exactly, run to run.
    let before = lmkg_nn::profile::snapshot();
    for chunk in s.pool.plain_queries().chunks(256) {
        black_box(model.estimate_query_batch(chunk));
    }
    let after = lmkg_nn::profile::snapshot();
    let pool_len = s.pool.queries.len() as u64;
    let gemv = (after.gemv_scalar + after.gemv_simd) - (before.gemv_scalar + before.gemv_simd);
    let blocked = (after.blocked_scalar + after.blocked_simd) - (before.blocked_scalar + before.blocked_simd);
    p.out.push("nn.gemv_dispatches", gemv as f64, pool_len);
    p.out.push("nn.blocked_dispatches", blocked as f64, pool_len);
    p.out.push(
        "nn.flops_per_est",
        (after.flops - before.flops) as f64 / pool_len as f64,
        pool_len,
    );

    // core: quantization and the snapshot format
    p.time("core.quantize_ms", || {
        black_box(model.quantized(QuantMode::Int8));
    });
    let bytes = model.save_to_vec().map_err(|e| format!("snapshot save: {e}"))?;
    p.out.push("core.snapshot_bytes", bytes.len() as f64, 1);
    p.time("core.snapshot_save_ms", || {
        black_box(model.save_to_vec().expect("snapshot save"));
    });
    p.time("core.snapshot_load_ms", || {
        black_box(lmkg::Lmkg::load(&mut bytes.as_slice()).expect("snapshot load"));
    });

    // core: LMKG-U, single and batched
    let u_queries = u.pool.plain_queries();
    p.time("core.lmkgu_estimate_ms", || {
        black_box(u.model.estimate_query(&u_queries[next(16)]));
    });
    p.time_per("core.lmkgu_batch16_ms_per_est", 16, || {
        black_box(u.model.estimate_query_batch(&u_queries[..16]));
    });

    // serve::protocol, serve::expose, obs
    let request_lines: Vec<String> = texts.iter().enumerate().map(|(i, t)| format!("EST {i} {t}")).collect();
    p.time("serve.protocol.request_parse_ns", || {
        black_box(Request::parse(&request_lines[next(request_lines.len())]).expect("request parses"));
    });
    let reply = Reply::Estimate {
        id: "123456".into(),
        estimate: 1234.567890123,
        micros: 2345.678,
    };
    p.time("serve.protocol.reply_format_ns", || {
        black_box(reply.to_string());
    });
    let reply_line = reply.to_string();
    p.time("serve.protocol.reply_parse_ns", || {
        black_box(Reply::parse(&reply_line).expect("reply parses"));
    });
    let hist = lmkg_obs::Histogram::new();
    let mut v = 1.0f64;
    p.time("obs.hist_record_ns", || {
        v = if v > 1e6 { 1.0 } else { v * 1.37 };
        hist.record(black_box(v));
    });

    // serve::batcher through the public in-process API, default knobs.
    let svc = ServeBuilder::new()
        .tenant(TenantSpec::new(
            "default",
            Arc::clone(&s.graph),
            Arc::clone(&s.model) as SharedEstimator,
        ))
        .build()
        .map_err(|e| format!("in-process service: {e}"))?;
    let (tx, rx) = mpsc::channel();
    p.time("serve.batcher.idle_roundtrip_us", || {
        svc.handle_line(&request_lines[next(request_lines.len())], &tx);
        black_box(rx.recv().expect("a reply"));
    });
    let mut handle_line_ns = Vec::new();
    p.time("serve.batcher.burst64_roundtrip_us", || {
        let t0 = Instant::now();
        for line in &request_lines[..64] {
            svc.handle_line(line, &tx);
        }
        handle_line_ns.push(t0.elapsed().as_nanos() as f64 / 64.0);
        for _ in 0..64 {
            black_box(rx.recv().expect("a reply"));
        }
    });
    let samples = handle_line_ns.len() as u64 * 64;
    p.out
        .push("serve.batcher.handle_line_ns", median(handle_line_ns), samples);
    let stats = svc.serve_stats();
    p.time("serve.expose.render_metrics_us", || {
        black_box(render_metrics(&stats));
    });
    drop(svc);

    // modelstore, then a server cold-started from what was published.
    let dir = cfg.out_dir.join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| -> Result<(f64, f64), String> {
        let store = ModelStore::open(&dir).map_err(|e| format!("model store: {e}"))?;
        p.time("modelstore.publish_ms", || {
            black_box(store.publish(model).expect("publish"));
        });
        p.time("modelstore.load_latest_ms", || {
            black_box(store.load_latest().expect("load_latest"));
        });
        let mut args: Vec<String> = crate::tcp::MODEL_ARGS.iter().map(|a| a.to_string()).collect();
        args.extend(["--dataset", "lubm", "--seed", "42", "--model-dir"].map(String::from));
        args.push(dir.display().to_string());
        let start = Instant::now();
        let (server, _) = Server::start(&cfg.serve_bin, &args, &cfg.out_dir.join("serve-coldstart.log"))?;
        p.once("serve.server.coldstart_ms", start, Instant::now());
        wire_probes(&mut p, &server)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let (control_rtt_us, first_reply_us) = result?;

    // The budget's two rows that no workload can measure on its own; the
    // serving rows come from the workload's scrape (0 on `bulk-*`, which
    // have no such path and so no budget).
    if p.out.get("budget.total_us").is_some() {
        // A standing connection pays one control round trip; a `churn`
        // session first has to be picked up by the accept loop.
        let transport = if workload == crate::spec::CHURN {
            first_reply_us
        } else {
            control_rtt_us
        };
        p.out.push("budget.transport_us", transport, 1);
        p.out.push("budget.sparql_parse_us", sparql_parse_ns / 1e3, 1);
        let parts: f64 = ["transport", "sparql_parse", "admission", "batch", "forward", "reply"]
            .iter()
            .filter_map(|part| p.out.get(&format!("budget.{part}_us")))
            .sum();
        let total = p.out.get("budget.total_us").unwrap_or(0.0);
        p.out.push("budget.unattributed_us", total - parts, 1);
    }
    Ok(())
}

/// Round trips that never enter the batcher, against an idle server.
/// Returns the control round trip and the first reply of a fresh
/// connection, µs.
fn wire_probes(p: &mut Prober<'_>, server: &Server) -> Result<(f64, f64), String> {
    let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
    // TENANTS: read, parse, format, write — transport and protocol only.
    let control_rtt_us = p.time("serve.server.control_rtt_us", || {
        black_box(conn.ask("TENANTS c").expect("a TENANTS reply"));
    });
    p.time("serve.server.metrics_scrape_us", || {
        black_box(conn.scrape(None).expect("a METRICS reply"));
    });
    // A fresh connection has to be picked up by the accept loop first.
    let mut first_reply = Vec::new();
    for _ in 0..15 {
        let start = Instant::now();
        let mut fresh = Conn::open(server.addr).map_err(|e| e.to_string())?;
        fresh.ask("TENANTS f")?;
        let end = Instant::now();
        p.trace.probes.push(ProbeSpan {
            name: "serve.server.first_reply_us",
            start,
            end,
            calls: 1,
        });
        first_reply.push((end - start).as_nanos() as f64 * 1e-3);
        let _ = fresh.quit();
    }
    let n = first_reply.len() as u64;
    let first_reply_us = median(first_reply);
    p.out.push("serve.server.first_reply_us", first_reply_us, n);
    let _ = conn.quit();
    Ok((control_rtt_us, first_reply_us))
}
