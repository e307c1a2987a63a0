//! Criterion microbenchmarks of the GEMM microkernels: the runtime-dispatched
//! AVX2+FMA path versus the scalar fallback on the dense shapes the LMKG
//! forwards actually issue, plus the canonical 256³ square. Besides the
//! Criterion timings, a machine-readable `BENCH_gemm.json` is written to the
//! workspace root so the per-core kernel trajectory is tracked across PRs.
//!
//! All measurements run the *single-threaded* blocked core (`parallel =
//! false`): threading is a separate lever measured by `estimation_latency`,
//! and dividing both kernels by the same thread count would only add noise
//! to the per-core ratio this bench exists to track.
//!
//! This bench is also a CI gate: if the SIMD kernel is available but slower
//! than scalar on the 256×256×256 shape, the process exits nonzero — a
//! blocked/packed SIMD path losing to its own fallback on the shape it is
//! tiled for indicates a kernel regression, not runner noise.
//!
//! A second sweep covers the small-M regime (m ∈ {1, 2, 4, 8}) where
//! `Matrix::matmul` routes to the pack-free GEMV path instead of the blocked
//! core, writing a `small_m` table into the same JSON — and gating that GEMV
//! is never slower than the blocked path at m = 1, the routing decision's
//! whole justification.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lmkg_nn::gemm::{self, Kernel};
use lmkg_nn::tensor::{matmul_forced, MatOp, MatPath};
use lmkg_nn::test_support::seeded_matrix;
use lmkg_nn::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// (label, m, k, n): the CI gate square, a large square, the batched
/// LMKG-S-style forward (1k queries through a wide dense layer), and the
/// single-query forward the serving path issues per request.
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("256x256x256", 256, 256, 256),
    ("512x512x512", 512, 512, 512),
    ("batch-forward-1000x512x128", 1000, 512, 128),
    ("per-query-1x512x128", 1, 512, 128),
];

/// Row counts of the small-M sweep — the window the pack-free GEMV path
/// serves (`m <= GEMV_MAX_M`), which is exactly the per-query / micro-batch
/// regime of the serving layer.
const SMALL_M: &[usize] = &[1, 2, 4, 8];

/// (k, n) of the small-M sweep: the serving dense layer (512→128) and a
/// square mid-size layer.
const SMALL_KN: &[(usize, usize)] = &[(512, 128), (256, 256)];

fn bench_gemm_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_kernels");
    for &(label, m, k, n) in SHAPES {
        let a = seeded_matrix(m, k, 1);
        let b = seeded_matrix(k, n, 2);
        for &kernel in gemm::available_kernels() {
            group.bench_with_input(BenchmarkId::new(kernel.name(), label), &(&a, &b), |bch, (a, b)| {
                bch.iter(|| black_box(gemm::matmul_with_kernel(kernel, a, b, false)))
            });
        }
    }
    group.finish();

    // The small-M sweep: pack-free GEMV vs the blocked/packed path on the
    // same inputs and kernel — the routing decision `Matrix::matmul` makes
    // automatically for m <= GEMV_MAX_M, measured explicitly.
    let mut small = c.benchmark_group("gemm_small_m");
    for &(k, n) in SMALL_KN {
        for &m in SMALL_M {
            let a = seeded_matrix(m, k, 1);
            let b = seeded_matrix(k, n, 2);
            for &kernel in gemm::available_kernels() {
                let label = format!("{m}x{k}x{n}");
                small.bench_with_input(
                    BenchmarkId::new(format!("gemv-{}", kernel.name()), &label),
                    &(&a, &b),
                    |bch, (a, b)| bch.iter(|| black_box(matmul_forced(kernel, MatOp::NN, MatPath::Gemv, a, b))),
                );
                small.bench_with_input(
                    BenchmarkId::new(format!("blocked-{}", kernel.name()), &label),
                    &(&a, &b),
                    |bch, (a, b)| bch.iter(|| black_box(matmul_forced(kernel, MatOp::NN, MatPath::Blocked, a, b))),
                );
            }
        }
    }
    small.finish();

    // Direct measurement for the JSON artifact and the CI gate: best of
    // `REPS` runs each, which is robust to scheduler noise on shared
    // runners (the minimum is the cleanest estimate of achievable time).
    const REPS: usize = 5;
    let time_best = |kernel: Kernel, a: &Matrix, b: &Matrix| -> f64 {
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                black_box(gemm::matmul_with_kernel(kernel, a, b, false));
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };

    let simd = gemm::available_kernels().iter().copied().find(|&k| k != Kernel::Scalar);
    let mut entries = Vec::new();
    let mut gate_speedup: Option<f64> = None;
    for &(label, m, k, n) in SHAPES {
        let a = seeded_matrix(m, k, 1);
        let b = seeded_matrix(k, n, 2);
        let flops = 2.0 * (m * k * n) as f64;
        let scalar_s = time_best(Kernel::Scalar, &a, &b);
        let simd_s = simd.map(|kern| time_best(kern, &a, &b));
        let speedup = simd_s.map(|s| scalar_s / s);
        if label == "256x256x256" {
            gate_speedup = speedup;
        }
        let (simd_ms, simd_gflops, speedup_str) = match simd_s {
            Some(s) => (
                format!("{:.3}", s * 1e3),
                format!("{:.2}", flops / s / 1e9),
                format!("{:.2}", scalar_s / s),
            ),
            None => ("null".into(), "null".into(), "null".into()),
        };
        println!(
            "gemm {label}: scalar {:.2} ms ({:.2} GFLOP/s), simd {simd_ms} ms ({simd_gflops} GFLOP/s), speedup {speedup_str}",
            scalar_s * 1e3,
            flops / scalar_s / 1e9,
        );
        entries.push(format!(
            "    {{\n      \"shape\": \"{label}\",\n      \"m\": {m},\n      \"k\": {k},\n      \"n\": {n},\n      \"scalar_ms\": {:.3},\n      \"scalar_gflops\": {:.2},\n      \"simd_ms\": {simd_ms},\n      \"simd_gflops\": {simd_gflops},\n      \"simd_over_scalar\": {speedup_str}\n    }}",
            scalar_s * 1e3,
            flops / scalar_s / 1e9,
        ));
    }

    // Small-M table for the JSON artifact, plus the m=1 routing gate. These
    // shapes finish in microseconds, so each sample is an inner loop of
    // `INNER` calls; best of `REPS` samples as above.
    const INNER: usize = 32;
    let time_small = |f: &dyn Fn() -> Matrix| -> f64 {
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..INNER {
                    black_box(f());
                }
                start.elapsed().as_secs_f64() / INNER as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let mut small_entries = Vec::new();
    let mut gate_failures = Vec::new();
    for &(k, n) in SMALL_KN {
        for &m in SMALL_M {
            let a = seeded_matrix(m, k, 1);
            let b = seeded_matrix(k, n, 2);
            for &kernel in gemm::available_kernels() {
                let gemv_s = time_small(&|| matmul_forced(kernel, MatOp::NN, MatPath::Gemv, &a, &b));
                let blocked_s = time_small(&|| matmul_forced(kernel, MatOp::NN, MatPath::Blocked, &a, &b));
                let ratio = blocked_s / gemv_s;
                println!(
                    "small-m {m}x{k}x{n} [{}]: gemv {:.4} ms, blocked {:.4} ms, gemv is {ratio:.2}x",
                    kernel.name(),
                    gemv_s * 1e3,
                    blocked_s * 1e3,
                );
                small_entries.push(format!(
                    "    {{ \"m\": {m}, \"k\": {k}, \"n\": {n}, \"kernel\": \"{}\", \"gemv_ms\": {:.4}, \"blocked_ms\": {:.4}, \"blocked_over_gemv\": {ratio:.2} }}",
                    kernel.name(),
                    gemv_s * 1e3,
                    blocked_s * 1e3,
                ));
                // The routing gate: at m = 1 the pack-free path must never
                // lose to packing a full B for a single output row. 5%
                // headroom absorbs timer noise on shared runners.
                if m == 1 && gemv_s > blocked_s * 1.05 {
                    gate_failures.push(format!(
                        "1x{k}x{n} [{}]: gemv {:.4} ms > blocked {:.4} ms",
                        kernel.name(),
                        gemv_s * 1e3,
                        blocked_s * 1e3
                    ));
                }
            }
        }
    }

    let json = format!(
        "{{\n  \"benchmark\": \"single-threaded GEMM microkernels, best of {REPS}\",\n  \"simd_kernel\": {},\n  \"available_parallelism\": {},\n  \"shapes\": [\n{}\n  ],\n  \"small_m\": [\n{}\n  ]\n}}\n",
        simd.map_or("null".into(), |k| format!("\"{}\"", k.name())),
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
        entries.join(",\n"),
        small_entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    std::fs::write(path, &json).expect("write BENCH_gemm.json");
    println!("wrote {path}");

    // CI gate (see module docs). ≥2x is the acceptance target; <1x fails.
    if let Some(speedup) = gate_speedup {
        if speedup < 2.0 {
            eprintln!("WARNING: expected >=2x SIMD speedup on 256x256x256, measured {speedup:.2}x");
        }
        assert!(
            speedup >= 1.0,
            "SIMD GEMM slower than scalar on 256x256x256 ({speedup:.2}x) — kernel regression"
        );
    }
    assert!(
        gate_failures.is_empty(),
        "GEMV slower than the blocked path at m=1 — small-M routing regression:\n{}",
        gate_failures.join("\n")
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gemm_kernels
}
criterion_main!(benches);
