#!/usr/bin/env bash
# One command for the whole benchmark: builds `serve` and `lmkg-benchmark`
# offline, then runs the workloads.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1|both]] [--smoke] [--runs N]
#
# Without --workload all five run. Results are printed and collected in
# benchmark/out/result.json; see benchmark/README.md.
set -euo pipefail

cd "$(dirname "$0")/.."

fail() {
    echo "benchmark/run.sh: $*" >&2
    exit 1
}

[ -f Cargo.toml ] && [ -d crates/serve ] ||
    fail "the product workspace is missing: this must run inside a checkout of the repository"

cargo build --release --offline -p lmkg-serve --bin serve >&2 ||
    fail "building the serve binary failed"
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2 ||
    fail "building lmkg-benchmark failed"

# With CARGO_TARGET_DIR set, both workspaces build into that one directory.
serve_bin="${CARGO_TARGET_DIR:-target}/release/serve"
bench_bin="${CARGO_TARGET_DIR:-benchmark/target}/release/lmkg-benchmark"
[ -x "$serve_bin" ] || fail "$serve_bin is missing after the build"
[ -x "$bench_bin" ] || fail "$bench_bin is missing after the build"

exec "$bench_bin" run --serve-bin "$serve_bin" --out benchmark/out "$@"
