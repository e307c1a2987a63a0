//! Kernel parity against a committed fixture.
//!
//! The fixture (`tests/fixtures/gemm_parity.txt`) holds the outputs of all
//! four matmul variants on fixed pseudo-random inputs. Every available
//! kernel must reproduce it **bitwise** on both serial cores: the scalar
//! kernels fuse each multiply-add with `f32::mul_add` in the same ascending
//! `k` order as the AVX2+FMA kernels, so there is one set of bits, exactly
//! reproducible across machines, kernels and refactors.
//!
//! Regenerate after an *intentional* numerics change with
//! `LMKG_UPDATE_FIXTURES=1 cargo test -p lmkg-nn --test kernel_parity`.

use lmkg_nn::gemm::{self, Kernel};
use lmkg_nn::gemv::GEMV_MAX_M;
use lmkg_nn::tensor::{matmul_forced, MatOp, MatPath};
use lmkg_nn::test_support::seeded_matrix as test_matrix;
use lmkg_nn::Matrix;
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/gemm_parity.txt")
}

/// One fixture case: a named matmul variant on deterministic inputs. The
/// shapes are ragged on purpose (not multiples of MR/NR/KC) and large enough
/// to cross k-block and strip boundaries.
struct Case {
    name: &'static str,
    op: MatOp,
    /// `(rows, cols, seed)` of the two operands.
    a: (usize, usize, u64),
    b: (usize, usize, u64),
}

impl Case {
    /// The product on `kernel` and `path`. The GEMV core takes at most
    /// [`GEMV_MAX_M`] output rows, so there the product is stacked from
    /// windows of `op(A)`'s rows (an output row depends on its own row only).
    fn compute(&self, kernel: Kernel, path: MatPath) -> Matrix {
        let a = test_matrix(self.a.0, self.a.1, self.a.2);
        let b = test_matrix(self.b.0, self.b.1, self.b.2);
        if path == MatPath::Blocked {
            return matmul_forced(kernel, self.op, path, &a, &b);
        }
        let tn = self.op == MatOp::TN;
        let m = if tn { a.cols() } else { a.rows() };
        let mut out = Vec::new();
        for r0 in (0..m).step_by(GEMV_MAX_M) {
            let w = GEMV_MAX_M.min(m - r0);
            let window = if tn {
                Matrix::from_fn(a.rows(), w, |i, j| a.get(i, r0 + j))
            } else {
                Matrix::from_fn(w, a.cols(), |i, j| a.get(r0 + i, j))
            };
            out.extend_from_slice(matmul_forced(kernel, self.op, path, &window, &b).as_slice());
        }
        Matrix::from_vec(m, out.len() / m, out)
    }
}

const CASES: &[Case] = &[
    Case {
        name: "nn_13x300x33",
        op: MatOp::NN,
        a: (13, 300, 101),
        b: (300, 33, 102),
    },
    Case {
        name: "nn_7x13x9",
        op: MatOp::NN,
        a: (7, 13, 103),
        b: (13, 9, 104),
    },
    Case {
        name: "nt_9x21x12",
        op: MatOp::NT,
        a: (9, 21, 105),
        b: (12, 21, 106),
    },
    Case {
        name: "tn_20x11x14",
        op: MatOp::TN,
        a: (20, 11, 107),
        b: (20, 14, 108),
    },
    Case {
        name: "cols_9x20x40_5_29",
        op: MatOp::Cols(5, 29),
        a: (9, 20, 109),
        b: (20, 40, 110),
    },
];

fn render_fixture() -> String {
    let mut out = String::new();
    out.push_str(
        "# GEMM kernel parity fixture: outputs of the four matmul variants on\n\
         # fixed inputs, the same bits on every kernel. Generated by\n\
         # kernel_parity.rs with LMKG_UPDATE_FIXTURES=1; values are %.9e so\n\
         # f32 round-trips bitwise.\n",
    );
    for case in CASES {
        let m = case.compute(Kernel::Scalar, MatPath::Blocked);
        writeln!(out, "case {} {} {}", case.name, m.rows(), m.cols()).unwrap();
        let vals: Vec<String> = m.as_slice().iter().map(|v| format!("{v:.9e}")).collect();
        writeln!(out, "{}", vals.join(" ")).unwrap();
    }
    out
}

fn parse_fixture(text: &str) -> Vec<(String, usize, usize, Vec<f32>)> {
    let mut cases = Vec::new();
    let mut lines = text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty());
    while let Some(header) = lines.next() {
        let mut parts = header.split_whitespace();
        assert_eq!(parts.next(), Some("case"), "bad fixture header: {header}");
        let name = parts.next().expect("case name").to_string();
        let rows: usize = parts.next().expect("rows").parse().expect("rows");
        let cols: usize = parts.next().expect("cols").parse().expect("cols");
        let data_line = lines.next().expect("fixture data line");
        let vals: Vec<f32> = data_line
            .split_whitespace()
            .map(|v| v.parse().expect("fixture f32"))
            .collect();
        assert_eq!(vals.len(), rows * cols, "fixture case {name} has wrong length");
        cases.push((name, rows, cols, vals));
    }
    cases
}

#[test]
fn kernels_match_committed_fixture() {
    let path = fixture_path();
    if std::env::var("LMKG_UPDATE_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render_fixture()).unwrap();
        eprintln!("rewrote {}", path.display());
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with LMKG_UPDATE_FIXTURES=1",
            path.display()
        )
    });
    let fixture = parse_fixture(&text);
    assert_eq!(fixture.len(), CASES.len(), "fixture is stale: case count differs");

    for (case, (name, rows, cols, want)) in CASES.iter().zip(&fixture) {
        assert_eq!(case.name, name, "fixture is stale: case order differs");
        for &kernel in gemm::available_kernels() {
            for path in [MatPath::Blocked, MatPath::Gemv] {
                let got = case.compute(kernel, path);
                assert_eq!((got.rows(), got.cols()), (*rows, *cols), "{name}: shape drift");
                for (i, (g, w)) in got.as_slice().iter().zip(want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{name}[{i}]: {} kernel ({path:?}) diverged bitwise from fixture ({g} vs {w})",
                        kernel.name()
                    );
                }
            }
        }
    }
}

#[test]
fn force_scalar_env_is_honoured_when_set() {
    // The env override is read once per process, so this test only asserts
    // the coupling when the variable is actually set (CI runs this target
    // once more with it set).
    if std::env::var("LMKG_FORCE_SCALAR").map(|v| v == "1").unwrap_or(false) {
        assert!(gemm::force_scalar_requested());
        assert_eq!(gemm::active_kernel(), Kernel::Scalar);
    }
}
