//! `lmkg-bench <experiment|all|check [FILE]>`: the paper's evaluation (§VIII)
//! from one binary. `LMKG_SCALE` / `LMKG_SEED` / `LMKG_QUERIES` are the only
//! knobs (see the crate docs).

use lmkg_bench::experiments::EXPERIMENTS;
use lmkg_bench::sweep::{self, Sweep, FIGURES};
use lmkg_bench::BenchConfig;
use lmkg_data::Dataset;
use std::process::exit;

/// Where `all` writes and `check` reads by default: the workspace root.
const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_accuracy.json");

/// Anything wrong with what came from outside — subcommand, environment,
/// artifact file — ends here: the problem, what is accepted, exit 2.
fn fail(problem: &str) -> ! {
    let names = EXPERIMENTS
        .iter()
        .map(|(name, _)| *name)
        .chain(FIGURES.iter().map(|f| f.name));
    eprintln!("lmkg-bench: {problem}");
    eprintln!(
        "usage: lmkg-bench <{}|all|check [FILE]>\n\
         env:   LMKG_SCALE=ci|bench|default|paper  LMKG_SEED=<unsigned integer>  LMKG_QUERIES=<positive integer>",
        names.collect::<Vec<_>>().join("|")
    );
    exit(2)
}

fn sweep_all(datasets: &[Dataset], cfg: &BenchConfig) -> Vec<Sweep> {
    datasets.iter().map(|&d| sweep::run(d, cfg)).collect()
}

/// Re-runs the sweep at the committed file's scale, seed and workload size
/// and fails on every cell that got worse beyond the tolerance.
fn check(path: &str) {
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let knob = |name| {
        let value = committed.lines().find_map(|l| sweep::field(l, name));
        Some(value.unwrap_or_else(|| fail(&format!("{path}: no \"{name}\" field"))))
    };
    let (scale, cfg) = BenchConfig::parse(knob("scale"), knob("seed"), knob("queries"))
        .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    eprintln!(
        "lmkg-bench check: re-running the {scale}-scale sweep, seed {}",
        cfg.seed
    );
    let cells = sweep::accuracy_cells(&sweep_all(&Dataset::ALL, &cfg));
    let failures = sweep::regressions(&committed, &cells);
    if !failures.is_empty() {
        eprintln!(
            "lmkg-bench check: {} regression(s) beyond {:.0}% of {path}:",
            failures.len(),
            sweep::TOLERANCE * 100.0
        );
        failures.iter().for_each(|f| eprintln!("  {f}"));
        exit(1);
    }
    println!(
        "lmkg-bench check: {} cells within {:.0}% of {path}",
        cells.len(),
        sweep::TOLERANCE * 100.0
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let var = |name: &str| std::env::var(name).ok();
    let (scale, cfg) = BenchConfig::parse(
        var("LMKG_SCALE").as_deref(),
        var("LMKG_SEED").as_deref(),
        var("LMKG_QUERIES").as_deref(),
    )
    .unwrap_or_else(|e| fail(&e));

    match args[..] {
        ["check"] => check(ARTIFACT),
        ["check", path] => check(path),
        ["all"] => {
            EXPERIMENTS.iter().for_each(|(_, run)| run(&cfg));
            // The sweep is measured once; every figure is a view over it.
            let sweeps = sweep_all(&Dataset::ALL, &cfg);
            FIGURES.iter().for_each(|f| sweep::print_figure(f, &sweeps, &cfg));
            let artifact = sweep::render_artifact(scale, &cfg, &sweep::accuracy_cells(&sweeps));
            std::fs::write(ARTIFACT, artifact).unwrap_or_else(|e| fail(&format!("cannot write {ARTIFACT}: {e}")));
            eprintln!("wrote {ARTIFACT}");
        }
        [name] => {
            if let Some((_, run)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) {
                run(&cfg);
            } else if let Some(figure) = FIGURES.iter().find(|f| f.name == name) {
                sweep::print_figure(figure, &sweep_all(figure.datasets, &cfg), &cfg);
            } else {
                fail(&format!("unknown subcommand {name:?}"));
            }
        }
        _ => fail("expected exactly one subcommand"),
    }
}
