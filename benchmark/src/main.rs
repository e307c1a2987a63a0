//! `lmkg-benchmark`: one benchmark for the whole LMKG stack.
//!
//! ```text
//! lmkg-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1|both]]
//!                    [--smoke] [--runs N] [--serve-bin PATH] [--out DIR]
//! lmkg-benchmark compare A.json B.json
//! ```
//!
//! `run` measures the selected workloads (all five by default). An untraced
//! run gives the end-to-end metrics; a traced run (`--trace 1`) records
//! client-side spans and gives the per-layer metrics; a bare `--trace` (or
//! `--trace both`) does one after the other. After each workload every
//! metric is printed by name with its unit and sample count, followed by one
//! JSON line in the form the benchmark contract asks for. Everything is also
//! collected in `<out>/result.json`. See `benchmark/README.md`.

mod bulk;
mod compare;
mod expo;
mod json;
mod pacer;
mod pool;
mod probes;
mod report;
mod server;
mod spec;
mod stats;
mod tcp;
mod trace;

use json::Value;
use report::{Outcome, ResultFile};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;
use trace::Trace;

/// Measured seconds per run unless `--seconds` says otherwise; the same
/// figure `BENCHMARK.json` gives as `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 2.0;
/// Unmeasured work in the workload's own pattern right before the window.
pub const WARMUP_SECONDS: f64 = 0.5;
/// An untraced run sets up this many times and reports the median.
const SETUPS: usize = 3;

/// What one run of one workload is given.
pub struct RunCfg {
    /// Drives request order and mix only; data and model seeds are fixed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
    /// How many times the server (or model) is set up. The first one is
    /// measured; the others only add to the `setup_s` sample.
    pub setups: usize,
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    /// Which kinds of run to make, in order: `false` untraced, `true` traced.
    traced: Vec<bool>,
    smoke: bool,
    runs: usize,
    serve_bin: PathBuf,
    out_dir: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "error: {problem}\n\n\
         usage: lmkg-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1|both]]\n\
         \x20                         [--smoke] [--runs N] [--serve-bin PATH] [--out DIR]\n\
         \x20      lmkg-benchmark compare A.json B.json\n\
         workloads: {}",
        spec::WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_run_args(args: impl Iterator<Item = String>) -> Args {
    let mut args = args.peekable();
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        traced: vec![false],
        smoke: false,
        runs: 1,
        serve_bin: PathBuf::from(target).join("release/serve"),
        out_dir: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().unwrap_or_else(|| usage(&format!("{flag} expects {what}")));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                match spec::WORKLOADS.iter().find(|w| **w == name) {
                    Some(w) => parsed.workloads.push(w),
                    None => usage(&format!("unknown workload {name:?}")),
                }
            }
            "--seed" => {
                parsed.seed = value("an integer")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed expects an integer"))
            }
            "--seconds" => {
                let seconds: f64 = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds expects a number"));
                if !(seconds > 0.0 && seconds <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                parsed.seconds = Some(seconds);
            }
            "--runs" => {
                parsed.runs = value("an integer")
                    .parse()
                    .unwrap_or_else(|_| usage("--runs expects an integer"));
                if parsed.runs == 0 {
                    usage("--runs must be at least 1");
                }
            }
            "--serve-bin" => parsed.serve_bin = value("a path").into(),
            "--out" => parsed.out_dir = value("a directory").into(),
            "--smoke" => parsed.smoke = true,
            "--trace" => {
                // The value is optional: a bare `--trace` means both runs.
                let mode = args.next_if(|v| ["0", "1", "both"].contains(&v.as_str()));
                parsed.traced = match mode.as_deref() {
                    Some("0") => vec![false],
                    Some("1") => vec![true],
                    _ => vec![false, true],
                };
            }
            other => usage(&format!("unknown option {other:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = spec::WORKLOADS.to_vec();
    }
    parsed
}

/// One run of one workload; a traced run is followed by the probe pass.
fn run_workload(workload: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut trace = Trace::default();
    let (mut s, mut u) = (None, None);
    let mut outcome = match workload {
        spec::PACED => tcp::run(tcp::Kind::Paced, cfg, &mut trace)?,
        spec::PIPELINED => tcp::run(tcp::Kind::Pipelined, cfg, &mut trace)?,
        spec::CHURN => tcp::run(tcp::Kind::Churn, cfg, &mut trace)?,
        spec::BULK_S => {
            let (outcome, built) = bulk::run(bulk::Kind::S, cfg, &mut trace)?;
            s = Some(built);
            outcome
        }
        spec::BULK_U => {
            let (outcome, built) = bulk::run(bulk::Kind::U, cfg, &mut trace)?;
            u = Some(built);
            outcome
        }
        other => unreachable!("workload {other:?} was validated"),
    };
    if cfg.traced {
        probes::run(workload, cfg, s, u, &mut outcome, &mut trace)?;
        outcome.fill_per_layer();
        let path = cfg.out_dir.join(format!("trace-{workload}.jsonl"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
        trace
            .write(&mut file, workload, started)
            .and_then(|()| file.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(outcome)
}

fn run(args: Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    if !args.serve_bin.is_file() {
        return Err(format!(
            "the serve binary is missing at {} (build it with `cargo build --release --offline -p lmkg-serve --bin serve`, or use benchmark/run.sh)",
            args.serve_bin.display()
        ));
    }
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    let mut results = ResultFile::default();
    for workload in &args.workloads {
        for _ in 0..args.runs {
            for &traced in &args.traced {
                let cfg = RunCfg {
                    seed: args.seed,
                    seconds,
                    traced,
                    setups: if traced || args.smoke { 1 } else { SETUPS },
                    serve_bin: args.serve_bin.clone(),
                    out_dir: args.out_dir.clone(),
                };
                let outcome = run_workload(workload, &cfg).map_err(|e| format!("{workload}: {e}"))?;
                outcome.print(workload, traced);
                if traced {
                    report::print_budget(workload, &outcome);
                }
                println!("{}", outcome.contract_line(traced));
                results.add(workload, traced, &outcome);
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = results.to_json(vec![
        // A smoke run is for iterating on the benchmark, never for claims.
        ("smoke", Value::Bool(args.smoke)),
        ("seed", Value::from(args.seed as f64)),
        ("seconds", Value::from(seconds)),
        ("runs", Value::from(args.runs as f64)),
        ("available_parallelism", Value::from(cores as f64)),
    ]);
    let path = args.out_dir.join("result.json");
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let result = match args.next().as_deref() {
        Some("run") => run(parse_run_args(args)),
        Some("compare") => match (args.next(), args.next(), args.next()) {
            (Some(a), Some(b), None) => match compare::run(&a, &b) {
                Ok(false) => Ok(()),
                Ok(true) => std::process::exit(1),
                Err(e) => Err(e),
            },
            _ => usage("compare expects two result files"),
        },
        _ => usage("expected `run` or `compare`"),
    };
    if let Err(e) = result {
        eprintln!("lmkg-benchmark: {e}");
        std::process::exit(1);
    }
}
