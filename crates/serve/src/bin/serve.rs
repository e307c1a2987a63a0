//! The `serve` binary: flag parsing over `lmkg_serve`. Options become one
//! `LmkgTenant` description per tenant; `ServeBuilder` and the lifecycle
//! behind it (load or train, budget, persist, adapt) do the rest, and this
//! file runs the transport.
//!
//! ```text
//! serve pipe    [model opts] [serve opts]          stdin/stdout protocol session
//! serve tcp     [model opts] [serve opts] --addr A TCP listener, one session per connection
//! serve sample  [model opts] [--count N]           print request lines for the model's graph
//! ```
//!
//! `sample` and the serving modes share the model options (dataset, scale,
//! seed), so sampled request lines always resolve against the same
//! dictionaries the server loads — pipe a `sample` file straight into
//! `pipe`, which is exactly what the CI smoke test does. With repeated
//! `--tenant NAME=DATASET[:SCALE[:SEED]]` flags one process serves several
//! graphs at once (e.g. LUBM + SWDF), each under its own namespace; v2
//! request lines address a namespace (`EST <tenant> <id> <sparql>`), v1
//! lines route to the `default` tenant. Load and latency are measured from
//! outside, by `benchmark/run.sh` against `serve tcp`.

use lmkg::framework::{Grouping, LmkgConfig, ModelType};
use lmkg::supervised::LmkgSConfig;
use lmkg::QuantMode;

use lmkg_data::workload::{self, WorkloadConfig};
use lmkg_data::{Dataset, Scale};
use lmkg_serve::{
    is_valid_tenant_name, render_metrics_for, serve_stream, serve_tcp, Adapter, AdapterConfig, BatchConfig, BuildError,
    EstimationService, LmkgTenant, ServeBuilder, ShutdownFlag, DEFAULT_TENANT,
};
use lmkg_store::{sparql, KnowledgeGraph, Query, QueryShape};
// ORDERING (max 2): SeqCst SIGNALLED flag: the async-signal-safe store must be seen by the watcher
// thread before it forwards shutdown
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
serve — micro-batching LMKG estimation server

USAGE: serve <pipe|tcp|sample> [OPTIONS]

Model options (shared by every mode):
  --dataset lubm|swdf|yago   graph generator              [lubm]
  --scale ci|default|paper   dataset scale                [ci]
  --seed N                   generator seed               [42]
  --sizes A,B,...            covered sizes, each >= 1     [2,3]
  --hidden A,B,...           LMKG-S widths, each >= 1     [256,256]
  --epochs N                 LMKG-S training epochs       [20]
  --train-queries N          training queries per model   [400]
  --quantized int8|bf16      serve a quantized snapshot of the trained
                             framework (smaller model, f32 accumulate)

Multi-tenant options (pipe, tcp, sample; repeatable):
  --tenant NAME=DATASET[:SCALE[:SEED]]
                             serve DATASET under namespace NAME
                             ([A-Za-z0-9_-]+, not SELECT); repeat the
                             flag for more tenants. Without --tenant the
                             model options above serve as the single
                             'default' tenant, exactly as before.

Serving options (pipe, tcp):
  --max-batch N              most requests one forward takes    [64]
  --queue-depth N            admission queue bound              [1024]
  --workers N                batcher worker threads             [2]
  --metrics-every N          dump every tenant's METRICS exposition to
                             stderr every N seconds (0 = off)   [0]

Model lifecycle options (pipe, tcp):
  --model-dir DIR            versioned snapshot store: cold-start from the
                             newest on-disk generation when one exists
                             (skipping training entirely), else train once
                             and publish generation 1. With --adapt every
                             retrain/evict publishes a new generation.
                             Multi-tenant runs store under DIR/<tenant>.
  --memory-budget BYTES      cap the served framework's memory: evict
                             least-used covered models until it fits,
                             never uncovering a cell with live traffic
                             (enforced at startup and, with --adapt, on
                             every adapter tick)

Adaptation options (pipe, tcp; the workload-shift loop):
  --adapt                    enable the monitor->retrain->swap loop
  --adapt-interval-ms N      drift check cadence                [500]
  --adapt-window N           monitor sliding window, queries    [512]
  --adapt-min-observed N     observations before drift counts   [64]
  --adapt-tv T               total-variation retrain threshold  [0.3]
  --adapt-uncovered T        uncovered-share retrain threshold  [0.2]
  --adapt-max-models N       hard cap on total trained models   [32]

Mode options:
  tcp:      --addr HOST:PORT     listen address    [127.0.0.1:7878]
            (SIGINT/SIGTERM shut down gracefully: sessions drain, the
             batcher flushes, the adapter joins)
  sample:   --count N             request lines to print (per tenant) [20]

Protocol v2: 'EST [<tenant>] <id> <sparql>' | 'STATS [<tenant>] <id>' |
'METRICS [<tenant>] <id>' | 'TENANTS <id>' | 'QUIT' per line; a line with
no tenant token (the v1 grammar) routes to the 'default' tenant. Replies
are 'OK <id> <estimate> us=<micros>' | 'ERR <id> code=<kebab-code> <msg>' |
'OVERLOADED <id> depth=<n>' | 'STATS <id> served=... retrains=... tv=...
p50us=...' | 'TENANTS <id> <name> ...' | a multi-line 'METRICS <id>
lines=<n>' exposition ending in '# EOF'. LMKG_LOG=off|error|warn|info|debug
filters event echo to stderr.
";

/// One `--tenant NAME=DATASET[:SCALE[:SEED]]` spec; scale/seed fall back
/// to the shared model options when omitted.
struct TenantCliSpec {
    name: String,
    dataset: Dataset,
    scale: Option<Scale>,
    seed: Option<u64>,
}

struct Options {
    mode: String,
    dataset: Dataset,
    scale: Scale,
    seed: u64,
    /// `--tenant NAME=…` specs (pipe, tcp, sample). Empty = single
    /// `default` tenant from the shared model options.
    tenants: Vec<TenantCliSpec>,
    sizes: Vec<usize>,
    hidden: Vec<usize>,
    epochs: usize,
    train_queries: usize,
    batch: BatchConfig,
    addr: String,
    count: usize,
    adapt: bool,
    adapter: AdapterConfig,
    quantized: Option<QuantMode>,
    metrics_every: u64,
    /// `--model-dir DIR`: root of the versioned snapshot store (per-tenant
    /// subdirectories in multi-tenant runs).
    model_dir: Option<std::path::PathBuf>,
    /// `--memory-budget BYTES`: eviction threshold for the served set.
    memory_budget: Option<usize>,
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    std::process::exit(2);
}

/// Parses a comma-separated list of integers >= 1; any other item fails
/// the whole list, naming `flag`.
fn parse_list(value: &str, flag: &str) -> Result<Vec<usize>, String> {
    value
        .split(',')
        .map(|t| match t.trim().parse() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!(
                "{flag} expects a comma-separated list of integers >= 1, got {value:?}"
            )),
        })
        .collect()
}

fn parse_dataset(value: &str) -> Dataset {
    match value {
        "lubm" => Dataset::LubmLike,
        "swdf" => Dataset::SwdfLike,
        "yago" => Dataset::YagoLike,
        other => fail(&format!("unknown dataset {other:?}")),
    }
}

fn parse_scale(value: &str) -> Scale {
    match value {
        "ci" => Scale::Ci,
        "default" => Scale::Default,
        "paper" => Scale::Paper,
        other => fail(&format!("unknown scale {other:?}")),
    }
}

/// Parses a `NAME=DATASET[:SCALE[:SEED]]` tenant spec.
fn parse_tenant_spec(value: &str) -> TenantCliSpec {
    let (name, rest) = value
        .split_once('=')
        .unwrap_or_else(|| fail(&format!("--tenant expects NAME=DATASET[:SCALE[:SEED]], got {value:?}")));
    if !is_valid_tenant_name(name) {
        fail(&BuildError::InvalidTenantName(name.to_string()).to_string());
    }
    let mut parts = rest.split(':');
    let dataset = parse_dataset(parts.next().unwrap_or_default());
    let scale = parts.next().map(parse_scale);
    let seed = parts.next().map(|s| {
        s.parse()
            .unwrap_or_else(|_| fail(&format!("--tenant seed must be an integer, got {s:?}")))
    });
    if parts.next().is_some() {
        fail(&format!("--tenant has trailing fields in {value:?}"));
    }
    TenantCliSpec {
        name: name.to_string(),
        dataset,
        scale,
        seed,
    }
}

/// Parses a numeric flag value; `what` names the expected form in the error.
fn num<T: std::str::FromStr>(flag: &str, what: &str, value: String) -> T {
    value
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag} expects {what}")))
}

fn parse_options() -> Options {
    let mut args = std::env::args().skip(1);
    let mode = match args.next() {
        Some(m) if ["pipe", "tcp", "sample"].contains(&m.as_str()) => m,
        Some(m) if ["help", "--help", "-h"].contains(&m.as_str()) => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        Some(m) => fail(&format!("unknown mode {m:?}")),
        None => fail("a mode is required"),
    };
    let mut opts = Options {
        mode,
        dataset: Dataset::LubmLike,
        scale: Scale::Ci,
        seed: 42,
        tenants: Vec::new(),
        sizes: vec![2, 3],
        hidden: vec![256, 256],
        epochs: 20,
        train_queries: 400,
        batch: BatchConfig::default(),
        addr: "127.0.0.1:7878".into(),
        count: 20,
        adapt: false,
        adapter: AdapterConfig::default(),
        quantized: None,
        metrics_every: 0,
        model_dir: None,
        memory_budget: None,
    };
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        let mut value = || args.next().unwrap_or_else(|| fail(&format!("{flag} expects a value")));
        match flag {
            "--dataset" => opts.dataset = parse_dataset(&value()),
            "--scale" => opts.scale = parse_scale(&value()),
            "--tenant" => opts.tenants.push(parse_tenant_spec(&value())),
            "--seed" => opts.seed = num(flag, "an integer", value()),
            "--sizes" => opts.sizes = parse_list(&value(), flag).unwrap_or_else(|e| fail(&e)),
            "--hidden" => opts.hidden = parse_list(&value(), flag).unwrap_or_else(|e| fail(&e)),
            "--epochs" => opts.epochs = num(flag, "an integer", value()),
            "--train-queries" => opts.train_queries = num(flag, "an integer", value()),
            "--max-batch" => opts.batch.max_batch = num(flag, "an integer", value()),
            "--queue-depth" => opts.batch.queue_depth = num(flag, "an integer", value()),
            "--workers" => opts.batch.workers = num(flag, "an integer", value()),
            "--addr" => opts.addr = value(),
            "--count" => opts.count = num(flag, "an integer", value()),
            "--adapt" => opts.adapt = true,
            "--adapt-interval-ms" => opts.adapter.interval = Duration::from_millis(num(flag, "an integer", value())),
            "--adapt-window" => opts.adapter.window = num(flag, "an integer", value()),
            "--adapt-min-observed" => opts.adapter.min_observed = num(flag, "an integer", value()),
            "--adapt-tv" => opts.adapter.tv_threshold = num(flag, "a number", value()),
            "--adapt-uncovered" => opts.adapter.uncovered_threshold = num(flag, "a number", value()),
            "--adapt-max-models" => opts.adapter.max_models = num(flag, "an integer", value()),
            "--quantized" => {
                let mode = value();
                opts.quantized = Some(
                    QuantMode::parse(&mode)
                        .unwrap_or_else(|| fail(&format!("--quantized expects int8 or bf16, got {mode:?}"))),
                )
            }
            "--metrics-every" => opts.metrics_every = num(flag, "an integer (seconds)", value()),
            "--model-dir" => opts.model_dir = Some(value().into()),
            "--memory-budget" => opts.memory_budget = Some(num(flag, "a byte count", value())),
            other => fail(&format!("unknown option {other:?}")),
        }
    }
    opts
}

/// A star/chain workload across the configured sizes, cycling cells so the
/// mix exercises direct routing and decomposition alike.
fn sample_workload(graph: &KnowledgeGraph, opts: &Options) -> Vec<Query> {
    let count = opts.count;
    let cells: Vec<(QueryShape, usize)> = [QueryShape::Star, QueryShape::Chain]
        .into_iter()
        .flat_map(|shape| opts.sizes.iter().map(move |&k| (shape, k)))
        .collect();
    let per_cell = count.div_ceil(cells.len()).max(1);
    let mut by_cell: Vec<Vec<Query>> = cells
        .iter()
        .map(|&(shape, size)| {
            let mut wl = WorkloadConfig::test_default(shape, size, opts.seed ^ 0x5e);
            wl.count = per_cell;
            workload::generate(graph, &wl).into_iter().map(|lq| lq.query).collect()
        })
        .collect();
    // Interleave cells: star-2, chain-2, star-3, chain-3, star-2, …
    let mut out = Vec::with_capacity(count);
    let n_cells = by_cell.len();
    let mut i = 0;
    while out.len() < count && by_cell.iter().any(|c| !c.is_empty()) {
        if let Some(q) = by_cell[i % n_cells].pop() {
            out.push(q);
        }
        i += 1;
    }
    if out.is_empty() {
        fail("workload generation produced no queries (dataset too small for the requested sizes?)");
    }
    out
}

/// The framework configuration the CLI options describe: what a tenant
/// trains with when no snapshot loads, and what the adapter extends any
/// served set with.
fn lmkg_config(opts: &Options) -> LmkgConfig {
    LmkgConfig {
        model_type: ModelType::Supervised,
        grouping: Grouping::BySize,
        shapes: vec![QueryShape::Star, QueryShape::Chain],
        sizes: opts.sizes.clone(),
        queries_per_size: opts.train_queries,
        s_config: LmkgSConfig {
            hidden: opts.hidden.clone(),
            epochs: opts.epochs,
            ..Default::default()
        },
        u_config: Default::default(),
        workload_seed: opts.seed,
    }
}

/// The named (tenant, graph) pairs this invocation serves: one per
/// `--tenant` spec, or the shared model options as the single `default`
/// tenant when no spec was given.
fn tenant_graphs(opts: &Options) -> Vec<(String, Arc<KnowledgeGraph>)> {
    if opts.tenants.is_empty() {
        eprintln!(
            "serve: generating {:?} graph at {:?} scale (seed {}) …",
            opts.dataset, opts.scale, opts.seed
        );
        return vec![(
            DEFAULT_TENANT.to_string(),
            Arc::new(opts.dataset.generate(opts.scale, opts.seed)),
        )];
    }
    opts.tenants
        .iter()
        .map(|spec| {
            let scale = spec.scale.unwrap_or(opts.scale);
            let seed = spec.seed.unwrap_or(opts.seed);
            eprintln!(
                "serve: [{}] generating {:?} graph at {:?} scale (seed {}) …",
                spec.name, spec.dataset, scale, seed
            );
            (spec.name.clone(), Arc::new(spec.dataset.generate(scale, seed)))
        })
        .collect()
}

/// Describes every tenant to the library (pipe and tcp modes) and builds the
/// service: each tenant's model set is loaded from its slice of
/// `--model-dir` (the directory itself for a single-tenant run,
/// `DIR/<tenant>` when several share the root) or trained, and the lifecycle
/// behind `ServeBuilder` takes it from there — budget, persistence, and with
/// `--adapt` the one thread that walks every tenant.
fn build_service(opts: &Options) -> (EstimationService, Adapter) {
    let mut builder = ServeBuilder::new().batch(opts.batch.clone());
    for (name, graph) in tenant_graphs(opts) {
        let dir = opts.model_dir.as_ref().map(|root| {
            if opts.tenants.is_empty() {
                root.clone()
            } else {
                root.join(&name)
            }
        });
        let mut tenant = LmkgTenant::load_or_train(name, graph, lmkg_config(opts), dir.as_deref(), opts.quantized)
            .unwrap_or_else(|e| {
                fail(&format!(
                    "model store {} is unusable: {e} (remove the directory to retrain)",
                    dir.unwrap_or_default().display()
                ))
            });
        tenant.memory_budget = opts.memory_budget;
        builder = builder.lmkg_tenant(tenant);
    }
    let adapt = opts.adapt.then(|| opts.adapter.clone());
    if let Some(cfg) = &adapt {
        eprintln!(
            "serve: adaptation on (interval {:?}, window {}, tv>{}, uncovered>{}, max {} models)",
            cfg.interval, cfg.window, cfg.tv_threshold, cfg.uncovered_threshold, cfg.max_models
        );
    }
    builder
        .build_adaptive(adapt)
        .unwrap_or_else(|e| fail(&format!("invalid tenant set: {e}")))
}

/// SIGINT/SIGTERM handling for the TCP mode: the handler only flips an
/// atomic; a watcher thread forwards it to the accept loop's shutdown flag.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers(flag: &ShutdownFlag) {
    // `std` offers no signal API; registering the handler straight against
    // libc (which std already links) keeps the container dependency-free.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the libc function std itself links; the handler
    // is `extern "C"`, never unwinds, and only performs an async-signal-
    // safe atomic store into `SIGNALLED` — no allocation, locking, or
    // Rust runtime use inside the handler.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    let flag = flag.clone();
    std::thread::Builder::new()
        .name("lmkg-serve-signal-watcher".into())
        .spawn(move || loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                eprintln!("serve: signal received; draining sessions and shutting down …");
                flag.trigger();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        })
        .expect("spawn signal watcher");
}

#[cfg(not(unix))]
fn install_signal_handlers(_flag: &ShutdownFlag) {}

/// The `--metrics-every N` watcher: renders every tenant's METRICS
/// exposition to stderr every `every_s` seconds — `tenant="…"`-labeled when
/// `--tenant` specs were given, unlabeled for the single default tenant.
/// Detached on purpose — it scrapes shared atomics only and dies with the
/// process.
fn start_metrics_dump(svc: &EstimationService, opts: &Options) {
    let every_s = opts.metrics_every;
    if every_s == 0 {
        return;
    }
    let labeled = !opts.tenants.is_empty();
    let tenants: Vec<_> = svc
        .tenant_names()
        .into_iter()
        .filter_map(|name| svc.tenant_serve_stats(&name).map(|stats| (name, stats)))
        .collect();
    std::thread::Builder::new()
        .name("lmkg-serve-metrics-dump".into())
        .spawn(move || loop {
            std::thread::sleep(Duration::from_secs(every_s));
            for (name, stats) in &tenants {
                let label = labeled.then_some(name.as_str());
                eprintln!("{}# EOF", render_metrics_for(label, stats));
            }
        })
        .expect("spawn metrics dump thread");
}

/// The shared tail of the serving modes, run once the transport has
/// drained: the adapter joins (never mid-swap), then the shutdown stats
/// print; dropping the service afterwards flushes the batcher workers.
fn finish_serving(svc: &EstimationService, adapter: Adapter) {
    let published = adapter.stop();
    eprintln!(
        "serve: lifecycle stopped with {} model(s) published",
        published.model_count()
    );
    eprintln!("serve: shutdown stats: {}", svc.stats());
}

fn main() {
    let opts = parse_options();

    match opts.mode.as_str() {
        "sample" => {
            // v1 output (no tenant tokens) without --tenant specs, so
            // existing capture files and the serve-smoke CI stay valid;
            // with specs, each tenant's lines address its namespace.
            let tenants = tenant_graphs(&opts);
            let v2 = !opts.tenants.is_empty();
            for (name, graph) in &tenants {
                let queries = sample_workload(graph, &opts);
                for (i, q) in queries.iter().enumerate() {
                    if v2 {
                        println!("EST {name} q{i} {}", sparql::format_query(q, graph));
                    } else {
                        println!("EST q{i} {}", sparql::format_query(q, graph));
                    }
                }
                if v2 {
                    println!("STATS {name} s_{name}");
                }
            }
            if !v2 {
                println!("STATS s0");
            }
        }
        "pipe" => {
            let (svc, adapter) = build_service(&opts);
            start_metrics_dump(&svc, &opts);
            eprintln!(
                "serve: pipe mode ready (tenants [{}]; max_batch {}, queue {}, workers {})",
                svc.tenant_names().join(", "),
                opts.batch.max_batch,
                opts.batch.queue_depth,
                opts.batch.workers
            );
            let stdin = std::io::stdin();
            serve_stream(&svc, stdin.lock(), std::io::stdout());
            finish_serving(&svc, adapter);
        }
        "tcp" => {
            let listener = std::net::TcpListener::bind(&opts.addr)
                .unwrap_or_else(|e| fail(&format!("cannot bind {}: {e}", opts.addr)));
            let (svc, adapter) = build_service(&opts);
            start_metrics_dump(&svc, &opts);
            let svc = Arc::new(svc);
            let shutdown = ShutdownFlag::new();
            install_signal_handlers(&shutdown);
            eprintln!(
                "serve: listening on {} (tenants [{}])",
                opts.addr,
                svc.tenant_names().join(", ")
            );
            if let Err(e) = serve_tcp(&svc, listener, None, &shutdown) {
                eprintln!("serve: accept loop failed: {e}");
            }
            finish_serving(&svc, adapter);
        }
        _ => unreachable!("mode validated in parse_options"),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_list;

    #[test]
    fn parse_list_rejects_any_item_that_is_not_a_positive_integer() {
        assert_eq!(parse_list("2,3", "--sizes"), Ok(vec![2, 3]));
        assert_eq!(parse_list(" 256 , 64", "--hidden"), Ok(vec![256, 64]));
        for bad in ["2,x,3", "256,25b", "0", "2,,3", "", "-1", "1.5"] {
            let err = parse_list(bad, "--sizes").unwrap_err();
            assert!(err.starts_with("--sizes "), "{bad:?}: {err}");
        }
    }
}
