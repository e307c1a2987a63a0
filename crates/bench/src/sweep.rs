//! The one measurement behind Figs. 8–11 and `BENCH_accuracy.json`: per
//! dataset the line-up is built once and every evaluation cell goes through
//! every estimator once. The figures are *views* — group-bys over the same
//! records — so nothing retrains between them, and the committed accuracy
//! table and its regression gate read the records the figures print.

use crate::competitors::{self, EstimatorInfo};
use crate::{report, workloads, BenchConfig};
use lmkg::metrics::{result_size_bucket, QErrorStats};
use lmkg_data::Dataset;
use lmkg_store::{Query, QueryShape};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One estimator's answer to one evaluation query.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Index into [`Sweep::estimators`] (legend order).
    pub estimator: usize,
    /// Query topology of the cell.
    pub shape: QueryShape,
    /// Query size of the cell.
    pub size: usize,
    /// The estimate.
    pub estimate: f64,
    /// The exact count.
    pub truth: u64,
    /// Amortized latency of the cell's `estimate_batch` call, ms per query.
    pub ms: f64,
}

/// Everything measured on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// The dataset.
    pub dataset: Dataset,
    /// The line-up in the paper's legend order.
    pub estimators: Vec<EstimatorInfo>,
    /// One record per (estimator, evaluation query).
    pub records: Vec<Record>,
}

/// Builds the line-up on `dataset` and pushes every evaluation cell through
/// every estimator. LMKG-U is dropped for YAGO-like, exactly as in the paper
/// ("we remove LMKG-U for the comparison with YAGO", §VIII).
pub fn run(dataset: Dataset, cfg: &BenchConfig) -> Sweep {
    let g = dataset.generate(cfg.scale, cfg.seed);
    let include_u = dataset != Dataset::YagoLike;
    eprintln!("[{}] training estimators (LMKG-U: {include_u})…", dataset.name());
    let (estimators, models): (Vec<EstimatorInfo>, Vec<_>) =
        competitors::build_all(&g, cfg, include_u).into_iter().unzip();
    let cells = workloads::test_cells(&g, cfg);
    let batches: Vec<Vec<Query>> = cells
        .iter()
        .map(|c| c.queries.iter().map(|lq| lq.query.clone()).collect())
        .collect();
    let mut records = Vec::new();
    for (estimator, model) in models.iter().enumerate() {
        for (cell, queries) in cells.iter().zip(&batches) {
            let (estimates, ms) = report::measure(model.as_ref(), queries);
            records.extend(estimates.into_iter().zip(&cell.queries).map(|(estimate, lq)| Record {
                estimator,
                shape: cell.shape,
                size: cell.size,
                estimate,
                truth: lq.cardinality,
                ms,
            }));
        }
    }
    Sweep {
        dataset,
        estimators,
        records,
    }
}

/// One table of a figure: how records are grouped into rows and what a
/// (row, estimator) cell shows.
pub struct View {
    /// Table title; `{}` is the dataset name.
    pub title: &'static str,
    /// Header of the key column.
    pub key: &'static str,
    /// Row of a record: (sort order, row label).
    pub group: fn(&Record) -> (usize, String),
    /// What a (row, estimator) cell prints.
    pub cell: fn(&[&Record]) -> String,
}

/// One of Figs. 8–11: a headline, the datasets the paper shows it for, and
/// its tables.
pub struct Figure {
    /// Subcommand name.
    pub name: &'static str,
    /// First output line (the scale is appended).
    pub headline: &'static str,
    /// The datasets the figure covers.
    pub datasets: &'static [Dataset],
    /// The figure's tables, printed per dataset.
    pub views: &'static [View],
}

fn by_size(r: &Record) -> (usize, String) {
    (r.size, r.size.to_string())
}

fn by_result_size(r: &Record) -> (usize, String) {
    let b = result_size_bucket(r.truth, 5);
    (b, format!("[5^{b}, 5^{})", b + 1))
}

fn by_type(r: &Record) -> (usize, String) {
    (r.shape as usize, r.shape.to_string())
}

fn stats(records: &[&Record]) -> QErrorStats {
    QErrorStats::from_pairs(records.iter().map(|r| (r.estimate, r.truth))).expect("a group holds at least one record")
}

fn mean_q_error(records: &[&Record]) -> String {
    report::fmt(stats(records).mean)
}

fn mean_ms(records: &[&Record]) -> String {
    format!(
        "{:.3}",
        records.iter().map(|r| r.ms).sum::<f64>() / records.len() as f64
    )
}

const SWDF_LUBM: &[Dataset] = &[Dataset::SwdfLike, Dataset::LubmLike];

/// Figs. 8–11 as views over the sweep.
pub const FIGURES: [Figure; 4] = [
    Figure {
        name: "fig8",
        headline: "LMKG Fig. 8 — avg q-error vs query size",
        datasets: SWDF_LUBM,
        views: &[View {
            title: "Fig. 8 — {} (avg q-error)",
            key: "size",
            group: by_size,
            cell: mean_q_error,
        }],
    },
    Figure {
        name: "fig9",
        headline: "LMKG Fig. 9 — avg q-error vs query result size",
        datasets: &Dataset::ALL,
        views: &[View {
            title: "Fig. 9 — {} (avg q-error)",
            key: "result size",
            group: by_result_size,
            cell: mean_q_error,
        }],
    },
    Figure {
        name: "fig10",
        headline: "LMKG Fig. 10 — avg q-error vs query type",
        datasets: &Dataset::ALL,
        views: &[View {
            title: "Fig. 10 — {} (avg q-error)",
            key: "type",
            group: by_type,
            cell: mean_q_error,
        }],
    },
    // For sampling approaches the time covers the full 30-run estimate,
    // matching the paper's measurement ("we measure the time of generating
    // 30 samples since G-CARE needs 30 samples for producing an accurate
    // final estimate").
    Figure {
        name: "fig11",
        headline: "LMKG Fig. 11 — estimation time in ms",
        datasets: SWDF_LUBM,
        views: &[
            View {
                title: "Fig. 11 — {} by query size (ms/query)",
                key: "size",
                group: by_size,
                cell: mean_ms,
            },
            View {
                title: "Fig. 11 — {} by query type (ms/query)",
                key: "type",
                group: by_type,
                cell: mean_ms,
            },
        ],
    },
];

/// The records of a sweep grouped into a view's rows, each row split per
/// estimator (legend order).
pub fn groups<'s>(sweep: &'s Sweep, view: &View) -> BTreeMap<(usize, String), Vec<Vec<&'s Record>>> {
    let mut rows = BTreeMap::new();
    for r in &sweep.records {
        let row: &mut Vec<Vec<&Record>> = rows
            .entry((view.group)(r))
            .or_insert_with(|| vec![Vec::new(); sweep.estimators.len()]);
        row[r.estimator].push(r);
    }
    rows
}

/// A view pivoted into a printable table: the header row (key column, then
/// one column per estimator) and one row per group.
pub fn table(sweep: &Sweep, view: &View) -> (Vec<String>, Vec<Vec<String>>) {
    let headers = std::iter::once(view.key.to_string())
        .chain(sweep.estimators.iter().map(|e| e.label.clone()))
        .collect();
    let rows = groups(sweep, view)
        .into_iter()
        .map(|((_, label), per_estimator)| {
            let cells = per_estimator.iter().map(|records| (view.cell)(records));
            std::iter::once(label).chain(cells).collect()
        })
        .collect();
    (headers, rows)
}

/// Prints a figure from the sweeps of (at least) its datasets.
pub fn print_figure(figure: &Figure, sweeps: &[Sweep], cfg: &BenchConfig) {
    println!("{} (scale {:?})", figure.headline, cfg.scale);
    for sweep in sweeps.iter().filter(|s| figure.datasets.contains(&s.dataset)) {
        for view in figure.views {
            let (headers, rows) = table(sweep, view);
            report::print_table(&view.title.replace("{}", sweep.dataset.name()), &headers, &rows);
        }
    }
}

/// Relative slack `check` grants the median and p95 q-error of a cell over
/// the committed value. A sweep's q-errors are deterministic per seed and
/// the same on every GEMM kernel, so an unchanged build reproduces them
/// exactly. The slack is for a change that moves a numeric path on purpose
/// (a kernel's summation order, an optimiser step, the sampler): it may
/// shift a cell within 5 %, but nothing may make a cell worse beyond that
/// without re-committing the table.
pub const TOLERANCE: f64 = 0.05;

/// One line of `BENCH_accuracy.json`: a (dataset, estimator, shape, size)
/// cell with CardBench's four columns — accuracy, latency, model size,
/// training time.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyCell {
    /// The cell's key: dataset name, legend label, shape, size.
    pub key: [String; 4],
    /// q-error statistics of the cell.
    pub stats: QErrorStats,
    /// The estimator's size in bytes.
    pub memory_bytes: usize,
    /// The estimator's construction + training time in seconds.
    pub train_s: f64,
    /// Amortized estimation latency in ms per query.
    pub ms_per_query: f64,
}

/// The key fields of an artifact line, in [`AccuracyCell::key`] order.
pub const KEY_FIELDS: [&str; 4] = ["dataset", "estimator", "shape", "size"];

/// The accuracy table of a set of sweeps, one cell per (dataset, estimator,
/// shape, size).
pub fn accuracy_cells(sweeps: &[Sweep]) -> Vec<AccuracyCell> {
    let mut out = Vec::new();
    for sweep in sweeps {
        let mut cells: BTreeMap<(usize, QueryShape, usize), Vec<&Record>> = BTreeMap::new();
        for r in &sweep.records {
            cells.entry((r.estimator, r.shape, r.size)).or_default().push(r);
        }
        for ((estimator, shape, size), records) in cells {
            let info = &sweep.estimators[estimator];
            out.push(AccuracyCell {
                key: [
                    sweep.dataset.name().to_string(),
                    info.label.clone(),
                    shape.to_string(),
                    size.to_string(),
                ],
                stats: stats(&records),
                memory_bytes: info.memory_bytes,
                train_s: info.train_s,
                ms_per_query: records[0].ms,
            });
        }
    }
    out
}

/// Renders `BENCH_accuracy.json`: the run's knobs, then one cell per line so
/// [`field`] can read it back without a JSON parser.
pub fn render_artifact(scale: &str, cfg: &BenchConfig, cells: &[AccuracyCell]) -> String {
    let mut out = format!(
        "{{\n\"scale\": \"{scale}\", \"seed\": {}, \"queries\": {},\n\"cells\": [\n",
        cfg.seed, cfg.queries_per_cell
    );
    for (i, c) in cells.iter().enumerate() {
        let ([dataset, estimator, shape, size], s) = (&c.key, &c.stats);
        let _ = write!(
            out,
            "{{\"dataset\": \"{dataset}\", \"estimator\": \"{estimator}\", \"shape\": \"{shape}\", \"size\": {size}, \
             \"n\": {}, \"median\": {:.4}, \"p95\": {:.4}, \"max\": {:.4}, \"mean\": {:.4}, \
             \"memory_bytes\": {}, \"train_s\": {:.3}, \"ms_per_query\": {:.4}}}",
            s.count, s.median, s.p95, s.max, s.mean, c.memory_bytes, c.train_s, c.ms_per_query
        );
        out.push_str(if i + 1 == cells.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n}\n");
    out
}

/// The raw value of `"name": value` on one artifact line (quotes stripped).
pub fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\": ");
    let rest = &line[line.find(&tag)? + tag.len()..];
    match rest.strip_prefix('"') {
        Some(quoted) => quoted.split('"').next(),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

/// The regression gate: every committed cell whose measured median or p95
/// q-error is worse than committed by more than [`TOLERANCE`], or that was
/// not measured at all, as one message each. Empty = pass.
pub fn regressions(committed: &str, measured: &[AccuracyCell]) -> Vec<String> {
    let ids: Vec<String> = measured.iter().map(|c| c.key.join("/")).collect();
    let mut out = Vec::new();
    for line in committed.lines() {
        let key = KEY_FIELDS.map(|name| field(line, name));
        if key.contains(&None) {
            continue; // not a cell line
        }
        let id = key.map(Option::unwrap_or_default).join("/");
        let Some(now) = ids.iter().position(|m| *m == id).map(|i| &measured[i]) else {
            out.push(format!("{id}: committed but not measured"));
            continue;
        };
        for (what, now) in [("median", now.stats.median), ("p95", now.stats.p95)] {
            match field(line, what).and_then(|v| v.parse::<f64>().ok()) {
                Some(was) if now <= was * (1.0 + TOLERANCE) => {}
                Some(was) => out.push(format!("{id}: {what} q-error {now:.4} vs committed {was:.4}")),
                None => out.push(format!("{id}: committed line has no readable {what}")),
            }
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lmkg::framework::{Lmkg, ModelType};
    use std::sync::OnceLock;

    /// A configuration small enough to train the whole line-up in seconds.
    pub(crate) fn tiny_cfg() -> BenchConfig {
        BenchConfig {
            sizes: vec![2, 3],
            queries_per_cell: 12,
            train_queries: 60,
            s_epochs: 2,
            u_epochs: 1,
            u_samples: 300,
            particles: 16,
            s_hidden: 16,
            u_hidden: 16,
            ..BenchConfig::ci(1)
        }
    }

    /// SWDF-like (the smallest term domain, so the cheapest LMKG-U) and
    /// YAGO-like swept once for every test of the crate.
    pub(crate) fn tiny_sweeps() -> &'static [Sweep] {
        static SWEEPS: OnceLock<Vec<Sweep>> = OnceLock::new();
        SWEEPS.get_or_init(|| {
            [Dataset::SwdfLike, Dataset::YagoLike]
                .map(|d| run(d, &tiny_cfg()))
                .into()
        })
    }

    #[test]
    fn every_view_partitions_the_records() {
        for sweep in tiny_sweeps() {
            for view in FIGURES.iter().flat_map(|f| f.views) {
                let rows = groups(sweep, view);
                let seen: Vec<*const Record> = rows.values().flatten().flatten().map(|r| *r as *const _).collect();
                assert_eq!(seen.len(), sweep.records.len(), "{}", view.title);
                let unique: std::collections::BTreeSet<_> = seen.iter().collect();
                assert_eq!(unique.len(), seen.len(), "{}: a record counted twice", view.title);
                let (headers, table_rows) = table(sweep, view);
                assert_eq!(table_rows.len(), rows.len());
                assert!(table_rows.iter().all(|row| row.len() == headers.len()));
            }
        }
    }

    #[test]
    fn each_view_is_headed_by_its_own_key() {
        let keys: Vec<String> = FIGURES
            .iter()
            .flat_map(|f| f.views)
            .map(|v| table(&tiny_sweeps()[0], v).0[0].clone())
            .collect();
        assert_eq!(keys, ["size", "result size", "type", "size", "type"]);
    }

    /// The harness measures the served path: the LMKG-S records of a cell
    /// are bit for bit what the framework built from the same configuration
    /// answers for that cell.
    #[test]
    fn lmkg_s_records_are_the_frameworks_estimates() {
        let cfg = tiny_cfg();
        let swdf = &tiny_sweeps()[0];
        let g = Dataset::SwdfLike.generate(cfg.scale, cfg.seed);
        let lmkg = Lmkg::build(&g, &competitors::lmkg_config(&cfg, ModelType::Supervised));
        let s = swdf.estimators.iter().position(|e| e.label == "LMKG-S").unwrap();
        for cell in workloads::test_cells(&g, &cfg) {
            let queries: Vec<Query> = cell.queries.iter().map(|lq| lq.query.clone()).collect();
            let direct: Vec<u64> = lmkg
                .estimate_query_batch(&queries)
                .iter()
                .map(|e| e.max(1.0).to_bits())
                .collect();
            let recorded: Vec<u64> = swdf
                .records
                .iter()
                .filter(|r| (r.estimator, r.shape, r.size) == (s, cell.shape, cell.size))
                .map(|r| r.estimate.to_bits())
                .collect();
            assert_eq!(recorded, direct, "{} size {}", cell.shape, cell.size);
        }
    }

    #[test]
    fn two_sweeps_with_one_seed_agree_on_every_estimate() {
        let again = run(Dataset::SwdfLike, &tiny_cfg());
        let bits = |s: &Sweep| s.records.iter().map(|r| r.estimate.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again), bits(&tiny_sweeps()[0]));
    }

    #[test]
    fn check_reads_its_own_writer_and_names_regressed_cells() {
        let cells = accuracy_cells(tiny_sweeps());
        // 9 + 8 estimators × 2 shapes × 2 sizes.
        assert_eq!(cells.len(), 17 * 4);
        let artifact = render_artifact("ci", &tiny_cfg(), &cells);
        let header = artifact.lines().nth(1).unwrap();
        assert_eq!(
            (field(header, "scale"), field(header, "seed"), field(header, "queries")),
            (Some("ci"), Some("1"), Some("12"))
        );
        assert_eq!(regressions(&artifact, &cells), Vec::<String>::new());

        // Halve one committed median: that cell, and only that cell, fails.
        let victim = &cells[5];
        let id = victim.key.join("/");
        let is_victim = |l: &&str| KEY_FIELDS.map(|f| field(l, f).unwrap_or_default()).join("/") == id;
        let line = artifact.lines().find(is_victim).unwrap();
        let was = format!("\"median\": {:.4}", victim.stats.median);
        let halved = format!("\"median\": {:.4}", victim.stats.median / 2.0);
        let failures = regressions(&artifact.replace(line, &line.replace(&was, &halved)), &cells);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with(&format!("{id}: median")), "{failures:?}");

        // A committed cell the run no longer produces fails too.
        let missing = regressions(&artifact, &cells[1..]);
        assert_eq!(
            missing,
            [format!("{}: committed but not measured", cells[0].key.join("/"))]
        );
    }
}
