//! Table formatting and the timed measurement the sweep goes through.

use lmkg::CardinalityEstimator;
use lmkg_store::Query;
use std::time::Instant;

/// Prints an aligned text table.
pub fn print_table<H: AsRef<str>>(title: &str, headers: &[H], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.as_ref().len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("| {} |", joined.join(" | "));
    };
    line(&headers.iter().map(|h| h.as_ref().to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Formats a float compactly (2 significant decimals, scientific for huge).
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        "inf".into()
    } else if v >= 100_000.0 {
        format!("{v:.1e}")
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Runs an estimator over a workload through the **batched** estimation
/// path; returns one estimate per query and the mean amortized per-query
/// latency in milliseconds. Batched overrides return exactly what the
/// per-query loop would, so accuracy is unchanged while learned-model
/// timings reflect one forward per batch.
pub fn measure(est: &dyn CardinalityEstimator, queries: &[Query]) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let estimates = est.estimate_batch(queries);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;
    (estimates, elapsed_ms / queries.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmkg::metrics::QErrorStats;
    use lmkg::ExactEstimator;
    use lmkg_data::workload::{self, WorkloadConfig};
    use lmkg_data::{Dataset, Scale};
    use lmkg_store::QueryShape;

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(1.234), "1.23");
        assert_eq!(fmt(123.4), "123");
        assert_eq!(fmt(f64::INFINITY), "inf");
        assert!(fmt(1.0e7).contains('e'));
    }

    #[test]
    fn measure_exact_estimator() {
        let g = Dataset::LubmLike.generate(Scale::Ci, 1);
        let mut cfg = WorkloadConfig::test_default(QueryShape::Star, 2, 3);
        cfg.count = 20;
        let (queries, truths): (Vec<_>, Vec<_>) = workload::generate(&g, &cfg)
            .into_iter()
            .map(|lq| (lq.query, lq.cardinality))
            .unzip();
        let (estimates, ms) = measure(&ExactEstimator::new(&g), &queries);
        let stats = QErrorStats::from_pairs(estimates.into_iter().zip(truths)).unwrap();
        assert_eq!((stats.count, stats.mean), (20, 1.0));
        assert!(ms >= 0.0);
    }

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            "test",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
