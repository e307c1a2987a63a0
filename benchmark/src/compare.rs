//! `lmkg-benchmark compare A.json B.json`: is B worse than A?
//!
//! For every workload and end-to-end metric the two medians are compared
//! against the metric's bound. A difference beyond the bound only counts
//! when the runs themselves agree better than the bound; otherwise the pair
//! is reported as unresolved, not as a regression and not as unchanged.

use crate::json::{self, Value};
use crate::spec::{EndToEnd, END_TO_END, END_TO_END_EXTRA};
use crate::stats::spread;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// `values` of metric `name` of `workload` in a `result.json` document.
fn values(doc: &Value, workload: &str, name: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("values"))
        .map_or(Vec::new(), |v| v.as_array().iter().filter_map(Value::as_f64).collect())
}

/// How much worse `b` is than `a`, as a share of `a` (absolute for
/// `failed_share`, whose baseline is zero); negative when `b` is better.
fn worse_by(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    let diff = if metric.higher_is_better { a - b } else { b - a };
    if metric.name == "failed_share" {
        diff
    } else if a == 0.0 {
        if diff > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        diff / a.abs()
    }
}

pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let worse = worse_by(
        metric,
        crate::stats::median(a.to_vec()),
        crate::stats::median(b.to_vec()),
    );
    let noise = spread(a).max(spread(b));
    let verdict = if worse <= metric.bound {
        Verdict::Ok
    } else if noise > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    };
    (worse, noise, verdict)
}

/// Prints the table and returns whether any pair is worse.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (doc, path) in [(&a, path_a), (&b, path_b)] {
        if doc.get("smoke") != Some(&Value::Bool(false)) {
            return Err(format!(
                "{path} is a smoke run (or not a result file): never comparable"
            ));
        }
    }
    let workloads = a
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("no workloads in the first file")?;
    println!(
        "{:<10} {:<16} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "worse by", "bound", "spread"
    );
    let mut any_worse = false;
    for workload in workloads.keys() {
        for metric in END_TO_END.iter().chain(&END_TO_END_EXTRA) {
            let (va, vb) = (values(&a, workload, metric.name), values(&b, workload, metric.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse, noise, verdict) = verdict(metric, &va, &vb);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<10} {:<16} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}% {:>6.1}%  {}",
                workload,
                metric.name,
                crate::stats::median(va),
                crate::stats::median(vb),
                worse * 100.0,
                metric.bound * 100.0,
                noise * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let p50 = EndToEnd {
            name: "est_p50_us",
            unit: "us",
            higher_is_better: false,
            bound: 0.10,
        };
        assert_eq!(
            verdict(&p50, &[100.0, 101.0, 99.0], &[105.0, 104.0, 106.0]).2,
            Verdict::Ok
        );
        assert_eq!(
            verdict(&p50, &[100.0, 101.0, 99.0], &[120.0, 119.0, 121.0]).2,
            Verdict::Worse
        );
        // Much better is fine too.
        assert_eq!(verdict(&p50, &[100.0, 101.0, 99.0], &[50.0, 51.0, 49.0]).2, Verdict::Ok);
        // Worse by more than the bound, but the runs disagree by more still.
        assert_eq!(
            verdict(&p50, &[100.0, 80.0, 125.0], &[120.0, 119.0, 121.0]).2,
            Verdict::Unresolved
        );

        let rate = EndToEnd {
            name: "est_per_s",
            unit: "1/s",
            higher_is_better: true,
            bound: 0.07,
        };
        assert_eq!(verdict(&rate, &[1000.0], &[950.0]).2, Verdict::Ok);
        assert_eq!(verdict(&rate, &[1000.0], &[900.0]).2, Verdict::Worse);
        assert_eq!(verdict(&rate, &[1000.0], &[2000.0]).2, Verdict::Ok);

        // `failed_share` has an absolute bound: its baseline is zero.
        let failed = END_TO_END_EXTRA.iter().find(|m| m.name == "failed_share").unwrap();
        assert_eq!(verdict(failed, &[0.0], &[0.0005]).2, Verdict::Ok);
        assert_eq!(verdict(failed, &[0.0], &[0.01]).2, Verdict::Worse);
    }
}
