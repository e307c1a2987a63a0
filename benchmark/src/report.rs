//! What a run produces and how it is printed.

use crate::json::Value;
use crate::spec::{self, END_TO_END, END_TO_END_EXTRA, PER_LAYER};
use std::collections::BTreeMap;

/// One measured value. `samples` is how many observations it rests on
/// (requests for a latency, set-ups for `setup_s`, 1 for a reading).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
    /// A remark printed beside the value, e.g. which percentile a tail is.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name,
            value,
            samples,
            note: String::new(),
        }
    }

    pub fn noted(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The result of one workload run, untraced (end-to-end metrics) or traced
/// (per-layer metrics).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Estimates requested inside the measured window.
    pub attempted: u64,
    /// Of those, the ones without a correct, timely reply.
    pub failed: u64,
    /// Limits the run missed (`paced` over its latency limit, a late
    /// open-loop sender): the outputs are correct, the numbers are not to be
    /// used.
    pub invalid: Vec<String>,
    /// Why estimates failed, by kind.
    pub failures: Vec<(&'static str, u64)>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric::new(name, value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Every estimate asked for came back, once, in time, and equal to the
    /// reference.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Adds a zero for every per-layer metric the run did not produce (a
    /// layer that is not on the workload's path did no work) and puts the
    /// metrics in the order of the table.
    pub fn fill_per_layer(&mut self) {
        for layer in &PER_LAYER {
            if self.get(layer.name).is_none() {
                self.push(layer.name, 0.0, 0);
            }
        }
        self.metrics
            .sort_by_key(|m| PER_LAYER.iter().position(|layer| layer.name == m.name));
    }

    /// The line the benchmark contract asks for: exactly the listed metrics,
    /// end-to-end for an untraced run and per-layer for a traced one.
    pub fn contract_line(&self, traced: bool) -> String {
        let listed: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics = listed.into_iter().map(|(name, unit)| {
            let value = self.get(name).unwrap_or(0.0);
            (
                name,
                Value::object([("value", Value::from(value)), ("unit", Value::from(unit))]),
            )
        });
        Value::object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::from(self.attempted.max(1) as f64)),
            ("failed", Value::from(self.failed as f64)),
            ("metrics", Value::object(metrics)),
        ])
        .to_string()
    }

    /// Every metric by name with its unit and sample count.
    pub fn print(&self, workload: &str, traced: bool) {
        let kind = if traced { "per-layer (traced run)" } else { "end-to-end" };
        println!(
            "== {workload}: {kind} — attempted {} failed {}",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", m.note)
            };
            let (unit, higher) = describe(m.name);
            let better = if higher { "higher" } else { "lower" };
            println!(
                "  {:<38} {:>16} {unit:<6} better: {better:<6} n={}{note}",
                m.name,
                format_value(m.value),
                m.samples
            );
        }
        if !self.failures.is_empty() {
            let kinds: Vec<String> = self.failures.iter().map(|(why, n)| format!("{why}={n}")).collect();
            println!("  failures: {}", kinds.join(" "));
        }
        for problem in &self.invalid {
            println!("  INVALID: {problem}");
        }
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Unit and direction (`true`: higher is better) of a metric.
fn describe(name: &str) -> (&'static str, bool) {
    END_TO_END
        .iter()
        .chain(&END_TO_END_EXTRA)
        .map(|m| (m.name, m.unit, m.higher_is_better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.higher_is_better)))
        .find(|(n, ..)| *n == name)
        .map_or(("", false), |(_, unit, higher)| (unit, higher))
}

pub fn unit_of(name: &str) -> &'static str {
    describe(name).0
}

/// Prints the budget of a traced run as a table: nanoseconds and share of
/// the traced median per layer on the blocking path.
pub fn print_budget(workload: &str, outcome: &Outcome) {
    let Some(total) = outcome.get("budget.total_us").filter(|t| *t > 0.0) else {
        return;
    };
    let what = if workload == spec::CHURN {
        "session_p50_us"
    } else {
        "est_p50_us"
    };
    println!("== {workload}: budget of the traced {what}");
    println!("  {:<28} {:>14} {:>8}", "layer", "ns", "share");
    let rows = [
        ("transport + protocol", "budget.transport_us"),
        ("store: sparql parse", "budget.sparql_parse_us"),
        ("batcher: admission", "budget.admission_us"),
        ("batcher: batch window", "budget.batch_us"),
        ("batcher: forward", "budget.forward_us"),
        ("batcher: reply", "budget.reply_us"),
        ("unattributed", "budget.unattributed_us"),
        ("total", "budget.total_us"),
    ];
    for (label, name) in rows {
        let us = outcome.get(name).unwrap_or(0.0);
        println!("  {label:<28} {:>14.0} {:>7.1}%", us * 1e3, 100.0 * us / total);
    }
}

/// Collects the runs of one invocation into `result.json`:
/// `workloads.<name>.<end_to_end|per_layer>.<metric>` holds the unit, the
/// value of every run and their median.
#[derive(Default)]
pub struct ResultFile {
    workloads: BTreeMap<String, [BTreeMap<&'static str, Vec<f64>>; 2]>,
    failed: BTreeMap<String, (u64, u64)>,
    invalid: BTreeMap<String, Vec<String>>,
}

impl ResultFile {
    pub fn add(&mut self, workload: &str, traced: bool, outcome: &Outcome) {
        let sections = self.workloads.entry(workload.to_string()).or_default();
        for m in &outcome.metrics {
            sections[usize::from(traced)].entry(m.name).or_default().push(m.value);
        }
        self.invalid
            .entry(workload.to_string())
            .or_default()
            .extend(outcome.invalid.iter().cloned());
        if !traced {
            let totals = self.failed.entry(workload.to_string()).or_default();
            totals.0 += outcome.attempted;
            totals.1 += outcome.failed;
        }
    }

    pub fn to_json(&self, header: Vec<(&'static str, Value)>) -> Value {
        let section = |values: &BTreeMap<&'static str, Vec<f64>>| {
            Value::object(values.iter().map(|(name, runs)| {
                let metric = Value::object([
                    ("unit", Value::from(unit_of(name))),
                    ("values", Value::Array(runs.iter().map(|v| Value::from(*v)).collect())),
                    ("median", Value::from(crate::stats::median(runs.clone()))),
                ]);
                (*name, metric)
            }))
        };
        let workloads = self.workloads.iter().map(|(name, [e2e, layers])| {
            let (attempted, failed) = self.failed.get(name).copied().unwrap_or_default();
            let body = Value::object([
                ("attempted", Value::from(attempted as f64)),
                ("failed", Value::from(failed as f64)),
                (
                    "invalid",
                    Value::Array(self.invalid[name].iter().map(|m| Value::from(m.as_str())).collect()),
                ),
                ("end_to_end", section(e2e)),
                ("per_layer", section(layers)),
            ]);
            (name.clone(), body)
        });
        let mut doc: BTreeMap<String, Value> = header.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        doc.insert("workloads".into(), Value::object(workloads));
        Value::Object(doc)
    }
}
