//! Reader for the server's `METRICS` exposition (Prometheus-style text).
//!
//! The per-layer numbers of the serving crates come from here: the
//! benchmark reads what the server already exposes, it adds no probe inside
//! the program.

/// One sample line: `name{labels} value`.
struct Sample<'a> {
    name: &'a str,
    /// The text between the braces; empty without a label set.
    labels: &'a str,
    value: f64,
}

pub struct Exposition<'a> {
    samples: Vec<Sample<'a>>,
}

/// A histogram family member, rebuilt from its cumulative `_bucket` lines.
pub struct Hist {
    /// `(upper bound, cumulative count)`, ascending; the `+Inf` bucket last.
    buckets: Vec<(f64, f64)>,
    pub sum: f64,
    pub count: f64,
}

impl Hist {
    /// Upper bound of the bucket holding quantile `q` (0..=1); 0 when empty.
    /// The server's buckets are log-spaced eight to the octave, so this is
    /// within 9 % of the true value.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = q * self.count;
        self.buckets
            .iter()
            .find(|&&(bound, cumulative)| cumulative >= rank && cumulative > 0.0 && bound.is_finite())
            .map_or(0.0, |&(bound, _)| bound)
    }

    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }
}

impl<'a> Exposition<'a> {
    /// Comment lines (`#`) and lines without a numeric value are skipped.
    pub fn parse(text: &'a str) -> Exposition<'a> {
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                let value = value.parse().ok()?;
                let (name, labels) = match series.split_once('{') {
                    Some((name, rest)) => (name, rest.strip_suffix('}')?),
                    None => (series, ""),
                };
                Some(Sample { name, labels, value })
            })
            .collect();
        Exposition { samples }
    }

    /// The first sample of `name` whose label set contains `label` (pass ""
    /// for any), e.g. `value("lmkg_events_total", "kind=\"shed\"")`.
    pub fn value(&self, name: &str, label: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.contains(label))
            .map(|s| s.value)
    }

    pub fn hist(&self, name: &str, label: &str) -> Hist {
        let bucket_name = format!("{name}_bucket");
        let buckets = self
            .samples
            .iter()
            .filter(|s| s.name == bucket_name && s.labels.contains(label))
            .filter_map(|s| {
                let le = s.labels.split("le=\"").nth(1)?.split('"').next()?;
                let bound = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
                Some((bound, s.value))
            })
            .collect();
        Hist {
            buckets,
            sum: self.value(&format!("{name}_sum"), label).unwrap_or(0.0),
            count: self.value(&format!("{name}_count"), label).unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from `serve tcp` (single tenant) after one malformed line
    /// and forty estimates sent 10 ms apart.
    const FIXTURE: &str = include_str!("../tests/fixtures/metrics_default.txt");
    /// Captured from tenant `a` of the two-tenant `churn` server after three
    /// sessions of four estimates.
    const FIXTURE_TENANT: &str = include_str!("../tests/fixtures/metrics_tenant_a.txt");

    #[test]
    fn counters_and_gauges_parse() {
        let e = Exposition::parse(FIXTURE);
        assert_eq!(e.value("lmkg_requests_served_total", ""), Some(40.0));
        assert_eq!(e.value("lmkg_requests_shed_total", ""), Some(0.0));
        assert_eq!(e.value("lmkg_parse_errors_total", ""), Some(1.0));
        assert_eq!(e.value("lmkg_model_bytes", ""), Some(731696.0));
        assert_eq!(e.value("lmkg_events_total", "kind=\"parse_error\""), Some(1.0));
        assert_eq!(e.value("lmkg_no_such_series", ""), None);
        assert!(e.value("lmkg_uptime_seconds", "").unwrap() > 0.0);
        // Forty lone requests are forty single-row forwards of three
        // dense layers each, all on the gemv path.
        let kernel = if e.value("lmkg_kernel_dispatch_total", "kernel=\"avx2+fma\"") > Some(0.0) {
            "avx2+fma"
        } else {
            "scalar"
        };
        let gemv = e.value(
            "lmkg_kernel_dispatch_total",
            &format!("path=\"gemv\",kernel=\"{kernel}\""),
        );
        assert_eq!(gemv, Some(120.0));
    }

    #[test]
    fn stage_histograms_parse() {
        let e = Exposition::parse(FIXTURE);
        let batch = e.hist("lmkg_stage_us", "stage=\"batch\"");
        assert_eq!(batch.count, e.value("lmkg_batches_total", "").unwrap());
        assert_eq!(batch.count, 40.0);
        // A lone request waits out the whole flush window: about 2 ms.
        let p50 = batch.quantile(0.5);
        assert!((1500.0..2600.0).contains(&p50), "batch p50 {p50}");
        assert!(batch.quantile(0.5) <= batch.quantile(0.99));
        let forward = e.hist("lmkg_stage_us", "stage=\"forward\"");
        assert!(forward.quantile(0.5) > 0.0 && forward.quantile(0.5) < p50);
        let size = e.hist("lmkg_batch_size", "");
        assert!((1.0..=64.0).contains(&size.mean()), "mean batch size {}", size.mean());
        assert_eq!(e.hist("lmkg_retrain_duration_us", "").quantile(0.5), 0.0);
    }

    #[test]
    fn tenant_labelled_series_parse() {
        let e = Exposition::parse(FIXTURE_TENANT);
        assert_eq!(e.value("lmkg_requests_served_total", "tenant=\"a\""), Some(12.0));
        assert_eq!(e.value("lmkg_sessions_total", ""), Some(4.0));
        let batch = e.hist("lmkg_stage_us", "stage=\"batch\"");
        assert_eq!(batch.count, 3.0);
        assert!(batch.quantile(0.5) > 1500.0);
        assert_eq!(e.hist("lmkg_batch_size", "").mean(), 4.0);
        // The kernel profile is process-wide and absent under a tenant label.
        assert_eq!(e.value("lmkg_kernel_dispatch_total", ""), None);
    }
}
