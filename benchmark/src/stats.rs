//! Order statistics for timing samples.
//!
//! A timing is reported as its median and the highest percentile the sample
//! supports: the highest one that still has at least ten samples beyond it.
//! A p99 of 300 samples would rest on three values and repeat badly, so it
//! falls back to p95, p90, … instead.

/// Percentiles are given in tenths of a percent, so that ranks are whole
/// numbers: `990` is p99, `999` is p99.9.
pub const P50: u32 = 500;
pub const P95: u32 = 950;
pub const P99: u32 = 990;
const P999: u32 = 999;

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [u32; 6] = [P999, P99, P95, 900, 750, P50];

/// Samples a percentile needs beyond it to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; 0 when it is empty.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest candidate percentile, at most `cap`, that has at least ten of
/// the `n` samples beyond it; the median when even that is unsupported.
pub fn supported_tail(n: usize, cap: u32) -> u32 {
    TAIL_CANDIDATES
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| n.saturating_sub(rank(n, p)) >= MIN_BEYOND)
        .unwrap_or(P50)
}

/// A measured window is cut into equal slices; each statistic is taken per
/// slice and the run reports its best slice. The reference box is a small VM
/// on a shared host: neighbours slow it down by a quarter and more, for half
/// a second or for a minute, and never speed it up. The best slice is the
/// one the neighbours left alone, which is the number that repeats from run
/// to run; a change to the program moves every slice.
///
/// Medians and rates use many short slices, which find a quiet moment more
/// often; a tail percentile, and a CPU reading, need the samples of a long
/// one. A longer window has more slices, not longer ones.
pub const FINE_SLICE_S: f64 = 0.5;
pub const COARSE_SLICE_S: f64 = 2.0;

/// How many slices of about `slice_s` seconds a window of `window_s` has.
pub fn slice_count(window_s: f64, slice_s: f64) -> usize {
    ((window_s / slice_s).round() as usize).max(1)
}

/// Timing samples, each stamped with when (seconds into the window) it was
/// taken.
#[derive(Default)]
pub struct Samples {
    at_s: Vec<f32>,
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, at_s: f64, value: f64) {
        self.at_s.push(at_s as f32);
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn truncate(&mut self, len: usize) {
        self.at_s.truncate(len);
        self.values.truncate(len);
    }

    pub fn extend(&mut self, other: Samples) {
        self.at_s.extend(other.at_s);
        self.values.extend(other.values);
    }

    /// The values of each of `n` equal slices of a window of `window_s`
    /// seconds, ascending. Samples stamped after the window (the last
    /// replies of a closed loop) belong to the last slice.
    pub fn slices(&self, window_s: f64, n: usize) -> Vec<Vec<f64>> {
        let mut slices = vec![Vec::new(); n];
        for (at, value) in self.at_s.iter().zip(&self.values) {
            let slice = (f64::from(*at) / window_s * n as f64) as usize;
            slices[slice.min(n - 1)].push(*value);
        }
        slices.iter_mut().for_each(|s| sort(s));
        slices
    }
}

/// CPU microseconds the measured process used per sample, in the best of
/// the slices that `marks` cut the window into. A mark is (seconds into the
/// window, CPU seconds used so far); the first one is the window's start, and
/// the samples stamped after the last one belong to the last slice.
pub fn best_cpu_us_per_sample(marks: &[(f64, f64)], samples: &Samples) -> f64 {
    if marks.len() < 2 {
        return 0.0;
    }
    let last = marks.len() - 2;
    let mut counts = vec![0usize; last + 1];
    for at in &samples.at_s {
        let ends_passed = marks[1..].partition_point(|m| m.0 <= f64::from(*at));
        counts[ends_passed.min(last)] += 1;
    }
    let best = marks
        .windows(2)
        .zip(counts)
        .filter(|(_, n)| *n > 0)
        .map(|(pair, n)| (pair[1].1 - pair[0].1) * 1e6 / n as f64)
        .fold(f64::INFINITY, f64::min);
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

/// Median and tail of one timing: each that of the window's best slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub p50: f64,
    /// The gated tail: p99, or the highest percentile below it that every
    /// slice supports.
    pub tail: f64,
    /// Which percentile `tail` is, in percent.
    pub tail_p: f64,
    /// p99.9 of the whole window when it supports it (printed, never gated).
    pub p999: Option<f64>,
    pub n: usize,
}

impl Timing {
    pub fn of(samples: &Samples, window_s: f64) -> Timing {
        let slices = samples.slices(window_s, slice_count(window_s, COARSE_SLICE_S));
        let fewest = slices.iter().map(Vec::len).min().unwrap_or(0);
        let tail_p = supported_tail(fewest, P99);
        let mut all = samples.values.clone();
        sort(&mut all);
        Timing {
            p50: lowest_over(&samples.slices(window_s, slice_count(window_s, FINE_SLICE_S)), |s| {
                percentile(s, P50)
            }),
            tail: lowest_over(&slices, |s| percentile(s, tail_p)),
            tail_p: f64::from(tail_p) / 10.0,
            p999: (supported_tail(all.len(), P999) == P999).then(|| percentile(&all, P999)),
            n: all.len(),
        }
    }
}

/// The lowest `f(slice)` over the slices that hold samples: the best slice
/// of a time.
pub fn lowest_over(slices: &[Vec<f64>], f: impl Fn(&[f64]) -> f64) -> f64 {
    let best = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| f(s))
        .fold(f64::INFINITY, f64::min);
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

/// The highest `f(slice)` over the slices: the best slice of a rate.
pub fn highest_over(slices: &[Vec<f64>], f: impl Fn(&[f64]) -> f64) -> f64 {
    slices.iter().map(|s| f(s)).fold(0.0, f64::max)
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Run-to-run spread of one metric as a share of its median: the distance
/// between the quartiles with four or more values, the full range below that.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = median(v.clone());
    if v.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let width = if v.len() >= 4 {
        percentile(&v, 750) - percentile(&v, 250)
    } else {
        v[v.len() - 1] - v[0]
    };
    width / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(10_000, P999), P999);
        assert_eq!(supported_tail(9_999, P999), P99);
        assert_eq!(supported_tail(1_000, P99), P99);
        assert_eq!(supported_tail(999, P99), P95);
        assert_eq!(supported_tail(200, P99), P95);
        assert_eq!(supported_tail(199, P99), 900);
        assert_eq!(supported_tail(100, P99), 900);
        assert_eq!(supported_tail(99, P99), 750);
        assert_eq!(supported_tail(40, P99), 750);
        assert_eq!(supported_tail(39, P99), P50);
        assert_eq!(supported_tail(3, P99), P50);
        assert_eq!(supported_tail(0, P99), P50);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, P50), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, P99), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[], P50), 0.0);
    }

    #[test]
    fn timing_is_the_best_slice() {
        // 10 s at 1000 samples/s. Undisturbed, a sample takes 3 µs; in four
        // of the five two-second stretches a neighbour slows every sample
        // down, and one of them also holds a burst of very slow samples.
        let mut samples = Samples::default();
        for i in 0..10_000u32 {
            let slice = i / 2000;
            let burst = slice == 1 && i % 10 == 0;
            let value = if burst {
                1000.0
            } else {
                [4.0, 5.0, 3.0, 4.5, 6.0][slice as usize]
            };
            samples.push(f64::from(i) / 1000.0, value);
        }
        let t = Timing::of(&samples, 10.0);
        assert_eq!((t.p50, t.tail, t.n, t.tail_p), (3.0, 3.0, 10_000, 99.0));
        // p99.9 is over the whole window.
        assert_eq!(t.p999, Some(1000.0));
        let slices = samples.slices(10.0, slice_count(10.0, FINE_SLICE_S));
        assert_eq!(slices.len(), 20);
        assert_eq!(highest_over(&slices, |s| s.len() as f64 / 0.5), 1000.0);
        // Completions after the window's end count towards the last slice.
        samples.push(10.004, 5.0);
        assert_eq!(samples.slices(10.0, slice_count(10.03, COARSE_SLICE_S))[4].len(), 2001);
        // A window with an empty slice still has a best slice.
        let mut sparse = Samples::default();
        sparse.push(0.5, 7.0);
        assert_eq!(Timing::of(&sparse, 10.0).p50, 7.0);
        assert_eq!(Timing::of(&Samples::default(), 10.0).p50, 0.0);
    }

    #[test]
    fn a_longer_window_has_more_slices() {
        assert_eq!(slice_count(15.0, FINE_SLICE_S), 30);
        assert_eq!(slice_count(15.02, COARSE_SLICE_S), 8);
        assert_eq!(slice_count(2.0, COARSE_SLICE_S), 1);
        assert_eq!(slice_count(0.5, COARSE_SLICE_S), 1);
    }

    #[test]
    fn cpu_per_sample_is_that_of_the_best_slice() {
        // Three slices of 2 s with 100, 50 and 100 samples; the process used
        // 10 ms, 4 ms and 12 ms of CPU in them.
        let marks = [(0.0, 1.0), (2.0, 1.010), (4.001, 1.014), (6.02, 1.026)];
        let mut samples = Samples::default();
        for i in 0..100u32 {
            samples.push(f64::from(i) * 0.02, 1.0);
            samples.push(4.01 + f64::from(i) * 0.02, 1.0);
        }
        for i in 0..50u32 {
            samples.push(2.0 + f64::from(i) * 0.04, 1.0);
        }
        assert!((best_cpu_us_per_sample(&marks, &samples) - 80.0).abs() < 1e-6);
        // A sample stamped after the last mark belongs to the last slice, and
        // a slice without samples is no candidate.
        let marks = [(0.0, 0.0), (1.0, 0.5), (2.0, 0.5), (3.0, 0.75)];
        let mut late = Samples::default();
        late.push(0.5, 1.0);
        late.push(2.5, 1.0);
        late.push(3.2, 1.0);
        assert!((best_cpu_us_per_sample(&marks, &late) - 125_000.0).abs() < 1e-6);
        assert_eq!(best_cpu_us_per_sample(&marks, &Samples::default()), 0.0);
        assert_eq!(best_cpu_us_per_sample(&[], &late), 0.0);
    }

    #[test]
    fn a_small_sample_falls_back_to_a_lower_tail() {
        let mut samples = Samples::default();
        for i in 0..500u32 {
            samples.push(f64::from(i) / 50.0, f64::from(i % 100));
        }
        // 100 per tail slice: p90 is the highest percentile with ten beyond it.
        let t = Timing::of(&samples, 10.0);
        assert_eq!((t.tail_p, t.tail, t.p999), (90.0, 89.0, None));
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        assert_eq!(spread(&[10.0]), 0.0);
        assert_eq!(spread(&[9.0, 10.0, 11.0]), 0.2);
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(spread(&v), (6.0 - 2.0) / 4.5);
    }
}
