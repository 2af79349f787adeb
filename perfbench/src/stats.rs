//! Sample distributions and the summary statistics the report uses.

use std::time::{Duration, Instant};

/// A growable set of samples with nearest-rank percentiles.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    values: Vec<f64>,
    sorted: bool,
}

impl Dist {
    /// An empty distribution.
    pub fn new() -> Self {
        Dist::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Adds a duration in microseconds.
    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: &Dist) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Nearest-rank percentile `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = (q * self.values.len() as f64).ceil() as usize;
        self.values[rank.clamp(1, self.values.len()) - 1]
    }

    /// The median.
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// The 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }
}

/// A log-linear histogram of non-negative integer samples (nanoseconds)
/// with 2^-7 relative resolution, allocated in full up front: its memory
/// neither grows with the number of samples nor depends on their values,
/// so measuring never allocates and the peak RSS does not depend on how
/// fast the run went. Samples of 2^40 ns (18 minutes) or more land in the
/// last bucket.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const MAX_BITS: u32 = 40;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as usize) << SUB_BITS;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist::default()
    }

    fn bucket(v: u64) -> usize {
        let v = v.min((1 << MAX_BITS) - 1);
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
        ((u64::from(e - SUB_BITS + 1) << SUB_BITS) + sub) as usize
    }

    /// Lower bound and width of bucket `b`.
    fn range(b: usize) -> (f64, f64) {
        let b = b as u64;
        if b < SUB {
            return (b as f64, 1.0);
        }
        let e = (b >> SUB_BITS) + u64::from(SUB_BITS) - 1;
        let width = 1u64 << (e - u64::from(SUB_BITS));
        ((SUB + (b & (SUB - 1))) as f64 * width as f64, width as f64)
    }

    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Percentile `q` in `[0, 1]` by nearest rank, interpolated linearly
    /// inside the rank's bucket (values below 128 are exact); 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = Self::range(b);
                if width == 1.0 {
                    return lo;
                }
                return lo + width * ((rank - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank is at most the sample count")
    }
}

/// Median of a small set of values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut d = Dist::new();
    for &v in values {
        d.push(v);
    }
    d.p50()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `setup` `times` times and returns the median wall time in seconds
/// together with the value the last call produced.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (median(&secs), last.expect("setup ran at least once"))
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_resolution() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.push(v * 10);
        }
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0), (1.0, 1_000_000.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.004,
                "q={q}: {got} vs {exact}"
            );
        }
        let mut small = Hist::new();
        small.push(3);
        assert_eq!(small.quantile(0.5), 3.0);
        assert_eq!(Hist::new().quantile(0.5), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut d = Dist::new();
        for v in 1..=100 {
            d.push(v as f64);
        }
        assert_eq!(d.p50(), 50.0);
        assert_eq!(d.p99(), 99.0);
        assert_eq!(d.quantile(1.0), 100.0);
        assert_eq!(Dist::new().p50(), 0.0);
    }
}
