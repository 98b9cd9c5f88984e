//! Log2-bucketed latency histograms.
//!
//! Values (nanoseconds) land in bucket `⌈log2(v)⌉`: bucket 0 holds {0, 1},
//! bucket `b ≥ 1` holds `[2^(b-1)+1, 2^b]`. 64 buckets cover the full u64
//! range, so recording never saturates. Percentiles are reconstructed from
//! the bucket counts with linear interpolation inside the winning bucket —
//! coarse (≤2x error by construction) but allocation-free and mergeable.
//!
//! Recording an observation is three relaxed atomic RMWs (count, sum, max).
//! The expensive part — `Instant::now()` — lives in [`Timer`] and is
//! compiled out unless the `timing` feature is enabled, so default builds
//! never touch the clock.

use std::sync::atomic::{AtomicU64, Ordering};

pub const HISTOGRAM_BUCKETS: usize = 64;

#[cfg_attr(feature = "off", allow(dead_code))]
#[inline]
fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        // ⌈log2(v)⌉ for v ≥ 2.
        (64 - (v - 1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Lower/upper value bounds of a bucket (inclusive).
#[inline]
fn bucket_bounds(b: usize) -> (u64, u64) {
    if b == 0 {
        (0, 1)
    } else {
        ((1u64 << (b - 1)) + 1, 1u64 << b)
    }
}

pub struct LatencyHistogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation in nanoseconds.
    #[inline]
    pub fn record(&self, nanos: u64) {
        #[cfg(not(feature = "off"))]
        {
            self.counts[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(nanos, Ordering::Relaxed);
            self.max.fetch_max(nanos, Ordering::Relaxed);
        }
        #[cfg(feature = "off")]
        let _ = nanos;
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            total: counts.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            counts,
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of a histogram, with percentile reconstruction.
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    pub counts: Vec<u64>,
    pub total: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Reconstruct the `q`-quantile (`q` in [0, 1]) by rank-walking the
    /// buckets and interpolating linearly inside the winning bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the target observation.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bucket_bounds(b);
                let into = rank - seen; // 1..=c
                let frac = if c <= 1 { 1.0 } else { (into - 1) as f64 / (c - 1) as f64 };
                let v = lo as f64 + frac * (hi - lo) as f64;
                // Never report beyond the observed max.
                return (v as u64).min(self.max.max(lo));
            }
            seen += c;
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A scoped latency timer. Zero-sized and free unless the `timing` feature
/// is compiled in — the one switch; with `timing`, construction reads the
/// monotonic clock.
#[must_use]
pub struct Timer {
    #[cfg(feature = "timing")]
    start: std::time::Instant,
}

impl Timer {
    #[inline]
    pub fn start() -> Timer {
        Timer {
            #[cfg(feature = "timing")]
            start: std::time::Instant::now(),
        }
    }

    /// Record the elapsed time into `hist`. No-op in non-`timing` builds.
    #[inline]
    pub fn observe(self, hist: &LatencyHistogram) {
        #[cfg(feature = "timing")]
        hist.record(self.start.elapsed().as_nanos() as u64);
        #[cfg(not(feature = "timing"))]
        let _ = hist;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(1025), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for b in 0..HISTOGRAM_BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(bucket_of(lo), b, "lo of bucket {b}");
            assert_eq!(bucket_of(hi), b, "hi of bucket {b}");
        }
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn quantiles_are_sane() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.total, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.p50();
        // Log2 buckets give ≤2x error.
        assert!((250..=1000).contains(&p50), "p50 = {p50}");
        assert!(s.p99() >= s.p50());
        assert!(s.p99() <= s.max);
        assert!((s.mean() - 500.5).abs() < 1.0);
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn quantile_of_single_observation() {
        let h = LatencyHistogram::new();
        h.record(777);
        let s = h.snapshot();
        assert_eq!(s.total, 1);
        assert!(s.p50() <= 777 + 1024);
        assert_eq!(s.max, 777);
        assert!(s.p99() <= s.max);
    }
}
