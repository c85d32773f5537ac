//! Always-on occupancy histograms folded into the stats machinery.
//!
//! Unlike the event stream (opt-in, per-event), these histograms are
//! cheap enough to maintain unconditionally: producers sample structure
//! occupancy on a fixed cycle cadence and fold the result into their
//! stats blocks, so every run — traced or not — reports per-structure
//! utilization through the existing `Counters`/report path.

use catch_trace::counters::{
    monotonic_delta, push_counter, CounterSink, CounterSource, Counters, FromCounters,
};

/// Number of relative-occupancy buckets (eighths of capacity).
pub const OCC_BUCKETS: usize = 8;

/// Cycle cadence at which producers sample occupancy (power of two so
/// the check is a mask).
pub const OCC_SAMPLE_PERIOD: u64 = 32;

/// A fixed-bucket occupancy histogram over `used / capacity`.
///
/// Bucket `i` counts samples with `used/cap` in `[i/8, (i+1)/8)`; the
/// last bucket also holds completely full samples. `sum`/`samples`/`max`
/// give the mean and peak in absolute entries.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OccupancyHist {
    /// Samples taken.
    pub samples: u64,
    /// Sum of sampled occupancies (entries).
    pub sum: u64,
    /// Peak sampled occupancy (entries).
    pub max: u64,
    /// Relative-occupancy buckets (eighths of capacity).
    pub buckets: [u64; OCC_BUCKETS],
}

impl OccupancyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample of `used` entries out of `cap`.
    #[inline]
    pub fn record(&mut self, used: u64, cap: u64) {
        self.samples += 1;
        self.sum += used;
        if used > self.max {
            self.max = used;
        }
        let cap = cap.max(1);
        let idx = ((used * OCC_BUCKETS as u64) / cap).min(OCC_BUCKETS as u64 - 1);
        self.buckets[idx as usize] += 1;
    }

    /// Mean sampled occupancy in entries (0 when never sampled).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Fraction of samples at or above `bucket` (eighths of capacity);
    /// 0 when never sampled.
    pub fn fraction_at_or_above(&self, bucket: usize) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let hi: u64 = self.buckets[bucket.min(OCC_BUCKETS - 1)..].iter().sum();
        hi as f64 / self.samples as f64
    }

    /// Combines two snapshots field-by-field with `f` (`max` combines
    /// with `g`, which differs: deltas keep the later peak).
    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64, g: impl Fn(u64, u64) -> u64) -> Self {
        let mut buckets = [0u64; OCC_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = f(self.buckets[i], other.buckets[i]);
        }
        OccupancyHist {
            samples: f(self.samples, other.samples),
            sum: f(self.sum, other.sum),
            max: g(self.max, other.max),
            buckets,
        }
    }

    /// Per-counter difference against an `earlier` snapshot. The peak is
    /// not differenced (it is a high-water mark, not a monotone count):
    /// the later snapshot's peak is kept.
    pub fn minus(&self, earlier: &Self) -> Self {
        self.zip(earlier, monotonic_delta, |later, _| later)
    }

    /// Accumulates `weight` copies of `delta` into `self` (saturating);
    /// the peak accumulates as a max.
    pub fn add_scaled(&mut self, delta: &Self, weight: u64) {
        *self = self.zip(
            delta,
            |a, d| a.saturating_add(d.saturating_mul(weight)),
            u64::max,
        );
    }
}

impl Counters for OccupancyHist {
    fn counters_into(&self, prefix: &str, out: &mut dyn CounterSink) {
        push_counter(out, prefix, "samples", self.samples);
        push_counter(out, prefix, "sum", self.sum);
        push_counter(out, prefix, "max", self.max);
        for (i, b) in self.buckets.iter().enumerate() {
            push_counter(out, prefix, &format!("bucket{i}"), *b);
        }
    }
}

impl FromCounters for OccupancyHist {
    fn from_counters(prefix: &str, src: &mut CounterSource) -> Result<Self, String> {
        let mut h = OccupancyHist {
            samples: src.take(prefix, "samples")?,
            sum: src.take(prefix, "sum")?,
            max: src.take(prefix, "max")?,
            buckets: [0; OCC_BUCKETS],
        };
        for (i, b) in h.buckets.iter_mut().enumerate() {
            *b = src.take(prefix, &format!("bucket{i}"))?;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_buckets() {
        let mut h = OccupancyHist::new();
        h.record(0, 8); // bucket 0
        h.record(4, 8); // bucket 4
        h.record(8, 8); // full → last bucket
        assert_eq!(h.samples, 3);
        assert_eq!(h.max, 8);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[7], 1);
        assert!((h.fraction_at_or_above(4) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_is_safe() {
        let mut h = OccupancyHist::new();
        h.record(0, 0);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(OccupancyHist::new().mean(), 0.0);
        assert_eq!(OccupancyHist::new().fraction_at_or_above(0), 0.0);
    }

    #[test]
    fn minus_and_add_scaled_round_trip() {
        let mut early = OccupancyHist::new();
        early.record(2, 8);
        let mut late = early;
        late.record(6, 8);
        let delta = late.minus(&early);
        assert_eq!(delta.samples, 1);
        assert_eq!(delta.sum, 6);
        assert_eq!(delta.max, 6, "peak keeps the later high-water mark");
        let mut acc = OccupancyHist::new();
        acc.add_scaled(&delta, 3);
        assert_eq!(acc.samples, 3);
        assert_eq!(acc.sum, 18);
        assert_eq!(acc.max, 6);
    }

    #[test]
    fn counters_are_exhaustive_and_ordered() {
        let mut h = OccupancyHist::new();
        h.record(3, 8);
        let c = h.counters("rob");
        assert_eq!(c[0].0, "rob.samples");
        assert_eq!(c.len(), 3 + OCC_BUCKETS);
        assert_eq!(c.last().unwrap().0, "rob.bucket7");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-monotonic")]
    fn minus_rejects_non_monotonic_snapshots() {
        let mut early = OccupancyHist::new();
        early.record(2, 8);
        OccupancyHist::new().minus(&early);
    }
}
