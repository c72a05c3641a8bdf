//! Power-of-two-bucket histograms.
//!
//! Latency and size distributions in the planner span many orders of
//! magnitude (a same-tile route is nanoseconds, a full rip-up pass is
//! milliseconds), so fixed-width buckets waste resolution. A
//! power-of-two histogram keeps one counter per binary order of
//! magnitude: bucket `0` holds the value `0` and bucket `i ≥ 1` holds
//! values in `[2^(i-1), 2^i)`. That is 65 counters for the full `u64`
//! range, constant-time recording, and ~±50% quantile resolution —
//! plenty for ranking stages and spotting regressions.

/// A fixed-size power-of-two-bucket histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index for `value`: `0` for zero, otherwise
    /// `floor(log2(value)) + 1`, so bucket `i` covers `[2^(i-1), 2^i)`.
    pub fn bucket_for(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The half-open value range `[lo, hi)` bucket `i` covers (`hi` is
    /// saturating at `u64::MAX` for the last bucket).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), 1 << i),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of `value`: the histogram `n` calls of
    /// [`Histogram::record`] leave (none when `n` is 0).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_for(value)] += n;
        self.count += n;
        self.sum += u128::from(value) * u128::from(n);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another histogram into this one bucket-by-bucket. Because
    /// buckets are fixed powers of two, merging loses nothing: the
    /// result is exactly the histogram of the union of both sample
    /// streams. The sliding-window aggregator ([`crate::window`]) leans
    /// on this to collapse its ring of per-interval histograms into one
    /// rolling distribution.
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(lower_bound, upper_bound, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_range(i);
                (lo, hi, c)
            })
    }

    /// An upper bound on the `q`-quantile (`0.0 ≤ q ≤ 1.0`): the upper
    /// edge of the bucket containing the `ceil(q·count)`-th sample.
    /// Returns 0 when the histogram is empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_range(i).1;
            }
        }
        u64::MAX
    }

    /// Upper bound on the median (see [`Histogram::quantile_upper_bound`]).
    pub fn p50(&self) -> u64 {
        self.quantile_upper_bound(0.50)
    }

    /// Upper bound on the 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile_upper_bound(0.95)
    }

    /// Upper bound on the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile_upper_bound(0.99)
    }

    /// Renders the histogram as a JSON object
    /// (`{"count":..,"sum":..,"max":..,"buckets":[[lo,hi,n],..]}`).
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .nonzero_buckets()
            .map(|(lo, hi, c)| format!("[{lo},{hi},{c}]"))
            .collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            self.max,
            buckets.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_for(0), 0);
        assert_eq!(Histogram::bucket_for(1), 1);
        assert_eq!(Histogram::bucket_for(2), 2);
        assert_eq!(Histogram::bucket_for(3), 2);
        assert_eq!(Histogram::bucket_for(4), 3);
        assert_eq!(Histogram::bucket_for(7), 3);
        assert_eq!(Histogram::bucket_for(8), 4);
        assert_eq!(Histogram::bucket_for(1023), 10);
        assert_eq!(Histogram::bucket_for(1024), 11);
        assert_eq!(Histogram::bucket_for(u64::MAX), 64);
    }

    #[test]
    fn every_value_falls_inside_its_bucket_range() {
        for v in [0_u64, 1, 2, 3, 5, 64, 65, 4095, 4096, 1 << 40, u64::MAX] {
            let i = Histogram::bucket_for(v);
            let (lo, hi) = Histogram::bucket_range(i);
            assert!(lo <= v, "bucket {i}: {lo} <= {v}");
            // The top bucket's upper bound saturates (inclusive there).
            assert!(v < hi || (i == 64 && v <= hi), "bucket {i}: {v} < {hi}");
        }
    }

    #[test]
    fn record_tracks_count_sum_max() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 105);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.0).abs() < 1e-9);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        // value 0 → (0,1); 1,1 → (1,2); 3 → (2,4); 100 → (64,128)
        assert_eq!(buckets, vec![(0, 1, 1), (1, 2, 2), (2, 4, 1), (64, 128, 1)]);
    }

    #[test]
    fn quantile_upper_bounds_bracket_the_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000_u64 {
            h.record(v);
        }
        // Median of 1..=1000 is ~500; its bucket is [256,512) or so:
        // the bound must be >= 500 and within one bucket above.
        let med = h.quantile_upper_bound(0.5);
        assert!(med >= 500, "median bound {med}");
        assert!(med <= 1024, "median bound {med}");
        assert_eq!(h.quantile_upper_bound(1.0), 1024);
        assert_eq!(Histogram::new().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn named_percentiles_are_ordered_and_bracket() {
        let mut h = Histogram::new();
        for v in 1..=1000_u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), h.quantile_upper_bound(0.50));
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
        // p95 of 1..=1000 is 950 → bucket [512,1024); p99 is 990 → same.
        assert!(h.p95() >= 950 && h.p95() <= 1024, "p95 {}", h.p95());
        assert!(h.p99() >= 990 && h.p99() <= 1024, "p99 {}", h.p99());
        // A single sample: all percentiles share its bucket bound.
        let mut one = Histogram::new();
        one.record(7);
        assert_eq!(one.p50(), 8);
        assert_eq!(one.p99(), 8);
        // Empty histograms report 0 everywhere.
        let empty = Histogram::new();
        assert_eq!((empty.p50(), empty.p95(), empty.p99()), (0, 0, 0));
    }

    #[test]
    fn merge_is_exactly_the_union_of_sample_streams() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut union = Histogram::new();
        for v in [0_u64, 1, 3, 100] {
            a.record(v);
            union.record(v);
        }
        for v in [2_u64, 100, 5000] {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
        // Merging an empty histogram is a no-op.
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn json_shape() {
        let mut h = Histogram::new();
        h.record(3);
        assert_eq!(
            h.to_json(),
            "{\"count\":1,\"sum\":3,\"max\":3,\"buckets\":[[2,4,1]]}"
        );
    }
}
