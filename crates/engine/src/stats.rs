//! Lightweight statistics collectors.

/// A power-of-two bucketed histogram of cycle counts.
///
/// # Bucket indexing
///
/// The bucket layout is fixed and part of the public API:
///
/// * `buckets()[0]` holds samples with value **0 or 1**.
/// * `buckets()[i]` for `i >= 1` holds samples in **`[2^i, 2^(i+1))`** —
///   i.e. an exact power of two `2^i` lands in bucket `i`, and
///   `2^(i+1) - 1` is the largest value in bucket `i`.
/// * `u64::MAX` lands in the last bucket, `buckets()[63]`, which covers
///   `[2^63, u64::MAX]`.
///
/// Equivalently, for `value > 1` the index is `63 - value.leading_zeros()`
/// (the position of the most significant set bit). [`Histogram::bucket_of`]
/// exposes this mapping and [`Histogram::bucket_bounds`] its inverse.
///
/// The running `sum` saturates at `u64::MAX` rather than wrapping, so a
/// histogram fed extreme values still reports a coherent (if clamped) total.
///
/// # Examples
///
/// ```
/// use pimdsm_engine::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(3);
/// h.record(300);
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.sum(), 303);
/// assert_eq!(Histogram::bucket_of(3), 1);
/// assert_eq!(Histogram::bucket_of(256), 8);
/// assert_eq!(Histogram::bucket_bounds(8), (256, 511));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index a value falls into (see the type-level docs).
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Inclusive `(lo, hi)` value range covered by bucket `i`.
    ///
    /// Bucket 0 covers `(0, 1)`; bucket `i >= 1` covers
    /// `(2^i, 2^(i+1) - 1)`, with bucket 63 capped at `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[inline]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < 64, "bucket index {i} out of range");
        if i == 0 {
            (0, 1)
        } else if i == 63 {
            (1u64 << 63, u64::MAX)
        } else {
            (1u64 << i, (1u64 << (i + 1)) - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts, for rendering. Indexing is documented on the type.
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Estimated `p`-th percentile (`0.0..=100.0`) by linear interpolation
    /// within the containing bucket.
    ///
    /// The rank `p/100 * (count - 1)` is located in the cumulative bucket
    /// counts; the result interpolates between the bucket's inclusive
    /// bounds according to where the rank falls among that bucket's
    /// samples. The estimate is exact when all of a bucket's samples sit at
    /// its lower bound, is never below the true minimum bucket bound, never
    /// above `max()`, and is monotone in `p`. Returns 0.0 for an empty
    /// histogram.
    ///
    /// ```
    /// use pimdsm_engine::Histogram;
    /// let mut h = Histogram::new();
    /// for v in [8, 8, 8, 8] { h.record(v); }
    /// let p50 = h.percentile(50.0);
    /// assert!((8.0..16.0).contains(&p50));
    /// ```
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        // Fractional rank in [0, count-1].
        let rank = p / 100.0 * (self.count - 1) as f64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let first = seen as f64; // rank of the bucket's first sample
            let last = (seen + n - 1) as f64; // rank of its last sample
            if rank <= last {
                let (lo, hi) = Self::bucket_bounds(i);
                let hi = hi.min(self.max).max(lo);
                let frac = if last > first {
                    ((rank - first) / (last - first)).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                return lo as f64 + frac * (hi - lo) as f64;
            }
            seen += n;
        }
        self.max as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        assert_eq!(h.buckets()[0], 2); // 0, 1
        assert_eq!(h.buckets()[1], 2); // 2, 3
        assert_eq!(h.buckets()[2], 1); // 4
        assert_eq!(h.max(), 4);
        assert_eq!(h.mean(), 2.0);
    }

    #[test]
    fn histogram_bucket_indexing_boundaries() {
        // Exact powers of two land in the bucket bearing their exponent.
        for i in 1..64 {
            let v = 1u64 << i;
            assert_eq!(Histogram::bucket_of(v), i, "2^{i}");
            if v > 2 {
                assert_eq!(Histogram::bucket_of(v - 1), i - 1, "2^{i} - 1");
            }
        }
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);

        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.buckets()[63], 2);
        assert_eq!(h.max(), u64::MAX);
        // Sum saturates instead of wrapping.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn histogram_bucket_bounds_invert_bucket_of() {
        for i in 0..64 {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_of(lo), i);
            assert_eq!(Histogram::bucket_of(hi), i);
            assert!(lo <= hi);
        }
        assert_eq!(Histogram::bucket_bounds(0), (0, 1));
        assert_eq!(Histogram::bucket_bounds(63).1, u64::MAX);
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 1010);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn percentile_empty_and_single() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0.0);
        let mut h = Histogram::new();
        h.record(100);
        for p in [0.0, 50.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!((64.0..=100.0).contains(&v), "p{p} = {v}");
        }
    }

    #[test]
    fn percentile_is_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 2, 5, 9, 17, 64, 64, 200, 4096] {
            h.record(v);
        }
        let mut prev = f64::NEG_INFINITY;
        for p in 0..=100 {
            let v = h.percentile(p as f64);
            assert!(v >= prev, "p{p}: {v} < {prev}");
            assert!(v <= h.max() as f64);
            prev = v;
        }
        // p0 starts in the lowest occupied bucket, p100 reaches the max.
        assert!(h.percentile(0.0) <= 1.0);
        assert_eq!(h.percentile(100.0), h.max() as f64);
    }

    #[test]
    fn percentile_interpolates_within_bucket() {
        // 100 samples all in bucket 4 ([16, 31]): p0 pins to the lower
        // bound and p100 pins to the recorded max.
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(16);
        }
        h.record(31);
        assert_eq!(h.percentile(0.0), 16.0);
        assert_eq!(h.percentile(100.0), 31.0);
        let p50 = h.percentile(50.0);
        assert!((16.0..=31.0).contains(&p50));
    }
}
