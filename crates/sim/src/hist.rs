//! Mergeable log-linear histogram for constant-memory tail latencies.
//!
//! [`LogHistogram`] is the streaming replacement for an exact
//! sort-every-sample latency recorder: HDR-style
//! bounded-relative-error buckets, O(1) record, an associative and
//! commutative merge (so `--jobs` shards combine byte-identically no
//! matter the shard count or merge order), and rank-based quantile
//! queries (p50/p90/p99/p99.9/max). Memory is bounded by the bucket
//! layout — at most [`LogHistogram::MAX_BUCKETS`] `u64` counters — and is
//! *independent of the sample count*, which is what makes 10⁶–10⁷-request
//! runs affordable to observe.
//!
//! # Bucket math
//!
//! Values are non-negative `u64` in the caller's unit (the engines record
//! microseconds). Values below 64 get one exact bucket each (the linear
//! region). Above that, every power-of-two range `[2^e, 2^(e+1))` is
//! split into 64 equal sub-buckets, so a bucket's width is `2^(e-6)` and
//! its relative width is at most 1/64. Quantiles report the bucket
//! *midpoint* (clamped to the observed min/max), so the reported value is
//! within [`LogHistogram::RELATIVE_ERROR`] = 1/128 (< 1 %) of every
//! sample in that bucket. Bucket indexing is two shifts and a
//! `leading_zeros` — no floating point anywhere, which is why merged
//! shards are byte-identical and cross-platform stable.
//!
//! # Example
//!
//! ```
//! use specfaas_sim::hist::LogHistogram;
//!
//! let mut h = LogHistogram::new();
//! for v in 1..=10_000u64 {
//!     h.record(v);
//! }
//! let p99 = h.quantile(0.99);
//! assert!((p99 as f64 - 9_900.0).abs() / 9_900.0 < 0.01);
//! assert_eq!(h.quantile(1.0), 10_000); // max is exact
//! ```

use crate::time::SimDuration;

/// Number of sub-buckets per power-of-two range (and the size of the
/// exact linear region), as a power of two.
const SUB_BITS: u32 = 6;
/// Sub-buckets per power-of-two range.
const SUB: u64 = 1 << SUB_BITS;

/// A mergeable log-linear histogram: O(1) record, deterministic merge,
/// bounded-relative-error quantiles, constant memory.
///
/// See the [module documentation](self) for the bucket math and the
/// determinism argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// Per-bucket counts, grown on demand up to [`LogHistogram::MAX_BUCKETS`].
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Upper bound on the number of buckets (and thus on memory), for any
    /// input distribution: the linear region plus 58 subdivided
    /// power-of-two ranges covering all of `u64` (max index is
    /// `(63 - SUB_BITS + 1)·SUB + SUB - 1`).
    pub const MAX_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;
    /// Worst-case relative error of a quantile estimate: buckets have
    /// relative width ≤ 1/64 and quantiles report the midpoint.
    pub const RELATIVE_ERROR: f64 = 1.0 / 128.0;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of `v` — exact below [`SUB`], log-linear above.
    #[inline]
    fn index_of(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            let e = 63 - v.leading_zeros(); // v in [2^e, 2^(e+1)), e >= SUB_BITS
            let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
            ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
        }
    }

    /// Inclusive lower bound of bucket `i`.
    fn bucket_lo(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            i
        } else {
            let e = i / SUB + SUB_BITS as u64 - 1;
            let sub = i % SUB;
            (SUB + sub) << (e - SUB_BITS as u64)
        }
    }

    /// Exclusive upper bound of bucket `i` (saturating at `u64::MAX`).
    fn bucket_hi(i: usize) -> u64 {
        if (i as u64) < SUB {
            i as u64 + 1
        } else {
            let e = i as u64 / SUB + SUB_BITS as u64 - 1;
            Self::bucket_lo(i).saturating_add(1u64 << (e - SUB_BITS as u64))
        }
    }

    /// Representative value of bucket `i` (its midpoint).
    fn bucket_mid(i: usize) -> u64 {
        let lo = Self::bucket_lo(i);
        let hi = Self::bucket_hi(i);
        lo + (hi - lo) / 2
    }

    /// Records one value. O(1): one shift-based index plus a possible
    /// one-time `Vec` growth (bounded by [`LogHistogram::MAX_BUCKETS`]).
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::index_of(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration in microseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_micros());
    }

    /// Records a raw millisecond value (rounded to whole microseconds,
    /// clamped at zero).
    pub fn record_ms(&mut self, ms: f64) {
        self.record((ms * 1_000.0).round().max(0.0) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Number of bucket counters currently allocated. Bounded by
    /// [`LogHistogram::MAX_BUCKETS`] whatever the sample count — the
    /// constant-memory property the scale runs rely on.
    pub fn bucket_storage(&self) -> usize {
        self.counts.len()
    }

    /// The value at quantile `q` in `[0, 1]`: the midpoint of the bucket
    /// holding the sample of rank `ceil(q·n)` (rank 1 for `q = 0`),
    /// clamped to the observed `[min, max]` — so `quantile(0.0)` is the
    /// exact minimum and `quantile(1.0)` the exact maximum. Returns 0 if
    /// empty. Monotone in `q`, and within
    /// [`LogHistogram::RELATIVE_ERROR`] of every sample in the bucket.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantiles([q])[0]
    }

    /// [`LogHistogram::quantile`] of every `qs[i]`, answered by one scan
    /// of the buckets whatever the order of `qs`; allocation-free.
    ///
    /// # Panics
    /// Panics if any `q` is outside `[0, 1]`.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        assert!(
            qs.iter().all(|q| (0.0..=1.0).contains(q)),
            "quantile must be in [0,1]"
        );
        let mut out = [0u64; N];
        if self.count == 0 {
            return out;
        }
        let ranks = qs.map(|q| ((q * self.count as f64).ceil() as u64).clamp(1, self.count));
        // One scan answers the ranks below the maximum's in increasing
        // order: the common step is one add and one compare against the
        // next rank due.
        let mut order: [usize; N] = std::array::from_fn(|i| i);
        order.sort_unstable_by_key(|&i| ranks[i]);
        let due = order.iter().take_while(|&&i| ranks[i] < self.count).count();
        let mut next = 0;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if next == due {
                break;
            }
            seen += c;
            if seen < ranks[order[next]] {
                continue;
            }
            let mid = Self::bucket_mid(b).clamp(self.min, self.max);
            while next < due && ranks[order[next]] <= seen {
                out[order[next]] = mid;
                next += 1;
            }
        }
        // The extreme ranks are the tracked min/max — return them exactly.
        for (o, &rank) in out.iter_mut().zip(&ranks) {
            if rank == 1 {
                *o = self.min;
            } else if rank == self.count {
                *o = self.max;
            }
        }
        out
    }

    /// Convenience: the quantile converted from microseconds to
    /// milliseconds (engines record latencies in microseconds).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile(q) as f64 / 1_000.0
    }

    /// Number of recorded values that landed in buckets whose entire
    /// range is ≤ the bucket containing `v` — the cumulative count behind
    /// a Prometheus `le` bucket boundary. Exact when `v` is a bucket
    /// upper bound; otherwise counts through the end of `v`'s bucket.
    pub fn count_le(&self, v: u64) -> u64 {
        let idx = Self::index_of(v);
        self.counts.iter().take(idx + 1).sum()
    }

    /// Iterates the non-empty buckets as `(lo, hi, count)` with `hi`
    /// exclusive, in increasing value order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), Self::bucket_hi(i), c))
    }

    /// Merges another histogram into this one: element-wise `u64` bucket
    /// addition, so the merge is exactly associative and commutative —
    /// sharded runs combine byte-identically regardless of shard count or
    /// merge order.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        for v in 0..64u64 {
            assert_eq!(LogHistogram::index_of(v), v as usize);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
    }

    #[test]
    fn bucket_bounds_partition_the_value_space() {
        // Every bucket's hi equals the next bucket's lo, and index_of maps
        // lo and hi-1 back to the bucket itself.
        for i in 0..2_000usize {
            let lo = LogHistogram::bucket_lo(i);
            let hi = LogHistogram::bucket_hi(i);
            assert!(hi > lo, "bucket {i} empty: [{lo},{hi})");
            assert_eq!(LogHistogram::index_of(lo), i, "lo of bucket {i}");
            assert_eq!(LogHistogram::index_of(hi - 1), i, "hi-1 of bucket {i}");
            assert_eq!(LogHistogram::bucket_lo(i + 1), hi, "gap after bucket {i}");
        }
    }

    #[test]
    fn relative_width_bounded() {
        for i in 64..3_000usize {
            let lo = LogHistogram::bucket_lo(i);
            let hi = LogHistogram::bucket_hi(i);
            let width = (hi - lo) as f64;
            assert!(
                width / lo as f64 <= 1.0 / 64.0 + 1e-12,
                "bucket {i} [{lo},{hi}) too wide"
            );
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            assert!(
                (got - expect).abs() / expect < 0.01,
                "q={q}: got {got}, want ~{expect}"
            );
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100_000);
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let mut h = LogHistogram::new();
        h.record(7_000);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 7_000);
        }
        assert_eq!(h.quantile_ms(0.5), 7.0);
    }

    #[test]
    fn empty_histogram_degrades_to_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.min().is_none());
        assert!(h.max().is_none());
        assert_eq!(h.count_le(1_000), 0);
    }

    #[test]
    fn merge_equals_recording_together() {
        let mut rng = crate::rng::SimRng::seed(0x4157);
        let xs: Vec<u64> = (0..5_000)
            .map(|_| rng.uniform_range(1, 1_000_000))
            .collect();
        let mut together = LogHistogram::new();
        for &x in &xs {
            together.record(x);
        }
        let mut merged = LogHistogram::new();
        for chunk in xs.chunks(777) {
            let mut h = LogHistogram::new();
            for &x in chunk {
                h.record(x);
            }
            merged.merge(&h);
        }
        assert_eq!(merged, together, "merge must be lossless and exact");
    }

    #[test]
    fn memory_is_constant_in_sample_count() {
        let mut rng = crate::rng::SimRng::seed(0xBEEF);
        let mut h = LogHistogram::new();
        for _ in 0..10_000 {
            h.record(rng.uniform_range(1, 10_000_000));
        }
        let at_10k = h.bucket_storage();
        for _ in 0..200_000 {
            h.record(rng.uniform_range(1, 10_000_000));
        }
        assert_eq!(
            h.bucket_storage(),
            at_10k,
            "bucket storage grew with sample count"
        );
        assert!(at_10k <= LogHistogram::MAX_BUCKETS);
    }

    #[test]
    fn count_le_matches_bucketed_truth() {
        let mut h = LogHistogram::new();
        for v in [10u64, 100, 1_000, 10_000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count_le(10), 1);
        assert_eq!(h.count_le(150), 2);
        assert_eq!(h.count_le(1_000_000), 5);
        assert_eq!(h.count_le(1), 0);
    }
}
