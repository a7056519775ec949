//! Statistics collection: running moments, percentile histograms, CDFs and
//! time-weighted utilization.
//!
//! The paper's evaluation reports average response times and speedups
//! (Fig. 11/12/14), P99 tail latency (Fig. 13), effective throughput under a
//! QoS bound (Table III), CPU-utilization CDFs (Fig. 4), and normalized CPU
//! utilization (Table IV). This module supplies each of those measurements.

use crate::time::{SimDuration, SimTime};

/// Online mean / variance / min / max accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use specfaas_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds a duration observation in milliseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator), or 0 with fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact-percentile latency recorder.
///
/// Stores every sample (experiments record at most a few hundred thousand
/// response times, which is cheap) and computes percentiles by sorting on
/// demand with linear interpolation between the two closest ranks — the
/// way P99 tail latency (paper Fig. 13) is reported.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples_ms: Vec<f64>,
    sorted: bool,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder {
            samples_ms: Vec::new(),
            sorted: true,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples_ms.push(d.as_millis_f64());
        self.sorted = false;
    }

    /// Records a raw millisecond value.
    pub fn record_ms(&mut self, ms: f64) {
        self.samples_ms.push(ms);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples_ms.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ms.is_empty()
    }

    /// Mean latency in milliseconds, or 0 if empty.
    pub fn mean_ms(&self) -> f64 {
        if self.samples_ms.is_empty() {
            return 0.0;
        }
        self.samples_ms.iter().sum::<f64>() / self.samples_ms.len() as f64
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples_ms
                .sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            self.sorted = true;
        }
    }

    /// The `p`-th percentile in milliseconds (`p` in `[0, 100]`), using
    /// linear interpolation between closest ranks. Returns 0 if empty.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile_ms(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        self.ensure_sorted();
        let n = self.samples_ms.len();
        if n == 0 {
            return 0.0;
        }
        if n == 1 {
            return self.samples_ms[0];
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.samples_ms[lo] * (1.0 - frac) + self.samples_ms[hi] * frac
    }

    /// Convenience: P50 in milliseconds.
    pub fn p50_ms(&mut self) -> f64 {
        self.percentile_ms(50.0)
    }

    /// Convenience: P99 in milliseconds.
    pub fn p99_ms(&mut self) -> f64 {
        self.percentile_ms(99.0)
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples_ms.extend_from_slice(&other.samples_ms);
        self.sorted = false;
    }
}

/// An empirical CDF over arbitrary values, reported as (value, fraction ≤)
/// points — the form used by the paper's Fig. 4 utilization CDFs.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    values: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw samples.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        Cdf { values: samples }
    }

    /// Number of underlying samples.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_at(&self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let idx = self.values.partition_point(|v| *v <= x);
        idx as f64 / self.values.len() as f64
    }

    /// The value below which `q` (in `[0,1]`) of the mass lies.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]` or the CDF is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        assert!(!self.values.is_empty(), "quantile of empty CDF");
        let idx =
            ((q * (self.values.len() - 1) as f64).round() as usize).min(self.values.len() - 1);
        self.values[idx]
    }

    /// Evaluates the CDF at `n` evenly spaced points across `[lo, hi]`,
    /// producing the series plotted in Fig. 4.
    pub fn series(&self, lo: f64, hi: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2 && hi > lo, "series needs n>=2 and hi>lo");
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.fraction_at(x))
            })
            .collect()
    }
}

/// Tracks the busy fraction of a pool of units (e.g. CPU cores) over
/// simulated time, by integrating `busy_units × dt`.
///
/// Produces the normalized CPU-utilization numbers of paper Table IV and the
/// per-node utilization samples behind Fig. 4.
#[derive(Debug, Clone)]
pub struct UtilizationTracker {
    capacity: u64,
    busy: u64,
    /// Windowed-integral clock. [`UtilizationTracker::reset_window`] may
    /// legitimately set this *ahead* of simulated time (excluding a
    /// warm-up transient before it elapses), so it says nothing about
    /// transition ordering.
    last_change: SimTime,
    busy_unit_time: f64, // unit-microseconds of busy time (window-relative)
    /// Total-integral clock: advanced only by transitions and total
    /// queries, never reset, so it orders real busy/idle transitions.
    last_total: SimTime,
    busy_micros_total: u64, // exact unit-microseconds of busy time, never reset
    window_start: SimTime,
    time_anomalies: u64,
}

impl UtilizationTracker {
    /// Creates a tracker for `capacity` units, all idle, at time zero.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        UtilizationTracker {
            capacity,
            busy: 0,
            last_change: SimTime::ZERO,
            busy_unit_time: 0.0,
            last_total: SimTime::ZERO,
            busy_micros_total: 0,
            window_start: SimTime::ZERO,
            time_anomalies: 0,
        }
    }

    fn integrate_window(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_change).as_micros();
        self.busy_unit_time += dt as f64 * self.busy as f64;
        self.last_change = self.last_change.max(now);
    }

    fn integrate_total(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_total).as_micros();
        self.busy_micros_total += dt * self.busy;
        self.last_total = self.last_total.max(now);
    }

    /// Marks `n` more units busy at time `now`.
    ///
    /// Busy/idle transitions must carry monotone timestamps: a timestamp
    /// earlier than the last transition would silently under-integrate
    /// busy time (the elapsed span clamps to zero). That is a caller bug,
    /// so it panics in debug builds and is counted as a
    /// [`UtilizationTracker::time_anomalies`] in release builds.
    ///
    /// # Panics
    /// Panics if this would exceed capacity, or (debug builds) if `now`
    /// precedes the previous transition.
    pub fn acquire(&mut self, now: SimTime, n: u64) {
        self.check_monotone(now);
        self.integrate_window(now);
        self.integrate_total(now);
        assert!(
            self.busy + n <= self.capacity,
            "utilization acquire beyond capacity"
        );
        self.busy += n;
    }

    /// Marks `n` units idle at time `now`. The same timestamp-monotonicity
    /// contract as [`UtilizationTracker::acquire`] applies.
    ///
    /// # Panics
    /// Panics if more units are released than are busy, or (debug builds)
    /// if `now` precedes the previous transition.
    pub fn release(&mut self, now: SimTime, n: u64) {
        self.check_monotone(now);
        self.integrate_window(now);
        self.integrate_total(now);
        assert!(self.busy >= n, "utilization release below zero");
        self.busy -= n;
    }

    fn check_monotone(&mut self, now: SimTime) {
        if now < self.last_total {
            debug_assert!(
                false,
                "utilization time went backwards: transition at {now} after {}",
                self.last_total
            );
            self.time_anomalies += 1;
        }
    }

    /// Number of busy/idle transitions that carried a timestamp earlier
    /// than their predecessor (always 0 in debug builds, which panic
    /// instead). Non-zero means busy time was under-integrated.
    pub fn time_anomalies(&self) -> u64 {
        self.time_anomalies
    }

    /// Currently busy units.
    pub fn busy(&self) -> u64 {
        self.busy
    }

    /// Exact integrated busy time (unit-microseconds) since construction,
    /// unaffected by window resets — the reference for the flight
    /// recorder's core-time conservation invariant.
    pub fn busy_core_time_total(&mut self, now: SimTime) -> SimDuration {
        self.integrate_total(now);
        SimDuration::from_micros(self.busy_micros_total)
    }

    /// Average utilization in `[0, 1]` over `[window_start, now]`.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        self.integrate_window(now);
        let span = now.saturating_since(self.window_start).as_micros() as f64;
        if span == 0.0 {
            return 0.0;
        }
        self.busy_unit_time / (span * self.capacity as f64)
    }

    /// Resets the measurement window to start at `now` (used to discard
    /// warm-up transients before measuring). `now` may lie in the future:
    /// the engines pre-announce the end of the warm-up phase, and busy
    /// time before that instant is then excluded from the window. Only the
    /// windowed integral is affected; the exact total keeps integrating
    /// continuously.
    pub fn reset_window(&mut self, now: SimTime) {
        self.integrate_window(now);
        self.busy_unit_time = 0.0;
        self.window_start = now;
        self.last_change = now;
    }
}

/// Ratio helper for hit-rate style metrics (branch predictor, memoization).
#[derive(Debug, Clone, Copy, Default)]
pub struct HitRate {
    hits: u64,
    total: u64,
}

impl HitRate {
    /// Creates an empty hit-rate tracker.
    pub fn new() -> Self {
        HitRate::default()
    }

    /// Records one trial.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Number of hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of trials.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Hit fraction in `[0, 1]`, or 0 with no trials.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// Merges another tracker.
    pub fn merge(&mut self, other: HitRate) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.count(), all.count());
    }

    /// Property test over seeded random partitions: merging per-chunk
    /// accumulators must agree with recording every sample into one
    /// accumulator, for any chunking. `OnlineStats` moments match to
    /// floating-point tolerance; `LatencyRecorder` holds the same sample
    /// multiset, so its percentiles match exactly.
    #[test]
    fn merge_equals_recording_together_for_random_partitions() {
        use crate::rng::SimRng;

        for seed in 0..20u64 {
            let mut rng = SimRng::seed(0x57a7 ^ seed);
            let n = rng.uniform_range(1, 400) as usize;
            let xs: Vec<f64> = (0..n).map(|_| rng.uniform_f64() * 1e4).collect();

            let mut together_stats = OnlineStats::new();
            let mut together_lat = LatencyRecorder::new();
            for &x in &xs {
                together_stats.record(x);
                together_lat.record_ms(x);
            }

            // Split into a random number of contiguous chunks, record each
            // chunk into its own accumulator, then merge them all.
            let chunks = rng.uniform_range(1, 8) as usize;
            let mut merged_stats = OnlineStats::new();
            let mut merged_lat = LatencyRecorder::new();
            for c in xs.chunks(xs.len().div_ceil(chunks)) {
                let mut s = OnlineStats::new();
                let mut l = LatencyRecorder::new();
                for &x in c {
                    s.record(x);
                    l.record_ms(x);
                }
                merged_stats.merge(&s);
                merged_lat.merge(&l);
            }

            assert_eq!(merged_stats.count(), together_stats.count());
            assert!((merged_stats.mean() - together_stats.mean()).abs() < 1e-7);
            assert!((merged_stats.variance() - together_stats.variance()).abs() < 1e-6);
            assert_eq!(merged_stats.min(), together_stats.min());
            assert_eq!(merged_stats.max(), together_stats.max());

            assert_eq!(merged_lat.count(), together_lat.count());
            for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                assert_eq!(
                    merged_lat.percentile_ms(p),
                    together_lat.percentile_ms(p),
                    "seed {seed}, percentile {p}"
                );
            }
        }
    }

    #[test]
    fn latency_percentiles() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100 {
            r.record(SimDuration::from_millis(i));
        }
        assert!((r.p50_ms() - 50.5).abs() < 1e-9);
        assert!((r.p99_ms() - 99.01).abs() < 0.02);
        assert_eq!(r.percentile_ms(0.0), 1.0);
        assert_eq!(r.percentile_ms(100.0), 100.0);
    }

    #[test]
    fn latency_empty_and_single() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.p99_ms(), 0.0);
        r.record_ms(42.0);
        assert_eq!(r.p50_ms(), 42.0);
        assert_eq!(r.mean_ms(), 42.0);
    }

    #[test]
    fn cdf_fraction_and_quantile() {
        let cdf = Cdf::from_samples(vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        assert_eq!(cdf.fraction_at(0.3), 0.6);
        assert_eq!(cdf.fraction_at(0.05), 0.0);
        assert_eq!(cdf.fraction_at(1.0), 1.0);
        assert_eq!(cdf.quantile(0.0), 0.1);
        assert_eq!(cdf.quantile(1.0), 0.5);
    }

    #[test]
    fn cdf_series_is_monotone() {
        let cdf = Cdf::from_samples((0..1000).map(|i| i as f64 / 1000.0).collect());
        let series = cdf.series(0.0, 1.0, 11);
        assert_eq!(series.len(), 11);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn utilization_integrates_busy_time() {
        let mut u = UtilizationTracker::new(4);
        u.acquire(SimTime::from_millis(0), 2);
        u.release(SimTime::from_millis(10), 2);
        // 2 of 4 cores busy for 10ms out of 20ms window = 25%.
        assert!((u.utilization(SimTime::from_millis(20)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn utilization_window_reset() {
        let mut u = UtilizationTracker::new(1);
        u.acquire(SimTime::from_millis(0), 1);
        u.reset_window(SimTime::from_millis(50));
        // Still busy after reset: full utilization over the new window.
        assert!((u.utilization(SimTime::from_millis(60)) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn utilization_over_acquire_panics() {
        let mut u = UtilizationTracker::new(1);
        u.acquire(SimTime::ZERO, 2);
    }

    /// Out-of-order busy/idle transitions are a caller bug: debug builds
    /// must fail loudly instead of silently dropping busy time.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time went backwards")]
    fn out_of_order_transition_panics_in_debug() {
        let mut u = UtilizationTracker::new(2);
        u.acquire(SimTime::from_millis(10), 1);
        u.release(SimTime::from_millis(5), 1);
    }

    /// In release builds the same bug is counted, not ignored.
    #[test]
    #[cfg(not(debug_assertions))]
    fn out_of_order_transition_counted_in_release() {
        let mut u = UtilizationTracker::new(2);
        u.acquire(SimTime::from_millis(10), 1);
        u.release(SimTime::from_millis(5), 1);
        u.acquire(SimTime::from_millis(7), 1);
        assert_eq!(u.time_anomalies(), 2);
        assert_eq!(u.busy(), 1);
    }

    #[test]
    fn monotone_transitions_report_no_anomalies() {
        let mut u = UtilizationTracker::new(2);
        u.acquire(SimTime::from_millis(1), 1);
        u.release(SimTime::from_millis(2), 1);
        // Queries with stale timestamps are fine: they clamp, they are not
        // busy/idle transitions.
        let _ = u.utilization(SimTime::from_millis(1));
        assert_eq!(u.time_anomalies(), 0);
    }

    #[test]
    fn busy_total_survives_window_reset() {
        let mut u = UtilizationTracker::new(4);
        u.acquire(SimTime::from_millis(0), 2);
        u.reset_window(SimTime::from_millis(10)); // 2 units x 10ms so far
        u.release(SimTime::from_millis(15), 2); // + 2 units x 5ms
        assert_eq!(
            u.busy_core_time_total(SimTime::from_millis(20)),
            SimDuration::from_millis(30)
        );
    }

    #[test]
    fn hit_rate_tracks_and_merges() {
        let mut h = HitRate::new();
        for i in 0..10 {
            h.record(i % 2 == 0);
        }
        assert_eq!(h.rate(), 0.5);
        let mut other = HitRate::new();
        other.record(true);
        other.record(true);
        h.merge(other);
        assert_eq!(h.hits(), 7);
        assert_eq!(h.total(), 12);
    }
}
