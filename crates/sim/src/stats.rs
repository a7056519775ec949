//! Statistics collection: CDFs, time-weighted utilization and hit rates.
//!
//! The paper's evaluation reports CPU-utilization CDFs (Fig. 4),
//! normalized CPU utilization (Table IV) and predictor and memoization
//! hit rates; this module supplies those measurements. Response-time
//! percentiles (Fig. 13) come from [`crate::hist::LogHistogram`].

use crate::time::{SimDuration, SimTime};

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
