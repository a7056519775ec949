//! Queued resources: CPU core pools and single-server service stations.
//!
//! The platform layer models each server node as a [`CorePool`] (execution
//! slots that function handler processes occupy) and the controller /
//! front-end as a [`ServiceStation`] (a FIFO single-server queue whose
//! waiting time is what the paper calls *Platform Overhead*, growing under
//! load). Both are passive: they track occupancy and waiters, and the
//! caller turns grant decisions into simulator events.

use std::collections::VecDeque;

use crate::stats::UtilizationTracker;
use crate::time::{SimDuration, SimTime};

/// A pool of identical execution slots (CPU cores / SMT threads) with a
/// FIFO queue of waiters.
///
/// Waiters are identified by a caller-chosen token `T` (the platform uses
/// function-instance ids). The pool never schedules events itself: when a
/// slot frees up, [`CorePool::release`] returns the token that should now
/// run, and the caller schedules its start event.
///
/// # Example
///
/// ```
/// use specfaas_sim::resource::CorePool;
/// use specfaas_sim::SimTime;
///
/// let mut pool: CorePool<u32> = CorePool::new(1);
/// let t = SimTime::ZERO;
/// assert!(pool.try_acquire(t));        // slot granted immediately
/// pool.enqueue(7);                     // second request must wait
/// let next = pool.release(t);          // slot freed -> waiter 7 granted
/// assert_eq!(next, Some(7));
/// ```
#[derive(Debug)]
pub struct CorePool<T> {
    capacity: u64,
    busy: u64,
    waiters: VecDeque<T>,
    util: UtilizationTracker,
    peak_queue: usize,
}

impl<T> CorePool<T> {
    /// Creates a pool with `capacity` slots, all free.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "core pool capacity must be positive");
        CorePool {
            capacity,
            busy: 0,
            waiters: VecDeque::new(),
            util: UtilizationTracker::new(capacity),
            peak_queue: 0,
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Currently occupied slots.
    pub fn busy(&self) -> u64 {
        self.busy
    }

    /// Currently free slots.
    pub fn free(&self) -> u64 {
        self.capacity - self.busy
    }

    /// Number of queued waiters.
    pub fn queue_len(&self) -> usize {
        self.waiters.len()
    }

    /// Largest queue length observed.
    pub fn peak_queue(&self) -> usize {
        self.peak_queue
    }

    /// Attempts to take a slot immediately. Returns `true` on success; on
    /// failure the caller should [`CorePool::enqueue`] a waiter token.
    pub fn try_acquire(&mut self, now: SimTime) -> bool {
        if self.busy < self.capacity {
            self.busy += 1;
            self.util.acquire(now, 1);
            true
        } else {
            false
        }
    }

    /// Appends a waiter to the FIFO queue.
    pub fn enqueue(&mut self, token: T) {
        self.waiters.push_back(token);
        self.peak_queue = self.peak_queue.max(self.waiters.len());
    }

    /// Removes a queued waiter (e.g. because its function got squashed
    /// before ever starting). Returns `true` if found.
    pub fn remove_waiter<F: FnMut(&T) -> bool>(&mut self, pred: F) -> bool {
        if let Some(pos) = self.waiters.iter().position(pred) {
            self.waiters.remove(pos);
            true
        } else {
            false
        }
    }

    /// Frees one slot. If a waiter is queued, the slot is handed to it
    /// directly (the pool stays at the same occupancy) and its token is
    /// returned so the caller can start it.
    ///
    /// # Panics
    /// Panics if no slot is busy.
    pub fn release(&mut self, now: SimTime) -> Option<T> {
        assert!(self.busy > 0, "release on an idle pool");
        if let Some(next) = self.waiters.pop_front() {
            // Slot transfers to the waiter: busy count unchanged.
            Some(next)
        } else {
            self.busy -= 1;
            self.util.release(now, 1);
            None
        }
    }

    /// Average utilization over the measurement window.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        self.util.utilization(now)
    }

    /// Restarts the utilization measurement window at `now`.
    pub fn reset_utilization_window(&mut self, now: SimTime) {
        self.util.reset_window(now);
    }

    /// Exact integrated busy core-time since construction (never reset) —
    /// feeds the flight recorder's core-time conservation invariant.
    pub fn busy_core_time_total(&mut self, now: SimTime) -> SimDuration {
        self.util.busy_core_time_total(now)
    }

    /// Out-of-order transition timestamps observed (see
    /// [`UtilizationTracker::time_anomalies`]).
    pub fn time_anomalies(&self) -> u64 {
        self.util.time_anomalies()
    }
}

/// A single-server FIFO queue with deterministic service times — an M/D/1
/// style station used to model the controller and front-end components.
///
/// Each submitted job gets a completion time; under load, jobs queue behind
/// one another, which is how platform overhead inflates at high request
/// rates (paper §VIII-A: "speedups slightly decrease with higher load").
///
/// # Example
///
/// ```
/// use specfaas_sim::resource::ServiceStation;
/// use specfaas_sim::{SimTime, SimDuration};
///
/// let mut s = ServiceStation::new();
/// let d1 = s.submit(SimTime::ZERO, SimDuration::from_millis(3));
/// let d2 = s.submit(SimTime::ZERO, SimDuration::from_millis(3));
/// assert_eq!(d1.as_millis(), 3); // served immediately
/// assert_eq!(d2.as_millis(), 6); // waits behind the first job
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServiceStation {
    /// Time at which the server frees up.
    free_at: SimTime,
    jobs: u64,
    busy_time: SimDuration,
    /// Completion instants of the jobs not yet retired, ascending
    /// (completion times are monotone because service is FIFO).
    /// [`ServiceStation::submit`] and [`ServiceStation::queue_depth`]
    /// retire the jobs completed by their instant, so the deque holds
    /// the jobs in flight plus those completed since the last call.
    done_times: VecDeque<SimTime>,
}

impl ServiceStation {
    /// Creates an idle station.
    pub fn new() -> Self {
        ServiceStation::default()
    }

    /// Submits a job arriving at `now` needing `service` time. Returns the
    /// *total* delay from `now` until the job finishes (queueing + service).
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> SimDuration {
        let start = self.free_at.max(now);
        let done = start + service;
        self.free_at = done;
        self.jobs += 1;
        self.busy_time += service;
        self.retire(now);
        self.done_times.push_back(done);
        done - now
    }

    /// Number of jobs queued or in service at `now`: submitted jobs whose
    /// completion instant lies strictly in the future. Retires the jobs
    /// completed by `now` first, so a call costs O(1) amortized; `now`
    /// must not run backwards across calls (simulated time never does).
    /// Retiring moves only [`ServiceStation::next_done`]; no submission's
    /// delay depends on it.
    pub fn queue_depth(&mut self, now: SimTime) -> usize {
        self.retire(now);
        self.done_times.len()
    }

    /// Completion instant of the earliest job not yet retired: when
    /// [`ServiceStation::queue_depth`] next falls without a submission.
    /// `None` when no job is in flight.
    pub fn next_done(&self) -> Option<SimTime> {
        self.done_times.front().copied()
    }

    /// Drops the jobs completed by `now`.
    fn retire(&mut self, now: SimTime) {
        while self.done_times.front().is_some_and(|t| *t <= now) {
            self.done_times.pop_front();
        }
    }

    /// Number of jobs ever submitted.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Aggregate service time delivered.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// The instant the server next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Fraction of `[0, now]` the server spent busy.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let span = now.as_micros() as f64;
        if span == 0.0 {
            return 0.0;
        }
        (self.busy_time.as_micros() as f64 / span).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_grants_up_to_capacity() {
        let mut p: CorePool<u32> = CorePool::new(2);
        let t = SimTime::ZERO;
        assert!(p.try_acquire(t));
        assert!(p.try_acquire(t));
        assert!(!p.try_acquire(t));
        assert_eq!(p.busy(), 2);
        assert_eq!(p.free(), 0);
    }

    #[test]
    fn pool_fifo_handoff_on_release() {
        let mut p: CorePool<u32> = CorePool::new(1);
        let t = SimTime::ZERO;
        assert!(p.try_acquire(t));
        p.enqueue(1);
        p.enqueue(2);
        assert_eq!(p.release(SimTime::from_millis(1)), Some(1));
        assert_eq!(p.release(SimTime::from_millis(2)), Some(2));
        assert_eq!(p.release(SimTime::from_millis(3)), None);
        assert_eq!(p.busy(), 0);
    }

    #[test]
    fn pool_remove_waiter() {
        let mut p: CorePool<u32> = CorePool::new(1);
        p.try_acquire(SimTime::ZERO);
        p.enqueue(1);
        p.enqueue(2);
        assert!(p.remove_waiter(|t| *t == 1));
        assert!(!p.remove_waiter(|t| *t == 1));
        assert_eq!(p.release(SimTime::from_millis(1)), Some(2));
    }

    #[test]
    fn pool_utilization_tracks_busy_time() {
        let mut p: CorePool<u32> = CorePool::new(2);
        assert!(p.try_acquire(SimTime::ZERO));
        p.release(SimTime::from_millis(10));
        // 1 of 2 cores for 10ms of a 10ms window = 50%.
        assert!((p.utilization(SimTime::from_millis(10)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pool_busy_total_counts_through_handoff() {
        let mut p: CorePool<u32> = CorePool::new(1);
        assert!(p.try_acquire(SimTime::ZERO));
        p.enqueue(7);
        // Handoff at 10ms: the slot stays busy straight through.
        assert_eq!(p.release(SimTime::from_millis(10)), Some(7));
        assert_eq!(p.release(SimTime::from_millis(25)), None);
        assert_eq!(
            p.busy_core_time_total(SimTime::from_millis(40)),
            SimDuration::from_millis(25)
        );
        assert_eq!(p.time_anomalies(), 0);
    }

    #[test]
    fn pool_peak_queue() {
        let mut p: CorePool<u32> = CorePool::new(1);
        p.try_acquire(SimTime::ZERO);
        p.enqueue(1);
        p.enqueue(2);
        p.release(SimTime::from_millis(1));
        assert_eq!(p.peak_queue(), 2);
    }

    #[test]
    #[should_panic(expected = "idle pool")]
    fn pool_release_idle_panics() {
        let mut p: CorePool<u32> = CorePool::new(1);
        p.release(SimTime::ZERO);
    }

    #[test]
    fn station_queues_jobs_fifo() {
        let mut s = ServiceStation::new();
        let a = s.submit(SimTime::ZERO, SimDuration::from_millis(5));
        let b = s.submit(SimTime::from_millis(2), SimDuration::from_millis(5));
        assert_eq!(a, SimDuration::from_millis(5));
        // Second job arrives at 2ms, waits until 5ms, finishes at 10ms.
        assert_eq!(b, SimDuration::from_millis(8));
    }

    #[test]
    fn station_queue_depth_tracks_jobs_in_flight() {
        let mut s = ServiceStation::new();
        let t = SimTime::from_millis;
        assert_eq!(s.queue_depth(SimTime::ZERO), 0);
        s.submit(SimTime::ZERO, SimDuration::from_millis(5)); // done at 5
        s.submit(t(1), SimDuration::from_millis(5)); // done at 10
        s.submit(t(1), SimDuration::from_millis(5)); // done at 15
        assert_eq!(s.queue_depth(t(1)), 3);
        assert_eq!(s.queue_depth(t(5)), 2); // first job completed at 5
        assert_eq!(s.queue_depth(t(12)), 1);
        assert_eq!(s.queue_depth(t(15)), 0);
        assert_eq!(s.next_done(), None, "every job retired");
        s.submit(t(20), SimDuration::from_millis(1));
        assert_eq!(s.queue_depth(t(20)), 1);
        assert_eq!(s.next_done(), Some(t(21)));
    }

    #[test]
    fn station_next_done_is_the_earliest_unretired_completion() {
        let mut s = ServiceStation::new();
        let t = SimTime::from_millis;
        s.submit(SimTime::ZERO, SimDuration::from_millis(5)); // done at 5
        s.submit(SimTime::ZERO, SimDuration::from_millis(5)); // done at 10
        assert_eq!(s.next_done(), Some(t(5)));
        assert_eq!(s.queue_depth(t(7)), 1);
        assert_eq!(s.next_done(), Some(t(10)));
    }

    #[test]
    fn station_idles_between_bursts() {
        let mut s = ServiceStation::new();
        s.submit(SimTime::ZERO, SimDuration::from_millis(1));
        let d = s.submit(SimTime::from_millis(100), SimDuration::from_millis(1));
        assert_eq!(d, SimDuration::from_millis(1));
        assert!((s.utilization(SimTime::from_millis(101)) - 2.0 / 101.0).abs() < 1e-9);
    }
}
