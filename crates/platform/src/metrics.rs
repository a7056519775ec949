//! Measurement collection for experiment runs.
//!
//! Everything the evaluation section reports comes from here: per-request
//! response times (mean / percentiles), the per-component breakdown of
//! Fig. 3, CPU utilization including the share attributable to squashed
//! speculative work (Table IV), throughput, and speculation statistics.

use specfaas_sim::stats::HitRate;
use specfaas_sim::{LogHistogram, SimDuration, SimTime};

/// Terminal outcome of one application request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The request ran to completion and its effects were committed.
    #[default]
    Completed,
    /// The request was aborted: an injected fault exhausted the retry
    /// budget (or the simulation drained with the request unfinished).
    Failed,
}

/// Counters describing injected faults and what the engine did about
/// them. All zeros when fault injection is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults injected, across all sites.
    pub injected: u64,
    /// Container crashes injected.
    pub crashes: u64,
    /// Transient KV get/set errors injected.
    pub kv_errors: u64,
    /// Speculative slot launches dropped.
    pub slot_drops: u64,
    /// Invocation hangs injected (recoverable only via watchdog timeout).
    pub hangs: u64,
    /// Watchdog timeouts that fired on a live invocation.
    pub timeouts: u64,
    /// Retry attempts scheduled (function-level and storage-level).
    pub retried: u64,
    /// Speculative slots squashed because an earlier function faulted.
    pub squashed_due_to_fault: u64,
    /// Requests aborted after the retry budget was exhausted.
    pub aborted: u64,
}

impl FaultStats {
    /// Component-wise addition.
    pub fn merge(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.crashes += other.crashes;
        self.kv_errors += other.kv_errors;
        self.slot_drops += other.slot_drops;
        self.hangs += other.hangs;
        self.timeouts += other.timeouts;
        self.retried += other.retried;
        self.squashed_due_to_fault += other.squashed_due_to_fault;
        self.aborted += other.aborted;
    }

    /// True if nothing was ever injected or acted upon.
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Per-invocation time attribution, mirroring the five categories of the
/// paper's Fig. 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Creating the container and its network stack.
    pub container_creation: SimDuration,
    /// Injecting code and starting the docker proxy.
    pub runtime_setup: SimDuration,
    /// Front-end / controller / worker communication and controller
    /// queueing when the request comes.
    pub platform: SimDuration,
    /// Time between a function completing and its successor starting
    /// (conductor or RPC hop).
    pub transfer: SimDuration,
    /// Actual function execution (compute + storage stalls).
    pub execution: SimDuration,
    /// Time spent waiting in retry backoff after an injected fault.
    /// Always zero when fault injection is disabled.
    pub retry_backoff: SimDuration,
}

impl Breakdown {
    /// Sum of all components.
    pub fn total(&self) -> SimDuration {
        self.container_creation
            + self.runtime_setup
            + self.platform
            + self.transfer
            + self.execution
            + self.retry_backoff
    }

    /// Fraction of the total spent in actual execution (Observation 1).
    pub fn execution_fraction(&self) -> f64 {
        let t = self.total();
        if t.is_zero() {
            return 0.0;
        }
        self.execution / t
    }

    /// Component-wise addition.
    pub fn merge(&mut self, other: &Breakdown) {
        self.container_creation += other.container_creation;
        self.runtime_setup += other.runtime_setup;
        self.platform += other.platform;
        self.transfer += other.transfer;
        self.execution += other.execution;
        self.retry_backoff += other.retry_backoff;
    }

    /// Component-wise mean of many breakdowns (empty input → zeros).
    pub fn mean_of(items: &[Breakdown]) -> Breakdown {
        if items.is_empty() {
            return Breakdown::default();
        }
        let mut sum = Breakdown::default();
        for b in items {
            sum.merge(b);
        }
        let n = items.len() as u64;
        Breakdown {
            container_creation: sum.container_creation / n,
            runtime_setup: sum.runtime_setup / n,
            platform: sum.platform / n,
            transfer: sum.transfer / n,
            execution: sum.execution / n,
            retry_backoff: sum.retry_backoff / n,
        }
    }
}

/// The record of one completed application request.
#[derive(Debug, Clone)]
pub struct InvocationRecord {
    /// Arrival time.
    pub arrived: SimTime,
    /// Completion time.
    pub completed: SimTime,
    /// Number of function executions (including squashed ones).
    pub functions_run: u32,
    /// Number of function executions squashed.
    pub functions_squashed: u32,
    /// Sequence of committed function ids, in commit order (used by the
    /// Observation-2 most-popular-sequence measurement).
    pub sequence: Vec<u32>,
    /// How the request ended.
    pub outcome: RequestOutcome,
}

impl InvocationRecord {
    /// End-to-end response time.
    pub fn response_time(&self) -> SimDuration {
        self.completed - self.arrived
    }
}

/// Aggregated metrics of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Constant-memory response-time histogram (microseconds). The
    /// reporting path ([`RunMetrics::p99_response_ms`] and friends) reads
    /// percentiles from here, bounded within
    /// [`LogHistogram::RELATIVE_ERROR`] of the exact percentiles of the
    /// completed records.
    pub latency_hist: LogHistogram,
    /// Per-request records, completed and failed, in the order the
    /// requests ended.
    pub records: Vec<InvocationRecord>,
    /// Per-function-invocation breakdowns (Fig. 3).
    pub breakdowns: Vec<Breakdown>,
    /// Requests completed.
    pub completed: u64,
    /// Requests that terminated with [`RequestOutcome::Failed`].
    pub failed: u64,
    /// Requests submitted.
    pub submitted: u64,
    /// Function executions started.
    pub functions_started: u64,
    /// Function executions squashed.
    pub functions_squashed: u64,
    /// Busy core-time spent on work that was later squashed.
    pub squashed_core_time: SimDuration,
    /// Busy core-time spent on committed work.
    pub useful_core_time: SimDuration,
    /// Branch-predictor accuracy (speculative engines only).
    pub branch_hits: HitRate,
    /// Memoization-table accuracy (speculative engines only).
    pub memo_hits: HitRate,
    /// Mean cluster execution-slot utilization over the measured window.
    pub cpu_utilization: f64,
    /// Length of the measured window.
    pub window: SimDuration,
    /// Injected-fault counters and the engine's responses to them.
    pub faults: FaultStats,
}

impl RunMetrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        RunMetrics::default()
    }

    /// Records a completed request.
    pub fn record_completion(&mut self, rec: InvocationRecord) {
        debug_assert_eq!(rec.outcome, RequestOutcome::Completed);
        self.latency_hist.record_duration(rec.response_time());
        self.completed += 1;
        self.records.push(rec);
    }

    /// Records a request that terminated with [`RequestOutcome::Failed`]
    /// (retry budget exhausted, or unrecoverable hang). Failed requests
    /// are kept in `records` for inspection but excluded from the latency
    /// statistics — response time of an abort is not a service time.
    pub fn record_failure(&mut self, rec: InvocationRecord) {
        debug_assert_eq!(rec.outcome, RequestOutcome::Failed);
        self.failed += 1;
        self.faults.aborted += 1;
        self.records.push(rec);
    }

    /// Completed requests per second of goodput (failed requests do not
    /// count) — identical to [`RunMetrics::throughput_rps`] today, but
    /// named for fault-injection reports.
    pub fn goodput_rps(&self) -> f64 {
        self.throughput_rps()
    }

    /// The records of completed requests, in completion order.
    fn completed_records(&self) -> impl Iterator<Item = &InvocationRecord> {
        self.records
            .iter()
            .filter(|r| r.outcome == RequestOutcome::Completed)
    }

    /// Mean response time of the completed requests in milliseconds, or 0
    /// if none completed.
    pub fn mean_response_ms(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        let total: f64 = self
            .completed_records()
            .map(|r| r.response_time().as_millis_f64())
            .sum();
        total / self.completed as f64
    }

    /// P99 response time in milliseconds, answered by the streaming
    /// histogram in constant memory (within
    /// [`LogHistogram::RELATIVE_ERROR`] of the exact sort-based answer —
    /// and exact for a single sample, whose min and max coincide).
    pub fn p99_response_ms(&self) -> f64 {
        self.latency_hist.quantile_ms(0.99)
    }

    /// P50 response time in milliseconds (streaming histogram).
    pub fn p50_response_ms(&self) -> f64 {
        self.latency_hist.quantile_ms(0.50)
    }

    /// P99.9 response time in milliseconds (streaming histogram).
    pub fn p999_response_ms(&self) -> f64 {
        self.latency_hist.quantile_ms(0.999)
    }

    /// Completed requests per second over the window.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.window.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }

    /// Fraction of busy core-time wasted on squashed work.
    pub fn squashed_work_fraction(&self) -> f64 {
        let total = self.squashed_core_time + self.useful_core_time;
        if total.is_zero() {
            return 0.0;
        }
        self.squashed_core_time / total
    }

    /// The most frequent committed function sequence and its share of all
    /// completed requests (Observation 2). Returns `None` if no requests
    /// completed.
    pub fn most_popular_sequence(&self) -> Option<(Vec<u32>, f64)> {
        use std::collections::HashMap;
        // Failed requests carry partial sequences; only committed runs
        // describe the application's real control flow.
        let done: Vec<&InvocationRecord> = self.completed_records().collect();
        if done.is_empty() {
            return None;
        }
        let mut counts: HashMap<&[u32], usize> = HashMap::new();
        for r in &done {
            *counts.entry(r.sequence.as_slice()).or_insert(0) += 1;
        }
        // The winner needs a total order: count first, then a
        // deterministic tie-break (longest, then lexicographically
        // smallest sequence) — `max_by_key` alone would resolve ties by
        // `HashMap` iteration order, which differs across runs.
        let (seq, n) = counts
            .into_iter()
            .max_by(|(sa, na), (sb, nb)| {
                na.cmp(nb)
                    .then(sa.len().cmp(&sb.len()))
                    .then_with(|| sb.cmp(sa))
            })
            .expect("non-empty");
        Some((seq.to_vec(), n as f64 / done.len() as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(arr_ms: u64, dur_ms: u64, seq: Vec<u32>) -> InvocationRecord {
        InvocationRecord {
            arrived: SimTime::from_millis(arr_ms),
            completed: SimTime::from_millis(arr_ms + dur_ms),
            functions_run: seq.len() as u32,
            functions_squashed: 0,
            sequence: seq,
            outcome: RequestOutcome::Completed,
        }
    }

    #[test]
    fn breakdown_total_and_fraction() {
        let b = Breakdown {
            platform: SimDuration::from_millis(6),
            transfer: SimDuration::from_millis(6),
            execution: SimDuration::from_millis(8),
            ..Breakdown::default()
        };
        assert_eq!(b.total(), SimDuration::from_millis(20));
        assert!((b.execution_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn breakdown_mean() {
        let a = Breakdown {
            execution: SimDuration::from_millis(10),
            ..Breakdown::default()
        };
        let b = Breakdown {
            execution: SimDuration::from_millis(20),
            ..Breakdown::default()
        };
        let m = Breakdown::mean_of(&[a, b]);
        assert_eq!(m.execution, SimDuration::from_millis(15));
        assert_eq!(Breakdown::mean_of(&[]), Breakdown::default());
    }

    #[test]
    fn run_metrics_throughput() {
        let mut m = RunMetrics::new();
        m.window = SimDuration::from_secs(10);
        for i in 0..50 {
            m.record_completion(rec(i * 10, 5, vec![0, 1]));
        }
        assert_eq!(m.throughput_rps(), 5.0);
        assert_eq!(m.mean_response_ms(), 5.0);
    }

    #[test]
    fn squashed_fraction() {
        let mut m = RunMetrics::new();
        m.useful_core_time = SimDuration::from_millis(90);
        m.squashed_core_time = SimDuration::from_millis(10);
        assert!((m.squashed_work_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_edge_cases() {
        let mut m = RunMetrics::new();
        // No samples: percentiles and throughput must degrade to 0, not
        // panic or divide by zero.
        assert_eq!(m.p99_response_ms(), 0.0);
        assert_eq!(m.mean_response_ms(), 0.0);
        assert_eq!(m.throughput_rps(), 0.0);
        assert_eq!(m.goodput_rps(), 0.0);
        assert_eq!(m.squashed_work_fraction(), 0.0);
        assert!(m.most_popular_sequence().is_none());
        assert!(m.faults.is_zero());
        // A window without completions still yields zero throughput.
        m.window = SimDuration::from_secs(5);
        assert_eq!(m.throughput_rps(), 0.0);
    }

    #[test]
    fn single_record_percentiles_are_that_record() {
        let mut m = RunMetrics::new();
        m.record_completion(rec(0, 7, vec![0]));
        assert_eq!(m.p99_response_ms(), 7.0);
        assert_eq!(m.p50_response_ms(), 7.0);
        assert_eq!(m.mean_response_ms(), 7.0);
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn histogram_p99_tracks_exact_recorder_within_error_bound() {
        use specfaas_sim::SimRng;
        let mut m = RunMetrics::new();
        let mut rng = SimRng::seed(0x0b5e);
        for i in 0..5_000u64 {
            // Long-tailed synthetic response times, 1ms..~10s.
            let dur_ms = 1 + rng.uniform_u64(10) * rng.uniform_u64(1_000);
            m.record_completion(rec(i, dur_ms, vec![0]));
        }
        // Exact reference: sort the completed response times and
        // interpolate linearly between the two closest ranks.
        let mut sorted: Vec<f64> = m
            .records
            .iter()
            .map(|r| r.response_time().as_millis_f64())
            .collect();
        sorted.sort_by(f64::total_cmp);
        let exact_quantile = |q: f64| {
            let rank = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        };
        for (q, exact) in [(0.50, exact_quantile(0.50)), (0.99, exact_quantile(0.99))] {
            let streamed = m.latency_hist.quantile_ms(q);
            let err = (streamed - exact).abs() / exact.max(1e-9);
            assert!(
                err <= LogHistogram::RELATIVE_ERROR,
                "q={q}: streamed {streamed} vs exact {exact} (err {err})"
            );
        }
        // Constant memory: the histogram never stores per-sample state.
        assert!(m.latency_hist.bucket_storage() <= LogHistogram::MAX_BUCKETS);
    }

    #[test]
    fn disjoint_breakdown_merge_is_componentwise_sum() {
        let mut a = Breakdown {
            container_creation: SimDuration::from_millis(3),
            runtime_setup: SimDuration::from_millis(5),
            ..Breakdown::default()
        };
        let b = Breakdown {
            platform: SimDuration::from_millis(7),
            transfer: SimDuration::from_millis(11),
            execution: SimDuration::from_millis(13),
            retry_backoff: SimDuration::from_millis(17),
            ..Breakdown::default()
        };
        a.merge(&b);
        // Disjoint components: the merge must not mix categories.
        assert_eq!(a.container_creation, SimDuration::from_millis(3));
        assert_eq!(a.runtime_setup, SimDuration::from_millis(5));
        assert_eq!(a.platform, SimDuration::from_millis(7));
        assert_eq!(a.transfer, SimDuration::from_millis(11));
        assert_eq!(a.execution, SimDuration::from_millis(13));
        assert_eq!(a.retry_backoff, SimDuration::from_millis(17));
        assert_eq!(a.total(), SimDuration::from_millis(56));
    }

    #[test]
    fn fault_stats_merge_adds_every_counter() {
        let mut a = FaultStats {
            injected: 1,
            crashes: 2,
            kv_errors: 3,
            slot_drops: 4,
            hangs: 5,
            timeouts: 6,
            retried: 7,
            squashed_due_to_fault: 8,
            aborted: 9,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(
            a,
            FaultStats {
                injected: 2,
                crashes: 4,
                kv_errors: 6,
                slot_drops: 8,
                hangs: 10,
                timeouts: 12,
                retried: 14,
                squashed_due_to_fault: 16,
                aborted: 18,
            }
        );
        assert!(!a.is_zero());
    }

    #[test]
    fn failed_requests_counted_but_not_in_latency_or_sequences() {
        let mut m = RunMetrics::new();
        m.window = SimDuration::from_secs(1);
        m.record_completion(rec(0, 5, vec![0, 1]));
        let mut failed = rec(10, 500, vec![0]);
        failed.outcome = RequestOutcome::Failed;
        m.record_failure(failed);
        assert_eq!(m.completed, 1);
        assert_eq!(m.failed, 1);
        assert_eq!(m.faults.aborted, 1);
        // Latency and throughput describe goodput only.
        assert_eq!(m.mean_response_ms(), 5.0);
        assert_eq!(m.throughput_rps(), 1.0);
        // Partial sequences of failed requests don't pollute Obs. 2.
        let (seq, share) = m.most_popular_sequence().unwrap();
        assert_eq!(seq, vec![0, 1]);
        assert_eq!(share, 1.0);
    }

    /// Equal-count, equal-length sequences must resolve deterministically
    /// (lexicographically smallest), not by `HashMap` iteration order.
    #[test]
    fn most_popular_sequence_tie_breaks_deterministically() {
        // Many tied sequences make an iteration-order-dependent pick very
        // unlikely to land on the right one by chance.
        let seqs: Vec<Vec<u32>> = (0..32u32).map(|i| vec![i, i + 1, i + 2]).collect();
        let mut m = RunMetrics::new();
        for (i, s) in seqs.iter().enumerate() {
            m.record_completion(rec(i as u64, 1, s.clone()));
        }
        for _ in 0..10 {
            let (seq, share) = m.most_popular_sequence().unwrap();
            assert_eq!(seq, vec![0, 1, 2], "smallest sequence wins the tie");
            assert!((share - 1.0 / 32.0).abs() < 1e-12);
        }
        // A longer sequence with the same count still outranks the tie.
        let mut m2 = RunMetrics::new();
        m2.record_completion(rec(0, 1, vec![9]));
        m2.record_completion(rec(1, 1, vec![0, 1]));
        assert_eq!(m2.most_popular_sequence().unwrap().0, vec![0, 1]);
    }

    #[test]
    fn most_popular_sequence() {
        let mut m = RunMetrics::new();
        m.record_completion(rec(0, 1, vec![0, 1, 2]));
        m.record_completion(rec(1, 1, vec![0, 1, 2]));
        m.record_completion(rec(2, 1, vec![0, 3]));
        let (seq, share) = m.most_popular_sequence().unwrap();
        assert_eq!(seq, vec![0, 1, 2]);
        assert!((share - 2.0 / 3.0).abs() < 1e-12);
        assert!(RunMetrics::new().most_popular_sequence().is_none());
    }
}
