//! The speculation-health scoreboard: one row per (app, run).
//!
//! A [`ScoreboardRow`] condenses everything the paper's evaluation cares
//! about into a glanceable health summary — speculation accuracy, memo
//! hit rate, squash depth, wasted-vs-useful core time, warm-pool
//! effectiveness, and streaming tail latencies — assembled from a run's
//! [`RunMetrics`] and the [`MetricsRegistry`] instruments armed through
//! the harness ([`crate::Harness::scoreboard`] is the convenience
//! constructor). Rows render as a fixed-width text table
//! ([`render_table`]) and as hand-formatted JSONL ([`ScoreboardRow::jsonl`]
//! — the workspace has no serialization dependency), both
//! byte-deterministic.

use std::fmt::Write as _;

use specfaas_sim::timeseries::MetricsRegistry;
use specfaas_sim::LogHistogram;

use crate::metrics::RunMetrics;

/// One scoreboard row: the speculation health of a single run.
#[derive(Debug, Clone)]
pub struct ScoreboardRow {
    /// Application name.
    pub app: String,
    /// Engine that produced the run (`"spec"` / `"baseline"`).
    pub engine: &'static str,
    /// Requests completed.
    pub completed: u64,
    /// Requests failed.
    pub failed: u64,
    /// Branch-predictor accuracy in `[0, 1]` (speculation accuracy).
    pub branch_accuracy: f64,
    /// Branch predictions made.
    pub branch_total: u64,
    /// Memoization-table hit rate in `[0, 1]`.
    pub memo_hit_rate: f64,
    /// Streaming p50 response latency, milliseconds.
    pub p50_ms: f64,
    /// Streaming p99 response latency, milliseconds.
    pub p99_ms: f64,
    /// Streaming p99.9 response latency, milliseconds.
    pub p999_ms: f64,
    /// Per-request squash-depth histogram (functions squashed per
    /// completed request).
    pub squash_depth: LogHistogram,
    /// Core-time spent on committed work, milliseconds.
    pub useful_core_ms: f64,
    /// Core-time wasted on squashed work, milliseconds.
    pub squashed_core_ms: f64,
    /// Container acquisitions served from the warm pool.
    pub warm_starts: u64,
    /// Container acquisitions that paid a cold start.
    pub cold_starts: u64,
    /// Top wasted-core-time functions as `(app/function, microseconds)`,
    /// heaviest first (from the registry's Space-Saving sketch; empty
    /// when the registry was not armed or nothing was squashed).
    pub wasted_topk: Vec<(String, u64)>,
    /// Idle containers reclaimed by the keep-alive policy (TTL expiry,
    /// cap pressure, or no-keep-alive teardown), cluster-wide. Filled by
    /// [`crate::Harness::scoreboard`]; zero when built directly.
    pub evictions: u64,
    /// Per-function container lifecycle as `(function, cold, warm,
    /// evicted)`, in function-id order. Tracked by the container pools —
    /// not the registry — so the counters exist even in uninstrumented
    /// runs. Filled by [`crate::Harness::scoreboard`]; empty when built
    /// directly.
    pub func_containers: Vec<(String, u64, u64, u64)>,
}

impl ScoreboardRow {
    /// Assembles a row from a run's metrics and the registry that was
    /// armed during it. The squash-depth histogram comes from the
    /// registry's `specfaas_request_squashed_functions` instrument when
    /// present, else is rebuilt from the per-request records.
    pub fn build(
        app: &str,
        engine: &'static str,
        metrics: &RunMetrics,
        registry: &MetricsRegistry,
    ) -> ScoreboardRow {
        let squash_depth = registry
            .histogram("specfaas_request_squashed_functions", "", "")
            .cloned()
            .unwrap_or_else(|| {
                let mut h = LogHistogram::new();
                for r in &metrics.records {
                    h.record(r.functions_squashed as u64);
                }
                h
            });
        let wasted_topk = registry
            .topk("specfaas_wasted_core_us_by_function")
            .map(|s| {
                s.top()
                    .into_iter()
                    .map(|(k, e)| (k, e.count))
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        ScoreboardRow {
            app: app.to_string(),
            engine,
            completed: metrics.completed,
            failed: metrics.failed,
            branch_accuracy: metrics.branch_hits.rate(),
            branch_total: metrics.branch_hits.total(),
            memo_hit_rate: metrics.memo_hits.rate(),
            p50_ms: metrics.p50_response_ms(),
            p99_ms: metrics.p99_response_ms(),
            p999_ms: metrics.p999_response_ms(),
            squash_depth,
            useful_core_ms: metrics.useful_core_time.as_millis_f64(),
            squashed_core_ms: metrics.squashed_core_time.as_millis_f64(),
            warm_starts: registry.counter("specfaas_warm_starts_total", "", ""),
            cold_starts: registry.counter("specfaas_cold_starts_total", "", ""),
            wasted_topk,
            evictions: 0,
            func_containers: Vec::new(),
        }
    }

    /// Fraction of busy core-time wasted on squashed work.
    pub fn wasted_fraction(&self) -> f64 {
        let total = self.useful_core_ms + self.squashed_core_ms;
        if total == 0.0 {
            0.0
        } else {
            self.squashed_core_ms / total
        }
    }

    /// Fraction of container acquisitions served warm (warm-pool
    /// effectiveness), or 0 with no acquisitions observed.
    pub fn warm_rate(&self) -> f64 {
        let total = self.warm_starts + self.cold_starts;
        if total == 0 {
            0.0
        } else {
            self.warm_starts as f64 / total as f64
        }
    }

    /// Fraction of container acquisitions that paid a cold start —
    /// computed from the per-function pool counters when present (they
    /// survive even uninstrumented runs), else from the registry-fed
    /// totals. 0 with no acquisitions observed.
    pub fn cold_rate(&self) -> f64 {
        let (cold, warm) = if self.func_containers.is_empty() {
            (self.cold_starts, self.warm_starts)
        } else {
            self.func_containers
                .iter()
                .fold((0, 0), |(c, w), (_, fc, fw, _)| (c + fc, w + fw))
        };
        let total = cold + warm;
        if total == 0 {
            0.0
        } else {
            cold as f64 / total as f64
        }
    }

    /// Compact squash-depth rendering: `depth:count` pairs over the
    /// non-empty buckets, e.g. `0:912 1:71 2:17`. Depths 0–63 sit in the
    /// histogram's exact linear region, so counts are exact; deeper
    /// (bucketed) depths render as `lo-hi:count` ranges.
    pub fn squash_depth_summary(&self) -> String {
        let mut out = String::new();
        for (lo, hi, count) in self.squash_depth.nonzero_buckets() {
            if !out.is_empty() {
                out.push(' ');
            }
            if hi - lo == 1 {
                let _ = write!(out, "{lo}:{count}");
            } else {
                let _ = write!(out, "{lo}-{}:{count}", hi - 1);
            }
        }
        if out.is_empty() {
            out.push('-');
        }
        out
    }

    /// Renders the row as one JSON object (hand-formatted; deterministic
    /// key order, integers and fixed-precision floats only).
    pub fn jsonl(&self) -> String {
        let mut topk = String::from("[");
        for (i, (key, us)) in self.wasted_topk.iter().enumerate() {
            if i > 0 {
                topk.push_str(", ");
            }
            let _ = write!(topk, "{{\"key\": \"{key}\", \"wasted_us\": {us}}}");
        }
        topk.push(']');
        let mut containers = String::from("[");
        for (i, (func, cold, warm, evicted)) in self.func_containers.iter().enumerate() {
            if i > 0 {
                containers.push_str(", ");
            }
            let _ = write!(
                containers,
                "{{\"fn\": \"{func}\", \"cold\": {cold}, \"warm\": {warm}, \"evicted\": {evicted}}}"
            );
        }
        containers.push(']');
        format!(
            "{{\"app\": \"{}\", \"engine\": \"{}\", \"completed\": {}, \"failed\": {}, \
             \"branch_accuracy\": {:.4}, \"branch_total\": {}, \"memo_hit_rate\": {:.4}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \
             \"squash_depth\": \"{}\", \"useful_core_ms\": {:.3}, \"squashed_core_ms\": {:.3}, \
             \"wasted_fraction\": {:.4}, \"warm_starts\": {}, \"cold_starts\": {}, \
             \"warm_rate\": {:.4}, \"evictions\": {}, \"wasted_topk\": {}, \
             \"containers\": {}}}",
            self.app,
            self.engine,
            self.completed,
            self.failed,
            self.branch_accuracy,
            self.branch_total,
            self.memo_hit_rate,
            self.p50_ms,
            self.p99_ms,
            self.p999_ms,
            self.squash_depth_summary(),
            self.useful_core_ms,
            self.squashed_core_ms,
            self.wasted_fraction(),
            self.warm_starts,
            self.cold_starts,
            self.warm_rate(),
            self.evictions,
            topk,
            containers,
        )
    }
}

/// Renders scoreboard rows as a fixed-width text table, one line per row,
/// in input order.
pub fn render_table(rows: &[ScoreboardRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>6} {:>5} {:>7} {:>7} {:>9} {:>9} {:>9} {:>8} {:>6}  squash depth",
        "app", "done", "fail", "brAcc", "memoHit", "p50ms", "p99ms", "p999ms", "wasted%", "warm%",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<22} {:>6} {:>5} {:>6.1}% {:>6.1}% {:>9.2} {:>9.2} {:>9.2} {:>7.1}% {:>5.0}%  {}",
            r.app,
            r.completed,
            r.failed,
            r.branch_accuracy * 100.0,
            r.memo_hit_rate * 100.0,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
            r.wasted_fraction() * 100.0,
            r.warm_rate() * 100.0,
            r.squash_depth_summary(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{InvocationRecord, RequestOutcome};
    use specfaas_sim::{SimDuration, SimTime};

    fn metrics_with(n: u64, squashed: u32) -> RunMetrics {
        let mut m = RunMetrics::new();
        for i in 0..n {
            m.record_completion(InvocationRecord {
                arrived: SimTime::from_millis(i),
                completed: SimTime::from_millis(i + 10),
                functions_run: 3,
                functions_squashed: squashed,
                sequence: vec![0, 1, 2],
                outcome: RequestOutcome::Completed,
            });
        }
        m.useful_core_time = SimDuration::from_millis(900);
        m.squashed_core_time = SimDuration::from_millis(100);
        m
    }

    #[test]
    fn row_builds_from_metrics_without_registry() {
        let m = metrics_with(5, 2);
        let reg = MetricsRegistry::disabled();
        let row = ScoreboardRow::build("hotel_booking", "spec", &m, &reg);
        assert_eq!(row.completed, 5);
        assert_eq!(row.p50_ms, 10.0);
        // Squash depth rebuilt from records: all 5 requests at depth 2.
        assert_eq!(row.squash_depth_summary(), "2:5");
        assert!((row.wasted_fraction() - 0.1).abs() < 1e-12);
        assert!(row.wasted_topk.is_empty());
        assert_eq!(row.warm_rate(), 0.0);
    }

    #[test]
    fn row_prefers_registry_instruments() {
        let m = metrics_with(2, 0);
        let mut reg = MetricsRegistry::recording();
        reg.observe("specfaas_request_squashed_functions", 7);
        reg.topk_add("specfaas_wasted_core_us_by_function", "app/fn_a", 500);
        reg.topk_add("specfaas_wasted_core_us_by_function", "app/fn_b", 900);
        reg.inc_by("specfaas_warm_starts_total", 9);
        reg.inc_by("specfaas_cold_starts_total", 1);
        let row = ScoreboardRow::build("hotel_booking", "spec", &m, &reg);
        assert_eq!(row.squash_depth_summary(), "7:1");
        assert_eq!(row.wasted_topk[0], ("app/fn_b".to_string(), 900));
        assert!((row.warm_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn jsonl_and_table_render_deterministically() {
        let m = metrics_with(3, 1);
        let reg = MetricsRegistry::disabled();
        let row = ScoreboardRow::build("train_ticket", "baseline", &m, &reg);
        let json = row.jsonl();
        assert!(json.starts_with("{\"app\": \"train_ticket\""));
        assert!(json.contains("\"p99_ms\": 10.000"));
        assert!(json.contains("\"wasted_topk\": []"));
        assert!(json.contains("\"evictions\": 0"));
        assert!(json.contains("\"containers\": []"));
        let table = render_table(std::slice::from_ref(&row));
        assert_eq!(table.lines().count(), 2);
        assert!(table.contains("train_ticket"));
        assert_eq!(table, render_table(std::slice::from_ref(&row)));
    }

    #[test]
    fn container_counters_render_and_rate() {
        let m = metrics_with(1, 0);
        let reg = MetricsRegistry::disabled();
        let mut row = ScoreboardRow::build("hotel_booking", "spec", &m, &reg);
        row.evictions = 4;
        row.func_containers = vec![
            ("search".to_string(), 1, 9, 0),
            ("book".to_string(), 3, 7, 4),
        ];
        assert!((row.cold_rate() - 0.2).abs() < 1e-12);
        let json = row.jsonl();
        assert!(json.contains("\"evictions\": 4"));
        assert!(json.contains("{\"fn\": \"search\", \"cold\": 1, \"warm\": 9, \"evicted\": 0}"));
    }
}
