//! Blob-access trace records and aggregate statistics.
//!
//! The paper's Observation 4 analyzes blob accesses in Microsoft Azure
//! Functions traces and reports: out of 40 M accesses only 23 % are writes;
//! two thirds of blobs are read-only; 99.9 % of writable blobs are written
//! fewer than 10 times; and the write→read gap to the same location exceeds
//! 1 s in 96 % of cases (10 s in 27 %). Those traces are proprietary, so the
//! apps crate generates synthetic traces matched to the published
//! statistics; this module defines the record type and the statistics
//! computation, which runs identically on real or synthetic data.

use std::collections::HashMap;

use specfaas_sim::{SimDuration, SimTime};

/// The direction of a blob access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read of the blob.
    Read,
    /// A write (create or update) of the blob.
    Write,
}

/// One blob access in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobAccess {
    /// When the access happened.
    pub at: SimTime,
    /// Which blob was accessed.
    pub blob: String,
    /// Read or write.
    pub kind: AccessKind,
}

/// Aggregate statistics over a blob trace — the exact quantities of
/// Observation 4.
#[derive(Debug, Clone, PartialEq)]
pub struct BlobTraceStats {
    /// Total number of accesses analyzed.
    pub accesses: u64,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Fraction of blobs that are never written.
    pub read_only_blob_fraction: f64,
    /// Among writable blobs, fraction written fewer than 10 times.
    pub writable_written_lt10_fraction: f64,
    /// Fraction of write→read gaps (to the same blob) longer than 1 s.
    pub gap_over_1s_fraction: f64,
    /// Fraction of write→read gaps longer than 10 s.
    pub gap_over_10s_fraction: f64,
}

impl BlobTraceStats {
    /// Computes the Observation-4 statistics over a trace.
    ///
    /// The trace does not need to be sorted; it is sorted internally by
    /// timestamp (stable, so same-instant accesses keep input order).
    /// Returns `None` for an empty trace.
    pub fn compute(trace: &[BlobAccess]) -> Option<BlobTraceStats> {
        if trace.is_empty() {
            return None;
        }
        let mut sorted: Vec<&BlobAccess> = trace.iter().collect();
        sorted.sort_by_key(|a| a.at);

        let mut writes = 0u64;
        let mut per_blob_writes: HashMap<&str, u64> = HashMap::new();
        let mut blobs: HashMap<&str, ()> = HashMap::new();
        let mut last_write: HashMap<&str, SimTime> = HashMap::new();
        let mut gaps: Vec<SimDuration> = Vec::new();

        for a in &sorted {
            blobs.insert(a.blob.as_str(), ());
            match a.kind {
                AccessKind::Write => {
                    writes += 1;
                    *per_blob_writes.entry(a.blob.as_str()).or_insert(0) += 1;
                    last_write.insert(a.blob.as_str(), a.at);
                }
                AccessKind::Read => {
                    // Gap from the most recent write to this read; only the
                    // first read after each write is a dependence edge.
                    if let Some(w) = last_write.remove(a.blob.as_str()) {
                        gaps.push(a.at - w);
                    }
                }
            }
        }

        let total_blobs = blobs.len() as f64;
        let writable = per_blob_writes.len();
        let read_only = blobs.len() - writable;
        let lt10 = per_blob_writes.values().filter(|&&n| n < 10).count();

        let gap_frac = |threshold: SimDuration| {
            if gaps.is_empty() {
                0.0
            } else {
                gaps.iter().filter(|g| **g > threshold).count() as f64 / gaps.len() as f64
            }
        };

        Some(BlobTraceStats {
            accesses: sorted.len() as u64,
            write_fraction: writes as f64 / sorted.len() as f64,
            read_only_blob_fraction: read_only as f64 / total_blobs,
            writable_written_lt10_fraction: if writable == 0 {
                1.0
            } else {
                lt10 as f64 / writable as f64
            },
            gap_over_1s_fraction: gap_frac(SimDuration::from_secs(1)),
            gap_over_10s_fraction: gap_frac(SimDuration::from_secs(10)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(at_ms: u64, blob: &str, kind: AccessKind) -> BlobAccess {
        BlobAccess {
            at: SimTime::from_millis(at_ms),
            blob: blob.to_owned(),
            kind,
        }
    }

    #[test]
    fn empty_trace_yields_none() {
        assert_eq!(BlobTraceStats::compute(&[]), None);
    }

    #[test]
    fn write_fraction_and_read_only() {
        let trace = vec![
            acc(0, "a", AccessKind::Read),
            acc(1, "a", AccessKind::Read),
            acc(2, "b", AccessKind::Write),
            acc(3, "b", AccessKind::Read),
        ];
        let s = BlobTraceStats::compute(&trace).unwrap();
        assert_eq!(s.accesses, 4);
        assert!((s.write_fraction - 0.25).abs() < 1e-12);
        // "a" is read-only, "b" is writable: 1 of 2.
        assert!((s.read_only_blob_fraction - 0.5).abs() < 1e-12);
        assert_eq!(s.writable_written_lt10_fraction, 1.0);
    }

    #[test]
    fn gap_fractions() {
        let trace = vec![
            acc(0, "a", AccessKind::Write),
            acc(500, "a", AccessKind::Read), // 0.5s gap
            acc(1_000, "b", AccessKind::Write),
            acc(3_000, "b", AccessKind::Read), // 2s gap
            acc(10_000, "c", AccessKind::Write),
            acc(25_000, "c", AccessKind::Read), // 15s gap
        ];
        let s = BlobTraceStats::compute(&trace).unwrap();
        assert!((s.gap_over_1s_fraction - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.gap_over_10s_fraction - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn only_first_read_after_write_counts_as_gap() {
        let trace = vec![
            acc(0, "a", AccessKind::Write),
            acc(100, "a", AccessKind::Read),
            acc(200, "a", AccessKind::Read), // second read: no new gap edge
        ];
        let s = BlobTraceStats::compute(&trace).unwrap();
        assert_eq!(s.gap_over_1s_fraction, 0.0);
    }

    #[test]
    fn heavily_written_blob_counts_against_lt10() {
        let mut trace = Vec::new();
        for i in 0..12 {
            trace.push(acc(i, "hot", AccessKind::Write));
        }
        trace.push(acc(100, "cold", AccessKind::Write));
        let s = BlobTraceStats::compute(&trace).unwrap();
        assert!((s.writable_written_lt10_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unsorted_trace_is_handled() {
        let trace = vec![
            acc(3_000, "b", AccessKind::Read),
            acc(1_000, "b", AccessKind::Write),
        ];
        let s = BlobTraceStats::compute(&trace).unwrap();
        assert!((s.gap_over_1s_fraction - 1.0).abs() < 1e-12);
    }
}
