//! Synthetic Azure-Functions blob-access trace (Observation 4).
//!
//! The paper analyzes proprietary Microsoft Azure Functions blob traces
//! and reports: 23 % of 40 M accesses are writes; two thirds of blobs are
//! read-only; 99.9 % of writable blobs are written fewer than 10 times;
//! and write→read gaps to the same blob exceed 1 s in 96 % of cases
//! (10 s in 27 %). This generator produces a trace with those aggregate
//! properties so the Observation-4 analysis pipeline
//! ([`specfaas_storage::blob::BlobTraceStats`]) runs on equivalent input.

use specfaas_sim::{SimDuration, SimRng, SimTime, Zipf};
use specfaas_storage::blob::{AccessKind, BlobAccess};

/// Parameters of the synthetic blob workload.
#[derive(Debug, Clone)]
pub struct BlobTraceConfig {
    /// Number of distinct blobs.
    pub blobs: usize,
    /// Total accesses to generate.
    pub accesses: usize,
    /// Fraction of blobs that are writable (paper: one third).
    pub writable_fraction: f64,
    /// Target write fraction among accesses (paper: 0.23).
    pub write_fraction: f64,
}

impl Default for BlobTraceConfig {
    fn default() -> Self {
        BlobTraceConfig {
            blobs: 2_000,
            accesses: 200_000,
            writable_fraction: 1.0 / 3.0,
            write_fraction: 0.23,
        }
    }
}

/// Generates a synthetic blob trace matching Observation 4's statistics.
pub fn generate(config: &BlobTraceConfig, rng: &mut SimRng) -> Vec<BlobAccess> {
    let writable = ((config.blobs as f64) * config.writable_fraction).round() as usize;
    let mut trace = Vec::with_capacity(config.accesses);
    let mut now = SimTime::ZERO;
    // Writes per writable blob: almost all <10 (cap at 8), a 0.1% tail
    // with more.
    // 99.9 % of writable blobs are written fewer than 10 times; the tiny
    // remainder (here: slot 0) absorbs the bulk of the write volume —
    // that is how a 23 % write fraction coexists with Observation 4's
    // per-blob write counts.
    let mut writes_left: Vec<u32> = (0..writable)
        .map(|i| {
            if i == 0 {
                u32::MAX // the rare heavily-written blob
            } else {
                1 + rng.uniform_u64(7) as u32
            }
        })
        .collect();
    let mut pending_read: Vec<Option<SimTime>> = vec![None; writable];
    let popularity = Zipf::new(config.blobs, 1.1);

    for _ in 0..config.accesses {
        // Mean inter-access gap ~50ms: 200k accesses ≈ 2.8 hours.
        now += SimDuration::from_micros((rng.exponential(50_000.0)) as u64 + 1);
        // Serve any matured write→read pair first: a read scheduled for a
        // previously written blob, delayed by the gap distribution.
        if let Some(slot) = pending_read
            .iter()
            .position(|t| t.map(|due| due <= now).unwrap_or(false))
        {
            pending_read[slot] = None;
            trace.push(BlobAccess {
                at: now,
                blob: format!("wblob:{slot}"),
                kind: AccessKind::Read,
            });
            continue;
        }
        let want_write = rng.chance(config.write_fraction);
        if want_write {
            // Pick a writable blob with budget left; the heavy-tail blob
            // (slot 0) absorbs writes once the modest budgets run out.
            let candidate = rng.uniform_u64(writable as u64) as usize;
            let slot = if writes_left[candidate] > 0 {
                candidate
            } else {
                0
            };
            {
                writes_left[slot] = writes_left[slot].saturating_sub(1);
                trace.push(BlobAccess {
                    at: now,
                    blob: format!("wblob:{slot}"),
                    kind: AccessKind::Write,
                });
                // Schedule the subsequent read: 96% beyond 1s, 27% beyond
                // 10s (piecewise exponential-ish gap).
                let gap_ms = match rng.uniform_u64(100) {
                    0..=3 => 100 + rng.uniform_u64(850),      // 4%: <1s
                    4..=72 => 1_050 + rng.uniform_u64(8_900), // 69%: 1-10s
                    _ => 10_500 + rng.uniform_u64(60_000),    // 27%: >10s
                };
                pending_read[slot] = Some(now + SimDuration::from_millis(gap_ms));
                continue;
            }
        }
        // Read of a (mostly read-only) blob, Zipf-popular.
        let blob = popularity.sample(rng);
        trace.push(BlobAccess {
            at: now,
            blob: format!("roblob:{blob}"),
            kind: AccessKind::Read,
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaas_storage::blob::BlobTraceStats;

    #[test]
    fn generated_trace_matches_observation4() {
        let mut rng = SimRng::seed(42);
        let cfg = BlobTraceConfig {
            blobs: 500,
            accesses: 40_000,
            ..BlobTraceConfig::default()
        };
        let trace = generate(&cfg, &mut rng);
        let stats = BlobTraceStats::compute(&trace).unwrap();
        assert!(
            (0.15..=0.30).contains(&stats.write_fraction),
            "write fraction {} (paper: 0.23)",
            stats.write_fraction
        );
        assert!(
            stats.read_only_blob_fraction > 0.5,
            "read-only fraction {} (paper: ~2/3)",
            stats.read_only_blob_fraction
        );
        assert!(
            stats.writable_written_lt10_fraction > 0.95,
            "written<10 fraction {} (paper: 0.999)",
            stats.writable_written_lt10_fraction
        );
        assert!(
            stats.gap_over_1s_fraction > 0.85,
            "gap>1s {} (paper: 0.96)",
            stats.gap_over_1s_fraction
        );
        assert!(
            (0.10..=0.45).contains(&stats.gap_over_10s_fraction),
            "gap>10s {} (paper: 0.27)",
            stats.gap_over_10s_fraction
        );
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let cfg = BlobTraceConfig {
            blobs: 50,
            accesses: 1_000,
            ..BlobTraceConfig::default()
        };
        let a = generate(&cfg, &mut SimRng::seed(1));
        let b = generate(&cfg, &mut SimRng::seed(1));
        assert_eq!(a, b);
    }
}
