//! Deterministic synthetic Azure-style trace generation for scale runs.
//!
//! Production FaaS traffic (e.g. the Azure Functions traces used by SeBS
//! and much follow-on work) has two load-bearing properties that the
//! short closed/open-loop benches cannot exhibit:
//!
//! 1. **Diurnal rate variation** — the fleet-wide arrival rate swings
//!    around its mean over the day, so warm pools are sized for peaks and
//!    drain in troughs.
//! 2. **Heavy-tailed tenant popularity** — a handful of tenant apps
//!    receive most invocations while a long tail goes nearly idle (and
//!    therefore cold).
//!
//! [`TraceGen`] produces an arrival stream with both properties while
//! staying **byte-reproducible**: the same [`TraceConfig`] always yields
//! the identical sequence of [`Arrival`] values, independent of batch
//! size, host, or how many worker threads consume the stream. Arrivals
//! are emitted in a strict `(time, seq)` total order with a dense `seq`
//! counter, so per-tenant sub-streams can be split out and merged back
//! deterministically.
//!
//! The diurnal "day" is time-compressed (default 120 simulated seconds
//! per cycle) so even short runs sweep full peak/trough cycles.
//!
//! # Determinism and sharding
//!
//! Tenant popularity ranks come from [`ZipfTable`], which derives its
//! rank permutation from `(seed, tenants)` alone — never from how many
//! arrivals are drawn or which shard draws them — so popularity ranks
//! are stable when experiment cells re-derive the table under `--jobs`
//! sharding. The arrival process and the rank permutation use distinct
//! decorrelated RNG streams split from the same seed.
//!
//! # Example
//!
//! ```
//! use specfaas_sim::tracegen::{TraceConfig, TraceGen};
//!
//! let cfg = TraceConfig::new(100, 1_000, 42);
//! let a: Vec<_> = TraceGen::new(cfg.clone()).collect();
//! let b: Vec<_> = TraceGen::new(cfg).collect();
//! assert_eq!(a, b); // byte-reproducible
//! assert_eq!(a.len(), 1_000);
//! ```

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Stream constant decorrelating the arrival-process RNG from the seed.
const ARRIVAL_STREAM: u64 = 0xA221_7A1F_0F1E_ED01;
/// Stream constant decorrelating the rank-permutation RNG from the seed.
const RANK_STREAM: u64 = 0x2A9F_5EED_D15C_0C0D;

/// One request arrival in a generated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Arrival {
    /// Arrival instant on the simulated clock.
    pub time: SimTime,
    /// Dense per-trace sequence number (0, 1, 2, …) — the tie-breaker
    /// that makes `(time, seq)` a total order.
    pub seq: u64,
    /// The tenant receiving this request.
    pub tenant: u32,
}

impl Arrival {
    /// Appends this arrival's canonical 20-byte little-endian encoding
    /// (`time_micros:u64, seq:u64, tenant:u32`) to `out`. Two traces are
    /// byte-identical iff their encoded streams are equal.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.time.as_micros().to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.tenant.to_le_bytes());
    }
}

/// Canonical byte encoding of an arrival stream (see [`Arrival::encode`]).
pub fn encode_stream(arrivals: &[Arrival]) -> Vec<u8> {
    let mut out = Vec::with_capacity(arrivals.len() * 20);
    for a in arrivals {
        a.encode(&mut out);
    }
    out
}

/// Parameters of a synthetic trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of tenant applications.
    pub tenants: u32,
    /// Total arrivals to generate.
    pub requests: u64,
    /// Master seed; every derived RNG stream splits from this.
    pub seed: u64,
    /// Fleet-wide mean arrival rate (requests per second).
    pub mean_rps: f64,
    /// Zipf exponent of the tenant popularity distribution.
    pub zipf_exponent: f64,
    /// Relative amplitude of the diurnal rate swing in `[0, 1)`:
    /// the rate oscillates in `mean_rps * [1 - a, 1 + a]`.
    pub diurnal_amplitude: f64,
    /// Length of one compressed diurnal cycle.
    pub diurnal_period: SimDuration,
}

impl TraceConfig {
    /// A config with the default traffic shape: 2 000 rps mean rate,
    /// Zipf exponent 1.1, ±60 % diurnal swing over a 120 s compressed
    /// day.
    pub fn new(tenants: u32, requests: u64, seed: u64) -> Self {
        TraceConfig {
            tenants,
            requests,
            seed,
            mean_rps: 2_000.0,
            zipf_exponent: 1.1,
            diurnal_amplitude: 0.6,
            diurnal_period: SimDuration::from_secs(120),
        }
    }
}

/// Precomputed Zipf sampler over tenant ids with seed-stable ranks.
///
/// [`Zipf`](crate::Zipf) scans its weights from the head until the draw
/// is covered, which is cheap for the dataset generators' skewed keys but
/// walks thousands of entries for a tail tenant of a 10⁴-tenant fleet.
/// This table stores cumulative weights once and samples by binary
/// search in O(log n).
///
/// Rank assignment: a seeded Fisher–Yates permutation maps popularity
/// rank *r* (0 = hottest) to a tenant id, so the hot set is scattered
/// across the id space rather than always being tenants 0..k. The
/// permutation depends only on `(seed, tenants)`.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    /// `cum[r]` = total weight of ranks `0..=r` (unnormalized).
    cum: Vec<f64>,
    /// Popularity rank → tenant id.
    rank_to_tenant: Vec<u32>,
    /// Tenant id → popularity rank.
    tenant_to_rank: Vec<u32>,
}

impl ZipfTable {
    /// Builds the table for `tenants` ids with exponent `s`.
    ///
    /// # Panics
    /// Panics if `tenants == 0` or `s` is not finite.
    pub fn new(tenants: u32, s: f64, seed: u64) -> Self {
        assert!(tenants > 0, "zipf table needs at least one tenant");
        assert!(s.is_finite(), "zipf exponent must be finite");
        let n = tenants as usize;
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += ((r + 1) as f64).powf(-s);
            cum.push(total);
        }
        let mut rank_to_tenant: Vec<u32> = (0..tenants).collect();
        let mut rng = SimRng::seed(seed ^ RANK_STREAM);
        rng.shuffle(&mut rank_to_tenant);
        let mut tenant_to_rank = vec![0u32; n];
        for (rank, &t) in rank_to_tenant.iter().enumerate() {
            tenant_to_rank[t as usize] = rank as u32;
        }
        ZipfTable {
            cum,
            rank_to_tenant,
            tenant_to_rank,
        }
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// True if the table is empty (cannot happen via [`ZipfTable::new`]).
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// The tenant holding popularity rank `rank` (0 = hottest).
    pub fn tenant_of_rank(&self, rank: u32) -> u32 {
        self.rank_to_tenant[rank as usize]
    }

    /// The popularity rank of `tenant` (0 = hottest).
    pub fn rank_of_tenant(&self, tenant: u32) -> u32 {
        self.tenant_to_rank[tenant as usize]
    }

    /// Draws a tenant id with Zipf-distributed popularity. One uniform
    /// draw plus an O(log n) binary search.
    pub fn sample(&mut self, rng: &mut SimRng) -> u32 {
        let total = *self.cum.last().expect("non-empty table");
        let u = rng.uniform_f64() * total;
        let rank = self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1);
        self.rank_to_tenant[rank]
    }

    /// Approximate heap footprint of the table in bytes.
    pub fn mem_bytes(&self) -> u64 {
        (self.cum.capacity() * 8
            + self.rank_to_tenant.capacity() * 4
            + self.tenant_to_rank.capacity() * 4) as u64
    }
}

/// Streaming generator of a deterministic multi-tenant arrival trace.
///
/// A non-homogeneous Poisson process with rate
/// `λ(t) = mean_rps · (1 + a·sin(2πt/period))`, realized by thinning
/// (Lewis–Shedler): candidates arrive at the homogeneous peak rate
/// `λ_max = mean_rps·(1 + a)` and are accepted with probability
/// `λ(t)/λ_max`. Tenants are drawn from [`ZipfTable`].
///
/// The generator is an [`Iterator`]; [`TraceGen::fill`] appends arrivals
/// in batches so drivers can amortize per-arrival call overhead.
#[derive(Debug, Clone)]
pub struct TraceGen {
    cfg: TraceConfig,
    zipf: ZipfTable,
    rng: SimRng,
    /// Current candidate-process time.
    now: SimTime,
    /// Next sequence number to emit.
    next_seq: u64,
    /// Hoisted `1 / λ_max` — the only division in the hot loop.
    inv_lambda_max: f64,
    /// Hoisted `2π / period_secs`.
    omega: f64,
}

impl TraceGen {
    /// Creates a generator for `cfg`.
    ///
    /// # Panics
    /// Panics if the config has no tenants, a non-positive rate, an
    /// amplitude outside `[0, 1)`, or a zero period.
    pub fn new(cfg: TraceConfig) -> Self {
        assert!(cfg.tenants > 0, "trace needs at least one tenant");
        assert!(
            cfg.mean_rps.is_finite() && cfg.mean_rps > 0.0,
            "mean_rps must be positive"
        );
        assert!(
            (0.0..1.0).contains(&cfg.diurnal_amplitude),
            "diurnal amplitude must be in [0, 1)"
        );
        let period = cfg.diurnal_period.as_secs_f64();
        assert!(period > 0.0, "diurnal period must be positive");
        let lambda_max = cfg.mean_rps * (1.0 + cfg.diurnal_amplitude);
        let zipf = ZipfTable::new(cfg.tenants, cfg.zipf_exponent, cfg.seed);
        let rng = SimRng::seed(cfg.seed ^ ARRIVAL_STREAM);
        TraceGen {
            inv_lambda_max: 1.0 / lambda_max,
            omega: std::f64::consts::TAU / period,
            cfg,
            zipf,
            rng,
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// The instantaneous arrival rate at `t` (requests per second).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let phase = (self.omega * t.as_secs_f64()).sin();
        self.cfg.mean_rps * (1.0 + self.cfg.diurnal_amplitude * phase)
    }

    /// The popularity table used for tenant selection.
    pub fn zipf(&self) -> &ZipfTable {
        &self.zipf
    }

    /// Arrivals generated so far.
    pub fn generated(&self) -> u64 {
        self.next_seq
    }

    /// True when the configured request count has been emitted.
    pub fn exhausted(&self) -> bool {
        self.next_seq >= self.cfg.requests
    }

    /// Appends up to `max` arrivals to `out`, returning how many were
    /// appended (0 only when the trace is exhausted). Batching lets
    /// drivers pull thousands of arrivals per call instead of paying the
    /// per-arrival call overhead on the simulation hot path.
    pub fn fill(&mut self, out: &mut Vec<Arrival>, max: usize) -> usize {
        let mut produced = 0;
        // Hoisted constants: the candidate gap needs one multiply + ln per
        // candidate; the acceptance test one sin + multiply.
        let amp = self.cfg.diurnal_amplitude;
        let inv_peak = 1.0 / (1.0 + amp);
        while produced < max && self.next_seq < self.cfg.requests {
            // Candidate gap: exponential with mean 1/λ_max. Open-interval
            // draw (never 0) keeps ln() finite; matches SimRng::exponential.
            let u = loop {
                let u = self.rng.uniform_f64();
                if u > 0.0 {
                    break u;
                }
            };
            let gap_secs = -self.inv_lambda_max * u.ln();
            self.now += SimDuration::from_secs_f64(gap_secs).max(SimDuration::from_micros(1));
            // Thinning: accept with probability λ(t)/λ_max.
            let phase = (self.omega * self.now.as_secs_f64()).sin();
            let accept_p = (1.0 + amp * phase) * inv_peak;
            if self.rng.uniform_f64() >= accept_p {
                continue;
            }
            let tenant = self.zipf.sample(&mut self.rng);
            out.push(Arrival {
                time: self.now,
                seq: self.next_seq,
                tenant,
            });
            self.next_seq += 1;
            produced += 1;
        }
        produced
    }
}

impl Iterator for TraceGen {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let mut one = Vec::with_capacity(1);
        if self.fill(&mut one, 1) == 1 {
            Some(one[0])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_fill_matches_iterator() {
        let cfg = TraceConfig::new(64, 5_000, 9);
        let via_iter: Vec<_> = TraceGen::new(cfg.clone()).collect();
        let mut gen = TraceGen::new(cfg);
        let mut via_fill = Vec::new();
        while gen.fill(&mut via_fill, 777) > 0 {}
        assert_eq!(via_iter, via_fill);
    }

    #[test]
    fn mean_rate_close_to_configured() {
        let mut cfg = TraceConfig::new(32, 200_000, 3);
        cfg.mean_rps = 1_000.0;
        // Average over whole diurnal cycles: a partial final cycle would
        // bias the measured mean toward whichever half it ends in.
        cfg.diurnal_period = SimDuration::from_secs(10);
        let arrivals: Vec<_> = TraceGen::new(cfg.clone()).collect();
        let period = cfg.diurnal_period.as_micros();
        let span = arrivals.last().unwrap().time.as_micros();
        let whole = span / period * period;
        let n = arrivals
            .iter()
            .filter(|a| a.time.as_micros() < whole)
            .count();
        let rate = n as f64 / (whole as f64 / 1e6);
        assert!(
            (rate - 1_000.0).abs() < 50.0,
            "measured {rate} rps, want ~1000"
        );
    }

    #[test]
    fn diurnal_rate_actually_swings() {
        let cfg = TraceConfig::new(8, 100_000, 5);
        let gen = TraceGen::new(cfg.clone());
        let period = cfg.diurnal_period;
        let peak = gen.rate_at(SimTime::ZERO + period.mul_f64(0.25));
        let trough = gen.rate_at(SimTime::ZERO + period.mul_f64(0.75));
        assert!(peak > cfg.mean_rps * 1.5);
        assert!(trough < cfg.mean_rps * 0.5);
        // Empirically: count arrivals in peak vs trough quarters of each
        // cycle; the peak quarter must dominate.
        let (mut hi, mut lo) = (0u64, 0u64);
        let p = period.as_micros();
        for a in TraceGen::new(cfg) {
            let phase = a.time.as_micros() % p;
            if phase < p / 2 {
                hi += 1;
            } else {
                lo += 1;
            }
        }
        assert!(hi as f64 > lo as f64 * 1.5, "hi={hi} lo={lo}");
    }

    #[test]
    fn zipf_table_rejects_empty() {
        let r = std::panic::catch_unwind(|| ZipfTable::new(0, 1.0, 1));
        assert!(r.is_err());
    }

    #[test]
    fn rank_mappings_are_inverse() {
        let t = ZipfTable::new(257, 1.1, 12);
        for tenant in 0..257 {
            assert_eq!(t.tenant_of_rank(t.rank_of_tenant(tenant)), tenant);
        }
    }
}
