//! Workload generation: Poisson arrivals and load levels.
//!
//! Like prior serverless work cited in §VII, the paper models request
//! inter-arrival times as a Poisson process, at Low / Medium / High load
//! levels of 100 / 250 / 500 application requests per second.

use specfaas_sim::{SimDuration, SimRng};

/// Identifier of an application request (one workflow invocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// The paper's three load levels (§VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Load {
    /// 100 requests per second.
    Low,
    /// 250 requests per second.
    Medium,
    /// 500 requests per second.
    High,
}

impl Load {
    /// Requests per second for this level.
    pub fn rps(self) -> f64 {
        match self {
            Load::Low => 100.0,
            Load::Medium => 250.0,
            Load::High => 500.0,
        }
    }

    /// All three levels, in increasing order.
    pub fn all() -> [Load; 3] {
        [Load::Low, Load::Medium, Load::High]
    }

    /// Display name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            Load::Low => "Low",
            Load::Medium => "Medium",
            Load::High => "High",
        }
    }
}

/// A Poisson arrival process at a fixed rate.
///
/// # Example
///
/// ```
/// use specfaas_platform::Workload;
/// use specfaas_sim::SimRng;
///
/// let mut w = Workload::poisson(100.0);
/// let mut rng = SimRng::seed(1);
/// let gap = w.next_gap(&mut rng);
/// assert!(gap.as_micros() > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    rps: f64,
    /// Hoisted `1 / rps`: the mean inter-arrival gap in seconds. Computed
    /// once at construction so the per-arrival hot path is one uniform
    /// draw, one `ln`, and one multiply — no division, no assertion.
    mean_gap_secs: f64,
}

impl Workload {
    /// A Poisson process with the given mean rate (requests per second).
    ///
    /// # Panics
    /// Panics if `rps` is not finite and positive.
    pub fn poisson(rps: f64) -> Self {
        assert!(rps.is_finite() && rps > 0.0, "rps must be positive");
        Workload {
            rps,
            mean_gap_secs: 1.0 / rps,
        }
    }

    /// A Poisson process at one of the paper's load levels.
    pub fn at(load: Load) -> Self {
        Workload::poisson(load.rps())
    }

    /// The mean rate.
    pub fn rps(&self) -> f64 {
        self.rps
    }

    /// Draws the next inter-arrival gap (exponential with mean `1/rps`),
    /// clamped to at least one microsecond so arrivals always advance
    /// time.
    pub fn next_gap(&mut self, rng: &mut SimRng) -> SimDuration {
        // Same draw and arithmetic as `rng.exponential(1.0 / rps)`, with
        // the division hoisted into `mean_gap_secs` at construction. The
        // product is bit-identical because `1.0 / rps` is a deterministic
        // f64 value whether computed here or stored.
        let u = rng.uniform_f64_open();
        let secs = -self.mean_gap_secs * u.ln();
        SimDuration::from_secs_f64(secs).max(SimDuration::from_micros(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_levels_match_paper() {
        assert_eq!(Load::Low.rps(), 100.0);
        assert_eq!(Load::Medium.rps(), 250.0);
        assert_eq!(Load::High.rps(), 500.0);
        assert_eq!(Load::all().len(), 3);
        assert_eq!(Load::High.name(), "High");
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let mut w = Workload::at(Load::Medium);
        let mut rng = SimRng::seed(7);
        let n = 20_000;
        let total: SimDuration = (0..n).map(|_| w.next_gap(&mut rng)).sum();
        let measured_rps = n as f64 / total.as_secs_f64();
        assert!(
            (measured_rps - 250.0).abs() < 10.0,
            "measured {measured_rps} rps"
        );
    }

    #[test]
    #[should_panic(expected = "rps must be positive")]
    fn zero_rate_rejected() {
        Workload::poisson(0.0);
    }

    /// The hoisted-constant `next_gap` must reproduce the original
    /// `rng.exponential(1.0 / rps)` sequence bit-for-bit: every committed
    /// artifact depends on arrival streams not shifting by one ulp.
    #[test]
    fn hoisted_gap_matches_old_sequence_bit_for_bit() {
        for seed in [1u64, 0xFAA5, 0xDEAD_BEEF] {
            for rps in [100.0, 250.0, 333.7] {
                let mut w = Workload::poisson(rps);
                let mut new_rng = SimRng::seed(seed);
                let mut old_rng = SimRng::seed(seed);
                for i in 0..10_000 {
                    let new = w.next_gap(&mut new_rng);
                    // The pre-hoist implementation, verbatim.
                    let secs = old_rng.exponential(1.0 / rps);
                    let old = SimDuration::from_secs_f64(secs).max(SimDuration::from_micros(1));
                    assert_eq!(new, old, "seed {seed} rps {rps} draw {i}");
                }
            }
        }
    }
}
