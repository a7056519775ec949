//! The platform overhead model — every response-time component the paper
//! characterizes in Fig. 3 plus the SpecFaaS-specific costs of §VI.
//!
//! # Calibration
//!
//! Constants are calibrated so that, in a warmed-up environment, function
//! execution accounts for 33–42 % of per-function response time
//! (Observation 1), per-application execution times match Table I, and the
//! baseline's effective throughput saturates in the ~100 RPS range
//! (Table III). Cold-start components use the values visible in Fig. 3
//! (container creation ≈ 1500 ms dominating everything else).

use specfaas_sim::SimDuration;

/// All timing constants of the simulated platform.
///
/// Defaults reproduce the paper's warmed-up OpenWhisk deployment; tests and
/// ablation benches override individual fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadModel {
    // ---- Cold-start components (Fig. 3) -------------------------------
    /// Creating the container, its network stack, and connecting it
    /// (≈1500 ms in Fig. 3, by far the largest component).
    pub container_creation: SimDuration,
    /// Injecting function code and starting the docker proxy.
    pub runtime_setup: SimDuration,

    // ---- Warm per-invocation components (Fig. 3) -----------------------
    /// Fixed communication cost between front-end, controller and worker
    /// when a new request comes (the wire part of Platform Overhead).
    pub platform_fixed: SimDuration,
    /// Controller CPU time consumed per function launch (the queued part
    /// of Platform Overhead — inflates under load).
    pub controller_service: SimDuration,
    /// Fixed worker→controller communication after a function completes
    /// (the wire part of Transfer Function Overhead).
    pub transfer_fixed: SimDuration,
    /// Conductor execution time per workflow transition (the queued part
    /// of Transfer Function Overhead).
    pub conductor_service: SimDuration,
    /// Returning the final response to the client.
    pub response_return: SimDuration,

    // ---- SpecFaaS fast-path costs (§V-A, §VI) ---------------------------
    /// Controller CPU per speculative launch via the Sequence Table
    /// (replaces the conductor round trip).
    pub spec_launch_service: SimDuration,
    /// Controller CPU per function validation + commit.
    pub spec_commit_service: SimDuration,
    /// Extra hop latency for a storage operation routed through the
    /// controller's Data Buffer (§V-C).
    pub data_buffer_hop: SimDuration,

    // ---- Squash mechanisms (§VI, "Minimizing Squash Cost") -------------
    /// Killing the handler process inside the container (~1 ms; container
    /// and initializer survive). The squashed handler's core frees after
    /// this latency under every kill mechanism: a container kill also
    /// loses the container, but its ~10 s teardown (§VI) is not charged.
    pub process_kill: SimDuration,

    // ---- Misc ----------------------------------------------------------
    /// Latency of an external HTTP request issued by a function.
    pub http_latency: SimDuration,
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            container_creation: SimDuration::from_millis(1500),
            runtime_setup: SimDuration::from_millis(350),
            platform_fixed: SimDuration::from_micros(3_000),
            controller_service: SimDuration::from_micros(2_500),
            transfer_fixed: SimDuration::from_micros(4_000),
            conductor_service: SimDuration::from_micros(2_500),
            response_return: SimDuration::from_micros(1_000),
            spec_launch_service: SimDuration::from_micros(600),
            spec_commit_service: SimDuration::from_micros(600),
            data_buffer_hop: SimDuration::from_micros(300),
            process_kill: SimDuration::from_micros(1_000),
            http_latency: SimDuration::from_micros(1_000),
        }
    }
}

impl OverheadModel {
    /// Total cold-start penalty (container creation + runtime setup).
    pub fn cold_start(&self) -> SimDuration {
        self.container_creation + self.runtime_setup
    }

    /// Mean warm per-function overhead at zero load (fixed parts plus
    /// unqueued service times) — handy for calibration checks.
    pub fn warm_per_function_overhead(&self) -> SimDuration {
        self.platform_fixed + self.controller_service + self.transfer_fixed + self.conductor_service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_scale() {
        let m = OverheadModel::default();
        // Fig. 3: container creation dominates cold start at ~1500ms.
        assert_eq!(m.container_creation, SimDuration::from_millis(1500));
        assert!(m.cold_start() > SimDuration::from_millis(1500));
        // §VI: process kill ~1ms.
        assert_eq!(m.process_kill, SimDuration::from_millis(1));
    }

    #[test]
    fn observation1_exec_fraction_in_range() {
        // With ~8ms mean function execution, execution should be 33-42%
        // of warm per-function response (Observation 1).
        let m = OverheadModel::default();
        let exec = SimDuration::from_millis(8);
        let total = exec + m.warm_per_function_overhead();
        let frac = exec / total;
        assert!(
            (0.33..=0.42).contains(&frac),
            "execution fraction {frac} outside Observation-1 band"
        );
    }

    #[test]
    fn spec_fast_path_is_cheaper_than_conductor_path() {
        let m = OverheadModel::default();
        assert!(
            m.spec_launch_service + m.spec_commit_service
                < m.controller_service + m.conductor_service
        );
    }
}
