//! Speculation policy configuration (paper §VI, "Configurability" and
//! "Minimizing Squash Cost") and the ablation switches behind Fig. 12.

// Retry/backoff knobs live next to the speculation policy: both engines
// accept a `RetryPolicy` through `enable_faults`, and experiment configs
// naturally pull it from the same module as `SpecConfig`.
pub use specfaas_sim::RetryPolicy;

// Platform-policy selection (placement / keep-alive / prewarm) rides in
// the same module for the same reason: experiment configs compose a
// `SpecConfig` with a `PolicyConfig` and hand both to the harness.
pub use specfaas_platform::policy::{
    KeepAliveChoice, PlacementChoice, PolicyConfig, PrewarmChoice,
};

/// How mis-speculated function executions are terminated (§VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SquashMechanism {
    /// Let the squashed handler run to natural completion in the
    /// background, never propagating its updates. Reuses containers but
    /// wastes CPU cycles (the paper's first option; Table IV's
    /// "LazySquash").
    Lazy,
    /// Stop the whole container: it is lost, so the next acquisition of
    /// that function's container on the node pays a cold start. The
    /// paper's second option. The paper quotes ~10 s to stop a container;
    /// the model does not charge it: the handler's core frees after the
    /// process-kill latency, as under [`SquashMechanism::ProcessKill`].
    ContainerKill,
    /// Kill only the handler process inside the container (~1 ms,
    /// container stays warm). The paper's chosen mechanism.
    ProcessKill,
}

/// SpecFaaS speculation policy.
///
/// The defaults are the full system as evaluated in §VIII; the boolean
/// switches reproduce the cumulative configurations of Fig. 12.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecConfig {
    /// Predict control dependences and launch down the predicted path
    /// (§V-A). Off → execution never crosses an unresolved branch.
    pub branch_prediction: bool,
    /// Predict data dependences from memoization tables (§V-B). Off →
    /// successors wait for their producer to complete.
    pub memoization: bool,
    /// How squashes are performed.
    pub squash: SquashMechanism,
    /// Capacity of each function's memoization table (paper: a modest
    /// 50-entry table reaches 96 % hits on TrainTicket).
    pub memo_capacity: usize,
    /// Half-width of the no-speculate probability window around 50 %:
    /// branches with `|p - 0.5| <= window` are not speculated (§VI).
    pub branch_confidence_window: f64,
    /// Maximum number of in-progress (uncommitted) functions per
    /// application invocation — the Data Buffer column budget (§VIII-B
    /// reports at most 12 columns).
    pub max_depth: usize,
    /// Reduced speculation depth applied when cluster load exceeds
    /// [`SpecConfig::LOAD_THRESHOLD`] (§VI).
    pub throttled_depth: usize,
    /// Enable the stall-list squash-minimization optimization (§V-C):
    /// remembered producer→consumer dependences stall instead of squash.
    pub stall_optimization: bool,
    /// Squashes of the same (producer, consumer, record) triple before the
    /// stall list engages.
    pub stall_after_squashes: u32,
    /// Honour `pure-function` annotations by skipping execution on a
    /// memoization hit. The paper implements this but keeps it off in the
    /// evaluation to stay conservative (§VIII-B); same default here.
    pub pure_function_skip: bool,
    /// When set, branch predictions are drawn from an oracle that is
    /// correct with exactly this probability — the controlled hit-rate
    /// sweep of Fig. 14 (§VII uses 0.90 for FaaSChain).
    pub forced_branch_accuracy: Option<f64>,
}

impl Default for SpecConfig {
    fn default() -> Self {
        SpecConfig {
            branch_prediction: true,
            memoization: true,
            squash: SquashMechanism::ProcessKill,
            memo_capacity: 50,
            branch_confidence_window: 0.10,
            max_depth: 12,
            throttled_depth: 4,
            stall_optimization: true,
            stall_after_squashes: 2,
            pure_function_skip: false,
            forced_branch_accuracy: None,
        }
    }
}

impl SpecConfig {
    /// Cluster execution-slot occupancy above which depth is throttled.
    pub const LOAD_THRESHOLD: f64 = 0.85;

    /// Hard cap on dynamic slots per request (loop-unroll safety net).
    pub const MAX_SLOTS_PER_REQUEST: usize = 512;

    /// Fig. 12 ablation step 1: branch prediction (and the Sequence-Table
    /// fast path) only.
    pub fn branch_prediction_only() -> Self {
        SpecConfig {
            memoization: false,
            squash: SquashMechanism::Lazy,
            stall_optimization: false,
            ..SpecConfig::default()
        }
    }

    /// Fig. 12 ablation step 2: branch prediction + memoization, naive
    /// squashing.
    pub fn without_squash_optimization() -> Self {
        SpecConfig {
            squash: SquashMechanism::Lazy,
            stall_optimization: false,
            ..SpecConfig::default()
        }
    }

    /// The full system (Fig. 12 step 3; the default).
    pub fn full() -> Self {
        SpecConfig::default()
    }

    /// Effective speculation depth given current cluster occupancy.
    pub fn effective_depth(&self, cluster_occupancy: f64) -> usize {
        if cluster_occupancy > Self::LOAD_THRESHOLD {
            self.throttled_depth.min(self.max_depth)
        } else {
            self.max_depth
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_system() {
        let c = SpecConfig::default();
        assert!(c.branch_prediction && c.memoization);
        assert_eq!(c.squash, SquashMechanism::ProcessKill);
        assert!(c.stall_optimization);
        assert!(!c.pure_function_skip, "paper keeps pure-skip off");
        assert_eq!(c.memo_capacity, 50);
        assert_eq!(c.max_depth, 12);
    }

    #[test]
    fn ablation_presets_are_cumulative() {
        let bp = SpecConfig::branch_prediction_only();
        assert!(bp.branch_prediction && !bp.memoization);
        assert_eq!(bp.squash, SquashMechanism::Lazy);
        let mem = SpecConfig::without_squash_optimization();
        assert!(mem.branch_prediction && mem.memoization);
        assert_eq!(mem.squash, SquashMechanism::Lazy);
        assert_eq!(SpecConfig::full(), SpecConfig::default());
    }

    #[test]
    fn depth_throttles_under_load() {
        let c = SpecConfig::default();
        assert_eq!(c.effective_depth(0.5), c.max_depth);
        assert_eq!(c.effective_depth(0.95), c.throttled_depth);
    }
}
