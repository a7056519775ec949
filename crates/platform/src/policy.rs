//! The pluggable platform-policy layer: placement, keep-alive, prewarm.
//!
//! SpecFaaS (the paper) evaluates speculation under one fixed platform
//! policy: least-loaded placement, containers kept warm forever, no
//! predictive prewarming. This module turns those three hard-coded
//! decisions into traits — mirroring the `scheduler`/`coldstart` split of
//! dslab-faas — so ablations become a policy sweep instead of code edits:
//!
//! * [`PlacementPolicy`] — which node serves an invocation;
//! * [`KeepAlivePolicy`] — which idle containers survive, and for how
//!   long;
//! * [`PrewarmPolicy`] — which functions get containers created ahead of
//!   demand.
//!
//! The same three traits drive **both** execution paths: the
//! full-fidelity single-app engines (through [`crate::cluster::Cluster`]
//! and [`crate::container::ContainerPool`]) and the multi-tenant
//! flow-level fleet (through [`crate::fleet::WarmPool`] and the scale
//! engine). The default impls ([`LeastLoaded`], [`DefaultKeepAlive`],
//! [`NoPrewarm`]) reproduce the pre-policy-layer behaviour **bit for
//! bit** — the committed bench artifacts are the regression oracle.
//!
//! ## Determinism contract
//!
//! Policies must be pure functions of their own state and the inputs they
//! are handed: no wall-clock, no ambient randomness, no host-dependent
//! iteration order. Every provided impl is deterministic by construction
//! (plain counters, dense maps keyed by function id, explicit
//! tie-breaks), which is what keeps same-seed runs byte-identical under
//! any policy, at any `--jobs`.

use specfaas_sim::SimDuration;

/// Idle containers kept per (node, function) by [`DefaultKeepAlive`].
///
/// The pre-policy pool had **no** bound at all, so `idle_total` grew
/// monotonically on long runs (every burst's cold-started containers
/// stayed resident forever). 256 is far above any per-function
/// concurrency the committed benches reach — a node has 48 execution
/// slots — so the default stays bit-identical to the unbounded artifacts
/// while actually bounding memory.
pub const DEFAULT_PER_FUNC_IDLE_CAP: u32 = 256;

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

/// Decides which node serves an invocation.
///
/// `free_slots[i]` is node *i*'s free execution-slot count at decision
/// time; `func` is the raw function id (single-app engines pass
/// `FuncId.0`). Implementations must be deterministic; `&mut self` allows
/// stateful policies (round-robin cursors).
pub trait PlacementPolicy: std::fmt::Debug + Send {
    /// Short policy name for labels and artifacts.
    fn name(&self) -> &'static str;
    /// Picks the index of the node to run `func`.
    fn place(&mut self, func: u32, free_slots: &[u64]) -> usize;
}

/// The paper's placement: most free execution slots, ties broken by the
/// lowest node index. This is the default, bit-identical to the
/// pre-policy `Cluster::pick_node`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl PlacementPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }
    fn place(&mut self, _func: u32, free_slots: &[u64]) -> usize {
        free_slots
            .iter()
            .enumerate()
            .max_by_key(|(i, free)| (**free, usize::MAX - i))
            .map(|(i, _)| i)
            .expect("cluster has nodes")
    }
}

/// Round-robin placement: invocations spread evenly regardless of load.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinPlacement {
    next: usize,
}

impl PlacementPolicy for RoundRobinPlacement {
    fn name(&self) -> &'static str {
        "round-robin"
    }
    fn place(&mut self, _func: u32, free_slots: &[u64]) -> usize {
        let n = free_slots.len().max(1);
        let i = self.next % n;
        self.next = (self.next + 1) % n;
        i
    }
}

/// Function-affinity placement: `func mod nodes`, so every invocation of
/// a function lands on the same node and its warm containers concentrate
/// there — the placement that maximizes warm reuse under keep-alive
/// pressure, at the cost of load imbalance.
#[derive(Debug, Clone, Copy, Default)]
pub struct AffinityPlacement;

impl PlacementPolicy for AffinityPlacement {
    fn name(&self) -> &'static str {
        "affinity"
    }
    fn place(&mut self, func: u32, free_slots: &[u64]) -> usize {
        func as usize % free_slots.len().max(1)
    }
}

// ---------------------------------------------------------------------------
// Keep-alive
// ---------------------------------------------------------------------------

/// Decides which idle (warm) containers survive, and for how long.
///
/// The trait is declarative — the pools own the mechanism (timestamped
/// idle lists, LRU order) and consult the policy for the parameters —
/// which keeps the hot paths allocation-free and the behaviour trivially
/// deterministic.
pub trait KeepAlivePolicy: std::fmt::Debug + Send {
    /// Short policy name for labels and artifacts.
    fn name(&self) -> &'static str;
    /// Whether released containers are kept warm at all. `false` models
    /// a platform that tears every container down immediately after use
    /// (the cold-start worst case).
    fn keep_idle(&self) -> bool {
        true
    }
    /// How long an idle container survives before reclamation, measured
    /// from its release instant. `None` = until capacity pressure evicts
    /// it. Expiry is applied lazily (at the next acquisition / release
    /// touching the pool), which cannot revive an expired container: the
    /// staleness check runs *before* any warm handout.
    fn ttl(&self) -> Option<SimDuration> {
        None
    }
    /// Idle containers kept per (node, function) in the single-app
    /// container pools; releases beyond the cap destroy the oldest idle
    /// container.
    fn per_func_idle_cap(&self) -> u32 {
        DEFAULT_PER_FUNC_IDLE_CAP
    }
}

/// Today's behaviour: containers stay warm until capacity pressure —
/// per-function cap [`DEFAULT_PER_FUNC_IDLE_CAP`] on the single-app
/// path, the auto-sized LRU bound on the fleet path. The default.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultKeepAlive;

impl KeepAlivePolicy for DefaultKeepAlive {
    fn name(&self) -> &'static str {
        "default"
    }
}

/// Fixed-TTL keep-alive: every idle container is reclaimed `ttl` after
/// its release, the fixed keep-alive window of production FaaS platforms
/// (the *serverless-in-the-wild* unloading model).
#[derive(Debug, Clone, Copy)]
pub struct FixedTtlKeepAlive {
    /// Idle lifetime before reclamation.
    pub ttl: SimDuration,
}

impl KeepAlivePolicy for FixedTtlKeepAlive {
    fn name(&self) -> &'static str {
        "ttl"
    }
    fn ttl(&self) -> Option<SimDuration> {
        Some(self.ttl)
    }
}

/// No keep-alive at all: every release destroys the container, so every
/// acquisition after the initial prewarm stock drains pays a full cold
/// start — the worst case speculation must survive.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoKeepAlive;

impl KeepAlivePolicy for NoKeepAlive {
    fn name(&self) -> &'static str {
        "none"
    }
    fn keep_idle(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Prewarm
// ---------------------------------------------------------------------------

/// Decides which functions get containers created *ahead* of demand.
///
/// The pools call [`PrewarmPolicy::on_invoke`] when a function begins an
/// acquisition; the policy appends function ids that should start warming
/// now. Learning policies are fed observed execution-order edges through
/// [`PrewarmPolicy::observe`] (the engines report each committed
/// request's function sequence).
pub trait PrewarmPolicy: std::fmt::Debug + Send {
    /// Short policy name for labels and artifacts.
    fn name(&self) -> &'static str;
    /// Observes that `to` ran directly after `from` in a committed
    /// request (sequence-table learning input).
    fn observe(&mut self, from: u32, to: u32);
    /// `func` just began an acquisition; append functions to warm ahead
    /// of demand into `out` (which arrives empty).
    fn on_invoke(&mut self, func: u32, out: &mut Vec<u32>);
}

/// No predictive prewarming (the paper's platform; the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPrewarm;

impl PrewarmPolicy for NoPrewarm {
    fn name(&self) -> &'static str {
        "off"
    }
    fn observe(&mut self, _from: u32, _to: u32) {}
    fn on_invoke(&mut self, _func: u32, _out: &mut Vec<u32>) {}
}

/// Sequence-table-driven prewarm: the same successor statistics that
/// drive SpecFaaS's speculative *execution* here drive container
/// *creation* only. When `func` starts, its majority successor (once seen
/// at least [`SeqTablePrewarm::MIN_OBSERVATIONS`] times) begins warming,
/// so the successor's cold start overlaps the current function's
/// execution instead of serializing after it.
#[derive(Debug, Clone, Default)]
pub struct SeqTablePrewarm {
    /// Indexed by function id (grown on the first observation past the
    /// end): successor candidates as `(successor, observations)`, in
    /// first-seen order (deterministic: ties break toward the earlier
    /// edge).
    succ: Vec<Vec<(u32, u32)>>,
}

impl SeqTablePrewarm {
    /// Observations of an edge required before it triggers prewarming
    /// (mirrors the spec engine's confidence gating: one-off paths should
    /// not burn warm cores).
    pub const MIN_OBSERVATIONS: u32 = 2;

    /// An empty (untrained) sequence table.
    pub fn new() -> Self {
        SeqTablePrewarm::default()
    }

    /// The current majority successor of `func`, if confident.
    pub fn predict(&self, func: u32) -> Option<u32> {
        let cands = self.succ.get(func as usize)?;
        let &(best, count) = cands.iter().max_by_key(|&&(_, c)| c)?;
        (count >= Self::MIN_OBSERVATIONS).then_some(best)
    }
}

impl PrewarmPolicy for SeqTablePrewarm {
    fn name(&self) -> &'static str {
        "seq-table"
    }
    fn observe(&mut self, from: u32, to: u32) {
        let from = from as usize;
        if from >= self.succ.len() {
            self.succ.resize_with(from + 1, Vec::new);
        }
        let cands = &mut self.succ[from];
        match cands.iter_mut().find(|(t, _)| *t == to) {
            Some((_, c)) => *c += 1,
            None => cands.push((to, 1)),
        }
    }
    fn on_invoke(&mut self, func: u32, out: &mut Vec<u32>) {
        if let Some(next) = self.predict(func) {
            if next != func {
                out.push(next);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Selection plumbing
// ---------------------------------------------------------------------------

/// Placement-policy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementChoice {
    /// Most free slots, lowest index on ties (default).
    LeastLoaded,
    /// Round-robin over nodes.
    RoundRobin,
    /// `func mod nodes` affinity.
    Affinity,
}

/// Keep-alive policy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepAliveChoice {
    /// Capacity-pressure-only eviction (default).
    Default,
    /// Fixed idle TTL.
    FixedTtl(SimDuration),
    /// Destroy on release.
    Disabled,
}

/// Prewarm-policy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrewarmChoice {
    /// No predictive prewarming (default).
    Disabled,
    /// Sequence-table majority-successor prewarming.
    SeqTable,
}

/// One platform-policy selection, plumbed through engines like faults
/// and tracing: build it once, hand it to
/// `Harness::set_policies` / `ScaleConfig::policy`, and every
/// decision point consults the chosen impls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyConfig {
    /// Which node serves an invocation.
    pub placement: PlacementChoice,
    /// Which idle containers survive.
    pub keepalive: KeepAliveChoice,
    /// Which functions warm ahead of demand.
    pub prewarm: PrewarmChoice,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            placement: PlacementChoice::LeastLoaded,
            keepalive: KeepAliveChoice::Default,
            prewarm: PrewarmChoice::Disabled,
        }
    }
}

impl PolicyConfig {
    /// The pre-policy-layer platform (all defaults).
    pub fn platform_default() -> Self {
        PolicyConfig::default()
    }

    /// Fixed-TTL keep-alive, everything else default.
    pub fn fixed_ttl(ttl: SimDuration) -> Self {
        PolicyConfig {
            keepalive: KeepAliveChoice::FixedTtl(ttl),
            ..PolicyConfig::default()
        }
    }

    /// No keep-alive (worst case), everything else default.
    pub fn no_keepalive() -> Self {
        PolicyConfig {
            keepalive: KeepAliveChoice::Disabled,
            ..PolicyConfig::default()
        }
    }

    /// Fixed-TTL keep-alive with sequence-table prewarming filling the
    /// cold-start holes the TTL opens.
    pub fn ttl_with_prewarm(ttl: SimDuration) -> Self {
        PolicyConfig {
            keepalive: KeepAliveChoice::FixedTtl(ttl),
            prewarm: PrewarmChoice::SeqTable,
            ..PolicyConfig::default()
        }
    }

    /// Instantiates the placement policy.
    pub fn build_placement(&self) -> Box<dyn PlacementPolicy> {
        match self.placement {
            PlacementChoice::LeastLoaded => Box::new(LeastLoaded),
            PlacementChoice::RoundRobin => Box::new(RoundRobinPlacement::default()),
            PlacementChoice::Affinity => Box::new(AffinityPlacement),
        }
    }

    /// Instantiates the keep-alive policy.
    pub fn build_keepalive(&self) -> Box<dyn KeepAlivePolicy> {
        match self.keepalive {
            KeepAliveChoice::Default => Box::new(DefaultKeepAlive),
            KeepAliveChoice::FixedTtl(ttl) => Box::new(FixedTtlKeepAlive { ttl }),
            KeepAliveChoice::Disabled => Box::new(NoKeepAlive),
        }
    }

    /// Instantiates the prewarm policy.
    pub fn build_prewarm(&self) -> Box<dyn PrewarmPolicy> {
        match self.prewarm {
            PrewarmChoice::Disabled => Box::new(NoPrewarm),
            PrewarmChoice::SeqTable => Box::new(SeqTablePrewarm::new()),
        }
    }

    /// Compact label for tables and artifacts, e.g.
    /// `keepalive=ttl:100ms+prewarm=seq-table`, or `default`.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        match self.placement {
            PlacementChoice::LeastLoaded => {}
            PlacementChoice::RoundRobin => parts.push("place=round-robin".to_string()),
            PlacementChoice::Affinity => parts.push("place=affinity".to_string()),
        }
        match self.keepalive {
            KeepAliveChoice::Default => {}
            KeepAliveChoice::FixedTtl(ttl) => {
                parts.push(format!("keepalive=ttl:{}ms", ttl.as_micros() / 1_000));
            }
            KeepAliveChoice::Disabled => parts.push("keepalive=none".to_string()),
        }
        match self.prewarm {
            PrewarmChoice::Disabled => {}
            PrewarmChoice::SeqTable => parts.push("prewarm=seq-table".to_string()),
        }
        if parts.is_empty() {
            "default".to_string()
        } else {
            parts.join("+")
        }
    }

    /// Parses a policy spec of `+`-separated terms:
    /// `default`, `place=least-loaded|round-robin|affinity`,
    /// `keepalive=default|none|ttl:<N>ms`, `prewarm=off|seq-table`.
    pub fn parse(spec: &str) -> Result<PolicyConfig, String> {
        let mut cfg = PolicyConfig::default();
        for term in spec.split('+').map(str::trim).filter(|t| !t.is_empty()) {
            if term == "default" {
                continue;
            }
            let (key, value) = term
                .split_once('=')
                .ok_or_else(|| format!("policy term `{term}` is not `key=value`"))?;
            match (key, value) {
                ("place", "least-loaded") => cfg.placement = PlacementChoice::LeastLoaded,
                ("place", "round-robin") => cfg.placement = PlacementChoice::RoundRobin,
                ("place", "affinity") => cfg.placement = PlacementChoice::Affinity,
                ("keepalive", "default") => cfg.keepalive = KeepAliveChoice::Default,
                ("keepalive", "none") => cfg.keepalive = KeepAliveChoice::Disabled,
                ("keepalive", v) if v.starts_with("ttl:") => {
                    let ms = v["ttl:".len()..]
                        .trim_end_matches("ms")
                        .parse::<u64>()
                        .map_err(|_| format!("bad ttl in `{term}`"))?;
                    cfg.keepalive = KeepAliveChoice::FixedTtl(SimDuration::from_millis(ms));
                }
                ("prewarm", "off") => cfg.prewarm = PrewarmChoice::Disabled,
                ("prewarm", "seq-table") => cfg.prewarm = PrewarmChoice::SeqTable,
                _ => return Err(format!("unknown policy term `{term}`")),
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_loaded_matches_legacy_tie_break() {
        let mut p = LeastLoaded;
        assert_eq!(p.place(0, &[2, 2, 2]), 0, "all equal: lowest index");
        assert_eq!(p.place(0, &[0, 1, 2]), 2);
        assert_eq!(p.place(0, &[3, 3, 1]), 0);
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = RoundRobinPlacement::default();
        let free = [1u64, 1, 1];
        assert_eq!(p.place(9, &free), 0);
        assert_eq!(p.place(9, &free), 1);
        assert_eq!(p.place(9, &free), 2);
        assert_eq!(p.place(9, &free), 0);
    }

    #[test]
    fn affinity_pins_functions() {
        let mut p = AffinityPlacement;
        let free = [1u64, 1, 1];
        assert_eq!(p.place(4, &free), 1);
        assert_eq!(p.place(4, &free), 1, "same func, same node");
        assert_eq!(p.place(5, &free), 2);
    }

    #[test]
    fn seq_table_predicts_majority_successor() {
        let mut p = SeqTablePrewarm::new();
        assert_eq!(p.predict(1), None, "untrained: no prediction");
        p.observe(1, 2);
        assert_eq!(p.predict(1), None, "one observation is not confident");
        p.observe(1, 2);
        p.observe(1, 3);
        assert_eq!(p.predict(1), Some(2), "majority successor wins");
        let mut out = Vec::new();
        p.on_invoke(1, &mut out);
        assert_eq!(out, vec![2]);
        out.clear();
        p.on_invoke(7, &mut out);
        assert!(out.is_empty(), "unknown function: nothing to prewarm");
    }

    #[test]
    fn config_labels_and_parse_round_trip() {
        let cases = [
            PolicyConfig::default(),
            PolicyConfig::fixed_ttl(SimDuration::from_millis(100)),
            PolicyConfig::no_keepalive(),
            PolicyConfig::ttl_with_prewarm(SimDuration::from_millis(50)),
            PolicyConfig {
                placement: PlacementChoice::Affinity,
                ..PolicyConfig::default()
            },
        ];
        for cfg in cases {
            let label = cfg.label();
            let parsed = PolicyConfig::parse(&label).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(parsed, cfg, "label `{label}` must round-trip");
        }
        assert_eq!(PolicyConfig::default().label(), "default");
        assert!(PolicyConfig::parse("keepalive=sideways").is_err());
        assert!(PolicyConfig::parse("bogus").is_err());
    }

    #[test]
    fn default_config_builds_default_policies() {
        let cfg = PolicyConfig::default();
        assert_eq!(cfg.build_placement().name(), "least-loaded");
        assert_eq!(cfg.build_keepalive().name(), "default");
        assert_eq!(cfg.build_prewarm().name(), "off");
        let ka = cfg.build_keepalive();
        assert!(ka.keep_idle());
        assert_eq!(ka.ttl(), None);
        assert_eq!(ka.per_func_idle_cap(), DEFAULT_PER_FUNC_IDLE_CAP);
    }
}
