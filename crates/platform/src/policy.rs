//! Platform policies: placement, keep-alive, prewarm.
//!
//! SpecFaaS (the paper) evaluates speculation under one fixed platform
//! policy: least-loaded placement, containers kept warm until capacity
//! pressure, no predictive prewarming. This module makes each of those
//! three decisions a plain value, so ablations become a policy sweep
//! instead of code edits:
//!
//! * [`PlacementChoice`] — which node serves an invocation
//!   ([`PlacementChoice::place`]);
//! * [`KeepAliveChoice`] — which idle containers survive, and for how
//!   long ([`KeepAliveChoice::keep_idle`], [`KeepAliveChoice::expired`]);
//! * [`PrewarmChoice`] — which functions get containers created ahead
//!   of demand. Its one learning choice keeps its state in a
//!   [`SeqTablePrewarm`], which the cluster and the fleet engine hold as
//!   an `Option`.
//!
//! The same values drive **both** execution paths: the full-fidelity
//! single-app engines (through [`crate::cluster::Cluster`] and
//! [`crate::container::ContainerPool`]) and the multi-tenant flow-level
//! fleet (through [`crate::fleet::WarmPool`] and the scale engine). The
//! two pools keep their own mechanisms (per-container vs whole-entry
//! expiry, a per-function cap vs one fleet-wide LRU) but ask
//! [`KeepAliveChoice`] the same two questions. The defaults reproduce the
//! paper's platform **bit for bit** — the committed bench artifacts are
//! the regression oracle.
//!
//! ## Determinism contract
//!
//! Every decision is a pure function of the choice, its explicit state
//! (the cluster's round-robin cursor, the successor table) and the inputs
//! it is handed: no wall-clock, no ambient randomness, no host-dependent
//! iteration order. That is what keeps same-seed runs byte-identical
//! under any policy, at any `--jobs`.

use specfaas_sim::{SimDuration, SimTime};

/// Idle containers kept per (node, function) in the single-app container
/// pools; a release beyond it destroys the oldest idle container.
///
/// The pre-policy pool had **no** bound at all, so `idle_total` grew
/// monotonically on long runs (every burst's cold-started containers
/// stayed resident forever). 256 is far above any per-function
/// concurrency the committed benches reach — a node has 48 execution
/// slots — so the bound leaves their outputs bit-identical while actually
/// bounding memory.
pub const PER_FUNC_IDLE_CAP: u32 = 256;

/// Which node serves an invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlacementChoice {
    /// The paper's placement: most free execution slots, ties broken by
    /// the lowest node index (default).
    #[default]
    LeastLoaded,
    /// Round-robin over nodes: invocations spread evenly regardless of
    /// load.
    RoundRobin,
    /// `func mod nodes`: every invocation of a function lands on the
    /// same node, so its warm containers concentrate there — the
    /// placement that maximizes warm reuse under keep-alive pressure, at
    /// the cost of load imbalance.
    Affinity,
}

impl PlacementChoice {
    /// Picks the index of the node to run `func`, given each node's free
    /// execution slots in node order. `next` is the round-robin cursor;
    /// only [`PlacementChoice::RoundRobin`] reads and advances it.
    ///
    /// # Panics
    /// Panics if there are no nodes.
    pub fn place(
        self,
        func: u32,
        next: &mut usize,
        free_slots: impl ExactSizeIterator<Item = u64>,
    ) -> usize {
        let nodes = free_slots.len();
        match self {
            PlacementChoice::LeastLoaded => free_slots
                .enumerate()
                .max_by_key(|&(i, free)| (free, usize::MAX - i))
                .map(|(i, _)| i)
                .expect("cluster has nodes"),
            PlacementChoice::RoundRobin => {
                let i = *next % nodes;
                *next = (i + 1) % nodes;
                i
            }
            PlacementChoice::Affinity => func as usize % nodes,
        }
    }
}

/// Which idle (warm) containers survive, and for how long.
///
/// The pools own the mechanism (timestamped idle lists, LRU order) and
/// ask the choice the two policy questions, [`KeepAliveChoice::keep_idle`]
/// and [`KeepAliveChoice::expired`], which keeps the hot paths
/// allocation-free and the behaviour trivially deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KeepAliveChoice {
    /// Containers stay warm until capacity pressure evicts them — the
    /// per-function cap [`PER_FUNC_IDLE_CAP`] on the single-app path, the
    /// fleet pool's LRU bound on the fleet path (default).
    #[default]
    Default,
    /// Every idle container is reclaimed this long after its release, the
    /// fixed keep-alive window of production FaaS platforms (the
    /// *serverless-in-the-wild* unloading model).
    FixedTtl(SimDuration),
    /// Every release destroys the container, so every acquisition after
    /// the initial prewarm stock drains pays a full cold start — the worst
    /// case speculation must survive.
    Disabled,
}

impl KeepAliveChoice {
    /// Whether released containers are kept warm at all.
    pub fn keep_idle(self) -> bool {
        self != KeepAliveChoice::Disabled
    }

    /// Whether an idle container released at `released` has expired by
    /// `now`. Expiry is applied lazily (at the next acquisition or release
    /// touching the pool), which cannot revive an expired container: the
    /// pools ask before any warm handout.
    pub fn expired(self, released: SimTime, now: SimTime) -> bool {
        match self {
            KeepAliveChoice::FixedTtl(ttl) => released + ttl <= now,
            KeepAliveChoice::Default | KeepAliveChoice::Disabled => false,
        }
    }
}

/// Which functions get containers created *ahead* of demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PrewarmChoice {
    /// No predictive prewarming (the paper's platform; default).
    #[default]
    Disabled,
    /// Sequence-table majority-successor prewarming ([`SeqTablePrewarm`]).
    SeqTable,
}

/// Sequence-table-driven prewarm: the same successor statistics that
/// drive SpecFaaS's speculative *execution* here drive container
/// *creation* only. When `func` starts, its majority successor (once seen
/// at least [`SeqTablePrewarm::MIN_OBSERVATIONS`] times) begins warming,
/// so the successor's cold start overlaps the current function's
/// execution instead of serializing after it. The engines feed it
/// observed execution-order edges (each committed request's function
/// sequence on the single-app path, each completed chain edge on the
/// fleet path).
#[derive(Debug, Clone, Default)]
pub struct SeqTablePrewarm {
    /// Indexed by function id (grown on the first observation past the
    /// end): successor candidates as `(successor, observations)`, in
    /// first-seen order. Among equally observed candidates the later-seen
    /// one is predicted.
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

    /// Observes that `to` ran directly after `from` in a committed
    /// request.
    pub fn observe(&mut self, from: u32, to: u32) {
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

    /// The function to warm when `func` starts: its current majority
    /// successor, if confident and not `func` itself.
    pub fn predict(&self, func: u32) -> Option<u32> {
        let cands = self.succ.get(func as usize)?;
        let &(best, count) = cands.iter().max_by_key(|&&(_, c)| c)?;
        (count >= Self::MIN_OBSERVATIONS && best != func).then_some(best)
    }
}

/// One platform-policy selection, plumbed through engines like faults
/// and tracing: build it once, hand it to `Harness::set_policies` /
/// `ScaleConfig::policy`, and every decision point consults it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyConfig {
    /// Which node serves an invocation.
    pub placement: PlacementChoice,
    /// Which idle containers survive.
    pub keepalive: KeepAliveChoice,
    /// Which functions warm ahead of demand.
    pub prewarm: PrewarmChoice,
}

impl PolicyConfig {
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

    /// The keep-alive choice, borrowed. Its only caller is the host-time
    /// benchmark's warm-pool probe, which hands it to
    /// [`crate::fleet::WarmPool`] directly.
    pub fn build_keepalive(&self) -> &KeepAliveChoice {
        &self.keepalive
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

    fn place_all(choice: PlacementChoice, func: u32, free: &[u64], picks: usize) -> Vec<usize> {
        let mut next = 0;
        (0..picks)
            .map(|_| choice.place(func, &mut next, free.iter().copied()))
            .collect()
    }

    #[test]
    fn least_loaded_matches_legacy_tie_break() {
        let p = PlacementChoice::LeastLoaded;
        assert_eq!(
            place_all(p, 0, &[2, 2, 2], 1),
            [0],
            "all equal: lowest index"
        );
        assert_eq!(place_all(p, 0, &[0, 1, 2], 1), [2]);
        assert_eq!(place_all(p, 0, &[3, 3, 1], 1), [0]);
    }

    #[test]
    fn round_robin_cycles() {
        assert_eq!(
            place_all(PlacementChoice::RoundRobin, 9, &[1, 1, 1], 4),
            [0, 1, 2, 0]
        );
    }

    #[test]
    fn affinity_pins_functions() {
        let free = [1u64, 1, 1];
        assert_eq!(
            place_all(PlacementChoice::Affinity, 4, &free, 2),
            [1, 1],
            "same func, same node"
        );
        assert_eq!(place_all(PlacementChoice::Affinity, 5, &free, 1), [2]);
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
        p.observe(1, 3);
        assert_eq!(p.predict(1), Some(3), "a tie goes to the later-seen edge");
        assert_eq!(p.predict(7), None, "unknown function: nothing to prewarm");
        p.observe(4, 4);
        p.observe(4, 4);
        assert_eq!(p.predict(4), None, "a function never prewarms itself");
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
        assert_eq!(cfg.placement, PlacementChoice::LeastLoaded);
        assert_eq!(cfg.build_keepalive(), &KeepAliveChoice::Default);
        assert_eq!(cfg.prewarm, PrewarmChoice::Disabled);
        let ka = *cfg.build_keepalive();
        assert!(ka.keep_idle());
        assert!(!ka.expired(SimTime::ZERO, SimTime::MAX), "never expires");
    }
}
