//! The cluster: nodes with execution slots, container pools, and per-node
//! controllers.
//!
//! The paper's testbed is five single-socket AMD EPYC 7402P servers — 24
//! cores, 2-way SMT, so 48 hardware threads per node (§VII). Each node
//! also hosts an independent controller (§V-E: "a machine has many
//! independent controllers spread across different nodes"), modeled as a
//! FIFO service station; controller queueing is what inflates platform and
//! transfer overheads under load.
//!
//! The cluster is also where the platform-policy layer plugs into the
//! single-app engines: it owns one [`PlacementPolicy`] (consulted by
//! [`Cluster::pick_node`]), one [`KeepAlivePolicy`] (threaded into every
//! container acquire/release), and one [`PrewarmPolicy`] (consulted on
//! each acquisition; fed committed function sequences through
//! [`Cluster::observe_sequence`]). The defaults reproduce the
//! pre-policy-layer behaviour bit for bit.
//!
//! The cluster also records which nodes changed since their gauges were
//! last read, so the metrics sampler that runs after every event reads
//! only the nodes an event touched.

use specfaas_sim::resource::{CorePool, ServiceStation};
use specfaas_sim::{SimDuration, SimTime};
use specfaas_workflow::FuncId;

use crate::container::{ContainerAcquire, ContainerPool, FuncContainerStats};
use crate::exec::InstanceId;
use crate::overheads::OverheadModel;
use crate::policy::{KeepAlivePolicy, PlacementPolicy, PolicyConfig, PrewarmPolicy};

/// Index of a node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// One server node: execution slots, containers, a controller.
#[derive(Debug)]
pub struct Node {
    /// Execution slots (hardware threads) that handler processes occupy.
    pub cores: CorePool<InstanceId>,
    /// This node's container pool.
    pub containers: ContainerPool,
    /// This node's controller (platform scheduling + conductor work).
    pub controller: ServiceStation,
}

/// The whole cluster.
///
/// # Example
///
/// ```
/// use specfaas_platform::Cluster;
///
/// let c = Cluster::paper_testbed();
/// assert_eq!(c.nodes(), 5);
/// assert_eq!(c.total_slots(), 5 * 48);
/// ```
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
    /// Per node, the instant from which its gauge readings may differ
    /// from what `Cluster::changed_node_gauges` last reported:
    /// [`SimTime::ZERO`] once its cores, containers or controller were
    /// touched, else its controller's next job completion
    /// ([`SimTime::MAX`] when none is in flight).
    gauges_due: Vec<SimTime>,
    rr_next: usize,
    placement: Box<dyn PlacementPolicy>,
    keepalive: Box<dyn KeepAlivePolicy>,
    prewarm: Box<dyn PrewarmPolicy>,
    /// Scratch free-slot snapshot handed to the placement policy
    /// (reused so placement never allocates).
    free_scratch: Vec<u64>,
    /// Scratch prewarm-target list (reused per acquisition).
    prewarm_scratch: Vec<u32>,
}

impl Cluster {
    /// A cluster of `nodes` nodes with `slots_per_node` execution slots,
    /// under the default platform policies.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(nodes: usize, slots_per_node: u64) -> Self {
        assert!(nodes > 0 && slots_per_node > 0);
        let cfg = PolicyConfig::default();
        Cluster {
            nodes: (0..nodes)
                .map(|_| Node {
                    cores: CorePool::new(slots_per_node),
                    containers: ContainerPool::new(),
                    controller: ServiceStation::new(),
                })
                .collect(),
            gauges_due: vec![SimTime::ZERO; nodes],
            rr_next: 0,
            placement: cfg.build_placement(),
            keepalive: cfg.build_keepalive(),
            prewarm: cfg.build_prewarm(),
            free_scratch: Vec::with_capacity(nodes),
            prewarm_scratch: Vec::new(),
        }
    }

    /// The paper's testbed: 5 nodes × 24 cores × 2-way SMT = 48 slots.
    pub fn paper_testbed() -> Self {
        Cluster::new(5, 48)
    }

    /// Replaces the installed platform policies. Call before the runs it
    /// should govern (existing idle containers keep their timestamps, so
    /// a newly installed TTL applies to them retroactively).
    pub fn set_policies(&mut self, cfg: &PolicyConfig) {
        self.placement = cfg.build_placement();
        self.keepalive = cfg.build_keepalive();
        self.prewarm = cfg.build_prewarm();
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total execution slots across the cluster.
    pub fn total_slots(&self) -> u64 {
        self.nodes.iter().map(|n| n.cores.capacity()).sum()
    }

    /// Mutable access to a node. Marks the node changed, so the metrics
    /// sampler reads its gauges again.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.gauges_due[id.0] = SimTime::ZERO;
        &mut self.nodes[id.0]
    }

    /// Shared access to a node.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Pre-warms `count` containers for every function on every node.
    pub fn prewarm_all(&mut self, funcs: impl IntoIterator<Item = FuncId> + Clone, count: u32) {
        for n in &mut self.nodes {
            n.containers = ContainerPool::prewarmed(funcs.clone(), count);
        }
        self.mark_nodes_changed();
    }

    /// Picks the node to run `func`, as decided by the installed
    /// placement policy over a snapshot of per-node free execution
    /// slots. The default ([`crate::policy::LeastLoaded`]) picks the
    /// node with the most free slots, ties broken by lowest index.
    pub fn pick_node(&mut self, func: FuncId) -> NodeId {
        self.free_scratch.clear();
        self.free_scratch
            .extend(self.nodes.iter().map(|n| n.cores.free()));
        let best = self.placement.place(func.0, &self.free_scratch);
        NodeId(best.min(self.nodes.len() - 1))
    }

    /// Assigns a home controller round-robin (requests spread evenly).
    pub fn pick_controller(&mut self) -> NodeId {
        let id = NodeId(self.rr_next);
        self.rr_next = (self.rr_next + 1) % self.nodes.len();
        id
    }

    /// Submits controller work of length `service` at node `ctrl`,
    /// returning the total delay (queueing + service).
    pub fn controller_delay(
        &mut self,
        ctrl: NodeId,
        now: SimTime,
        service: SimDuration,
    ) -> SimDuration {
        self.node_mut(ctrl).controller.submit(now, service)
    }

    /// Acquires a container for `func` on `node` at `now`.
    ///
    /// Also gives the prewarm policy its per-invocation hook: functions
    /// it predicts will run next begin warming on the same node (so the
    /// successor's creation overlaps this function's execution), unless
    /// that node already holds an idle or warming container for them.
    pub fn acquire_container(
        &mut self,
        node: NodeId,
        func: FuncId,
        now: SimTime,
        model: &OverheadModel,
    ) -> ContainerAcquire {
        let mut targets = std::mem::take(&mut self.prewarm_scratch);
        targets.clear();
        self.prewarm.on_invoke(func.0, &mut targets);
        self.gauges_due[node.0] = SimTime::ZERO;
        let pool = &mut self.nodes[node.0].containers;
        for &t in &targets {
            let f = FuncId(t);
            if pool.idle_count(f) == 0 && pool.warming_count(f) == 0 {
                pool.begin_warming(f, now + model.cold_start());
            }
        }
        self.prewarm_scratch = targets;
        pool.acquire(func, now, model, &*self.keepalive)
    }

    /// Releases a container for `func` on `node` at `now`. `reusable ==
    /// false` (container-kill squash) destroys it; otherwise the
    /// keep-alive policy decides whether it survives in the warm pool.
    pub fn release_container(&mut self, node: NodeId, func: FuncId, now: SimTime, reusable: bool) {
        self.gauges_due[node.0] = SimTime::ZERO;
        self.nodes[node.0]
            .containers
            .release(func, now, reusable, &*self.keepalive);
    }

    /// Feeds one committed request's function sequence (in commit order)
    /// to the prewarm policy's successor-learning hook.
    pub fn observe_sequence(&mut self, sequence: &[u32]) {
        for w in sequence.windows(2) {
            self.prewarm.observe(w[0], w[1]);
        }
    }

    /// Average execution-slot utilization across all nodes at `now`.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        let n = self.nodes.len() as f64;
        self.nodes
            .iter_mut()
            .map(|nd| nd.cores.utilization(now))
            .sum::<f64>()
            / n
    }

    /// Resets every node's utilization window (discard warm-up phase).
    pub fn reset_utilization(&mut self, now: SimTime) {
        for n in &mut self.nodes {
            n.cores.reset_utilization_window(now);
        }
    }

    /// Exact integrated busy core-time across all nodes since
    /// construction, never reset — the reference side of the flight
    /// recorder's core-time conservation invariant.
    pub fn busy_core_time_total(&mut self, now: SimTime) -> SimDuration {
        self.nodes
            .iter_mut()
            .map(|n| n.cores.busy_core_time_total(now))
            .sum()
    }

    /// Instantaneous fraction of execution slots that are busy, across
    /// the cluster (used by SpecFaaS depth throttling, §VI).
    pub fn occupancy(&self) -> f64 {
        let busy: u64 = self.nodes.iter().map(|n| n.cores.busy()).sum();
        busy as f64 / self.total_slots() as f64
    }

    /// Empties every node's warm container pool (simulates idle-time
    /// container reclamation; used by the cold-start experiments).
    pub fn flush_warm_containers(&mut self) {
        for n in &mut self.nodes {
            n.containers = ContainerPool::new();
        }
        self.mark_nodes_changed();
    }

    /// Cold starts served across the cluster.
    pub fn cold_starts(&self) -> u64 {
        self.nodes.iter().map(|n| n.containers.cold_starts()).sum()
    }

    /// Warm starts served across the cluster.
    pub fn warm_starts(&self) -> u64 {
        self.nodes.iter().map(|n| n.containers.warm_starts()).sum()
    }

    /// Idle containers reclaimed by the keep-alive policy, across the
    /// cluster.
    pub fn evictions(&self) -> u64 {
        self.nodes.iter().map(|n| n.containers.evictions()).sum()
    }

    /// Acquisitions that piggybacked on an in-flight prewarm creation.
    pub fn prewarm_hits(&self) -> u64 {
        self.nodes.iter().map(|n| n.containers.prewarm_hits()).sum()
    }

    /// Idle warm containers across the cluster — the warm-pool gauge.
    pub fn warm_pool_total(&self) -> u64 {
        self.nodes.iter().map(|n| n.containers.idle_total()).sum()
    }

    /// Per-function container-lifecycle counters summed across all
    /// nodes, for every function some node served, in function-id order.
    pub fn func_container_stats(&self) -> Vec<(FuncId, FuncContainerStats)> {
        let mut agg: Vec<FuncContainerStats> = Vec::new();
        for n in &self.nodes {
            for (f, s) in n.containers.per_func_stats() {
                let i = f.0 as usize;
                if i >= agg.len() {
                    agg.resize(i + 1, FuncContainerStats::default());
                }
                agg[i].cold += s.cold;
                agg[i].warm += s.warm;
                agg[i].evicted += s.evicted;
            }
        }
        (0..)
            .map(FuncId)
            .zip(agg)
            .filter(|(_, s)| *s != FuncContainerStats::default())
            .collect()
    }

    /// Per-node `(node index, busy execution slots, idle warm
    /// containers, controller queue depth at `now`)`, in node-index
    /// order, for only the nodes whose readings may have changed since
    /// the previous call: those whose cores, containers or controller
    /// were touched, and those whose controller finished a job by `now`.
    /// Every other node reads as it did then. Reading a node changes no
    /// simulated state.
    pub(crate) fn changed_node_gauges(
        &mut self,
        now: SimTime,
    ) -> impl Iterator<Item = (usize, u64, u64, usize)> + '_ {
        self.nodes
            .iter_mut()
            .zip(&mut self.gauges_due)
            .enumerate()
            .filter(move |(_, (_, due))| **due <= now)
            .map(move |(i, (n, due))| {
                let depth = n.controller.queue_depth(now);
                *due = n.controller.next_done().unwrap_or(SimTime::MAX);
                (i, n.cores.busy(), n.containers.idle_total(), depth)
            })
    }

    /// Marks every node changed, so the next
    /// `Cluster::changed_node_gauges` reports them all (a sampler that
    /// lost what it last read starts over this way).
    pub(crate) fn mark_nodes_changed(&mut self) {
        self.gauges_due.fill(SimTime::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PlacementChoice, PrewarmChoice};

    #[test]
    fn paper_testbed_shape() {
        let c = Cluster::paper_testbed();
        assert_eq!(c.nodes(), 5);
        assert_eq!(c.total_slots(), 240);
    }

    #[test]
    fn pick_node_prefers_free_slots() {
        let mut c = Cluster::new(3, 2);
        let f = FuncId(0);
        assert_eq!(c.pick_node(f), NodeId(0), "all equal: lowest index");
        // Occupy both slots of node 0 and one of node 1.
        assert!(c.node_mut(NodeId(0)).cores.try_acquire(SimTime::ZERO));
        assert!(c.node_mut(NodeId(0)).cores.try_acquire(SimTime::ZERO));
        assert!(c.node_mut(NodeId(1)).cores.try_acquire(SimTime::ZERO));
        assert_eq!(c.pick_node(f), NodeId(2));
    }

    #[test]
    fn placement_policy_governs_pick_node() {
        let mut c = Cluster::new(3, 2);
        c.set_policies(&PolicyConfig {
            placement: PlacementChoice::RoundRobin,
            ..PolicyConfig::default()
        });
        let f = FuncId(0);
        assert_eq!(c.pick_node(f), NodeId(0));
        assert_eq!(c.pick_node(f), NodeId(1));
        assert_eq!(c.pick_node(f), NodeId(2));
        assert_eq!(c.pick_node(f), NodeId(0));
    }

    #[test]
    fn controllers_round_robin() {
        let mut c = Cluster::new(2, 1);
        assert_eq!(c.pick_controller(), NodeId(0));
        assert_eq!(c.pick_controller(), NodeId(1));
        assert_eq!(c.pick_controller(), NodeId(0));
    }

    #[test]
    fn controller_delay_queues() {
        let mut c = Cluster::new(1, 1);
        let s = SimDuration::from_millis(2);
        let d1 = c.controller_delay(NodeId(0), SimTime::ZERO, s);
        let d2 = c.controller_delay(NodeId(0), SimTime::ZERO, s);
        assert_eq!(d1, SimDuration::from_millis(2));
        assert_eq!(d2, SimDuration::from_millis(4));
    }

    #[test]
    fn changed_node_gauges_reports_touched_and_due_nodes() {
        let mut c = Cluster::new(3, 2);
        let t = SimTime::from_millis;
        let changed = |c: &mut Cluster, now| -> Vec<(usize, u64, u64, usize)> {
            c.changed_node_gauges(now).collect()
        };
        assert_eq!(
            changed(&mut c, t(0)).len(),
            3,
            "a new cluster reads every node"
        );
        assert!(changed(&mut c, t(0)).is_empty());
        assert!(c.node_mut(NodeId(1)).cores.try_acquire(t(0)));
        c.controller_delay(NodeId(2), t(0), SimDuration::from_millis(4));
        assert_eq!(
            changed(&mut c, t(1)),
            [(1, 1, 0, 0), (2, 0, 0, 1)],
            "the touched nodes, nothing else"
        );
        assert!(
            changed(&mut c, t(3)).is_empty(),
            "node 2's job is still in service"
        );
        assert_eq!(
            changed(&mut c, t(4)),
            [(2, 0, 0, 0)],
            "its completion is due"
        );
        assert!(changed(&mut c, t(9)).is_empty());
        c.mark_nodes_changed();
        assert_eq!(changed(&mut c, t(9)).len(), 3);
    }

    #[test]
    fn prewarm_covers_all_nodes() {
        let mut c = Cluster::new(2, 1);
        c.prewarm_all([FuncId(0)], 3);
        for i in 0..2 {
            assert_eq!(c.node(NodeId(i)).containers.idle_count(FuncId(0)), 3);
        }
    }

    #[test]
    fn seq_table_prewarm_warms_the_successor() {
        let mut c = Cluster::new(1, 4);
        c.set_policies(&PolicyConfig {
            prewarm: PrewarmChoice::SeqTable,
            ..PolicyConfig::default()
        });
        let model = OverheadModel::default();
        // Teach the table that function 1 follows function 0.
        c.observe_sequence(&[0, 1]);
        c.observe_sequence(&[0, 1]);
        c.acquire_container(NodeId(0), FuncId(0), SimTime::ZERO, &model);
        assert_eq!(
            c.node(NodeId(0)).containers.warming_count(FuncId(1)),
            1,
            "the predicted successor begins warming"
        );
        // Re-acquiring function 0 does not duplicate the warming entry.
        c.acquire_container(NodeId(0), FuncId(0), SimTime::ZERO, &model);
        assert_eq!(c.node(NodeId(0)).containers.warming_count(FuncId(1)), 1);
    }
}
