//! The shared engine-runtime layer: one harness, two engine cores.
//!
//! SpecFaaS's contribution is a *speculative policy* layered on an
//! otherwise ordinary FaaS control plane. This module owns the ordinary
//! part once, so the speculative engine ([`SpecEngine`]) and the
//! conventional engine ([`BaselineEngine`]) are reduced to policy cores:
//!
//! * [`Runtime`] — the state both engines share: the application,
//!   simulated clock + event queue, workload RNG, cluster (warm-container
//!   pools, cores, controllers), KV store, fault injector + retry policy,
//!   flight recorder, time-series registry, run metrics, open/closed-loop
//!   generation state, and the function-instance table. It is embedded
//!   *inside* each core so engine code accesses it as plain fields — no
//!   virtual dispatch on hot paths. The instance lifecycle beneath the
//!   control plane (container, core, faults, watchdog) is implemented on
//!   it once, in [`crate::exec`].
//! * The request lifecycle every engine shares, also implemented once:
//!   admission ([`Runtime::admit_request`], which hands the core a
//!   [`RequestHead`]), the retry-budget decision after a fault
//!   ([`Runtime::retry_backoff`]) and termination ([`terminate`]).
//! * [`EngineCore`] — the per-request admit/dispatch/drain semantics a
//!   concrete engine must provide: admit one request, dispatch one event,
//!   report/abort live requests.
//! * [`Harness`] — the generic driver over any core: the four load
//!   drivers (`run_single`, `run_closed`, `run_open`, `run_concurrent`)
//!   and the *only* place fault injection, tracer and metrics-registry
//!   attachment exist.
//!
//! The refactor that introduced this layer is **bit-identical** by
//! construction: every RNG draw, event schedule and gauge sample happens
//! in the same order as when both engines carried private copies of this
//! code, and the golden-file, seed-determinism and ledger-reconciliation
//! e2e suites pin that equivalence byte-for-byte.
//!
//! [`SpecEngine`]: https://docs.rs/specfaas-core
//! [`BaselineEngine`]: crate::BaselineEngine

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use specfaas_sim::hash::FxHashMap;
use specfaas_sim::timeseries::{GaugeHandle, MetricsRegistry, SnapshotLog};
use specfaas_sim::trace::{TraceEventKind, Tracer};
use specfaas_sim::{FaultInjector, FaultPlan, RetryPolicy};
use specfaas_sim::{SimDuration, SimRng, SimTime, Simulator};
use specfaas_storage::{KvStore, Value};
use specfaas_workflow::{AppSpec, FuncId};

use crate::cluster::{Cluster, NodeId};
use crate::exec::{FnInstance, InstanceId};
use crate::metrics::{InvocationRecord, RequestOutcome, RunMetrics};
use crate::overheads::OverheadModel;
use crate::policy::PolicyConfig;
use crate::scoreboard::ScoreboardRow;
use crate::workload::{RequestId, Workload};

/// Boxed request-input generator driven by the engine RNG.
pub type InputGen = Box<dyn FnMut(&mut SimRng) -> Value>;

/// Engine-agnostic runtime state, embedded inside each [`EngineCore`].
///
/// Everything here used to exist twice — once per engine — and every
/// cross-cutting feature (faults, tracing, time-series metrics) had to be
/// wired into both copies. Cores now hold exactly one `Runtime` and reach
/// it as `self.rt.…`; the [`Harness`] reaches it through
/// [`EngineCore::rt`]/[`EngineCore::rt_mut`].
pub struct Runtime<Ev> {
    /// The application under test.
    pub app: Arc<AppSpec>,
    /// Live function instances, whichever engine launched them.
    pub instances: FxHashMap<InstanceId, FnInstance>,
    /// The discrete-event simulator: clock + event queue.
    pub sim: Simulator<Ev>,
    /// Workload randomness (request inputs, arrival gaps, interpreter
    /// streams). Fault randomness lives in [`Runtime::faults`].
    pub rng: SimRng,
    /// The cluster: nodes × cores, warm-container pools, controllers.
    pub cluster: Cluster,
    /// Global storage (public so experiments can seed it).
    pub kv: KvStore,
    /// Timing constants.
    pub model: OverheadModel,
    /// Deterministic fault injector (disabled unless
    /// [`Harness::enable_faults`]).
    pub faults: FaultInjector,
    /// Retry/backoff/timeout policy applied when faults strike.
    pub retry: RetryPolicy,
    /// Seed the engine was built with (fault stream derivation).
    pub seed: u64,
    /// Flight recorder (disabled by default; see [`Harness::set_tracer`]).
    pub tracer: Tracer,
    /// Cluster busy-core-time integral at tracer install / last end-of-run
    /// check, so the conservation invariant compares per-window deltas.
    pub busy_snapshot: SimDuration,
    /// (useful, squashed) core time already attributed when the tracer was
    /// installed — excluded from the first conservation check.
    pub attributed_base: (SimDuration, SimDuration),
    /// Core time squashed handlers kept their cores busy between a process
    /// kill and their release (the kill latency) since the tracer was
    /// installed or last checked. Deliberately *not* part of
    /// [`RunMetrics::squashed_core_time`], which reproduces the paper's
    /// wasted-CPU attribution at kill time; the conservation invariant
    /// `useful + squashed == busy` adds it back.
    pub kill_busy: SimDuration,
    /// Time-series metrics registry (disabled by default; see
    /// [`Harness::set_registry`]).
    pub registry: MetricsRegistry,
    /// Completion instants of in-flight KV operations (registry-gated;
    /// min-heap popped lazily at sample time).
    pub kv_pending: BinaryHeap<Reverse<SimTime>>,
    /// Windowed JSONL snapshot emitter (disabled by default; see
    /// [`Harness::set_snapshots`]). Like the registry, purely
    /// observational: arming it leaves run output bit-identical.
    pub snapshots: Option<SnapshotLog>,
    /// What [`Runtime::sample_gauges`] last handed the registry.
    gauges: GaugeCache,
    /// Lazily built `"<app>/<function>"` top-K keys indexed by function
    /// id, so per-function-start sketch updates never re-format.
    topk_keys: Vec<String>,
    /// Run metrics accumulated since the last driver took them.
    pub metrics: RunMetrics,
    /// Open-loop arrival process (armed by [`Harness::run_open`]).
    pub workload: Option<Workload>,
    /// No generation (open-loop arrivals or closed-loop resubmits) after
    /// this instant.
    pub gen_deadline: SimTime,
    /// Request-input generator for generated (non-`run_single`) load.
    pub input_gen: Option<InputGen>,
    /// Requests arriving from this instant on count toward metrics.
    pub measure_from: SimTime,
    /// Closed-loop mode: each completion immediately submits the next
    /// request (bounded concurrency, like a fixed client pool).
    pub closed_loop: bool,
    /// Next function-instance id to allocate.
    pub next_inst: u64,
    /// Next request id to allocate.
    pub next_req: u64,
}

impl<Ev> Runtime<Ev> {
    /// Fresh runtime for `app` on the paper's 5-node testbed, seeded with
    /// `seed`; faults, tracer and registry all start disabled.
    pub fn new(app: Arc<AppSpec>, seed: u64) -> Self {
        Runtime {
            app,
            instances: FxHashMap::default(),
            sim: Simulator::new(),
            rng: SimRng::seed(seed),
            cluster: Cluster::paper_testbed(),
            kv: KvStore::new(),
            model: OverheadModel::default(),
            faults: FaultInjector::disabled(),
            retry: RetryPolicy::default(),
            seed,
            tracer: Tracer::disabled(),
            busy_snapshot: SimDuration::ZERO,
            attributed_base: (SimDuration::ZERO, SimDuration::ZERO),
            kill_busy: SimDuration::ZERO,
            registry: MetricsRegistry::disabled(),
            kv_pending: BinaryHeap::new(),
            snapshots: None,
            gauges: GaugeCache::default(),
            topk_keys: Vec::new(),
            metrics: RunMetrics::new(),
            workload: None,
            gen_deadline: SimTime::ZERO,
            input_gen: None,
            measure_from: SimTime::ZERO,
            closed_loop: false,
            next_inst: 0,
            next_req: 0,
        }
    }

    /// Allocates the next function-instance id.
    pub fn alloc_inst(&mut self) -> InstanceId {
        let id = InstanceId(self.next_inst);
        self.next_inst += 1;
        id
    }

    /// Admits one request at the current simulated time: allocates its
    /// id (dense and engine-independent), picks its controller, counts it
    /// and traces its arrival. The core files the returned head in its
    /// own request record.
    pub fn admit_request(&mut self) -> (RequestId, RequestHead) {
        let id = RequestId(self.next_req);
        self.next_req += 1;
        let ctrl = self.cluster.pick_controller();
        let now = self.sim.now();
        self.metrics.submitted += 1;
        self.registry.inc("specfaas_requests_submitted_total");
        if self.tracer.enabled() {
            self.tracer
                .emit(now, TraceEventKind::RequestArrival { req: id.0 });
        }
        let head = RequestHead {
            arrived: now,
            ctrl,
            measured: now >= self.measure_from,
            functions_run: 0,
            functions_squashed: 0,
            sequence: Vec::new(),
        };
        (id, head)
    }

    /// The retry-budget decision after attempt `attempt` of `func`,
    /// working for `req`, faulted: `None` once the budget is exhausted;
    /// otherwise the retry is counted and traced and its backoff returned.
    pub fn retry_backoff(
        &mut self,
        req: RequestId,
        func: FuncId,
        attempt: u32,
    ) -> Option<SimDuration> {
        if attempt >= self.retry.max_attempts {
            return None;
        }
        let backoff = self.retry.backoff(attempt);
        self.metrics.faults.retried += 1;
        if self.tracer.enabled() {
            let now = self.sim.now();
            self.tracer.emit(
                now,
                TraceEventKind::RetryBackoff {
                    req: req.0,
                    func: func.0,
                    attempt: attempt + 1,
                    backoff,
                },
            );
        }
        Some(backoff)
    }

    /// Adds `amount` to the squashed-CPU ledger (Table IV), mirroring the
    /// charge in the trace (as a [`TraceEventKind::SquashCharge`]) and the
    /// metrics registry, including its per-function heavy hitters, so
    /// both reconcile exactly with [`RunMetrics`]. Zero-amount charges are
    /// ledger no-ops and emit nothing.
    pub fn charge_squashed(
        &mut self,
        req: RequestId,
        func: FuncId,
        site: &'static str,
        cascade: u32,
        amount: SimDuration,
    ) {
        if amount == SimDuration::ZERO {
            return;
        }
        self.metrics.squashed_core_time += amount;
        if self.tracer.enabled() {
            let now = self.sim.now();
            self.tracer.emit(
                now,
                TraceEventKind::SquashCharge {
                    req: req.0,
                    func: func.0,
                    site,
                    cascade,
                    amount,
                },
            );
        }
        self.registry
            .inc_by("specfaas_squashed_core_us_total", amount.as_micros());
        self.topk_by_function(
            "specfaas_wasted_core_us_by_function",
            func,
            amount.as_micros(),
        );
    }

    /// Adds `weight` for function `func` to the registry heavy-hitter
    /// sketch `name`, keyed `"<app>/<function>"`. No-op — and
    /// allocation-free — when the registry is disabled or the function id
    /// is the `u32::MAX` sentinel some abort paths carry.
    pub fn topk_by_function(&mut self, name: &'static str, func: FuncId, weight: u64) {
        if !self.registry.enabled() || func.0 == u32::MAX {
            return;
        }
        let idx = func.0 as usize;
        if self.topk_keys.len() <= idx {
            self.topk_keys.resize(idx + 1, String::new());
        }
        if self.topk_keys[idx].is_empty() {
            let app = &self.app;
            self.topk_keys[idx] = format!("{}/{}", app.name, app.registry.name(func));
        }
        self.registry.topk_add(name, &self.topk_keys[idx], weight);
    }

    /// Emits pending windowed snapshots if sim-time crossed a boundary.
    /// One `Option` check when snapshots are disabled — cheap enough for
    /// the harness dispatch loops to call per event.
    pub fn tick_snapshots(&mut self) {
        if let Some(log) = self.snapshots.as_mut() {
            log.tick(self.sim.now(), &self.registry);
        }
    }

    /// Samples every per-event gauge at the current sim-time: the warm
    /// pool, each node's busy cores and controller queue depth,
    /// outstanding KV operations, and, from the speculative core, its
    /// in-flight slots and memo entries. Cores call this after every
    /// event while a registry is armed.
    ///
    /// The cost follows what changed, not how many gauges exist: only
    /// the nodes the cluster reports changed are read, and a gauge whose
    /// reading equals what this runtime last handed the registry is not
    /// handed over again. Such a call would change nothing, because the
    /// registry's last value for the gauge is that same value (DESIGN §9,
    /// one-compare rule). A registry of another generation (a swapped
    /// one) starts the memory over, so it sees every gauge once.
    pub fn sample_gauges(&mut self, spec: Option<SpecGauges>) {
        let generation = self.registry.generation();
        if generation == 0 {
            return;
        }
        let now = self.sim.now();
        let (cache, registry) = (&mut self.gauges, &mut self.registry);
        if cache.generation != generation {
            *cache = GaugeCache::new(generation, self.cluster.nodes());
            self.cluster.mark_nodes_changed();
        }
        for (i, busy, idle, depth) in self.cluster.changed_node_gauges(now) {
            let node = &mut cache.nodes[i];
            cache.idle_total = cache.idle_total - node.idle + idle;
            node.idle = idle;
            let label = node.label.as_str();
            node.busy
                .sample(registry, now, "specfaas_busy_cores", "node", label, busy);
            node.depth.sample(
                registry,
                now,
                "specfaas_controller_queue_depth",
                "node",
                label,
                depth as u64,
            );
        }
        let mut unlabeled = |cell: &mut GaugeCell, name, value| {
            cell.sample(registry, now, name, "", "", value);
        };
        unlabeled(
            &mut cache.warm_pool,
            "specfaas_warm_pool_size",
            cache.idle_total,
        );
        if let Some(spec) = spec {
            let slots = spec.inflight_slots;
            unlabeled(&mut cache.spec_slots, "specfaas_inflight_spec_slots", slots);
            unlabeled(
                &mut cache.memo_entries,
                "specfaas_memo_entries",
                spec.memo_entries,
            );
        }
        while self.kv_pending.peek().is_some_and(|Reverse(t)| *t <= now) {
            self.kv_pending.pop();
        }
        let kv_ops = self.kv_pending.len() as u64;
        unlabeled(&mut cache.kv_ops, "specfaas_outstanding_kv_ops", kv_ops);
    }
}

/// What every request records whatever the engine: the head of both
/// cores' request records, handed out by [`Runtime::admit_request`] and
/// consumed by [`terminate`].
#[derive(Debug)]
pub struct RequestHead {
    /// Arrival instant.
    pub arrived: SimTime,
    /// The controller that schedules the request's functions.
    pub ctrl: NodeId,
    /// Counted toward metrics (arrived inside the measurement window)?
    pub measured: bool,
    /// Function executions launched for the request.
    pub functions_run: u32,
    /// Executions squashed (mis-speculated, or faulted dependents).
    pub functions_squashed: u32,
    /// Committed function ids, in commit order.
    pub sequence: Vec<u32>,
}

/// The speculative core's own per-event gauges, which
/// [`Runtime::sample_gauges`] samples beside the shared ones.
#[derive(Debug, Clone, Copy)]
pub struct SpecGauges {
    /// Speculative slots in flight (`specfaas_inflight_spec_slots`).
    pub inflight_slots: u64,
    /// Rows across all memo tables (`specfaas_memo_entries`).
    pub memo_entries: u64,
}

/// A per-event gauge as the runtime last handed it to the registry: the
/// interned instrument and the value.
#[derive(Debug, Clone, Copy, Default)]
struct GaugeCell {
    handle: Option<GaugeHandle>,
    last: Option<u64>,
}

impl GaugeCell {
    /// Hands `value` to the registry unless it is the value handed last.
    #[inline]
    fn sample(
        &mut self,
        registry: &mut MetricsRegistry,
        now: SimTime,
        name: &'static str,
        label_key: &'static str,
        label_value: &str,
        value: u64,
    ) {
        if self.last == Some(value) {
            return;
        }
        self.last = Some(value);
        registry.sample_interned(&mut self.handle, now, name, label_key, label_value, value);
    }
}

/// One node's gauges, plus its idle containers as last read (their sum
/// over the nodes is the warm-pool gauge).
#[derive(Debug, Default)]
struct NodeCells {
    /// The node index as a label ("0", "1", ...), built once.
    label: String,
    busy: GaugeCell,
    depth: GaugeCell,
    idle: u64,
}

/// Everything [`Runtime::sample_gauges`] last handed one registry.
#[derive(Debug, Default)]
struct GaugeCache {
    /// Generation of the registry the cells were handed to; 0 before
    /// the first sample.
    generation: u64,
    nodes: Vec<NodeCells>,
    /// Sum of the nodes' `idle`.
    idle_total: u64,
    warm_pool: GaugeCell,
    kv_ops: GaugeCell,
    spec_slots: GaugeCell,
    memo_entries: GaugeCell,
}

impl GaugeCache {
    /// An empty memory for the registry of `generation` on a cluster of
    /// `nodes` nodes.
    fn new(generation: u64, nodes: usize) -> Self {
        GaugeCache {
            generation,
            nodes: (0..nodes)
                .map(|i| NodeCells {
                    label: i.to_string(),
                    ..NodeCells::default()
                })
                .collect(),
            ..GaugeCache::default()
        }
    }
}

/// The per-request admit/dispatch/drain semantics of one execution
/// engine, driven generically by a [`Harness`].
///
/// A core owns only its control-plane policy state (pipelines,
/// predictors, workflow cursors, which slot or entry each instance runs)
/// plus an embedded [`Runtime`], which holds the instance table and the
/// shared instance lifecycle; the harness owns load generation and
/// instrument attachment. The split is the same one open-source platforms
/// draw between gateway/driver and executor.
pub trait EngineCore {
    /// Event type of the engine's discrete-event loop.
    type Ev;

    /// Whether `run_closed` drains stale events after the last request
    /// (the speculative engine must, so leftover watchdog timeouts cannot
    /// silently advance a later run's clock; the baseline historically
    /// does not, and the bit-identical rule freezes both behaviors).
    const DRAIN_ON_CLOSED: bool;

    /// Shared runtime state (immutable).
    fn rt(&self) -> &Runtime<Self::Ev>;

    /// Shared runtime state (mutable).
    fn rt_mut(&mut self) -> &mut Runtime<Self::Ev>;

    /// The engine's open-loop arrival event (scheduled by the harness to
    /// start generation, re-armed by [`handle_arrival`]).
    fn arrival() -> Self::Ev;

    /// Admits one request at the current simulated time and returns its
    /// id, which [`Runtime::admit_request`] allocates.
    fn admit(&mut self, input: Value) -> RequestId;

    /// Dispatches one event of the engine's event loop (including gauge
    /// sampling of the post-event state).
    fn dispatch(&mut self, ev: Self::Ev);

    /// Whether the request is still in flight.
    fn request_live(&self, req: RequestId) -> bool;

    /// All in-flight requests, sorted by id (HashMap iteration order is
    /// not deterministic; the harness aborts these in sorted order when a
    /// drain wedges).
    fn live_requests(&self) -> Vec<RequestId>;

    /// Terminally fails a wedged request, releasing its resources.
    fn abort(&mut self, req: RequestId);

    /// Engine-specific final fields of a run's metrics (branch/memo hit
    /// rates for the speculative engine).
    fn finalize_metrics(&self, _m: &mut RunMetrics) {}
}

/// Re-arms the open-loop arrival process: draw an input, admit it, then
/// schedule the next arrival if it lands before the generation deadline.
///
/// Cores call this from their `Arrival` event arm. It is a free function
/// (not a `Harness` method) because it runs *inside* `dispatch`, where
/// only the core is borrowed. Draw order — input, admit-internal draws,
/// then gap — is load-bearing for seed determinism.
pub fn handle_arrival<E: EngineCore>(core: &mut E) {
    let (mut w, input) = {
        let rt = core.rt_mut();
        let (Some(w), Some(mut g)) = (rt.workload, rt.input_gen.take()) else {
            return;
        };
        let input = g(&mut rt.rng);
        rt.input_gen = Some(g);
        (w, input)
    };
    core.admit(input);
    let rt = core.rt_mut();
    let gap = w.next_gap(&mut rt.rng);
    rt.workload = Some(w);
    if rt.sim.now() + gap <= rt.gen_deadline {
        rt.sim.schedule_in(gap, E::arrival());
    }
}

/// Ends request `req`, which the core has just removed from its request
/// map, with `outcome`: traces its terminal state, counts it completed or
/// failed, files its record if it was measured (an unmeasured failure
/// only counts as aborted), and lets a closed-loop client submit its next
/// request. Every request of either core ends here, so the metrics,
/// registry and scoreboard see the same distributions whichever core ran,
/// and the prewarm policy learns the same committed sequences.
pub fn terminate<E: EngineCore>(
    core: &mut E,
    req: RequestId,
    head: RequestHead,
    outcome: RequestOutcome,
) {
    let rt = core.rt_mut();
    let now = rt.sim.now();
    let completed = outcome == RequestOutcome::Completed;
    if rt.tracer.enabled() {
        rt.tracer.emit(
            now,
            TraceEventKind::Terminal {
                req: req.0,
                completed,
            },
        );
    }
    rt.metrics.functions_squashed += u64::from(head.functions_squashed);
    rt.registry.inc(if completed {
        "specfaas_requests_completed_total"
    } else {
        "specfaas_requests_failed_total"
    });
    if head.measured {
        let rec = InvocationRecord {
            arrived: head.arrived,
            completed: now,
            functions_run: head.functions_run,
            functions_squashed: head.functions_squashed,
            sequence: head.sequence,
            outcome,
        };
        if completed {
            rt.cluster.observe_sequence(&rec.sequence);
            if rt.registry.enabled() {
                rt.registry.observe(
                    "specfaas_response_latency_us",
                    rec.response_time().as_micros(),
                );
                rt.registry.observe(
                    "specfaas_request_squashed_functions",
                    rec.functions_squashed as u64,
                );
            }
            rt.metrics.record_completion(rec);
        } else {
            rt.metrics.record_failure(rec);
        }
    } else if !completed {
        rt.metrics.faults.aborted += 1;
    }
    closed_loop_resubmit(core);
}

/// Closed-loop client behavior: when a request terminates (completes or
/// aborts) before the generation deadline, the freed client immediately
/// submits its next request; outside closed-loop mode it is a no-op.
fn closed_loop_resubmit<E: EngineCore>(core: &mut E) {
    let input = {
        let rt = core.rt_mut();
        if !rt.closed_loop || rt.sim.now() > rt.gen_deadline {
            return;
        }
        let Some(mut g) = rt.input_gen.take() else {
            return;
        };
        let v = g(&mut rt.rng);
        rt.input_gen = Some(g);
        v
    };
    core.admit(input);
}

/// Generic engine driver: owns the four load drivers and all instrument
/// (fault/tracer/registry) attachment, for any [`EngineCore`].
///
/// Dereferences to the core (and transitively to its [`Runtime`]), so
/// `engine.kv`, `engine.cluster`, `engine.metrics` … remain plain field
/// accesses for experiments.
pub struct Harness<E: EngineCore> {
    /// The engine core being driven.
    pub core: E,
}

impl<E: EngineCore> std::ops::Deref for Harness<E> {
    type Target = E;
    fn deref(&self) -> &E {
        &self.core
    }
}

impl<E: EngineCore> std::ops::DerefMut for Harness<E> {
    fn deref_mut(&mut self) -> &mut E {
        &mut self.core
    }
}

impl<E: EngineCore> Harness<E> {
    /// Wraps a core in the generic driver.
    pub fn new(core: E) -> Self {
        Harness { core }
    }

    /// The application under test.
    pub fn app(&self) -> &AppSpec {
        &self.core.rt().app
    }

    /// Pre-warms containers for every function of the app on every node
    /// (the default warmed-up environment, §IV).
    pub fn prewarm(&mut self) {
        let funcs: Vec<FuncId> = self.app().registry.iter().map(|(id, _)| id).collect();
        // §IV: the paper assumes function start-up overheads have been
        // removed by prior cold-start work, so the warm pool must cover
        // the offered concurrency even under speculative fan-out.
        self.core.rt_mut().cluster.prewarm_all(funcs, 64);
    }

    /// Empties every warm container pool (cold-start experiments). The
    /// persistent controller-side tables are unaffected, as in a
    /// deployment where containers are reclaimed during idle periods but
    /// the controller state survives.
    pub fn flush_warm_containers(&mut self) {
        self.core.rt_mut().cluster.flush_warm_containers();
    }

    /// Installs the platform policies (placement, keep-alive, prewarm) —
    /// the same attachment idiom as faults/tracer/registry. Call before
    /// the runs the policies should govern. The default
    /// [`PolicyConfig`] leaves every run bit-identical to an engine this
    /// was never called on.
    pub fn set_policies(&mut self, cfg: &PolicyConfig) {
        self.core.rt_mut().cluster.set_policies(cfg);
    }

    /// Arms deterministic fault injection with the given plan and
    /// retry/backoff policy. The injector draws from a dedicated RNG
    /// stream derived from the engine seed, so enabling faults never
    /// perturbs workload randomness — and [`FaultPlan::none`] leaves the
    /// simulation bit-identical to a fault-free engine.
    pub fn enable_faults(&mut self, plan: FaultPlan, retry: RetryPolicy) {
        let rt = self.core.rt_mut();
        rt.faults = FaultInjector::new(plan, rt.seed);
        rt.retry = retry;
    }

    /// Installs a flight recorder. Call before the runs it should cover:
    /// the conservation check windows start here.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        let rt = self.core.rt_mut();
        let now = rt.sim.now();
        rt.busy_snapshot = rt.cluster.busy_core_time_total(now);
        rt.attributed_base = (rt.metrics.useful_core_time, rt.metrics.squashed_core_time);
        rt.kill_busy = SimDuration::ZERO;
        rt.tracer = tracer;
    }

    /// The installed flight recorder.
    pub fn tracer(&self) -> &Tracer {
        &self.core.rt().tracer
    }

    /// Takes the flight recorder out of the engine (for export), leaving
    /// a disabled one behind.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.core.rt_mut().tracer)
    }

    /// Installs a time-series metrics registry. Sampling is purely
    /// observational: it never draws from the RNG or schedules events, so
    /// an enabled registry leaves [`RunMetrics`] bit-identical to a
    /// disabled one. The runtime forgets what it handed any earlier
    /// registry, so gauges this one already holds (from another engine,
    /// say) are sampled afresh.
    pub fn set_registry(&mut self, registry: MetricsRegistry) {
        let rt = self.core.rt_mut();
        rt.registry = registry;
        rt.gauges = GaugeCache::default();
    }

    /// The installed metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.core.rt().registry
    }

    /// Takes the registry out of the engine (for export), leaving a
    /// disabled one behind.
    pub fn take_registry(&mut self) -> MetricsRegistry {
        std::mem::take(&mut self.core.rt_mut().registry)
    }

    /// Installs a windowed JSONL snapshot log, ticked from the dispatch
    /// loops. Pair with [`Harness::set_registry`] — snapshots render the
    /// registry's cumulative state, so an empty registry yields empty
    /// snapshots. Purely observational, like the other instruments.
    pub fn set_snapshots(&mut self, mut log: SnapshotLog) {
        let rt = self.core.rt_mut();
        log.start_at(rt.sim.now());
        rt.snapshots = Some(log);
    }

    /// Takes the snapshot log out of the engine (for export), stamping
    /// one final snapshot at the current sim-time first. `None` if
    /// snapshots were never armed.
    pub fn take_snapshots(&mut self) -> Option<SnapshotLog> {
        let rt = self.core.rt_mut();
        let mut log = rt.snapshots.take()?;
        log.finish(rt.sim.now(), &rt.registry);
        Some(log)
    }

    /// Assembles the speculation-health scoreboard row for the run that
    /// produced `metrics`, reading the heavy-hitter and distribution
    /// instruments from the installed registry plus the cluster's
    /// per-function container-lifecycle counters (cold/warm/evicted —
    /// tracked in the pools, not the registry, so arming them cannot
    /// perturb the Prometheus export). Call after a load driver returns
    /// and before [`Harness::take_registry`].
    pub fn scoreboard(&self, engine: &'static str, metrics: &RunMetrics) -> ScoreboardRow {
        let rt = self.core.rt();
        let app = &rt.app;
        let mut row = ScoreboardRow::build(&app.name, engine, metrics, &rt.registry);
        row.evictions = rt.cluster.evictions();
        row.func_containers = rt
            .cluster
            .func_container_stats()
            .into_iter()
            .map(|(f, s)| (app.registry.name(f).to_string(), s.cold, s.warm, s.evicted))
            .collect();
        row
    }

    /// Runs the end-of-run invariants over the window since the tracer
    /// was installed (or the previous check).
    fn trace_end_of_run(&mut self) {
        let rt = self.core.rt_mut();
        if !rt.tracer.checking() {
            return;
        }
        let live = rt.instances.len();
        let now = rt.sim.now();
        let busy = rt.cluster.busy_core_time_total(now);
        let (base_u, base_s) = rt.attributed_base;
        let kill_busy = std::mem::take(&mut rt.kill_busy);
        rt.tracer.check_end_of_run(
            live,
            rt.metrics.useful_core_time - base_u,
            rt.metrics.squashed_core_time - base_s + kill_busy,
            busy - rt.busy_snapshot,
        );
        rt.busy_snapshot = busy;
        // The driver resets the metrics (mem::take) right after this.
        rt.attributed_base = (SimDuration::ZERO, SimDuration::ZERO);
    }

    /// Runs a single request to completion (or terminal failure) with no
    /// background load and returns its response time. Used for the QoS
    /// reference point (Table III defines violation as >2× the
    /// single-request response) and for the Fig. 3 breakdown.
    pub fn run_single(&mut self, input: Value) -> SimDuration {
        let start = self.core.rt().sim.now();
        let req = self.core.admit(input);
        while self.core.request_live(req) {
            let Some((_, ev)) = self.core.rt_mut().sim.step() else {
                // Drained with the request still live — an unrecoverable
                // wedge (e.g. an injected hang with no invocation
                // timeout). Terminal failure, not a panic.
                self.core.abort(req);
                break;
            };
            self.core.dispatch(ev);
            self.core.rt_mut().tick_snapshots();
        }
        self.core.rt().sim.now() - start
    }

    /// Steps the simulation until the event queue is empty AND no
    /// requests remain live. A request can outlive the queue when an
    /// injected hang wedges a handler with no invocation timeout armed:
    /// such requests are aborted (recorded as failed) and, in closed
    /// loops, the freed clients resubmit — so the loop repeats until
    /// everything settles.
    fn drain_all(&mut self) {
        loop {
            while let Some((_, ev)) = self.core.rt_mut().sim.step() {
                self.core.dispatch(ev);
                self.core.rt_mut().tick_snapshots();
            }
            let stuck = self.core.live_requests();
            if stuck.is_empty() {
                break;
            }
            for r in stuck {
                self.core.abort(r);
            }
        }
    }

    /// Runs `n` requests submitted back-to-back (closed loop, one at a
    /// time) — used to warm controller-side state (sequence tables,
    /// memoization, predictors) and for characterization runs.
    pub fn run_closed(
        &mut self,
        n: u64,
        mut input: impl FnMut(&mut SimRng) -> Value,
    ) -> RunMetrics {
        for _ in 0..n {
            let v = input(&mut self.core.rt_mut().rng);
            self.run_single(v);
        }
        if E::DRAIN_ON_CLOSED {
            // Drain stray events (e.g. watchdog timeouts armed by an
            // aborted request) so they cannot fire into a later run.
            self.drain_all();
        }
        self.trace_end_of_run();
        let rt = self.core.rt_mut();
        let mut m = std::mem::take(&mut rt.metrics);
        m.window = rt.sim.now() - SimTime::ZERO;
        m.cpu_utilization = rt.cluster.utilization(rt.sim.now());
        self.core.finalize_metrics(&mut m);
        m
    }

    /// Runs an open-loop Poisson workload at `rps` for `duration`
    /// (measuring after `warmup`), then drains in-flight requests.
    pub fn run_open(
        &mut self,
        rps: f64,
        duration: SimDuration,
        warmup: SimDuration,
        input: impl FnMut(&mut SimRng) -> Value + 'static,
    ) -> RunMetrics {
        {
            let rt = self.core.rt_mut();
            let start = rt.sim.now();
            rt.workload = Some(Workload::poisson(rps));
            rt.input_gen = Some(Box::new(input));
            rt.gen_deadline = start + duration;
            rt.measure_from = start + warmup;
            rt.cluster.reset_utilization(start + warmup);
            rt.sim.schedule_now(E::arrival());
        }
        // Drive generation + all in-flight work to completion.
        self.drain_all();
        self.trace_end_of_run();
        let rt = self.core.rt_mut();
        let end = rt.sim.now();
        let mut m = std::mem::take(&mut rt.metrics);
        m.window = rt.gen_deadline.saturating_since(rt.measure_from);
        m.cpu_utilization = rt.cluster.utilization(end.min(rt.gen_deadline));
        self.core.finalize_metrics(&mut m);
        m
    }

    /// Runs a closed-loop workload: `clients` concurrent clients, each
    /// issuing its next request as soon as the previous one completes,
    /// for `duration` (measuring after `warmup`). This is how saturating
    /// load levels are driven without unbounded queue growth — offered
    /// load self-throttles to the service rate, as a real load generator
    /// with a fixed connection pool does.
    pub fn run_concurrent(
        &mut self,
        clients: u32,
        duration: SimDuration,
        warmup: SimDuration,
        input: impl FnMut(&mut SimRng) -> Value + 'static,
    ) -> RunMetrics {
        {
            let rt = self.core.rt_mut();
            let start = rt.sim.now();
            rt.closed_loop = true;
            rt.input_gen = Some(Box::new(input));
            rt.gen_deadline = start + duration;
            rt.measure_from = start + warmup;
            rt.cluster.reset_utilization(start + warmup);
        }
        for _ in 0..clients.max(1) {
            let v = {
                let rt = self.core.rt_mut();
                let Some(mut g) = rt.input_gen.take() else {
                    continue;
                };
                let v = g(&mut rt.rng);
                rt.input_gen = Some(g);
                v
            };
            self.core.admit(v);
        }
        self.drain_all();
        self.trace_end_of_run();
        self.core.rt_mut().closed_loop = false;
        let rt = self.core.rt_mut();
        let end = rt.sim.now();
        let mut m = std::mem::take(&mut rt.metrics);
        m.window = rt.gen_deadline.saturating_since(rt.measure_from);
        m.cpu_utilization = rt.cluster.utilization(end.min(rt.gen_deadline));
        self.core.finalize_metrics(&mut m);
        m
    }
}
