//! Multi-tenant fleet layer and the flow-level scale engine.
//!
//! The full-fidelity engines ([`crate::baseline`] and the spec engine)
//! interpret every function body, which tops out around a few thousand
//! requests per second of wall clock — fine for the paper's figures,
//! hopeless for the ROADMAP's "millions of requests across thousands of
//! tenants". This module provides the scale path:
//!
//! * [`TemplateProfile`] — a static flow-level profile of an [`AppSpec`]:
//!   the expected stage sequence with mean compute per stage, parallel
//!   fan-out widths, and which stages end in data-dependent branches.
//!   Derived once per template from [`specfaas_workflow::Program::static_compute_estimate`].
//! * [`Fleet`] — N tenant apps instantiated from a template set, with
//!   **interned global function ids**: tenant × template-function pairs
//!   map to dense `u32`s by prefix-sum, so the shared warm pool and all
//!   per-function state index arrays instead of hashing tuples.
//! * [`WarmPool`] — one shared, capacity-bounded warm-container pool with
//!   deterministic per-function LRU keep-alive eviction. Under Zipf
//!   popularity the hot tenants pin their containers warm while the long
//!   tail churns cold — the phenomenon scale runs exist to measure.
//! * [`ScaleEngine`] — a discrete-event, flow-level request model (a
//!   handful of events per request against the calendar-bucket queue)
//!   that replays a [`TraceGen`] arrival stream in either baseline
//!   (sequential stages) or speculative (overlapped launch, mispredict
//!   squash/re-execution, memoization skips) mode.
//!
//! ## Fidelity contract
//!
//! This is a *flow-level* model: stages carry their template's mean
//! compute (±15 % jitter) rather than interpreted bodies, branch
//! mispredictions and memo hits are drawn from configured probabilities
//! rather than replayed data, and a mispredicted branch squashes its
//! immediate successor (deeper cascades are second-order at fleet
//! scale). Overhead constants, cold-start costs, and pool dynamics are
//! shared with the full-fidelity engines via [`OverheadModel`], so the
//! speculation win it reports tracks the shape — not the third decimal —
//! of the paper's results.
//!
//! ## Hot-path design
//!
//! Per-function state is kept in flat `Vec`s indexed by the fleet's
//! dense global function ids, so no hot-path operation hashes: the
//! [`WarmPool`]'s slots with their intrusive LRU list, the engine's
//! per-function cold-start slots (creations in flight and a FIFO of
//! waiting stages threaded through one shared node arena), and the
//! successor table of [`crate::policy::SeqTablePrewarm`]. Per-request
//! state lives in a pooled slab: completed requests return their slot
//! (and their per-stage `Vec`'s capacity) to a free list, so steady state
//! performs no allocation per request, and queueing for a cold container
//! allocates nothing either. Arrivals are pulled from the trace generator
//! in large batches, and all metrics are streaming ([`LogHistogram`] /
//! [`SpaceSaving`]) — memory stays flat in the request count.
//!
//! Everything is deterministic for a given [`ScaleConfig`]: same seed,
//! same stats, bit for bit.

use std::collections::VecDeque;
use std::sync::Arc;

use specfaas_sim::tracegen::{Arrival, TraceConfig, TraceGen};
use specfaas_sim::{LogHistogram, SimDuration, SimRng, SimTime, Simulator, SpaceSaving};
use specfaas_workflow::{AppSpec, EntryKind};

use crate::overheads::OverheadModel;
use crate::policy::{KeepAlivePolicy, PolicyConfig, PrewarmPolicy};

/// Floor on a stage's mean compute so zero-compute glue functions still
/// cost something (they do in reality: interpreter spin-up, marshalling).
const MIN_STAGE_EXEC: SimDuration = SimDuration::from_micros(500);

/// How many arrivals to pull from the trace generator per refill.
const ARRIVAL_BATCH: usize = 4096;

/// How often (in arrivals) to sample the approximate memory footprint.
const MEM_SAMPLE_EVERY: u64 = 8192;

/// Concurrent cold container creations allowed per function. Requests
/// beyond the cap queue for the containers already being created (or for
/// a busy one to recycle) instead of each spawning their own — without
/// it, a burst on a hot function cold-starts one container *per queued
/// request*, overshooting the needed duplicate count by orders of
/// magnitude and evicting the entire warm tail when those releases hit a
/// bounded pool.
const MAX_CONCURRENT_COLD_STARTS: u32 = 4;

/// One stage of a flow-level application profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageProfile {
    /// Mean compute time of the stage (max over parallel members).
    pub exec: SimDuration,
    /// Parallel fan-out: number of cores (and containers) the stage
    /// occupies concurrently. 1 for ordinary stages.
    pub width: u32,
    /// True if the stage ends in a data-dependent branch — the spec
    /// engine's misprediction point.
    pub branch: bool,
}

/// A static flow-level profile of one application template.
#[derive(Debug, Clone)]
pub struct TemplateProfile {
    /// Template (application) name.
    pub name: String,
    /// Expected stage sequence.
    pub stages: Vec<StageProfile>,
    /// Total core demand of one request: `Σ exec·width`.
    pub core_demand: SimDuration,
}

impl TemplateProfile {
    /// Derives a profile from an application spec by walking its
    /// compiled sequence table along the expected path: `Simple` edges
    /// are followed, `Branch` entries prefer their forward target (loop
    /// back-edges are walked once), and `Fork` fan-outs collapse into a
    /// single stage whose width is the branch count and whose compute is
    /// the widest branch chain.
    pub fn from_app(app: &AppSpec) -> TemplateProfile {
        let entries = &app.compiled.entries;
        let mut visited = vec![false; entries.len()];
        let mut stages = Vec::new();
        let mut cursor = Some(app.compiled.start);
        while let Some(i) = cursor {
            if visited[i] {
                break;
            }
            visited[i] = true;
            let e = &entries[i];
            let exec = func_exec(app, e.func);
            match &e.kind {
                EntryKind::Simple { next } => {
                    stages.push(StageProfile {
                        exec,
                        width: 1,
                        branch: false,
                    });
                    cursor = *next;
                }
                EntryKind::Branch {
                    taken, not_taken, ..
                } => {
                    stages.push(StageProfile {
                        exec,
                        width: 1,
                        branch: true,
                    });
                    cursor = [*taken, *not_taken]
                        .into_iter()
                        .flatten()
                        .find(|&t| !visited[t]);
                }
                EntryKind::Fork { branches, join } => {
                    stages.push(StageProfile {
                        exec,
                        width: 1,
                        branch: false,
                    });
                    let mut widest = SimDuration::ZERO;
                    for &head in branches {
                        let mut chain = SimDuration::ZERO;
                        let mut c = Some(head);
                        while let Some(j) = c {
                            if Some(j) == *join || visited[j] {
                                break;
                            }
                            visited[j] = true;
                            chain += func_exec(app, entries[j].func);
                            c = match &entries[j].kind {
                                EntryKind::Simple { next } => *next,
                                EntryKind::Branch {
                                    taken, not_taken, ..
                                } => taken.or(*not_taken),
                                EntryKind::Fork { join: j2, .. } => *j2,
                            };
                        }
                        widest = widest.max(chain);
                    }
                    stages.push(StageProfile {
                        exec: widest.max(MIN_STAGE_EXEC),
                        width: branches.len().max(1) as u32,
                        branch: false,
                    });
                    cursor = *join;
                }
            }
        }
        let core_demand = stages.iter().map(|s| s.exec.mul_f64(s.width as f64)).sum();
        TemplateProfile {
            name: app.name.clone(),
            stages,
            core_demand,
        }
    }

    /// A synthetic profile for tests and calibration: `execs_ms[i]` is
    /// stage *i*'s mean compute, `branch_at` marks branch stages.
    pub fn synthetic(name: &str, execs_ms: &[u64], branch_at: &[usize]) -> TemplateProfile {
        let stages: Vec<StageProfile> = execs_ms
            .iter()
            .enumerate()
            .map(|(i, &ms)| StageProfile {
                exec: SimDuration::from_millis(ms).max(MIN_STAGE_EXEC),
                width: 1,
                branch: branch_at.contains(&i),
            })
            .collect();
        let core_demand = stages.iter().map(|s| s.exec.mul_f64(s.width as f64)).sum();
        TemplateProfile {
            name: name.to_owned(),
            stages,
            core_demand,
        }
    }
}

fn func_exec(app: &AppSpec, f: specfaas_workflow::FuncId) -> SimDuration {
    app.registry
        .spec(f)
        .program
        .static_compute_estimate()
        .max(MIN_STAGE_EXEC)
}

/// N tenant applications instantiated from a template set, with interned
/// global function ids.
///
/// Tenant *t* runs template `t mod templates.len()`. The global id of
/// tenant *t*'s stage *s* is `gfunc_base[t] + s` — a dense `u32` keying
/// the shared [`WarmPool`] without hashing `(tenant, stage)` tuples.
#[derive(Debug, Clone)]
pub struct Fleet {
    templates: Vec<Arc<TemplateProfile>>,
    /// Tenant → template index.
    tenant_template: Vec<u32>,
    /// Tenant → first global function id (prefix sums of stage counts).
    gfunc_base: Vec<u32>,
    total_gfuncs: u32,
}

impl Fleet {
    /// Instantiates `tenants` apps round-robin over `templates`.
    ///
    /// # Panics
    /// Panics if `templates` is empty or `tenants == 0`.
    pub fn new(templates: Vec<Arc<TemplateProfile>>, tenants: u32) -> Fleet {
        assert!(!templates.is_empty(), "fleet needs at least one template");
        assert!(tenants > 0, "fleet needs at least one tenant");
        let mut tenant_template = Vec::with_capacity(tenants as usize);
        let mut gfunc_base = Vec::with_capacity(tenants as usize);
        let mut next_gfunc: u32 = 0;
        for t in 0..tenants {
            let tpl = t as usize % templates.len();
            tenant_template.push(tpl as u32);
            gfunc_base.push(next_gfunc);
            next_gfunc += templates[tpl].stages.len() as u32;
        }
        Fleet {
            templates,
            tenant_template,
            gfunc_base,
            total_gfuncs: next_gfunc,
        }
    }

    /// Number of tenants.
    pub fn tenants(&self) -> u32 {
        self.tenant_template.len() as u32
    }

    /// Number of distinct global function ids across the fleet.
    pub fn total_gfuncs(&self) -> u32 {
        self.total_gfuncs
    }

    /// The template index tenant `t` runs.
    pub fn template_index(&self, t: u32) -> u32 {
        self.tenant_template[t as usize]
    }

    /// The profile tenant `t` runs.
    pub fn template_of(&self, t: u32) -> &Arc<TemplateProfile> {
        &self.templates[self.tenant_template[t as usize] as usize]
    }

    /// The interned global function id of tenant `t`'s stage `s`.
    pub fn gfunc(&self, t: u32, s: u16) -> u32 {
        self.gfunc_base[t as usize] + s as u32
    }

    /// Mean per-request core demand across tenants.
    pub fn mean_core_demand(&self) -> SimDuration {
        let total: SimDuration = self
            .tenant_template
            .iter()
            .map(|&tpl| self.templates[tpl as usize].core_demand)
            .sum();
        SimDuration::from_micros(total.as_micros() / self.tenants() as u64)
    }

    /// Widest stage fan-out in any template (lower bound on core count).
    pub fn max_stage_width(&self) -> u32 {
        self.templates
            .iter()
            .flat_map(|t| t.stages.iter().map(|s| s.width))
            .max()
            .unwrap_or(1)
    }

    /// Approximate heap footprint of the tenant directory in bytes.
    pub fn mem_bytes(&self) -> u64 {
        let dir = self.tenant_template.capacity() * 4 + self.gfunc_base.capacity() * 4;
        let tpl: usize = self
            .templates
            .iter()
            .map(|t| t.stages.capacity() * std::mem::size_of::<StageProfile>() + t.name.len())
            .sum();
        (dir + tpl) as u64
    }
}

/// End-of-list marker for the intrusive links of [`WarmPool`]'s LRU list
/// and the engine's cold-start waiter queues.
const NIL: u32 = u32::MAX;

/// One function's slot in the [`WarmPool`].
#[derive(Debug, Clone, Copy)]
struct PoolSlot {
    /// Idle containers pooled. Non-zero exactly when the function is
    /// linked into the LRU list.
    idle: u32,
    /// Older neighbour in the LRU list ([`NIL`] at the head).
    prev: u32,
    /// Newer neighbour in the LRU list ([`NIL`] at the tail).
    next: u32,
    /// The function's most recent release instant.
    released: SimTime,
}

impl PoolSlot {
    const EMPTY: PoolSlot = PoolSlot {
        idle: 0,
        prev: NIL,
        next: NIL,
        released: SimTime::ZERO,
    };
}

/// One shared, capacity-bounded warm-container pool with deterministic
/// LRU keep-alive eviction.
///
/// `capacity` bounds **idle** warm containers fleet-wide (the keep-alive
/// memory budget); containers busy executing are not counted. Releasing
/// into a full pool evicts the least-recently-used function's container
/// first.
///
/// State is one slot per global function id in a flat `Vec` (grown on
/// the first release of an id past its end), and the functions with idle
/// stock form an intrusive doubly-linked list through those slots, least
/// recently released at the head. A release moves its function to the
/// tail; capacity eviction and the TTL sweep take from the head; an
/// acquire that empties a function's stock unlinks it. Every operation
/// is O(1) apart from the sweep, which stops at the first live entry, and
/// the eviction order is fully determined by the operation sequence.
///
/// The pool consults the same [`KeepAlivePolicy`] trait as the
/// single-app container pools: no-keep-alive destroys containers at
/// release, and a fixed TTL reclaims a function's idle stock once its
/// most recent release is `ttl` old (whole-entry expiry — at flow level,
/// a function's duplicates recycle together, so per-container tracking
/// would only duplicate the recency key). Expiry runs before any warm
/// handout, so an expired container is never revived.
#[derive(Debug, Clone)]
pub struct WarmPool {
    capacity: u32,
    total_idle: u32,
    /// Per-function slots, indexed by global function id.
    slots: Vec<PoolSlot>,
    /// Least recently released function with idle stock ([`NIL`] when
    /// the pool is empty).
    head: u32,
    /// Most recently released function with idle stock.
    tail: u32,
    /// Functions with idle stock (the LRU list's length).
    entries: u32,
    /// Acquisitions that found no warm container.
    pub cold_starts: u64,
    /// Acquisitions served warm.
    pub warm_starts: u64,
    /// Idle containers evicted to stay under capacity or reclaimed by
    /// the keep-alive policy.
    pub evictions: u64,
}

impl WarmPool {
    /// An empty pool bounded to `capacity` idle containers.
    pub fn new(capacity: u32) -> WarmPool {
        WarmPool {
            capacity: capacity.max(1),
            total_idle: 0,
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            entries: 0,
            cold_starts: 0,
            warm_starts: 0,
            evictions: 0,
        }
    }

    /// Links `gfunc` at the tail (most recent end) of the LRU list.
    fn link_tail(&mut self, gfunc: u32) {
        let slot = &mut self.slots[gfunc as usize];
        slot.prev = self.tail;
        slot.next = NIL;
        match self.tail {
            NIL => self.head = gfunc,
            t => self.slots[t as usize].next = gfunc,
        }
        self.tail = gfunc;
    }

    /// Unlinks `gfunc` from the LRU list.
    fn unlink(&mut self, gfunc: u32) {
        let PoolSlot { prev, next, .. } = self.slots[gfunc as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Takes one idle container of `gfunc`, unlinking the function when
    /// its stock runs out.
    fn take_one(&mut self, gfunc: u32) {
        self.total_idle -= 1;
        let slot = &mut self.slots[gfunc as usize];
        slot.idle -= 1;
        if slot.idle == 0 {
            self.entries -= 1;
            self.unlink(gfunc);
        }
    }

    /// Drops `gfunc`'s whole idle stock, counting every container as
    /// evicted.
    fn expire(&mut self, gfunc: u32) {
        let count = std::mem::take(&mut self.slots[gfunc as usize].idle);
        self.total_idle -= count;
        self.evictions += u64::from(count);
        self.entries -= 1;
        self.unlink(gfunc);
    }

    /// Takes a warm container for `gfunc` if one is idle and not expired
    /// at `now`. Returns true on a warm hit; false means the caller pays
    /// a cold start.
    pub fn acquire(&mut self, gfunc: u32, now: SimTime, policy: &dyn KeepAlivePolicy) -> bool {
        if self.idle_count(gfunc) > 0 {
            let released = self.slots[gfunc as usize].released;
            if policy.ttl().is_some_and(|ttl| released + ttl <= now) {
                self.expire(gfunc);
            } else {
                self.take_one(gfunc);
                self.warm_starts += 1;
                return true;
            }
        }
        self.cold_starts += 1;
        false
    }

    /// Returns a container for `gfunc` to the idle pool at `now` — if
    /// the keep-alive policy keeps it — moving the function to the most
    /// recent end of the LRU list, sweeping TTL-expired entries from the
    /// least recent end, and evicting the least-recently-used function's
    /// container if the pool is at capacity.
    pub fn release(&mut self, gfunc: u32, now: SimTime, policy: &dyn KeepAlivePolicy) {
        if !policy.keep_idle() {
            self.evictions += 1;
            return;
        }
        let g = gfunc as usize;
        if g >= self.slots.len() {
            self.slots.resize(g + 1, PoolSlot::EMPTY);
        }
        if self.slots[g].idle == 0 {
            self.entries += 1;
        } else {
            self.unlink(gfunc);
        }
        self.link_tail(gfunc);
        let slot = &mut self.slots[g];
        slot.idle += 1;
        slot.released = now;
        self.total_idle += 1;
        if let Some(ttl) = policy.ttl() {
            // The list is in release order, so expired entries cluster
            // at the head.
            while self.head != NIL && self.slots[self.head as usize].released + ttl <= now {
                self.expire(self.head);
            }
        }
        while self.total_idle > self.capacity {
            self.evictions += 1;
            self.take_one(self.head);
        }
    }

    /// Idle containers currently pooled.
    pub fn idle_total(&self) -> u32 {
        self.total_idle
    }

    /// Idle containers currently pooled for `gfunc` (raw count; TTL
    /// expiry is lazy).
    pub fn idle_count(&self, gfunc: u32) -> u32 {
        self.slots.get(gfunc as usize).map_or(0, |s| s.idle)
    }

    /// The configured idle-capacity bound.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Model footprint in bytes: 56 per function with idle stock, the
    /// warm-pool term of [`ScaleStats::peak_mem_bytes`].
    pub fn mem_bytes(&self) -> u64 {
        u64::from(self.entries) * 56
    }
}

/// Configuration of one scale run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// The arrival trace (tenants, request count, rate curve, seed).
    pub trace: TraceConfig,
    /// True for the speculative engine; false for the sequential
    /// baseline.
    pub speculative: bool,
    /// Fleet-wide execution cores. 0 = auto-size from the fleet's mean
    /// core demand at peak rate (~50 % target utilization).
    pub cores: u32,
    /// Warm-pool idle capacity. 0 = auto: 2 × the fleet's distinct
    /// function count + 4096, clamped to `[256, 262144]` — one keep-alive
    /// slot per function, doubled, plus headroom for the duplicates hot
    /// functions accumulate. Smaller values turn on LRU churn: the Zipf
    /// tail then runs cold while hot tenants pin their containers (see
    /// `tail_tenants_run_colder_than_hot_tenants`). Capacities well below
    /// the working set collapse into a cold-thrash equilibrium — realistic
    /// (keep-alive budgets do behave that way) but not the regime the
    /// committed artifact reports.
    pub warm_capacity: u32,
    /// Requests to exclude from the latency distribution while the pool
    /// warms up. 0 = auto (5 % of the trace). Completions and pool
    /// counters still include the warmup; only latency recording is
    /// gated, so reported means are steady-state rather than dominated by
    /// the initial cold-start herd.
    pub warmup_requests: u64,
    /// Seed one warm container per fleet function before the trace
    /// starts (subject to the pool's capacity bound), exactly like the
    /// paper benches' `prewarm_all`. Without it a cold fleet must
    /// bootstrap through a thundering herd whose queueing can lock the
    /// pool into an eviction-thrash equilibrium for the whole run.
    pub prewarm: bool,
    /// Probability a branch stage mispredicts, squashing its successor.
    pub mispredict: f64,
    /// Probability a stage is served from the memo table (spec only).
    pub memo_hit: f64,
    /// Platform policies (keep-alive and prewarm; placement has no
    /// meaning against the fleet's single shared pool and is ignored).
    /// The default reproduces the pre-policy-layer behaviour bit for
    /// bit.
    pub policy: PolicyConfig,
}

impl ScaleConfig {
    /// A config with the default flow-model probabilities (10 %
    /// misprediction, 25 % memo hits), auto-sized resources, and the
    /// default platform policies.
    pub fn new(trace: TraceConfig, speculative: bool) -> ScaleConfig {
        ScaleConfig {
            trace,
            speculative,
            cores: 0,
            warm_capacity: 0,
            warmup_requests: 0,
            prewarm: true,
            mispredict: 0.10,
            memo_hit: 0.25,
            policy: PolicyConfig::default(),
        }
    }
}

/// Streaming results of one scale run. All distribution state is
/// constant-memory ([`LogHistogram`] / [`SpaceSaving`]).
#[derive(Debug, Clone)]
pub struct ScaleStats {
    /// Requests completed (equals the trace's request count).
    pub completed: u64,
    /// Simulated time span of the run.
    pub sim_span: SimDuration,
    /// End-to-end request latency distribution (steady-state: warmup
    /// requests are excluded).
    pub latency: LogHistogram,
    /// Cold container acquisitions.
    pub cold_starts: u64,
    /// Warm container acquisitions.
    pub warm_starts: u64,
    /// Containers destroyed by the keep-alive policy: idle ones evicted
    /// to stay under the pool's capacity or reclaimed on TTL expiry, and
    /// released ones torn down at once under no keep-alive.
    pub evictions: u64,
    /// Core-microseconds spent on work that was later squashed.
    pub wasted_core_us: u64,
    /// Total core-microseconds of execution (valid + wasted).
    pub busy_core_us: u64,
    /// Peak concurrently-live requests.
    pub peak_live: u32,
    /// Peak model memory footprint of the engine (bytes), sampled every
    /// 8192 arrivals and at the end of the run. A deterministic
    /// accounting with fixed per-entry charges, not host RSS.
    pub peak_mem_bytes: u64,
    /// Top tenants by completed requests.
    pub top_tenants: SpaceSaving<u32>,
    /// Cores the run was sized to.
    pub cores: u32,
    /// Warm-pool capacity the run was sized to.
    pub warm_capacity: u32,
    /// Container creations started ahead of demand by the prewarm
    /// policy (0 under the default no-prewarm policy).
    pub prewarm_issued: u64,
}

impl ScaleStats {
    /// Mean end-to-end latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.latency.mean() / 1_000.0
    }

    /// Fraction of container acquisitions that were cold.
    pub fn cold_rate(&self) -> f64 {
        let total = self.cold_starts + self.warm_starts;
        if total == 0 {
            0.0
        } else {
            self.cold_starts as f64 / total as f64
        }
    }

    /// Fraction of core time spent on squashed (wasted) work.
    pub fn wasted_frac(&self) -> f64 {
        if self.busy_core_us == 0 {
            0.0
        } else {
            self.wasted_core_us as f64 / self.busy_core_us as f64
        }
    }
}

/// Per-stage runtime state of a live request (slab-pooled).
#[derive(Debug, Clone, Copy, Default)]
struct StageRt {
    exec: SimDuration,
    /// This branch stage will mispredict (drawn at arrival).
    mispredict: bool,
    /// The first run of this stage is invalid (predecessor mispredicted).
    squash: bool,
    /// Memo hit: skip execution entirely (ignored while `squash`).
    memo: bool,
    /// A container is currently held.
    held_container: bool,
    /// Squashed first run finished; valid re-run pending predecessor.
    awaiting_rerun: bool,
    /// The stage's valid execution has completed.
    valid_done: bool,
    /// Cores currently held (0 when not running).
    running_width: u32,
}

/// A live request's state (slab-pooled; `stages` keeps its capacity
/// across reuse, so steady state allocates nothing per request).
#[derive(Debug, Default)]
struct Req {
    tenant: u32,
    template: u32,
    arrive: SimTime,
    committed: u16,
    /// False for warmup requests, whose latency is not recorded.
    measured: bool,
    stages: Vec<StageRt>,
}

#[derive(Debug)]
enum Ev {
    /// Consume the next trace arrival.
    Arrive,
    /// Try to begin (or re-run) a stage.
    Start { req: u32, stage: u16 },
    /// A stage's execution finished.
    Done { req: u32, stage: u16 },
    /// A cold container for `gfunc` finished creating.
    ColdReady { gfunc: u32 },
    /// The request's response returned to the client.
    Complete { req: u32 },
}

/// A stage waiting in a per-function cold-start queue.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    req: u32,
    stage: u16,
    /// Next waiter in the same queue, or the next free node ([`NIL`] at
    /// the end).
    next: u32,
}

/// One function's cold-start state.
#[derive(Debug, Clone, Copy)]
struct ColdSlot {
    /// Cold creations in flight (demand-started ones are bounded by
    /// [`MAX_CONCURRENT_COLD_STARTS`]).
    creating: u32,
    /// First and last waiter node ([`NIL`] when nobody waits).
    head: u32,
    tail: u32,
    /// Waiters queued.
    len: u32,
    /// The capacity a `VecDeque` holding this queue would have: 4 on
    /// the first push, doubling whenever `len` outgrows it, dropped when
    /// the queue drains. Only the memory model reads it.
    cap: u32,
}

/// Per-function cold-start state, indexed by global function id: the
/// creations in flight and a FIFO of stages waiting for a container
/// (cold-start coalescing: a queue drains via [`ScaleEngine::handoff`]).
/// All queues thread through one node arena with a free chain, so
/// queueing allocates nothing once the arena has grown to the peak
/// number of waiters.
#[derive(Debug)]
struct ColdStarts {
    slots: Vec<ColdSlot>,
    nodes: Vec<Waiter>,
    /// First free node ([`NIL`] when the arena is full).
    free: u32,
}

impl ColdStarts {
    fn new(functions: u32) -> ColdStarts {
        let empty = ColdSlot {
            creating: 0,
            head: NIL,
            tail: NIL,
            len: 0,
            cap: 0,
        };
        ColdStarts {
            slots: vec![empty; functions as usize],
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Queues `(req, stage)` behind `gfunc`'s other waiters.
    fn push(&mut self, gfunc: u32, req: u32, stage: u16) {
        let waiter = Waiter {
            req,
            stage,
            next: NIL,
        };
        let node = match self.free {
            NIL => {
                self.nodes.push(waiter);
                (self.nodes.len() - 1) as u32
            }
            n => {
                self.free = self.nodes[n as usize].next;
                self.nodes[n as usize] = waiter;
                n
            }
        };
        let q = &mut self.slots[gfunc as usize];
        match q.tail {
            NIL => q.head = node,
            t => self.nodes[t as usize].next = node,
        }
        q.tail = node;
        q.len += 1;
        if q.len > q.cap {
            q.cap = (q.cap * 2).max(4);
        }
    }

    /// Dequeues `gfunc`'s longest-waiting stage.
    fn pop(&mut self, gfunc: u32) -> Option<(u32, u16)> {
        let q = &mut self.slots[gfunc as usize];
        let node = q.head;
        if node == NIL {
            return None;
        }
        let Waiter { req, stage, next } = self.nodes[node as usize];
        q.head = next;
        q.len -= 1;
        if next == NIL {
            q.tail = NIL;
            q.cap = 0;
        }
        self.nodes[node as usize].next = self.free;
        self.free = node;
        Some((req, stage))
    }

    /// Model footprint in bytes: 48 plus 8 per unit of modelled capacity
    /// for every non-empty queue, and 16 per function with a creation in
    /// flight.
    fn mem_bytes(&self) -> u64 {
        self.slots
            .iter()
            .map(|q| {
                let queue = if q.len > 0 {
                    48 + 8 * u64::from(q.cap)
                } else {
                    0
                };
                queue + if q.creating > 0 { 16 } else { 0 }
            })
            .sum()
    }
}

/// The flow-level multi-tenant scale engine. Construct with
/// [`ScaleEngine::new`], drive to completion with [`ScaleEngine::run`].
pub struct ScaleEngine {
    cfg: ScaleConfig,
    fleet: Fleet,
    model: OverheadModel,
    sim: Simulator<Ev>,
    rng: SimRng,
    gen: TraceGen,
    batch: Vec<Arrival>,
    batch_pos: usize,
    pool: WarmPool,
    /// Per-function cold creations in flight and waiter queues.
    cold: ColdStarts,
    /// Keep-alive policy threaded into every pool acquire/release.
    keepalive: Box<dyn KeepAlivePolicy>,
    /// Prewarm policy consulted at each container acquisition.
    prewarm: Box<dyn PrewarmPolicy>,
    /// Scratch prewarm-target list (reused per acquisition).
    prewarm_scratch: Vec<u32>,
    /// Container creations started ahead of demand.
    prewarm_issued: u64,
    warmup_requests: u64,
    cores: u32,
    free_cores: u32,
    waiters: VecDeque<(u32, u16)>,
    slab: Vec<Req>,
    free: Vec<u32>,
    live: u32,
    // Streaming metrics.
    latency: LogHistogram,
    top_tenants: SpaceSaving<u32>,
    completed: u64,
    wasted_core_us: u64,
    busy_core_us: u64,
    peak_live: u32,
    peak_mem_bytes: u64,
    arrivals_seen: u64,
}

impl ScaleEngine {
    /// Builds an engine over `templates` for the given config,
    /// auto-sizing cores and warm capacity where the config says 0.
    pub fn new(cfg: ScaleConfig, templates: Vec<Arc<TemplateProfile>>) -> ScaleEngine {
        let fleet = Fleet::new(templates, cfg.trace.tenants);
        let model = OverheadModel::default();
        let peak_rps = cfg.trace.mean_rps * (1.0 + cfg.trace.diurnal_amplitude);
        let cores = if cfg.cores > 0 {
            cfg.cores
        } else {
            // Peak core demand over a ~50 % utilization target, so queues
            // stay bounded through diurnal peaks even with squash re-runs.
            let demand = peak_rps * fleet.mean_core_demand().as_secs_f64();
            ((demand / 0.5).ceil() as u32).max(64)
        }
        .max(fleet.max_stage_width());
        let keepalive = cfg.policy.build_keepalive();
        let prewarm = cfg.policy.build_prewarm();
        let warm_capacity = if cfg.warm_capacity > 0 {
            cfg.warm_capacity
        } else {
            // One keep-alive slot per function, doubled plus headroom for
            // the concurrency duplicates hot functions accumulate
            // (calibrated at the 1000-tenant tier: below ~2.2x gfuncs the
            // pool evicts tail functions every diurnal peak and means
            // inflate 10x; above it results are capacity-insensitive).
            let g = fleet.total_gfuncs() as u64;
            (g * 2 + 4096).clamp(256, 262_144) as u32
        };
        let warmup_requests = if cfg.warmup_requests > 0 {
            cfg.warmup_requests
        } else {
            cfg.trace.requests / 20
        };
        let gen = TraceGen::new(cfg.trace.clone());
        let rng = SimRng::seed(cfg.trace.seed ^ 0x5CA1_E0E0_F1EE_7001);
        let cold = ColdStarts::new(fleet.total_gfuncs());
        let mut pool = WarmPool::new(warm_capacity);
        if cfg.prewarm {
            // Seeded through the policy: no-keep-alive fleets start cold
            // (their seed containers are torn down on the spot), and a
            // TTL decays the seed stock like any other idle container.
            for g in 0..fleet.total_gfuncs() {
                pool.release(g, SimTime::ZERO, &*keepalive);
            }
        }
        ScaleEngine {
            cfg,
            fleet,
            model,
            sim: Simulator::new(),
            rng,
            gen,
            batch: Vec::with_capacity(ARRIVAL_BATCH),
            batch_pos: 0,
            pool,
            cold,
            keepalive,
            prewarm,
            prewarm_scratch: Vec::new(),
            prewarm_issued: 0,
            warmup_requests,
            cores,
            free_cores: cores,
            waiters: VecDeque::new(),
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
            latency: LogHistogram::new(),
            top_tenants: SpaceSaving::new(32),
            completed: 0,
            wasted_core_us: 0,
            busy_core_us: 0,
            peak_live: 0,
            peak_mem_bytes: 0,
            arrivals_seen: 0,
        }
    }

    /// Runs the trace to completion and returns the streaming stats.
    pub fn run(mut self) -> ScaleStats {
        if self.refill_if_needed() {
            let t = self.batch[self.batch_pos].time;
            self.sim.schedule_at(t, Ev::Arrive);
        }
        while let Some((now, ev)) = self.sim.step() {
            match ev {
                Ev::Arrive => self.on_arrive(now),
                Ev::Start { req, stage } => self.on_start(now, req, stage),
                Ev::Done { req, stage } => self.on_done(now, req, stage),
                Ev::ColdReady { gfunc } => self.on_cold_ready(now, gfunc),
                Ev::Complete { req } => self.on_complete(now, req),
            }
        }
        self.sample_mem();
        assert_eq!(
            self.completed, self.cfg.trace.requests,
            "scale run must drain every request"
        );
        ScaleStats {
            completed: self.completed,
            sim_span: self.sim.now().saturating_since(SimTime::ZERO),
            latency: self.latency,
            cold_starts: self.pool.cold_starts,
            warm_starts: self.pool.warm_starts,
            evictions: self.pool.evictions,
            wasted_core_us: self.wasted_core_us,
            busy_core_us: self.busy_core_us,
            peak_live: self.peak_live,
            peak_mem_bytes: self.peak_mem_bytes,
            top_tenants: self.top_tenants,
            cores: self.cores,
            warm_capacity: self.pool.capacity(),
            prewarm_issued: self.prewarm_issued,
        }
    }

    /// Ensures the batch cursor points at an unconsumed arrival. Returns
    /// false when the trace is exhausted.
    fn refill_if_needed(&mut self) -> bool {
        if self.batch_pos < self.batch.len() {
            return true;
        }
        self.batch.clear();
        self.batch_pos = 0;
        self.gen.fill(&mut self.batch, ARRIVAL_BATCH) > 0
    }

    fn on_arrive(&mut self, now: SimTime) {
        let a = self.batch[self.batch_pos];
        self.batch_pos += 1;
        debug_assert_eq!(a.time, now);

        // Slab-pooled request state.
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slab.push(Req::default());
                (self.slab.len() - 1) as u32
            }
        };
        let template = self.fleet.template_index(a.tenant);
        let n_stages = self.fleet.template_of(a.tenant).stages.len();
        let speculative = self.cfg.speculative;
        {
            let req = &mut self.slab[idx as usize];
            req.tenant = a.tenant;
            req.template = template;
            req.arrive = now;
            req.committed = 0;
            req.measured = a.seq >= self.warmup_requests;
            req.stages.clear();
        }
        // Per-request draws happen here, in a fixed order (jitter,
        // mispredict, memo per stage), so the RNG stream is identical for
        // the baseline and speculative engines over the same trace.
        for s in 0..n_stages {
            let u_jit = self.rng.uniform_f64();
            let u_mis = self.rng.uniform_f64();
            let u_memo = self.rng.uniform_f64();
            let sp = self.fleet.templates[template as usize].stages[s];
            let mut rt = StageRt {
                exec: sp.exec.mul_f64(0.85 + 0.3 * u_jit),
                memo: speculative && u_memo < self.cfg.memo_hit,
                ..StageRt::default()
            };
            if speculative && sp.branch && u_mis < self.cfg.mispredict {
                rt.mispredict = true;
            }
            self.slab[idx as usize].stages.push(rt);
        }
        if speculative {
            for s in 1..n_stages {
                if self.slab[idx as usize].stages[s - 1].mispredict {
                    self.slab[idx as usize].stages[s].squash = true;
                }
            }
        }

        // Launch.
        if speculative {
            // The Sequence Table launches every stage up front, one
            // spec-launch service time apart.
            let base = now + self.model.platform_fixed;
            for s in 0..n_stages {
                let at = base + self.model.spec_launch_service.mul_f64((s + 1) as f64);
                self.sim.schedule_at(
                    at,
                    Ev::Start {
                        req: idx,
                        stage: s as u16,
                    },
                );
            }
        } else {
            let at = now + self.model.platform_fixed + self.model.controller_service;
            self.sim.schedule_at(at, Ev::Start { req: idx, stage: 0 });
        }

        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.arrivals_seen += 1;
        if self.arrivals_seen.is_multiple_of(MEM_SAMPLE_EVERY) {
            self.sample_mem();
        }

        // Schedule the next arrival (batched refills off the hot path).
        if self.refill_if_needed() {
            let t = self.batch[self.batch_pos].time;
            self.sim.schedule_at(t, Ev::Arrive);
        }
    }

    fn on_start(&mut self, now: SimTime, req: u32, stage: u16) {
        let tenant = self.slab[req as usize].tenant;
        let rt = self.slab[req as usize].stages[stage as usize];
        // Memo hit: skip execution — one Data-Buffer hop, no container,
        // no cores. Not honored while the stage is squash-tainted.
        if rt.memo && !rt.squash {
            self.sim
                .schedule_at(now + self.model.data_buffer_hop, Ev::Done { req, stage });
            return;
        }
        // Container acquisition (once per acquisition cycle). A miss
        // queues the stage per-function; it resumes via handoff when a
        // cold creation finishes or a busy container recycles.
        if !rt.held_container {
            let g = self.fleet.gfunc(tenant, stage);
            self.maybe_prewarm(now, g);
            if self.pool.acquire(g, now, &*self.keepalive) {
                self.slab[req as usize].stages[stage as usize].held_container = true;
            } else {
                self.cold.push(g, req, stage);
                let creating = &mut self.cold.slots[g as usize].creating;
                if *creating < MAX_CONCURRENT_COLD_STARTS {
                    *creating += 1;
                    self.sim
                        .schedule_at(now + self.model.cold_start(), Ev::ColdReady { gfunc: g });
                }
                return;
            }
        }
        // Core admission: FIFO, no overtaking.
        let width = self.stage_width(req, stage);
        if self.free_cores >= width && self.waiters.is_empty() {
            self.begin_exec(now, req, stage, width);
        } else {
            self.waiters.push_back((req, stage));
        }
    }

    /// A cold creation for `gfunc` finished: hand the fresh container to
    /// the next queued waiter, or pool it if the queue already drained
    /// via recycling.
    fn on_cold_ready(&mut self, now: SimTime, gfunc: u32) {
        self.cold.slots[gfunc as usize].creating -= 1;
        if !self.handoff(gfunc) {
            self.pool.release(gfunc, now, &*self.keepalive);
        }
    }

    /// Gives the prewarm policy its per-acquisition hook: predicted
    /// successors of `gfunc` with no idle container and no creation in
    /// flight begin warming through the ordinary cold-start machinery
    /// (so a prewarmed container hands off to queued waiters exactly
    /// like a demand-started one, and pooling it on completion respects
    /// the capacity bound by construction).
    fn maybe_prewarm(&mut self, now: SimTime, gfunc: u32) {
        let mut targets = std::mem::take(&mut self.prewarm_scratch);
        targets.clear();
        self.prewarm.on_invoke(gfunc, &mut targets);
        for &p in &targets {
            let creating = &mut self.cold.slots[p as usize].creating;
            if *creating == 0 && self.pool.idle_count(p) == 0 {
                *creating = 1;
                self.prewarm_issued += 1;
                self.sim
                    .schedule_at(now + self.model.cold_start(), Ev::ColdReady { gfunc: p });
            }
        }
        self.prewarm_scratch = targets;
    }

    /// Pops the next per-function cold waiter, if any, gives it the
    /// container, and reschedules its start. Returns false when nobody is
    /// waiting for `gfunc`.
    fn handoff(&mut self, gfunc: u32) -> bool {
        let Some((req, stage)) = self.cold.pop(gfunc) else {
            return false;
        };
        self.slab[req as usize].stages[stage as usize].held_container = true;
        self.sim.schedule_now(Ev::Start { req, stage });
        true
    }

    fn stage_width(&self, req: u32, stage: u16) -> u32 {
        let tpl = self.slab[req as usize].template as usize;
        self.fleet.templates[tpl].stages[stage as usize].width
    }

    fn begin_exec(&mut self, now: SimTime, req: u32, stage: u16, width: u32) {
        self.free_cores -= width;
        let rt = &mut self.slab[req as usize].stages[stage as usize];
        rt.running_width = width;
        let exec = rt.exec;
        self.sim.schedule_at(now + exec, Ev::Done { req, stage });
    }

    fn on_done(&mut self, now: SimTime, req: u32, stage: u16) {
        let rt = self.slab[req as usize].stages[stage as usize];
        let width = rt.running_width;
        if width > 0 {
            self.free_cores += width;
            let core_us = rt.exec.as_micros() * width as u64;
            self.busy_core_us += core_us;
            if rt.squash {
                self.wasted_core_us += core_us;
            }
            let r = &mut self.slab[req as usize].stages[stage as usize];
            r.running_width = 0;
        }
        if rt.held_container {
            let g = self.fleet.gfunc(self.slab[req as usize].tenant, stage);
            // Recycle directly to a queued waiter when one exists; the
            // container only returns to the idle pool otherwise.
            if !self.handoff(g) {
                self.pool.release(g, now, &*self.keepalive);
            }
            let r = &mut self.slab[req as usize].stages[stage as usize];
            r.held_container = false;
        }

        if rt.squash {
            // First (invalid) run finished. The valid re-run may only
            // start once the mispredicted predecessor has resolved.
            let r = &mut self.slab[req as usize].stages[stage as usize];
            r.squash = false;
            let pred_done =
                stage == 0 || self.slab[req as usize].stages[stage as usize - 1].valid_done;
            if pred_done {
                self.sim.schedule_now(Ev::Start { req, stage });
            } else {
                self.slab[req as usize].stages[stage as usize].awaiting_rerun = true;
            }
            self.drain_waiters(now);
            return;
        }

        // Valid completion.
        self.slab[req as usize].stages[stage as usize].valid_done = true;
        let n = self.slab[req as usize].stages.len() as u16;
        if stage + 1 < n {
            // Feed the observed chain edge to the prewarm policy (a
            // no-op under the default no-prewarm policy).
            let tenant = self.slab[req as usize].tenant;
            let from = self.fleet.gfunc(tenant, stage);
            let to = self.fleet.gfunc(tenant, stage + 1);
            self.prewarm.observe(from, to);
        }
        if self.cfg.speculative {
            // Wake a squashed successor waiting on this resolution.
            if stage + 1 < n && self.slab[req as usize].stages[stage as usize + 1].awaiting_rerun {
                self.slab[req as usize].stages[stage as usize + 1].awaiting_rerun = false;
                self.sim.schedule_now(Ev::Start {
                    req,
                    stage: stage + 1,
                });
            }
        } else if stage + 1 < n {
            // Sequential chain: conductor hop to the next function.
            let hop = self.model.transfer_fixed
                + self.model.conductor_service
                + self.model.controller_service;
            self.sim.schedule_at(
                now + hop,
                Ev::Start {
                    req,
                    stage: stage + 1,
                },
            );
        }

        // In-order commit cursor.
        {
            let r = &mut self.slab[req as usize];
            while (r.committed as usize) < r.stages.len()
                && r.stages[r.committed as usize].valid_done
            {
                r.committed += 1;
            }
            if r.committed == n {
                let tail = if self.cfg.speculative {
                    self.model.response_return + self.model.spec_commit_service.mul_f64(n as f64)
                } else {
                    self.model.response_return
                };
                self.sim.schedule_at(now + tail, Ev::Complete { req });
            }
        }
        self.drain_waiters(now);
    }

    fn drain_waiters(&mut self, now: SimTime) {
        while let Some(&(req, stage)) = self.waiters.front() {
            let width = self.stage_width(req, stage);
            if self.free_cores < width {
                break;
            }
            self.waiters.pop_front();
            self.begin_exec(now, req, stage, width);
        }
    }

    fn on_complete(&mut self, now: SimTime, req: u32) {
        let (tenant, arrive, measured) = {
            let r = &self.slab[req as usize];
            (r.tenant, r.arrive, r.measured)
        };
        if measured {
            self.latency
                .record(now.saturating_since(arrive).as_micros());
        }
        self.top_tenants.add(tenant);
        self.completed += 1;
        self.live -= 1;
        // Return the slot (and its stage Vec's capacity) to the pool.
        self.free.push(req);
    }

    /// Samples the approximate live memory footprint: tenant directory,
    /// warm-pool bookkeeping, request slab, waiter queues, arrival batch,
    /// and streaming metric storage. This is a model-level accounting
    /// (deterministic across hosts), not host RSS.
    ///
    /// The per-function terms are a contract, not a measurement of the
    /// structures that hold the state today. `peak_mem_bytes` is a
    /// checked output (the committed scale artifact and its golden, and
    /// the host-time benchmark's expected model outputs), so they keep
    /// the charges they were defined with, when the state lived in hash
    /// maps:
    ///
    /// * warm pool: 56 bytes per function with idle stock;
    /// * cold-start waiters: for each non-empty queue, 48 bytes plus 8 per
    ///   unit of the capacity a `VecDeque` holding it would have (4 on
    ///   the first push, doubling when outgrown, reset when the queue
    ///   drains);
    /// * cold creations: 16 bytes per function with one in flight.
    fn sample_mem(&mut self) {
        let slab_bytes: usize = self.slab.capacity() * std::mem::size_of::<Req>()
            + self
                .slab
                .iter()
                .map(|r| r.stages.capacity() * std::mem::size_of::<StageRt>())
                .sum::<usize>();
        let mem = self.fleet.mem_bytes()
            + self.pool.mem_bytes()
            + slab_bytes as u64
            + (self.waiters.capacity() * 8) as u64
            + self.cold.mem_bytes()
            + (self.batch.capacity() * 20) as u64
            + (self.latency.bucket_storage() * 8) as u64
            + (self.gen.zipf().mem_bytes());
        self.peak_mem_bytes = self.peak_mem_bytes.max(mem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_templates() -> Vec<Arc<TemplateProfile>> {
        vec![
            Arc::new(TemplateProfile::synthetic("chain4", &[5, 8, 6, 4], &[1])),
            Arc::new(TemplateProfile::synthetic(
                "chain6",
                &[3, 5, 5, 7, 4, 2],
                &[2, 4],
            )),
        ]
    }

    fn toy_trace(tenants: u32, requests: u64, seed: u64) -> TraceConfig {
        let mut t = TraceConfig::new(tenants, requests, seed);
        t.mean_rps = 400.0;
        t.diurnal_period = SimDuration::from_secs(20);
        t
    }

    #[test]
    fn fleet_interns_dense_gfunc_ids() {
        let fleet = Fleet::new(toy_templates(), 5);
        // Tenants alternate 4-stage / 6-stage templates.
        assert_eq!(fleet.gfunc(0, 0), 0);
        assert_eq!(fleet.gfunc(1, 0), 4);
        assert_eq!(fleet.gfunc(2, 0), 10);
        assert_eq!(fleet.gfunc(2, 3), 13);
        assert_eq!(fleet.total_gfuncs(), 4 + 6 + 4 + 6 + 4);
        // Ids are dense and non-overlapping.
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..5u32 {
            for s in 0..fleet.template_of(t).stages.len() as u16 {
                assert!(seen.insert(fleet.gfunc(t, s)));
            }
        }
        assert_eq!(seen.len() as u32, fleet.total_gfuncs());
    }

    #[test]
    fn warm_pool_caps_idle_and_evicts_lru() {
        let ka = crate::policy::DefaultKeepAlive;
        let t = SimTime::ZERO;
        let mut p = WarmPool::new(2);
        p.release(10, t, &ka);
        p.release(11, t, &ka);
        p.release(12, t, &ka); // evicts gfunc 10 (oldest)
        assert_eq!(p.idle_total(), 2);
        assert_eq!(p.evictions, 1);
        assert!(!p.acquire(10, t, &ka), "evicted function must be cold");
        assert!(p.acquire(11, t, &ka));
        assert!(p.acquire(12, t, &ka));
        assert_eq!(p.warm_starts, 2);
        assert_eq!(p.cold_starts, 1);
        assert_eq!(p.idle_total(), 0);
    }

    #[test]
    fn warm_pool_refreshes_recency_on_release() {
        let ka = crate::policy::DefaultKeepAlive;
        let t = SimTime::ZERO;
        let mut p = WarmPool::new(2);
        p.release(1, t, &ka);
        p.release(2, t, &ka);
        assert!(p.acquire(1, t, &ka));
        p.release(1, t, &ka); // 1 is now fresher than 2
        p.release(3, t, &ka); // evicts 2
        assert!(!p.acquire(2, t, &ka));
        assert!(p.acquire(1, t, &ka));
        assert!(p.acquire(3, t, &ka));
    }

    #[test]
    fn warm_pool_ttl_expires_whole_entries() {
        let ka = crate::policy::FixedTtlKeepAlive {
            ttl: SimDuration::from_millis(10),
        };
        let mut p = WarmPool::new(8);
        p.release(5, SimTime::ZERO, &ka);
        // Within the TTL the container is still warm.
        assert!(p.acquire(5, SimTime::ZERO + SimDuration::from_millis(5), &ka));
        p.release(5, SimTime::ZERO + SimDuration::from_millis(5), &ka);
        // Past the TTL the entry is expired and counted as evicted.
        assert!(!p.acquire(5, SimTime::ZERO + SimDuration::from_millis(20), &ka));
        assert_eq!(p.evictions, 1);
    }

    #[test]
    fn warm_pool_no_keepalive_never_pools() {
        let ka = crate::policy::NoKeepAlive;
        let mut p = WarmPool::new(8);
        p.release(3, SimTime::ZERO, &ka);
        assert_eq!(p.idle_total(), 0);
        assert_eq!(p.evictions, 1);
        assert!(!p.acquire(3, SimTime::ZERO, &ka));
    }

    #[test]
    fn cold_queues_match_vecdeque_accounting() {
        // Each function's waiter queue must pop in FIFO order, and its
        // modelled capacity must equal that of a real `VecDeque` that is
        // dropped whenever it drains.
        let mut cold = ColdStarts::new(6);
        let mut reference: Vec<VecDeque<(u32, u16)>> = vec![VecDeque::new(); 6];
        let mut rng = SimRng::seed(41);
        for i in 0..20_000u32 {
            let g = rng.uniform_u64(6) as u32;
            let q = &mut reference[g as usize];
            // Push-heavy phases then pop-heavy ones, so queues grow well
            // past their first capacity and drain completely.
            if rng.uniform_u64(100) < if i % 4_000 < 2_000 { 70 } else { 30 } {
                let stage = (i % 7) as u16;
                cold.push(g, i, stage);
                q.push_back((i, stage));
            } else {
                let want = q.pop_front();
                if q.is_empty() {
                    *q = VecDeque::new();
                }
                assert_eq!(cold.pop(g), want);
            }
            let modelled: u64 = reference
                .iter()
                .filter(|q| !q.is_empty())
                .map(|q| 48 + 8 * q.capacity() as u64)
                .sum();
            assert_eq!(cold.mem_bytes(), modelled, "after operation {i}");
        }
    }

    #[test]
    fn scale_seq_table_prewarm_issues_creations() {
        let mut cfg = ScaleConfig::new(toy_trace(10, 4_000, 7), false);
        cfg.prewarm = false; // start cold so the policy has work to do
        cfg.policy.prewarm = crate::policy::PrewarmChoice::SeqTable;
        let stats = ScaleEngine::new(cfg, toy_templates()).run();
        assert_eq!(stats.completed, 4_000);
        assert!(
            stats.prewarm_issued > 0,
            "chained stages must trigger seq-table prewarms"
        );
    }

    #[test]
    fn scale_default_policy_matches_legacy_behaviour() {
        // The pluggable default policy must leave the flow-level engine's
        // results exactly where the hard-coded LRU pool had them.
        let mk = |policy: PolicyConfig| {
            let mut cfg = ScaleConfig::new(toy_trace(16, 3_000, 23), true);
            cfg.policy = policy;
            ScaleEngine::new(cfg, toy_templates()).run()
        };
        let a = mk(PolicyConfig::default());
        let b = mk(PolicyConfig::platform_default());
        assert_eq!(a.latency.sum(), b.latency.sum());
        assert_eq!(a.cold_starts, b.cold_starts);
        assert_eq!(a.evictions, b.evictions);
        assert_eq!(a.prewarm_issued, 0);
    }

    #[test]
    fn scale_run_drains_every_request() {
        let cfg = ScaleConfig::new(toy_trace(10, 2_000, 7), false);
        let stats = ScaleEngine::new(cfg, toy_templates()).run();
        assert_eq!(stats.completed, 2_000);
        // 5 % warmup excluded from the latency distribution.
        assert_eq!(stats.latency.count(), 2_000 - 100);
        assert!(stats.peak_live > 0);
        assert!(stats.peak_mem_bytes > 0);
    }

    #[test]
    fn speculation_beats_baseline_at_flow_level() {
        let trace = toy_trace(20, 4_000, 11);
        let base = ScaleEngine::new(ScaleConfig::new(trace.clone(), false), toy_templates()).run();
        let spec = ScaleEngine::new(ScaleConfig::new(trace, true), toy_templates()).run();
        assert_eq!(base.completed, spec.completed);
        let win = base.mean_ms() / spec.mean_ms();
        assert!(win > 1.2, "speculation win {win:.2}x should exceed 1.2x");
        assert!(spec.wasted_core_us > 0, "mispredictions must waste cores");
        assert!(spec.wasted_frac() < 0.5, "waste should stay bounded");
    }

    #[test]
    fn scale_runs_are_deterministic() {
        for speculative in [false, true] {
            let mk = || {
                ScaleEngine::new(
                    ScaleConfig::new(toy_trace(16, 3_000, 23), speculative),
                    toy_templates(),
                )
                .run()
            };
            let (a, b) = (mk(), mk());
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.latency.sum(), b.latency.sum());
            assert_eq!(a.latency.quantile(0.99), b.latency.quantile(0.99));
            assert_eq!(a.cold_starts, b.cold_starts);
            assert_eq!(a.wasted_core_us, b.wasted_core_us);
            assert_eq!(a.peak_mem_bytes, b.peak_mem_bytes);
        }
    }

    #[test]
    fn tail_tenants_run_colder_than_hot_tenants() {
        // Tight warm capacity: the Zipf tail must churn cold.
        let mut cfg = ScaleConfig::new(toy_trace(200, 20_000, 31), false);
        cfg.warm_capacity = 64;
        let stats = ScaleEngine::new(cfg, toy_templates()).run();
        assert!(stats.cold_starts > 0);
        assert!(stats.warm_starts > 0);
        assert!(stats.evictions > 0, "tight pool must evict");
        // Hot tenants dominate completions.
        let top = stats.top_tenants.top();
        assert!(!top.is_empty());
    }

    #[test]
    fn slab_is_reused_not_grown() {
        // Long enough that the cold-start warmup herd (which legitimately
        // inflates live concurrency for the first simulated seconds) is a
        // small fraction of the run.
        let cfg = ScaleConfig::new(toy_trace(8, 20_000, 3), false);
        let stats = ScaleEngine::new(cfg, toy_templates()).run();
        // Peak live concurrency bounds the slab; 20k requests must not
        // mean 20k slots.
        assert!(
            (stats.peak_live as u64) < stats.completed / 2,
            "peak_live {} vs completed {}",
            stats.peak_live,
            stats.completed
        );
    }

    #[test]
    fn churn_policy_stack_is_pinned() {
        // The churn workload's stack, keepalive=ttl:100ms+prewarm=seq-table,
        // on 30 tenants (150 functions) sharing a pool of 40 idle
        // containers: capacity eviction, TTL expiry (cold starts take
        // longer than the TTL), cold-start coalescing behind the
        // per-function creation cap and seq-table prewarm all fire in both
        // engines, and the memory sample at arrival 8192 sees queued
        // waiters and creations in flight. Every figure is exact; any
        // change to the pool, the waiter queues or the prewarm table that
        // moves one is a change in behaviour, not an optimisation.
        let policy = PolicyConfig::parse("keepalive=ttl:100ms+prewarm=seq-table").unwrap();
        let run = |speculative| {
            let mut trace = toy_trace(30, 10_000, 17);
            trace.mean_rps = 150.0;
            let mut cfg = ScaleConfig::new(trace, speculative);
            cfg.warm_capacity = 40;
            cfg.policy = policy;
            let s = ScaleEngine::new(cfg, toy_templates()).run();
            vec![
                ("completed", s.completed),
                ("cold_starts", s.cold_starts),
                ("warm_starts", s.warm_starts),
                ("evictions", s.evictions),
                ("prewarm_issued", s.prewarm_issued),
                ("latency_sum_us", s.latency.sum()),
                ("latency_p99_us", s.latency.quantile(0.99)),
                ("busy_core_us", s.busy_core_us),
                ("wasted_core_us", s.wasted_core_us),
                ("peak_live", u64::from(s.peak_live)),
                ("peak_mem_bytes", s.peak_mem_bytes),
            ]
        };
        assert_eq!(
            run(false),
            vec![
                ("completed", 10_000),
                ("cold_starts", 39_374),
                ("warm_starts", 8_936),
                ("evictions", 11_871),
                ("prewarm_issued", 1_193),
                ("latency_sum_us", 34_067_554_403),
                ("latency_p99_us", 9_371_648),
                ("busy_core_us", 242_542_038),
                ("wasted_core_us", 0),
                ("peak_live", 1_432),
                ("peak_mem_bytes", 439_588),
            ]
        );
        assert_eq!(
            run(true),
            vec![
                ("completed", 10_000),
                ("cold_starts", 27_748),
                ("warm_starts", 9_797),
                ("evictions", 12_265),
                ("prewarm_issued", 744),
                ("latency_sum_us", 6_907_200_739),
                ("latency_p99_us", 1_859_584),
                ("busy_core_us", 188_609_143),
                ("wasted_core_us", 6_974_891),
                ("peak_live", 317),
                ("peak_mem_bytes", 182_404),
            ]
        );
    }
}
