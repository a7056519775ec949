//! The SpecFaaS engine: the speculative controller driving the platform
//! substrate (paper §V–§VI).
//!
//! Per application invocation the engine maintains a [`Pipeline`] of
//! program-ordered function slots and a [`DataBuffer`]. It repeatedly
//! picks the next function from the [`SequenceTable`] (predicting branch
//! outcomes and memoizing data dependences), launches it — possibly
//! speculatively — on the cluster, detects mispredictions and dependence
//! violations, squashes and re-launches offenders, and commits functions
//! strictly in order. Persistent structures (sequence table, branch
//! predictor, memoization tables, stall list) live across invocations and
//! are only ever updated with committed, non-speculative data (§V-E).
//!
//! Beneath the controller, instances live in the shared runtime's table
//! and follow its lifecycle ([`specfaas_platform::exec`]); this core maps
//! each one to the pipeline slot it executes, and each slot records its
//! own execution state ([`crate::pipeline::Slot`]).

use specfaas_sim::hash::{FxHashMap, FxHashSet};
use std::sync::Arc;

use specfaas_platform::cluster::NodeId;
use specfaas_platform::exec::{InstEv, InstanceId, InstanceState, KvOp, KvRoll, Step};
use specfaas_platform::metrics::{InvocationRecord, RequestOutcome, RunMetrics};
use specfaas_platform::workload::RequestId;
use specfaas_sim::trace::{Phase, SquashCause, TraceEventKind};
use specfaas_sim::FaultSite;
use specfaas_sim::{SimDuration, SimTime};
use specfaas_storage::Value;
use specfaas_workflow::{branch_outcome, AppSpec, EntryKind, FuncId, Interp, Program};

use crate::config::{SpecConfig, SquashMechanism};
use crate::databuffer::{DataBuffer, ReadResult};
use crate::memo::MemoTables;
use crate::pipeline::{CallRecord, Pipeline, SlotId, SlotRole, SlotState};
use crate::predictor::{BranchPredictor, BranchSite, PathHistory, Prediction};
use crate::seqtable::SequenceTable;
use crate::stall::StallList;
use specfaas_platform::harness::{self, EngineCore, Harness, Runtime, SpecGauges};

/// Events of the speculative engine. Only nameable as the
/// [`EngineCore::Ev`] associated type.
#[doc(hidden)]
#[derive(Debug)]
pub enum Ev {
    Arrival,
    /// An instance-lifecycle event of the shared runtime.
    Inst(InstEv),
    /// Commit controller service finished; apply the commit.
    CommitApply(RequestId, SlotId),
    /// Process-kill / container-kill squash finished; release resources.
    SquashRelease(InstanceId, bool),
    /// Backoff after a slot fault elapsed; the slot may relaunch.
    RetrySlot(RequestId, SlotId),
    /// Final response delivered.
    Complete(RequestId),
}

impl From<InstEv> for Ev {
    fn from(ev: InstEv) -> Self {
        Ev::Inst(ev)
    }
}

/// Why a squash happens (drives reset-vs-remove semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SquashKind {
    /// Control misprediction: wrong-path slots are removed outright.
    WrongPath,
    /// Data misprediction: the first victim re-executes with a corrected
    /// input; everything after it is removed.
    WrongInput,
    /// Data-dependence violation: the first victim re-executes with the
    /// same input (it will now read forwarded data); the rest is removed.
    Violation,
    /// Injected fault on the first victim's instance: it re-executes with
    /// the same input after backoff; dependents are removed and counted
    /// as squashed-due-to-fault.
    Fault,
}

#[derive(Debug)]
struct StalledRead {
    slot: SlotId,
    inst: InstanceId,
    key: String,
    producer: SlotId,
}

/// A committed-knowledge record, applied to the persistent tables only
/// when the whole invocation completes (so speculative data never leaks
/// into them, §V-E).
#[derive(Debug)]
enum Learned {
    Memo {
        func: FuncId,
        input: Value,
        output: Value,
        callee_inputs: Vec<Value>,
    },
    Branch {
        entry: usize,
        path: PathHistory,
        taken: bool,
    },
    Calls {
        caller: FuncId,
        callees: Vec<FuncId>,
    },
}

#[derive(Debug)]
struct Req {
    arrived: SimTime,
    ctrl: NodeId,
    measured: bool,
    /// The in-flight slots, each holding its own execution state.
    pipeline: Pipeline,
    buffer: DataBuffer,
    stalled_reads: Vec<StalledRead>,
    /// Fork-join contributions: join entry → (payloads by pipeline pos).
    fork_joins: FxHashMap<usize, Vec<Value>>,
    /// Commit currently being processed.
    committing: Option<SlotId>,
    learned: Vec<Learned>,
    committed_sequence: Vec<u32>,
    functions_run: u32,
    functions_squashed: u32,
    end_committed: bool,
    completed: bool,
}

/// The SpecFaaS speculative execution engine for one application: a
/// generic [`Harness`] wrapped around the speculative [`SpecCore`].
///
/// # Example
///
/// ```no_run
/// use specfaas_core::{SpecEngine, SpecConfig};
/// # fn app() -> specfaas_workflow::AppSpec { unimplemented!() }
/// let mut engine = SpecEngine::new(std::sync::Arc::new(app()), SpecConfig::full(), 42);
/// engine.prewarm();
/// // Warm the predictor + memoization tables, then measure.
/// engine.run_closed(200, |_rng| specfaas_storage::Value::Null);
/// let metrics = engine.run_closed(100, |_rng| specfaas_storage::Value::Null);
/// println!("mean response: {:.2} ms", metrics.mean_response_ms());
/// ```
pub struct SpecEngine {
    harness: Harness<SpecCore>,
}

impl SpecEngine {
    /// Creates an engine for `app` on the paper's 5-node testbed.
    pub fn new(app: Arc<AppSpec>, config: SpecConfig, seed: u64) -> Self {
        SpecEngine {
            harness: Harness::new(SpecCore::new(app, config, seed)),
        }
    }
}

impl std::ops::Deref for SpecEngine {
    type Target = Harness<SpecCore>;
    fn deref(&self) -> &Self::Target {
        &self.harness
    }
}

impl std::ops::DerefMut for SpecEngine {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.harness
    }
}

/// The speculative engine core: SpecFaaS policy state (sequence table,
/// branch predictor, memoization tables, stall list, pipelines) layered
/// over the shared [`Runtime`]. Drive it through [`SpecEngine`] or any
/// [`Harness`]; on its own it only implements [`EngineCore`].
pub struct SpecCore {
    /// Engine-agnostic runtime substrate (application, clock, RNG,
    /// cluster, storage, faults, tracer, registry, run bookkeeping,
    /// instance table).
    rt: Runtime<Ev>,
    /// Speculation policy.
    pub config: SpecConfig,
    /// Core time a dying handler keeps its core busy between the kill and
    /// its `SquashRelease` (the kill latency). Deliberately *not* part of
    /// [`RunMetrics::squashed_core_time`] (which reproduces the paper's
    /// wasted-CPU attribution at kill time); tracked here so the
    /// conservation invariant `useful + squashed == busy` still closes.
    squash_kill_busy: SimDuration,
    /// `squash_kill_busy` value at tracer install / last end-of-run check.
    kill_busy_base: SimDuration,
    /// Live instances whose launch was speculative (registry-gated).
    /// Every site that removes an instance from `rt.instances` drops it
    /// here too. Feeds the in-flight-speculation gauge without touching
    /// the unconditional instance bookkeeping.
    spec_live: FxHashSet<InstanceId>,
    seqtable: SequenceTable,
    predictor: BranchPredictor,
    memos: MemoTables,
    /// Rows across all memo tables, recounted where they change (request
    /// completion), so the per-event memo gauge reads one field.
    memo_entries: usize,
    stall_list: StallList,
    /// The slot each live, unsquashed instance executes.
    slot_of: FxHashMap<InstanceId, SlotId>,
    /// Lazily squashed instances still running in the background.
    orphans: FxHashSet<InstanceId>,
    requests: FxHashMap<RequestId, Req>,
}

impl std::ops::Deref for SpecCore {
    type Target = Runtime<Ev>;
    fn deref(&self) -> &Self::Target {
        &self.rt
    }
}

impl std::ops::DerefMut for SpecCore {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.rt
    }
}

impl EngineCore for SpecCore {
    type Ev = Ev;
    // Lazy-squash orphans can still be live after the last closed-loop
    // request completes; the spec driver has always drained them so
    // their events cannot leak into a later run. (The baseline has no
    // background work and never drained here — the flag preserves both
    // behaviors bit-identically.)
    const DRAIN_ON_CLOSED: bool = true;

    fn rt(&self) -> &Runtime<Ev> {
        &self.rt
    }

    fn rt_mut(&mut self) -> &mut Runtime<Ev> {
        &mut self.rt
    }

    fn arrival() -> Ev {
        Ev::Arrival
    }

    fn admit(&mut self, input: Value) -> RequestId {
        self.submit_request(input)
    }

    fn dispatch(&mut self, ev: Ev) {
        self.handle(ev);
    }

    fn request_live(&self, req: RequestId) -> bool {
        self.requests.contains_key(&req)
    }

    fn live_requests(&self) -> Vec<RequestId> {
        let mut live: Vec<RequestId> = self.requests.keys().copied().collect();
        live.sort(); // HashMap order is not deterministic
        live
    }

    fn abort(&mut self, req: RequestId) {
        self.abort_request(req);
    }

    fn stuck_requests(&self) -> Vec<String> {
        let mut ids: Vec<RequestId> = self.requests.keys().copied().collect();
        ids.sort(); // HashMap order is not deterministic
        ids.into_iter()
            .map(|rid| {
                let req = &self.requests[&rid];
                let slots: Vec<String> = req
                    .pipeline
                    .iter()
                    .map(|sl| {
                        format!(
                            "{}:{:?}:{:?}(in={} spec={} waited={} defhttp={})",
                            sl.id,
                            sl.func,
                            sl.state,
                            sl.input.is_some(),
                            sl.input_speculative,
                            sl.caller_waiting,
                            sl.run.http_deferred
                        )
                    })
                    .collect();
                format!(
                    "req {:?}: committing={:?} end={} slots=[{}] stalls={}",
                    rid.0,
                    req.committing,
                    req.end_committed,
                    slots.join(", "),
                    req.stalled_reads.len(),
                )
            })
            .collect()
    }

    fn on_tracer_installed(&mut self) {
        self.kill_busy_base = self.squash_kill_busy;
    }

    fn take_unattributed_squash_busy(&mut self) -> SimDuration {
        let delta = self.squash_kill_busy - self.kill_busy_base;
        self.kill_busy_base = self.squash_kill_busy;
        delta
    }

    fn finalize_metrics(&self, m: &mut RunMetrics) {
        m.branch_hits = self.predictor.hit_rate();
        m.memo_hits = self.memos.hit_rate();
    }
}

impl SpecCore {
    /// Creates the speculative core for `app` under `config`, seeded
    /// with `seed`.
    pub fn new(app: Arc<AppSpec>, config: SpecConfig, seed: u64) -> Self {
        let functions = app.registry.len();
        let seqtable = SequenceTable::new(app.compiled.clone());
        SpecCore {
            rt: Runtime::new(app, seed),
            predictor: BranchPredictor::new(config.branch_confidence_window),
            memos: MemoTables::new(functions, config.memo_capacity),
            stall_list: StallList::new(config.stall_after_squashes),
            config,
            squash_kill_busy: SimDuration::ZERO,
            kill_busy_base: SimDuration::ZERO,
            spec_live: FxHashSet::default(),
            memo_entries: 0,
            seqtable,
            slot_of: FxHashMap::default(),
            orphans: FxHashSet::default(),
            requests: FxHashMap::default(),
        }
    }

    /// The branch predictor (for hit-rate reporting).
    pub fn predictor(&self) -> &BranchPredictor {
        &self.predictor
    }

    /// The memoization tables (for hit-rate and size reporting).
    pub fn memos(&self) -> &MemoTables {
        &self.memos
    }

    /// Live instances launched speculatively: the in-flight-speculation
    /// gauge's reading. Counted only while a metrics registry is armed.
    pub fn inflight_speculative(&self) -> usize {
        self.spec_live.len()
    }

    /// The stall list (for squash-minimization statistics).
    pub fn stall_list(&self) -> &StallList {
        &self.stall_list
    }

    /// Samples every occupancy gauge at the current sim-time
    /// ([`Runtime::sample_gauges`]). Called after each handled event; one
    /// branch when the registry is disabled.
    fn sample_gauges(&mut self) {
        if !self.rt.registry.enabled() {
            return;
        }
        debug_assert!(
            self.spec_live
                .iter()
                .all(|id| self.rt.instances.contains_key(id)),
            "an instance left the runtime without leaving spec_live"
        );
        debug_assert_eq!(self.memo_entries, self.memos.total_entries());
        self.rt.sample_gauges(Some(SpecGauges {
            inflight_slots: self.spec_live.len() as u64,
            memo_entries: self.memo_entries as u64,
        }));
    }

    // ------------------------------------------------------------------
    // Request lifecycle
    // ------------------------------------------------------------------

    fn submit_request(&mut self, input: Value) -> RequestId {
        let id = self.rt.alloc_req();
        let ctrl = self.rt.cluster.pick_controller();
        let now = self.rt.sim.now();
        let mut req = Req {
            arrived: now,
            ctrl,
            measured: now >= self.rt.measure_from,
            pipeline: Pipeline::new(),
            buffer: DataBuffer::new(),
            stalled_reads: Vec::new(),
            fork_joins: FxHashMap::default(),
            committing: None,
            learned: Vec::new(),
            committed_sequence: Vec::new(),
            functions_run: 0,
            functions_squashed: 0,
            end_committed: false,
            completed: false,
        };
        let start = self.seqtable.start();
        let func = self.seqtable.func_at(start);
        let slot =
            req.pipeline
                .push_back(func, SlotRole::Entry { entry: start }, PathHistory::start());
        {
            let s = req.pipeline.slot_mut(slot).expect("fresh slot");
            s.input = Some(input);
            s.non_speculative = self.rt.app.registry.spec(func).annotations.non_speculative;
        }
        self.requests.insert(id, req);
        self.rt.metrics.submitted += 1;
        self.rt.registry.inc("specfaas_requests_submitted_total");
        if self.rt.tracer.enabled() {
            self.rt
                .tracer
                .emit(now, TraceEventKind::RequestArrival { req: id.0 });
        }
        // Predict the start function's output so extension can speculate
        // past it immediately.
        self.refresh_prediction(id, slot);
        self.pump(id);
        id
    }

    // ------------------------------------------------------------------
    // Drivers
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival => harness::handle_arrival(self),
            Ev::Inst(InstEv::Launch(id)) => self.rt.on_launch(id),
            Ev::Inst(InstEv::ContainerReady(id)) => self.rt.try_start(id),
            Ev::Inst(InstEv::Resume(id, v)) => self.on_resume(id, v),
            Ev::Inst(InstEv::KvRetry(id, op, attempt)) => self.kv_access(id, op, attempt),
            Ev::Inst(InstEv::Timeout(id)) => {
                if self.rt.watchdog(id) {
                    self.fault(id);
                }
            }
            Ev::CommitApply(req, slot) => self.on_commit_apply(req, slot),
            Ev::SquashRelease(id, reusable) => self.on_squash_release(id, reusable),
            Ev::Complete(req) => self.on_complete(req),
            Ev::RetrySlot(req, slot) => self.on_retry_slot(req, slot),
        }
        // Gauges observe post-event state; a disabled registry makes this
        // a single branch.
        self.sample_gauges();
    }

    /// The request and slot a live, unsquashed instance works for.
    fn attached(&self, id: InstanceId) -> Option<(RequestId, SlotId)> {
        let slot = *self.slot_of.get(&id)?;
        Some((self.rt.instances[&id].req, slot))
    }
}

mod commit;
mod dispatch;
mod exec;
mod squash;

#[cfg(test)]
mod tests;
