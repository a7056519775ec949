//! The baseline execution engine: conventional OpenWhisk-style workflow
//! execution, against which SpecFaaS is compared.
//!
//! Semantics reproduced from §II-B and §III:
//!
//! * Functions execute strictly sequentially: a function is only scheduled
//!   once its control and data dependences are resolved.
//! * Every function launch pays *Platform Overhead* (front-end/controller/
//!   worker communication plus queued controller service).
//! * Every workflow transition pays *Transfer Function Overhead* (worker→
//!   controller communication plus queued conductor execution for explicit
//!   workflows; an RPC hop for implicit calls).
//! * A caller in an implicit workflow blocks — holding its core — while a
//!   callee runs (Fig. 10(d)).
//! * Cold containers pay container creation + runtime setup; warm
//!   containers fork a handler instantly.
//!
//! The instance lifecycle beneath the controller (containers, cores,
//! faults, watchdog) is the shared one in [`crate::exec`]; this core adds
//! the conductor's cursors, eager storage writes and relaunch-on-fault.

use specfaas_sim::hash::FxHashMap;
use std::sync::Arc;

use specfaas_sim::trace::{Phase, TraceEventKind};
use specfaas_sim::SimTime;
use specfaas_storage::Value;
use specfaas_workflow::{branch_outcome, AppSpec, EntryKind, FuncId};

use crate::cluster::NodeId;
use crate::exec::{InstEv, InstanceId, KvOp, KvRoll, Step};
use crate::harness::{self, EngineCore, Harness, Runtime};
use crate::metrics::{InvocationRecord, RequestOutcome};
use crate::workload::RequestId;

/// Events of the baseline engine (exposed only as the [`EngineCore::Ev`]
/// associated type).
#[doc(hidden)]
#[derive(Debug)]
pub enum Ev {
    /// A new application request arrives (the generator re-arms itself).
    Arrival,
    /// An instance-lifecycle event of the shared runtime.
    Inst(InstEv),
    /// Transfer overhead paid; launch workflow entry `entry` of `req` with
    /// the given payload. `from` is the entry that produced the payload:
    /// parallel joins use it to merge branch outputs in declaration order
    /// (compile order), not arrival order, so the merged document is
    /// independent of branch timing — exactly like the speculative
    /// engine's in-order pipeline commit.
    Transfer {
        req: RequestId,
        from: usize,
        entry: usize,
        payload: Value,
    },
    /// Backoff after an instance fault elapsed; relaunch the function.
    Retry {
        /// The request being retried.
        req: RequestId,
        ctx: InstCtx,
        func: FuncId,
        input: Value,
        attempt: u32,
    },
    /// Final response delivered to the client.
    Complete(RequestId),
}

impl From<InstEv> for Ev {
    fn from(ev: InstEv) -> Self {
        Ev::Inst(ev)
    }
}

/// Why an instance exists: a workflow-entry cursor or an implicit callee.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum InstCtx {
    /// Executes this workflow entry.
    Entry(usize),
    /// Executes a subroutine call on behalf of this caller instance.
    Callee(InstanceId),
}

/// What the baseline tracks per live instance.
#[derive(Debug)]
struct Launch {
    /// Why the instance runs.
    ctx: InstCtx,
    /// The retry attempt it executes (1 = first).
    attempt: u32,
}

#[derive(Debug)]
struct ReqState {
    arrived: SimTime,
    ctrl: NodeId,
    /// Number of workflow cursors in flight (forks add, joins subtract).
    cursors: u32,
    /// Join entry → `(source entry, payload)` pairs arrived so far; sorted
    /// by source entry at merge time so the joined list follows branch
    /// declaration order.
    joins: FxHashMap<usize, Vec<(usize, Value)>>,
    functions_run: u32,
    sequence: Vec<u32>,
    /// Counted toward metrics (arrived inside the measurement window)?
    measured: bool,
}

/// The baseline (conventional OpenWhisk) engine for one application: a
/// [`Harness`] wrapped around a [`BaselineCore`].
///
/// # Example
///
/// ```no_run
/// use specfaas_platform::BaselineEngine;
/// # fn app() -> specfaas_workflow::AppSpec { unimplemented!() }
/// let mut engine = BaselineEngine::new(std::sync::Arc::new(app()), 42);
/// engine.prewarm();
/// let metrics = engine.run_closed(100, |_rng| specfaas_storage::Value::Null);
/// println!("mean response: {:.1} ms", metrics.mean_response_ms());
/// ```
pub struct BaselineEngine {
    harness: Harness<BaselineCore>,
}

impl BaselineEngine {
    /// Creates an engine for `app` on the paper's 5-node testbed.
    pub fn new(app: Arc<AppSpec>, seed: u64) -> Self {
        BaselineEngine {
            harness: Harness::new(BaselineCore::new(app, seed)),
        }
    }
}

impl std::ops::Deref for BaselineEngine {
    type Target = Harness<BaselineCore>;
    fn deref(&self) -> &Harness<BaselineCore> {
        &self.harness
    }
}

impl std::ops::DerefMut for BaselineEngine {
    fn deref_mut(&mut self) -> &mut Harness<BaselineCore> {
        &mut self.harness
    }
}

/// The baseline engine core: strictly sequential function scheduling on
/// top of the shared [`Runtime`]. Load drivers and instrument attachment
/// live in the [`Harness`], the instance table and lifecycle in the
/// runtime; only baseline-specific policy state lives here.
pub struct BaselineCore {
    /// Engine-agnostic runtime state (application, clock, RNG, cluster,
    /// KV, faults, tracer, registry, metrics, generation state, instance
    /// table).
    rt: Runtime<Ev>,
    /// Why each live instance runs, and which attempt it is.
    launches: FxHashMap<InstanceId, Launch>,
    requests: FxHashMap<RequestId, ReqState>,
}

impl std::ops::Deref for BaselineCore {
    type Target = Runtime<Ev>;
    fn deref(&self) -> &Runtime<Ev> {
        &self.rt
    }
}

impl std::ops::DerefMut for BaselineCore {
    fn deref_mut(&mut self) -> &mut Runtime<Ev> {
        &mut self.rt
    }
}

impl EngineCore for BaselineCore {
    type Ev = Ev;

    // Leftover events after the last closed-loop request are kept, as the
    // historical baseline driver did (bit-identical refactor rule).
    const DRAIN_ON_CLOSED: bool = false;

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
        let mut stuck: Vec<RequestId> = self.requests.keys().copied().collect();
        stuck.sort(); // HashMap order is not deterministic
        stuck
    }

    fn abort(&mut self, req: RequestId) {
        self.abort_request(req);
    }

    fn stuck_requests(&self) -> Vec<String> {
        self.live_requests()
            .into_iter()
            .map(|rid| {
                let req = &self.requests[&rid];
                let insts: Vec<String> = self
                    .instances_of(rid)
                    .into_iter()
                    .map(|id| {
                        let i = &self.rt.instances[&id];
                        format!("{}:{:?}:{:?}", id.0, i.func, i.state)
                    })
                    .collect();
                format!(
                    "req {}: cursors={} run={} joins={} insts=[{}]",
                    rid.0,
                    req.cursors,
                    req.functions_run,
                    req.joins.len(),
                    insts.join(", "),
                )
            })
            .collect()
    }
}

impl BaselineCore {
    /// Creates the baseline core for `app`, seeded with `seed`.
    pub fn new(app: Arc<AppSpec>, seed: u64) -> Self {
        BaselineCore {
            rt: Runtime::new(app, seed),
            launches: FxHashMap::default(),
            requests: FxHashMap::default(),
        }
    }

    /// The live instances working for `req`, in id order (HashMap order
    /// is not deterministic).
    fn instances_of(&self, req: RequestId) -> Vec<InstanceId> {
        let mut ids: Vec<InstanceId> = self
            .rt
            .instances
            .values()
            .filter(|i| i.req == req)
            .map(|i| i.id)
            .collect();
        ids.sort();
        ids
    }

    /// Submits one request at the current simulated time.
    fn submit_request(&mut self, input: Value) -> RequestId {
        let id = self.rt.alloc_req();
        let ctrl = self.rt.cluster.pick_controller();
        let now = self.rt.sim.now();
        self.requests.insert(
            id,
            ReqState {
                arrived: now,
                ctrl,
                cursors: 1,
                joins: FxHashMap::default(),
                functions_run: 0,
                sequence: Vec::new(),
                measured: now >= self.rt.measure_from,
            },
        );
        self.rt.metrics.submitted += 1;
        self.rt.registry.inc("specfaas_requests_submitted_total");
        if self.rt.tracer.enabled() {
            self.rt
                .tracer
                .emit(now, TraceEventKind::RequestArrival { req: id.0 });
        }
        let start = self.rt.app.compiled.start;
        // The workflow start is never a join target, so `from` is moot.
        self.launch_entry(id, start, usize::MAX, input);
        id
    }

    /// Starts the platform-overhead phase for a workflow entry. `from` is
    /// the entry whose output `payload` is (joins merge by it).
    fn launch_entry(&mut self, req: RequestId, entry: usize, from: usize, payload: Value) {
        let e = &self.rt.app.compiled.entries[entry];
        let (arity, func) = (e.join_arity, e.func);
        let mut input = payload;
        // Parallel join entries only run once all branches arrive.
        if arity > 1 {
            let state = self.requests.get_mut(&req).expect("live request");
            let arrived = state.joins.entry(entry).or_default();
            arrived.push((from, input));
            if (arrived.len() as u32) < arity {
                // This cursor merges into the join.
                state.cursors -= 1;
                return;
            }
            let mut outputs = state.joins.remove(&entry).expect("join present");
            // Declaration order, not arrival order: branch entries are
            // compiled in declaration order, so sorting by source entry
            // makes the merge independent of branch completion timing.
            outputs.sort_by_key(|(from, _)| *from);
            // Earlier arrivals already merged their cursors; the final
            // arrival continues as the single join cursor.
            input = Value::from(outputs.into_iter().map(|(_, v)| v).collect::<Vec<_>>());
        }
        self.spawn_named(req, InstCtx::Entry(entry), func, input, 1);
    }

    /// Creates the instance for retry `attempt` and charges platform
    /// overhead.
    fn spawn_named(
        &mut self,
        req: RequestId,
        ctx: InstCtx,
        func: FuncId,
        input: Value,
        attempt: u32,
    ) -> InstanceId {
        let now = self.rt.sim.now();
        let ctrl = self.requests[&req].ctrl;
        let service = self.rt.model.controller_service;
        let id = self.rt.spawn_instance(req, ctrl, service, func, input);
        self.launches.insert(id, Launch { ctx, attempt });
        if let Some(r) = self.requests.get_mut(&req) {
            r.functions_run += 1;
        }
        if self.rt.tracer.enabled() {
            self.rt.tracer.emit(
                now,
                TraceEventKind::SlotLaunch {
                    req: req.0,
                    slot: id.0,
                    func: func.0,
                    speculative: false,
                },
            );
            let inst = &self.rt.instances[&id];
            let end = now + inst.breakdown.platform;
            inst.trace_span(&mut self.rt.tracer, Phase::Platform, now, end);
        }
        id
    }

    /// Steps a resumed instance and carries out the effect it yields.
    fn on_resume(&mut self, id: InstanceId, resume: Option<Value>) {
        match self.rt.resume_instance(id, resume) {
            Step::Idle => {}
            Step::Crashed => self.fault_instance(id),
            Step::Kv(op) => self.kv_access(id, op, 1),
            Step::Http => {
                let lat = self.rt.model.http_latency;
                if let Some(inst) = self.rt.instances.get_mut(&id) {
                    inst.breakdown.execution += lat;
                }
                self.rt.resume_in(lat, id, None);
            }
            Step::Call(func, args) => {
                // Implicit workflow: the caller's handler blocks on the
                // RPC while the callee runs (Fig. 10(d)); the OS yields
                // its hardware thread (the container slot stays held).
                let req = self.rt.instances[&id].req;
                self.rt.block_instance(id);
                match self.rt.app.registry.lookup(&func) {
                    Some(callee) => {
                        self.spawn_named(req, InstCtx::Callee(id), callee, args, 1);
                    }
                    // Unknown callee: resolve to Null after an RPC hop.
                    None => {
                        let hop = self.rt.model.transfer_fixed;
                        self.rt.resume_in(hop, id, Some(Value::Null));
                    }
                }
            }
            Step::Done(out) => self.finish_instance(id, out),
        }
    }

    /// Credits the finished instance's core time and routes its output
    /// onward.
    fn finish_instance(&mut self, id: InstanceId, output: Value) {
        let now = self.rt.sim.now();
        let ctx = self.launches.remove(&id).expect("instance context").ctx;
        let (inst, core_time) = self.rt.finish_instance(id);
        self.rt.metrics.useful_core_time += core_time;
        let req = inst.req;
        let state = self.requests.get_mut(&req);
        let entry = match ctx {
            InstCtx::Entry(entry) => entry,
            InstCtx::Callee(caller) => {
                if let Some(state) = state {
                    state.sequence.push(inst.func.0);
                }
                // RPC return hop, then resume the blocked caller.
                let hop = self.rt.model.transfer_fixed;
                self.rt.resume_in(hop, caller, Some(output));
                return;
            }
        };
        let Some(state) = state else {
            return;
        };
        state.sequence.push(inst.func.0);
        let ctrl = state.ctrl;
        // Conductor / transfer overhead for the next transition.
        let transfer = self.rt.model.transfer_fixed
            + self
                .rt
                .cluster
                .controller_delay(ctrl, now, self.rt.model.conductor_service);
        let (targets, payload) = match self.rt.app.compiled.entries[entry].kind.clone() {
            EntryKind::Simple { next } => (next.into_iter().collect(), output),
            EntryKind::Branch {
                field,
                taken,
                not_taken,
            } => {
                let target = if branch_outcome(&output, field.as_deref()) {
                    taken
                } else {
                    not_taken
                };
                // Branch functions route: the selected target receives the
                // branch's *input* payload (§VIII-B: successors of a branch
                // take the same input as the branch).
                (target.into_iter().collect(), inst.interp.input().clone())
            }
            EntryKind::Fork { branches, join: _ } => {
                state.cursors += branches.len() as u32 - 1;
                (branches, output)
            }
        };
        if targets.is_empty() {
            return self.cursor_done(req);
        }
        // Transfer time is attributed at the request level: record it on
        // the breakdown just filed for the finished instance.
        if let Some(b) = self.rt.metrics.breakdowns.last_mut() {
            b.transfer += transfer;
        }
        for n in targets {
            let ev = Ev::Transfer {
                req,
                from: entry,
                entry: n,
                payload: payload.clone(),
            };
            self.rt.sim.schedule_in(transfer, ev);
        }
    }

    // ------------------------------------------------------------------
    // Fault handling: transient KV retries, instance retries, aborts
    // ------------------------------------------------------------------

    /// Performs a storage operation after the transient-fault roll. Writes
    /// apply eagerly, which puts the handler past the point of no return
    /// for crash and hang injection ([`crate::exec::FnInstance::externalized`]).
    fn kv_access(&mut self, id: InstanceId, op: KvOp, attempt: u32) {
        if !self.rt.instances.contains_key(&id) {
            return; // instance torn down while a retry was pending
        }
        match self.rt.kv_roll(id, op, attempt) {
            KvRoll::Apply(KvOp::Get { key }) => {
                let val = self.rt.kv.get(&key).cloned().unwrap_or(Value::Null);
                let lat = self.rt.kv.latency().read;
                self.rt
                    .finish_kv(id, lat, "specfaas_kv_reads_total", Some(val));
            }
            KvRoll::Apply(KvOp::Set { key, value }) => {
                self.rt.kv.set(key, value);
                // Retrying a caller replays its whole call subtree, so a
                // callee's write externalizes every transitive caller too.
                let mut cur = Some(id);
                while let Some(i) = cur {
                    if let Some(inst) = self.rt.instances.get_mut(&i) {
                        inst.externalized = true;
                    }
                    cur = match self.launches.get(&i).map(|l| &l.ctx) {
                        Some(InstCtx::Callee(caller)) => Some(*caller),
                        _ => None,
                    };
                }
                let lat = self.rt.kv.latency().write;
                self.rt.finish_kv(id, lat, "specfaas_kv_writes_total", None);
            }
            KvRoll::Retrying => {}
            KvRoll::Exhausted => self.fault_instance(id),
        }
    }

    /// An instance suffered an unrecoverable-in-place fault: tear it
    /// down, then relaunch the same function after backoff — or abort
    /// the whole request once the retry budget is exhausted.
    fn fault_instance(&mut self, id: InstanceId) {
        let Some(inst) = self.rt.teardown_instance(id) else {
            return;
        };
        let Some(Launch { ctx, attempt }) = self.launches.remove(&id) else {
            return;
        };
        let req = inst.req;
        if !self.requests.contains_key(&req) {
            return; // request already aborted
        }
        if attempt >= self.rt.retry.max_attempts {
            self.abort_request(req);
            return;
        }
        self.rt.metrics.faults.retried += 1;
        let backoff = self.rt.retry.backoff(attempt);
        if self.rt.tracer.enabled() {
            let now = self.rt.sim.now();
            self.rt.tracer.emit(
                now,
                TraceEventKind::RetryBackoff {
                    req: req.0,
                    func: inst.func.0,
                    attempt: attempt + 1,
                    backoff,
                },
            );
        }
        let retry = Ev::Retry {
            req,
            ctx,
            func: inst.func,
            input: inst.interp.input().clone(),
            attempt: attempt + 1,
        };
        self.rt.sim.schedule_in(backoff, retry);
    }

    /// Terminally fails a request after its retry budget is exhausted
    /// (or it wedged with no recovery path): tears down every instance
    /// still working for it and records a [`RequestOutcome::Failed`].
    fn abort_request(&mut self, req: RequestId) {
        let now = self.rt.sim.now();
        let Some(state) = self.requests.remove(&req) else {
            return;
        };
        for id in self.instances_of(req) {
            self.rt.teardown_instance(id);
            self.launches.remove(&id);
        }
        if self.rt.tracer.enabled() {
            self.rt.tracer.emit(
                now,
                TraceEventKind::Terminal {
                    req: req.0,
                    completed: false,
                },
            );
        }
        self.rt.registry.inc("specfaas_requests_failed_total");
        if state.measured {
            self.rt.metrics.record_failure(InvocationRecord {
                arrived: state.arrived,
                completed: now,
                functions_run: state.functions_run,
                functions_squashed: 0,
                sequence: state.sequence,
                outcome: RequestOutcome::Failed,
            });
        } else {
            self.rt.metrics.faults.aborted += 1;
        }
        // Closed loop: the client observes the failure and issues its
        // next request.
        harness::closed_loop_resubmit(self);
    }

    /// One workflow cursor reached the end of the workflow.
    fn cursor_done(&mut self, req: RequestId) {
        let Some(state) = self.requests.get_mut(&req) else {
            return;
        };
        state.cursors -= 1;
        if state.cursors == 0 {
            self.rt
                .sim
                .schedule_in(self.rt.model.response_return, Ev::Complete(req));
        }
    }

    fn on_complete(&mut self, req: RequestId) {
        let now = self.rt.sim.now();
        let Some(state) = self.requests.remove(&req) else {
            return;
        };
        if self.rt.tracer.enabled() {
            self.rt.tracer.emit(
                now,
                TraceEventKind::Terminal {
                    req: req.0,
                    completed: true,
                },
            );
        }
        self.rt.registry.inc("specfaas_requests_completed_total");
        if state.measured {
            self.rt.record_completion(InvocationRecord {
                arrived: state.arrived,
                completed: now,
                functions_run: state.functions_run,
                functions_squashed: 0,
                sequence: state.sequence,
                outcome: RequestOutcome::Completed,
            });
        }
        // Closed loop: this client immediately issues its next request.
        harness::closed_loop_resubmit(self);
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival => harness::handle_arrival(self),
            Ev::Inst(InstEv::Launch(id)) => self.rt.on_launch(id),
            Ev::Inst(InstEv::ContainerReady(id)) => self.rt.try_start(id),
            Ev::Inst(InstEv::Resume(id, v)) => self.on_resume(id, v),
            Ev::Inst(InstEv::KvRetry(id, op, attempt)) => self.kv_access(id, op, attempt),
            Ev::Inst(InstEv::Timeout(id)) => {
                if self.rt.watchdog(id) {
                    self.fault_instance(id);
                }
            }
            Ev::Transfer {
                req,
                from,
                entry,
                payload,
            } => {
                if self.requests.contains_key(&req) {
                    self.launch_entry(req, entry, from, payload);
                }
            }
            Ev::Retry {
                req,
                ctx,
                func,
                input,
                attempt,
            } => {
                if self.requests.contains_key(&req) {
                    let id = self.spawn_named(req, ctx, func, input, attempt);
                    if self.rt.tracer.enabled() {
                        let now = self.rt.sim.now();
                        self.rt.tracer.emit(
                            now,
                            TraceEventKind::Replay {
                                req: req.0,
                                slot: id.0,
                            },
                        );
                    }
                }
            }
            Ev::Complete(req) => self.on_complete(req),
        }
        // Gauges observe post-event state; a disabled registry makes this
        // a single branch.
        if self.rt.registry.enabled() {
            self.rt.sample_gauges(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaas_sim::{FaultPlan, RetryPolicy, SimDuration};
    use specfaas_workflow::expr::*;
    use specfaas_workflow::{FunctionRegistry, FunctionSpec, Program, Workflow};

    /// A three-function chain: a -> b -> c, each 5ms of compute; b doubles
    /// the running total read from its input.
    fn chain_app() -> AppSpec {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "a",
            Program::builder()
                .compute_ms(5)
                .ret(make_map([("v", lit(1i64))])),
        ));
        reg.register(FunctionSpec::new(
            "b",
            Program::builder()
                .compute_ms(5)
                .ret(make_map([("v", mul(field(input(), "v"), lit(2i64)))])),
        ));
        reg.register(FunctionSpec::new(
            "c",
            Program::builder()
                .compute_ms(5)
                .ret(make_map([("v", add(field(input(), "v"), lit(10i64)))])),
        ));
        AppSpec::new(
            "Chain",
            "Test",
            reg,
            Workflow::sequence(vec![
                Workflow::task("a"),
                Workflow::task("b"),
                Workflow::task("c"),
            ]),
        )
    }

    fn branch_app() -> AppSpec {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "cond",
            Program::builder()
                .compute_ms(2)
                .ret(make_map([("ok", gt(field(input(), "x"), lit(10i64)))])),
        ));
        reg.register(FunctionSpec::new(
            "yes",
            Program::builder().compute_ms(2).ret(lit("yes")),
        ));
        reg.register(FunctionSpec::new(
            "no",
            Program::builder().compute_ms(2).ret(lit("no")),
        ));
        AppSpec::new(
            "Branchy",
            "Test",
            reg,
            Workflow::when_field(
                "cond",
                "ok",
                Workflow::task("yes"),
                Some(Workflow::task("no")),
            ),
        )
    }

    fn implicit_app() -> AppSpec {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "leaf",
            Program::builder()
                .compute_ms(4)
                .ret(add(field(input(), "n"), lit(100i64))),
        ));
        reg.register(FunctionSpec::new(
            "root",
            Program::builder()
                .compute_ms(3)
                .call("leaf", make_map([("n", lit(1i64))]), "r1")
                .call("leaf", make_map([("n", lit(2i64))]), "r2")
                .compute_ms(3)
                .ret(make_list([var("r1"), var("r2")])),
        ));
        AppSpec::new("Implicit", "Test", reg, Workflow::task("root"))
    }

    #[test]
    fn warm_chain_completes_with_expected_shape() {
        let mut e = BaselineEngine::new(Arc::new(chain_app()), 1);
        e.prewarm();
        let d = e.run_single(Value::Null);
        // 3 functions × (platform ~5.5ms + exec 5ms) + 2 transfers ~6.5ms
        // + response return 1ms ≈ 45ms; allow slack.
        assert!(d > SimDuration::from_millis(30), "too fast: {d}");
        assert!(d < SimDuration::from_millis(70), "too slow: {d}");
        assert_eq!(e.metrics.records.len(), 1);
        let rec = &e.metrics.records[0];
        assert_eq!(rec.sequence, vec![0, 1, 2]);
        assert_eq!(rec.functions_run, 3);
    }

    #[test]
    fn cold_chain_is_dominated_by_container_creation() {
        let mut e = BaselineEngine::new(Arc::new(chain_app()), 1);
        // no prewarm
        let d = e.run_single(Value::Null);
        assert!(
            d > SimDuration::from_millis(3 * 1850),
            "3 cold starts expected: {d}"
        );
        assert_eq!(e.cluster.cold_starts(), 3);
    }

    #[test]
    fn second_invocation_reuses_warm_containers() {
        let mut e = BaselineEngine::new(Arc::new(chain_app()), 1);
        let cold = e.run_single(Value::Null);
        let warm = e.run_single(Value::Null);
        assert!(warm < cold / 10);
        assert_eq!(e.cluster.cold_starts(), 3, "no new cold starts");
    }

    #[test]
    fn branch_takes_data_dependent_path() {
        let app = Arc::new(branch_app());
        let mut e = BaselineEngine::new(Arc::clone(&app), 1);
        e.prewarm();
        e.run_single(Value::map([("x", Value::Int(50))]));
        e.run_single(Value::map([("x", Value::Int(5))]));
        let yes = app.registry.lookup("yes").unwrap().0;
        let no = app.registry.lookup("no").unwrap().0;
        assert_eq!(e.metrics.records[0].sequence[1], yes);
        assert_eq!(e.metrics.records[1].sequence[1], no);
    }

    #[test]
    fn implicit_calls_block_caller_and_return_values() {
        let mut e = BaselineEngine::new(Arc::new(implicit_app()), 1);
        e.prewarm();
        let d = e.run_single(Value::Null);
        // Root compute 6ms + two callees 4ms each + overheads, strictly
        // sequential.
        assert!(d > SimDuration::from_millis(14), "too fast: {d}");
        let rec = &e.metrics.records[0];
        // Callees complete before the root.
        assert_eq!(rec.functions_run, 3);
        assert_eq!(rec.sequence.len(), 3);
        assert_eq!(*rec.sequence.last().unwrap(), 1, "root commits last");
    }

    #[test]
    fn parallel_fork_join_merges_outputs() {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "pre",
            Program::builder().compute_ms(1).ret(lit(7i64)),
        ));
        reg.register(FunctionSpec::new(
            "b1",
            Program::builder()
                .compute_ms(1)
                .ret(add(input(), lit(1i64))),
        ));
        reg.register(FunctionSpec::new(
            "b2",
            Program::builder()
                .compute_ms(1)
                .ret(add(input(), lit(2i64))),
        ));
        reg.register(FunctionSpec::new(
            "join",
            Program::builder().compute_ms(1).ret(len(input())),
        ));
        let app = AppSpec::new(
            "Par",
            "Test",
            reg,
            Workflow::sequence(vec![
                Workflow::task("pre"),
                Workflow::parallel(vec![Workflow::task("b1"), Workflow::task("b2")]),
                Workflow::task("join"),
            ]),
        );
        let mut e = BaselineEngine::new(Arc::new(app), 3);
        e.prewarm();
        e.run_single(Value::Null);
        let rec = &e.metrics.records[0];
        assert_eq!(rec.functions_run, 4);
        // join sees a 2-element list; last committed function is join (id 3).
        assert_eq!(*rec.sequence.last().unwrap(), 3);
    }

    #[test]
    fn open_loop_run_completes_requests() {
        let mut e = BaselineEngine::new(Arc::new(chain_app()), 5);
        e.prewarm();
        let m = e.run_open(
            50.0,
            SimDuration::from_secs(2),
            SimDuration::from_millis(200),
            |_| Value::Null,
        );
        assert!(m.completed > 50, "completed {}", m.completed);
        assert!(m.throughput_rps() > 30.0);
        assert!(m.mean_response_ms() > 10.0);
    }

    #[test]
    fn storage_effects_update_global_state() {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "writer",
            Program::builder()
                .set(lit("shared"), lit(41i64))
                .ret(lit(true)),
        ));
        reg.register(FunctionSpec::new(
            "reader",
            Program::builder()
                .get(lit("shared"), "v")
                .ret(add(var("v"), lit(1i64))),
        ));
        let app = AppSpec::new(
            "RW",
            "Test",
            reg,
            Workflow::sequence(vec![Workflow::task("writer"), Workflow::task("reader")]),
        );
        let mut e = BaselineEngine::new(Arc::new(app), 1);
        e.prewarm();
        e.run_single(Value::Null);
        assert_eq!(e.kv.peek("shared"), Some(&Value::Int(41)));
        assert_eq!(e.requests.len(), 0, "request state cleaned up");
    }

    #[test]
    fn exec_fraction_matches_observation1() {
        let mut e = BaselineEngine::new(Arc::new(chain_app()), 1);
        e.prewarm();
        e.run_single(Value::Null);
        let mean = crate::metrics::Breakdown::mean_of(&e.metrics.breakdowns);
        let frac = mean.execution_fraction();
        assert!(
            (0.25..=0.55).contains(&frac),
            "execution fraction {frac} out of plausible warm band"
        );
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    #[test]
    fn empty_fault_plan_is_bit_identical_to_disabled() {
        let run = |enable: bool| {
            let mut e = BaselineEngine::new(Arc::new(chain_app()), 3);
            if enable {
                e.enable_faults(FaultPlan::none(), RetryPolicy::default());
            }
            e.prewarm();
            let m = e.run_concurrent(
                4,
                SimDuration::from_secs(1),
                SimDuration::from_millis(100),
                |_| Value::Null,
            );
            (
                m.completed,
                m.mean_response_ms().to_bits(),
                m.useful_core_time,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn crash_faults_retry_and_recover() {
        let mut e = BaselineEngine::new(Arc::new(chain_app()), 1);
        e.enable_faults(
            FaultPlan::none().with_container_crash(0.15),
            RetryPolicy::default().with_max_attempts(10),
        );
        e.prewarm();
        let m = e.run_closed(20, |_| Value::Null);
        assert_eq!(m.completed, 20, "all requests survive with retries");
        assert_eq!(m.failed, 0);
        assert!(m.faults.crashes > 0, "crash faults should have fired");
        assert_eq!(m.faults.crashes, m.faults.retried);
        for r in &m.records {
            assert_eq!(r.sequence, vec![0, 1, 2]);
        }
    }

    #[test]
    fn exhausted_retries_abort_with_failed_outcome() {
        let mut e = BaselineEngine::new(Arc::new(chain_app()), 1);
        e.enable_faults(
            FaultPlan::none().with_container_crash(1.0),
            RetryPolicy::default().with_max_attempts(2),
        );
        e.prewarm();
        let m = e.run_closed(3, |_| Value::Null);
        assert_eq!(m.completed, 0);
        assert_eq!(m.failed, 3);
        assert!(m
            .records
            .iter()
            .all(|r| r.outcome == RequestOutcome::Failed));
        assert_eq!(e.requests.len(), 0, "aborted request state cleaned up");
    }

    #[test]
    fn kv_faults_retry_without_corrupting_state() {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "writer",
            Program::builder()
                .set(lit("shared"), lit(41i64))
                .ret(lit(true)),
        ));
        let app = AppSpec::new("W", "Test", reg, Workflow::task("writer"));
        let mut e = BaselineEngine::new(Arc::new(app), 1);
        e.enable_faults(
            FaultPlan::none().with_kv_set(0.5),
            RetryPolicy::default().with_max_attempts(10),
        );
        e.prewarm();
        let m = e.run_closed(10, |_| Value::Null);
        assert_eq!(m.completed, 10);
        assert!(m.faults.kv_errors > 0);
        assert_eq!(e.kv.peek("shared"), Some(&Value::Int(41)));
    }

    #[test]
    fn watchdog_rescues_hung_invocations() {
        let mut e = BaselineEngine::new(Arc::new(chain_app()), 1);
        e.enable_faults(
            FaultPlan::none()
                .with_hang(1.0)
                .with_window(SimTime::ZERO, Some(SimTime::from_millis(30))),
            RetryPolicy::default()
                .with_timeout(SimDuration::from_millis(100))
                .with_max_attempts(5),
        );
        e.prewarm();
        e.run_single(Value::Null);
        let m = e.run_closed(0, |_| Value::Null);
        assert_eq!(m.completed, 1, "watchdog should rescue the hung request");
        assert!(m.faults.timeouts >= 1);
        assert!(m.faults.retried >= 1);
    }

    #[test]
    fn stuck_report_names_hung_requests() {
        let mut e = BaselineEngine::new(Arc::new(chain_app()), 1);
        e.enable_faults(FaultPlan::none().with_hang(1.0), RetryPolicy::default());
        e.prewarm();
        assert!(e.stuck_report().is_empty(), "no requests in flight yet");
        // Submit directly (bypassing the drivers' abort-on-drain) and
        // step the simulation dry: the injected hang wedges the request
        // with no event left to wake it.
        let req = e.core.admit(Value::Null);
        while let Some((_, ev)) = e.sim.step() {
            e.core.dispatch(ev);
        }
        let report = e.stuck_report();
        assert_eq!(report.len(), 1, "one wedged request: {report:?}");
        assert!(
            report[0].starts_with(&format!("req {}:", req.0)),
            "report names the request: {}",
            report[0]
        );
        assert!(
            report[0].contains("insts=["),
            "report lists instance states: {}",
            report[0]
        );
        // Aborting the wedged request (what the drivers' drain does)
        // records the failure and empties the report again.
        e.core.abort(req);
        assert!(e.stuck_report().is_empty());
        let m = e.run_closed(0, |_| Value::Null);
        assert_eq!(m.failed, 1);
    }

    #[test]
    fn hang_without_timeout_aborts_on_drain() {
        let mut e = BaselineEngine::new(Arc::new(chain_app()), 1);
        e.enable_faults(FaultPlan::none().with_hang(1.0), RetryPolicy::default());
        e.prewarm();
        e.run_single(Value::Null);
        let m = e.run_closed(0, |_| Value::Null);
        assert_eq!(m.failed, 1);
        assert!(m.faults.hangs >= 1);
    }

    #[test]
    fn fault_counters_are_deterministic_per_seed() {
        let run = || {
            let mut e = BaselineEngine::new(Arc::new(chain_app()), 9);
            e.enable_faults(
                FaultPlan::none().with_container_crash(0.2).with_kv_get(0.1),
                RetryPolicy::default().with_max_attempts(8),
            );
            e.prewarm();
            let m = e.run_concurrent(
                3,
                SimDuration::from_secs(1),
                SimDuration::from_millis(100),
                |_| Value::Null,
            );
            (m.completed, m.failed, m.faults)
        };
        assert_eq!(run(), run());
    }
}
