//! Function instances and their lifecycle beneath the control plane.
//!
//! An instance binds together an interpreter execution, the request it
//! works for, the node / core slot / container it occupies, its private
//! temp-file namespace (the copy-on-write scheme of §VI), and timing
//! bookkeeping for the Fig. 3 breakdown.
//!
//! SpecFaaS changes only the control plane: the invoker side is plain
//! OpenWhisk in both engines (§VI). So the instance lifecycle lives once,
//! here, as methods on the shared [`Runtime`]: spawn, container
//! acquisition and cold start, core admission and blocking, the step
//! boundary with its container-crash and hang rolls, the compute and
//! temp-file effects, the transient-KV-fault roll, completion, teardown
//! and the invocation watchdog. A core keeps only its policy: what the
//! effects in a [`Step`] mean, and how a faulted instance recovers.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;

use specfaas_sim::trace::{Phase, TraceEventKind, Tracer};
use specfaas_sim::{FaultSite, SimDuration, SimRng, SimTime};
use specfaas_storage::Value;
use specfaas_workflow::{Effect, FuncId, Interp, ProgError, Program};

use crate::cluster::NodeId;
use crate::container::ContainerAcquire;
use crate::harness::Runtime;
use crate::metrics::Breakdown;
use crate::workload::RequestId;

/// Identifier of a function instance (one handler process execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst#{}", self.0)
    }
}

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Waiting for its launch overhead or its container (cold start).
    ColdStarting,
    /// Waiting in a node's core queue.
    WaitingCore,
    /// Executing (or in a short storage wait) while holding a core.
    Running,
    /// Blocked (waiting on a callee, a stalled read, or a deferred side
    /// effect) with its execution slot *released* — the OS deschedules a
    /// blocked handler process; the container stays allocated.
    Blocked,
    /// Killed by a squash; its core frees after the kill latency.
    Squashed,
}

/// One executing handler process.
#[derive(Debug)]
pub struct FnInstance {
    /// This instance's id.
    pub id: InstanceId,
    /// The request the instance works for (trace and squash labels).
    pub req: RequestId,
    /// The function being executed.
    pub func: FuncId,
    /// Node hosting the handler.
    pub node: NodeId,
    /// Interpreter state.
    pub interp: Interp,
    /// Per-instance RNG (timing jitter).
    pub rng: SimRng,
    /// Lifecycle state.
    pub state: InstanceState,
    /// True from the instance's `Launch` on: it holds (or is creating) a
    /// container that teardown must release.
    pub container: bool,
    /// Private temp-file namespace (discarded at handler exit, §VI).
    pub files: HashMap<String, Value>,
    /// When the handler actually started executing on a core.
    pub started_at: Option<SimTime>,
    /// Per-component time attribution for Fig. 3.
    pub breakdown: Breakdown,
    /// Core time accumulated across earlier running stints (before
    /// blocking released the slot).
    pub accumulated_core: SimDuration,
    /// Resume value stashed while the instance waits to re-acquire a
    /// core after being unblocked.
    pub pending_resume: Option<Option<Value>>,
    /// True once the handler has applied a write to shared storage. This
    /// is the fault-injection point of no return: retrying a partially
    /// externalized handler would double-apply non-idempotent effects.
    /// Only an engine that applies writes eagerly (the baseline) sets it.
    pub externalized: bool,
}

impl FnInstance {
    /// Creates an instance of `func`, working for `req`, about to launch
    /// with `input`.
    pub fn new(
        id: InstanceId,
        req: RequestId,
        func: FuncId,
        node: NodeId,
        program: &Program,
        input: Value,
        rng: SimRng,
    ) -> Self {
        FnInstance {
            id,
            req,
            func,
            node,
            interp: Interp::new(program, input),
            rng,
            state: InstanceState::ColdStarting,
            container: false,
            files: HashMap::new(),
            started_at: None,
            breakdown: Breakdown::default(),
            accumulated_core: SimDuration::ZERO,
            pending_resume: None,
            externalized: false,
        }
    }

    /// Steps the interpreter with an optional resume value.
    ///
    /// # Errors
    /// Propagates program errors (treated by engines as failed
    /// invocations).
    pub fn step(&mut self, resume: Option<Value>) -> Result<Effect, ProgError> {
        self.interp.step(resume, &mut self.rng)
    }

    /// True if the instance still occupies a core slot.
    pub fn holds_core(&self) -> bool {
        matches!(self.state, InstanceState::Running)
    }

    /// Core time of all the instance's stints up to `now`.
    pub fn core_time(&self, now: SimTime) -> SimDuration {
        self.accumulated_core + self.started_at.map_or(SimDuration::ZERO, |s| now - s)
    }

    /// Records this instance's `phase` span `start..end` on an armed
    /// tracer.
    pub fn trace_span(&self, tracer: &mut Tracer, phase: Phase, start: SimTime, end: SimTime) {
        if tracer.enabled() {
            tracer.emit(
                start,
                TraceEventKind::Span {
                    req: self.req.0,
                    func: self.func.0,
                    node: self.node.0 as u32,
                    phase,
                    end,
                },
            );
        }
    }
}

/// Instance-lifecycle events. Each engine core's event type wraps them
/// (`From<InstEv>`), so the runtime schedules them without knowing which
/// engine runs.
#[derive(Debug)]
pub enum InstEv {
    /// Launch overhead paid; acquire a container, then a core.
    Launch(InstanceId),
    /// Cold start finished; acquire a core.
    ContainerReady(InstanceId),
    /// The instance's pending effect completed; step the interpreter.
    Resume(InstanceId, Option<Value>),
    /// Backoff after a transient KV fault elapsed; retry the operation
    /// (the attempt number rides along).
    KvRetry(InstanceId, KvOp, u32),
    /// Invocation watchdog fired for the instance.
    Timeout(InstanceId),
}

/// A storage operation, kept whole across transient-fault retries.
#[derive(Debug, Clone)]
pub enum KvOp {
    /// Read `key`.
    Get {
        /// Storage key.
        key: String,
    },
    /// Write `value` to `key`.
    Set {
        /// Storage key.
        key: String,
        /// Value to store.
        value: Value,
    },
}

/// What a step boundary leaves for the engine core: the effects whose
/// meaning is engine policy, or a crash whose recovery is.
#[derive(Debug)]
pub enum Step {
    /// Nothing: the instance is gone, queued for a core or wedged by a
    /// hang, or its compute/temp-file effect is already scheduled.
    Idle,
    /// An injected container crash killed the handler.
    Crashed,
    /// A storage access (roll it with [`Runtime::kv_roll`]).
    Kv(KvOp),
    /// An external HTTP request.
    Http,
    /// A call of the named function with an input document.
    Call(String, Value),
    /// The handler returned this output (a program error returns an error
    /// document, so the workflow proceeds deterministically).
    Done(Value),
}

/// Outcome of the transient-fault roll before a storage operation.
#[derive(Debug)]
pub enum KvRoll {
    /// No fault: apply the operation now.
    Apply(KvOp),
    /// A fault struck; the operation retries after backoff.
    Retrying,
    /// A fault struck on the last allowed attempt: the instance faults.
    Exhausted,
}

impl<Ev: From<InstEv>> Runtime<Ev> {
    /// Creates an instance of `func` working for `req` on a
    /// placement-chosen node. It launches after the platform overhead
    /// (fixed wire cost plus `service` queued at controller `ctrl`), and
    /// its invocation watchdog is armed.
    pub fn spawn_instance(
        &mut self,
        req: RequestId,
        ctrl: NodeId,
        service: SimDuration,
        func: FuncId,
        input: Value,
    ) -> InstanceId {
        let now = self.sim.now();
        let delay = self.model.platform_fixed + self.cluster.controller_delay(ctrl, now, service);
        let id = self.alloc_inst();
        let node = self.cluster.pick_node(func);
        let rng = self.rng.split();
        let program = &self.app.registry.spec(func).program;
        let mut inst = FnInstance::new(id, req, func, node, program, input, rng);
        inst.breakdown.platform = delay;
        self.instances.insert(id, inst);
        self.metrics.functions_started += 1;
        self.registry.inc("specfaas_functions_started_total");
        self.topk_by_function("specfaas_requests_by_function", func, 1);
        self.sim.schedule_in(delay, InstEv::Launch(id).into());
        self.arm_watchdog(id);
        id
    }

    /// Arms the invocation watchdog of `id` (no-op without a timeout): the
    /// only recovery path for a hung handler.
    fn arm_watchdog(&mut self, id: InstanceId) {
        if let Some(t) = self.retry.invocation_timeout {
            self.sim.schedule_in(t, InstEv::Timeout(id).into());
        }
    }

    /// Schedules the resumption of `id` with `value` after `delay`.
    pub fn resume_in(&mut self, delay: SimDuration, id: InstanceId, value: Option<Value>) {
        self.sim
            .schedule_in(delay, InstEv::Resume(id, value).into());
    }

    /// Launch overhead paid: acquires a container — warm, or cold with the
    /// Fig. 3 creation and runtime-setup spans — then a core.
    pub fn on_launch(&mut self, id: InstanceId) {
        // Torn down (or squashed) while the launch overhead was in flight.
        let Some(inst) = self.instances.get_mut(&id) else {
            return;
        };
        inst.container = true;
        let now = self.sim.now();
        let acquired = self
            .cluster
            .acquire_container(inst.node, inst.func, now, &self.model);
        let cold = matches!(acquired, ContainerAcquire::Cold(_));
        self.registry.inc(if cold {
            "specfaas_cold_starts_total"
        } else {
            "specfaas_warm_starts_total"
        });
        if self.tracer.enabled() {
            self.tracer.emit(
                now,
                TraceEventKind::ContainerAcquire {
                    req: inst.req.0,
                    func: inst.func.0,
                    node: inst.node.0 as u32,
                    cold,
                },
            );
        }
        let ContainerAcquire::Cold(d) = acquired else {
            return self.try_start(id);
        };
        inst.breakdown.container_creation = self.model.container_creation;
        inst.breakdown.runtime_setup = self.model.runtime_setup;
        inst.state = InstanceState::ColdStarting;
        // Container creation, then runtime setup for whatever remains of
        // the delay.
        let cc = self.model.container_creation.min(d);
        inst.trace_span(&mut self.tracer, Phase::ContainerCreation, now, now + cc);
        if cc < d {
            inst.trace_span(&mut self.tracer, Phase::RuntimeSetup, now + cc, now + d);
        }
        self.sim.schedule_in(d, InstEv::ContainerReady(id).into());
    }

    /// Acquires a core for `id` and starts it, or queues it for one.
    pub fn try_start(&mut self, id: InstanceId) {
        let now = self.sim.now();
        let Some(inst) = self.instances.get_mut(&id) else {
            return;
        };
        if self.cluster.node_mut(inst.node).cores.try_acquire(now) {
            inst.state = InstanceState::Running;
            inst.started_at = Some(now);
            self.sim.schedule_now(InstEv::Resume(id, None).into());
        } else {
            inst.state = InstanceState::WaitingCore;
            self.cluster.node_mut(inst.node).cores.enqueue(id);
        }
    }

    /// Releases the execution slot of a running instance while it blocks
    /// (on a callee, a stalled read, or a deferred side effect). A blocked
    /// handler process is descheduled by the OS; its container stays
    /// allocated.
    pub fn block_instance(&mut self, id: InstanceId) {
        let now = self.sim.now();
        let Some(inst) = self.instances.get_mut(&id) else {
            return;
        };
        if inst.state != InstanceState::Running {
            return;
        }
        if let Some(start) = inst.started_at.take() {
            inst.accumulated_core += now - start;
            inst.trace_span(&mut self.tracer, Phase::Execution, start, now);
        }
        inst.state = InstanceState::Blocked;
        let node = inst.node;
        if let Some(next) = self.cluster.node_mut(node).cores.release(now) {
            self.grant_core(next, now);
        }
    }

    /// Hands a freed slot to a queued instance and starts/resumes it.
    fn grant_core(&mut self, next: InstanceId, now: SimTime) {
        if let Some(w) = self.instances.get_mut(&next) {
            w.state = InstanceState::Running;
            w.started_at = Some(now);
            let resume = w.pending_resume.take().unwrap_or(None);
            self.sim.schedule_now(InstEv::Resume(next, resume).into());
        }
    }

    /// Counts a fault at `site` of an instance working for `req` in the
    /// registry and the trace (callers bump their [`FaultStats`] field).
    ///
    /// [`FaultStats`]: crate::metrics::FaultStats
    pub fn note_fault(&mut self, req: RequestId, site: &'static str) {
        self.registry
            .inc_labeled("specfaas_faults_injected_total", "site", site);
        if self.tracer.enabled() {
            let now = self.sim.now();
            self.tracer
                .emit(now, TraceEventKind::FaultInjected { req: req.0, site });
        }
    }

    /// Resumes `id` at a step boundary. A blocked instance first
    /// re-acquires a core (or queues for one with `resume` stashed). Then
    /// the handler's container may crash, or the handler may wedge (hang)
    /// and stop making progress — but only before it externalizes a write
    /// ([`FnInstance::externalized`]). Finally the interpreter steps.
    pub fn resume_instance(&mut self, id: InstanceId, resume: Option<Value>) -> Step {
        let now = self.sim.now();
        let Some(inst) = self.instances.get_mut(&id) else {
            return Step::Idle;
        };
        if inst.state == InstanceState::Blocked {
            if self.cluster.node_mut(inst.node).cores.try_acquire(now) {
                inst.state = InstanceState::Running;
                inst.started_at = Some(now);
            } else {
                inst.pending_resume = Some(resume);
                inst.state = InstanceState::WaitingCore;
                self.cluster.node_mut(inst.node).cores.enqueue(id);
                return Step::Idle;
            }
        }
        if self.faults.enabled() && !inst.externalized {
            let req = inst.req;
            if self.faults.roll(FaultSite::ContainerCrash, now) {
                self.metrics.faults.injected += 1;
                self.metrics.faults.crashes += 1;
                self.note_fault(req, "container_crash");
                return Step::Crashed;
            }
            if self.faults.roll(FaultSite::Hang, now) {
                self.metrics.faults.injected += 1;
                self.metrics.faults.hangs += 1;
                self.note_fault(req, "hang");
                // The wedged handler keeps its core and container but
                // schedules nothing further; only the invocation watchdog
                // (if configured) can recover it.
                return Step::Idle;
            }
        }
        self.step_instance(id, resume)
    }

    /// Steps the interpreter of `id` with no fault rolls. Compute and
    /// temp-file effects run here; every other effect goes to the core.
    pub fn step_instance(&mut self, id: InstanceId, resume: Option<Value>) -> Step {
        let Some(inst) = self.instances.get_mut(&id) else {
            return Step::Idle;
        };
        let effect = inst.step(resume).unwrap_or_else(|err| {
            Effect::Done(Value::map([("error", Value::str(err.to_string()))]))
        });
        let (delay, value) = match effect {
            Effect::Compute(d) => {
                inst.breakdown.execution += d;
                (d, None)
            }
            Effect::FileWrite { name, data } => {
                inst.files.insert(name, data);
                (SimDuration::ZERO, None)
            }
            Effect::FileRead { name } => {
                let v = inst.files.get(&name).cloned().unwrap_or(Value::Null);
                (SimDuration::ZERO, Some(v))
            }
            Effect::Get { key } => return Step::Kv(KvOp::Get { key }),
            Effect::Set { key, value } => return Step::Kv(KvOp::Set { key, value }),
            Effect::Http { .. } => return Step::Http,
            Effect::Call { func, args } => return Step::Call(func, args),
            Effect::Done(out) => return Step::Done(out),
        };
        self.resume_in(delay, id, value);
        Step::Idle
    }

    /// Rolls for a transient KV fault before storage operation `op` of
    /// `id` applies. A faulted operation retries after exponential
    /// backoff; on the last allowed attempt the instance faults instead.
    pub fn kv_roll(&mut self, id: InstanceId, op: KvOp, attempt: u32) -> KvRoll {
        let now = self.sim.now();
        let (site, name) = match &op {
            KvOp::Get { .. } => (FaultSite::KvGet, "kv_get"),
            KvOp::Set { .. } => (FaultSite::KvSet, "kv_set"),
        };
        if !self.faults.enabled() || !self.faults.roll(site, now) {
            return KvRoll::Apply(op);
        }
        self.metrics.faults.injected += 1;
        self.metrics.faults.kv_errors += 1;
        let (req, func) = self
            .instances
            .get(&id)
            .map_or((RequestId(u64::MAX), u32::MAX), |i| (i.req, i.func.0));
        self.note_fault(req, name);
        if attempt >= self.retry.max_attempts {
            return KvRoll::Exhausted;
        }
        let backoff = self.retry.backoff(attempt);
        if let Some(inst) = self.instances.get_mut(&id) {
            inst.breakdown.retry_backoff += backoff;
        }
        if self.tracer.enabled() {
            self.tracer.emit(
                now,
                TraceEventKind::RetryBackoff {
                    req: req.0,
                    func,
                    attempt: attempt + 1,
                    backoff,
                },
            );
        }
        self.metrics.faults.retried += 1;
        self.sim
            .schedule_in(backoff, InstEv::KvRetry(id, op, attempt + 1).into());
        KvRoll::Retrying
    }

    /// Completes a storage access of `id` after `lat`: the latency counts
    /// as handler execution and as one `counter` event, and the handler
    /// resumes with `value`.
    pub fn finish_kv(
        &mut self,
        id: InstanceId,
        lat: SimDuration,
        counter: &'static str,
        value: Option<Value>,
    ) {
        if let Some(inst) = self.instances.get_mut(&id) {
            inst.breakdown.execution += lat;
        }
        self.registry.inc(counter);
        if self.registry.enabled() {
            self.kv_pending.push(Reverse(self.sim.now() + lat));
        }
        self.resume_in(lat, id, value);
    }

    /// Frees the core of a retired instance (granting it to the next
    /// waiter) and returns its container to the warm pool if `reusable`.
    pub fn release(&mut self, inst: &FnInstance, reusable: bool) {
        let now = self.sim.now();
        if inst.started_at.is_some() {
            if let Some(next) = self.cluster.node_mut(inst.node).cores.release(now) {
                self.grant_core(next, now);
            }
        }
        self.cluster
            .release_container(inst.node, inst.func, now, reusable);
    }

    /// Retires an instance whose handler returned: records its execution
    /// span, frees its core and container, and files its Fig. 3
    /// breakdown. Returns the instance and the core time its stints used.
    pub fn finish_instance(&mut self, id: InstanceId) -> (FnInstance, SimDuration) {
        let now = self.sim.now();
        let inst = self.instances.remove(&id).expect("live instance");
        let core_time = inst.core_time(now);
        if let Some(start) = inst.started_at {
            inst.trace_span(&mut self.tracer, Phase::Execution, start, now);
        }
        self.release(&inst, true);
        self.metrics.breakdowns.push(inst.breakdown);
        (inst, core_time)
    }

    /// Force-removes an instance that died (crash, hang timeout, exhausted
    /// KV retries, or request abort), releasing whatever core slot, queue
    /// position and container it holds. Its container is not reusable: the
    /// handler did not exit cleanly.
    pub fn teardown_instance(&mut self, id: InstanceId) -> Option<FnInstance> {
        let now = self.sim.now();
        let inst = self.instances.remove(&id)?;
        // Every stint counts as wasted work, past blocked ones included
        // (zero for an instance that never ran). Only a running instance
        // has a current stint, and only it holds a core.
        let wasted = inst.core_time(now);
        self.charge_squashed(inst.req, inst.func, "teardown", 0, wasted);
        if let Some(start) = inst.started_at {
            inst.trace_span(&mut self.tracer, Phase::Execution, start, now);
        }
        if inst.state == InstanceState::WaitingCore {
            let cores = &mut self.cluster.node_mut(inst.node).cores;
            cores.remove_waiter(|w| *w == id);
        }
        if inst.container {
            self.release(&inst, false);
        }
        Some(inst)
    }

    /// The invocation watchdog fired for `id`. A blocked handler
    /// (legitimately waiting on a callee, a stall or a deferred side
    /// effect) is re-armed; any other live one is declared hung — counted
    /// and traced — and `true` tells the core to recover it.
    pub fn watchdog(&mut self, id: InstanceId) -> bool {
        let Some(inst) = self.instances.get(&id) else {
            return false;
        };
        match inst.state {
            InstanceState::Squashed => false,
            InstanceState::Blocked => {
                self.arm_watchdog(id);
                false
            }
            _ => {
                let req = inst.req;
                self.metrics.faults.timeouts += 1;
                self.note_fault(req, "timeout");
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaas_workflow::expr::lit;

    fn instance(p: &Program) -> FnInstance {
        FnInstance::new(
            InstanceId(1),
            RequestId(0),
            FuncId(0),
            NodeId(0),
            p,
            Value::Null,
            SimRng::seed(1),
        )
    }

    #[test]
    fn instance_runs_program_to_done() {
        let p = Program::builder().compute_ms(2).ret(lit("out"));
        let mut inst = instance(&p);
        assert!(matches!(inst.step(None).unwrap(), Effect::Compute(_)));
        assert!(matches!(inst.step(None).unwrap(), Effect::Done(_)));
    }

    #[test]
    fn files_namespace_starts_empty() {
        let p = Program::builder().ret(lit(1i64));
        let inst = instance(&p);
        assert!(inst.files.is_empty());
        assert_eq!(inst.state, InstanceState::ColdStarting);
        assert!(!inst.holds_core());
        assert!(!inst.container);
    }
}
