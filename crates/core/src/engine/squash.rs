//! Squashing (§VI, "Minimizing Squash Cost"), lazily squashed orphans,
//! slot-fault retries and request aborts.
use super::*;

impl SpecCore {
    /// Squashes `first` and every later slot. `kind` decides whether
    /// `first` is reset in place (re-execute) or removed (wrong path).
    pub(super) fn squash_from(&mut self, req_id: RequestId, first: SlotId, kind: SquashKind) {
        let Some(req) = self.requests.get(&req_id) else {
            return;
        };
        let Some(pos) = req.pipeline.position(first) else {
            return;
        };
        let order: Vec<SlotId> = req.pipeline.iter_order().collect();
        let victims: Vec<SlotId> = order[pos..].to_vec();

        let cause = match kind {
            SquashKind::WrongPath => SquashCause::WrongPath,
            SquashKind::WrongInput => SquashCause::WrongInput,
            SquashKind::Violation => SquashCause::Violation,
            SquashKind::Fault => SquashCause::Fault,
        };
        let cascade = victims.len() as u32;
        if self.rt.tracer.enabled() {
            let now = self.rt.sim.now();
            self.rt.tracer.emit(
                now,
                TraceEventKind::Squash {
                    req: req_id.0,
                    slot: first.0,
                    cause,
                    cascade,
                },
            );
        }
        self.rt
            .registry
            .inc_labeled("specfaas_squashes_total", "cause", cause.name());
        // Dependents torn down because a committed-path execution
        // faulted (not because speculation was wrong).
        if kind == SquashKind::Fault {
            self.rt.metrics.faults.squashed_due_to_fault += victims.len() as u64 - 1;
        }
        // Fork-branch heads are spawned exactly once, at their fork's
        // commit (extend_one defers fan-out). A head caught in the squash
        // suffix is a *parallel* sibling, not a dependent: removing it
        // would lose it forever and starve the join, so reset it in place
        // instead.
        let mut fork_heads: FxHashSet<usize> = FxHashSet::default();
        for i in 0..self.seqtable.compiled().entries.len() {
            if let EntryKind::Fork { branches, .. } = self.seqtable.kind_at(i) {
                fork_heads.extend(branches.iter().copied());
            }
        }
        for (i, v) in victims.iter().enumerate() {
            let req = self.requests.get(&req_id).expect("live");
            let is_fork_head = matches!(
                req.pipeline.slot(*v).map(|s| s.role),
                Some(SlotRole::Entry { entry }) if fork_heads.contains(&entry)
            );
            let reset_in_place = (i == 0 && kind != SquashKind::WrongPath) || is_fork_head;
            self.squash_slot(req_id, *v, reset_in_place, cause.name(), cascade);
        }
        // Callers waiting on removed callees: their Call will be
        // re-issued when the caller (also squashed) re-executes, or the
        // callee slot is respawned on demand. Clean any dangling waits.
        let req = self.requests.get_mut(&req_id).expect("live");
        req.waiting_callers
            .retain(|callee, _| req.pipeline.slot(*callee).is_some());
        req.stalled_reads
            .retain(|sr| req.pipeline.slot(sr.slot).is_some());
        if kind == SquashKind::Fault {
            // A removed dependent may have been the created program-order
            // successor of a *surviving* entry slot (a faulted callee's
            // caller, say). Victims form a strict suffix, so only the last
            // surviving entry slot can be affected: clear its extension
            // mark so the successor is recreated. Re-extending a
            // terminally-extended slot just re-marks it, so this is safe
            // even when nothing was lost.
            let order: Vec<SlotId> = req.pipeline.iter_order().collect();
            if let Some(&last_entry) = order.iter().rev().find(|s| {
                matches!(
                    req.pipeline.slot(**s).expect("live").role,
                    SlotRole::Entry { .. }
                )
            }) {
                req.extended.remove(&last_entry);
            }
        }
        self.pump(req_id);
    }

    pub(super) fn squash_slot(
        &mut self,
        req_id: RequestId,
        slot_id: SlotId,
        reset_in_place: bool,
        site: &'static str,
        cascade: u32,
    ) {
        let req = self.requests.get_mut(&req_id).expect("live");
        let Some(func) = req.pipeline.slot(slot_id).map(|s| s.func) else {
            return;
        };
        req.functions_squashed += 1;
        req.buffer.squash(slot_id);
        req.extended.remove(&slot_id);
        req.deferred_http.remove(&slot_id);
        req.call_state.remove(&slot_id);
        req.call_records.remove(&slot_id);
        let wasted = req.slot_cpu.remove(&slot_id);
        let inst = req.slot_inst.remove(&slot_id);
        // CPU spent on a now-squashed execution is wasted work.
        if let Some(t) = wasted {
            self.rt.charge_squashed(req_id, func, site, cascade, t);
        }
        // Kill the running instance per the configured mechanism.
        if let Some(inst_id) = inst {
            self.kill_instance(inst_id, req_id, site, cascade);
        }
        let req = self.requests.get_mut(&req_id).expect("live");
        if reset_in_place {
            let slot = req.pipeline.slot_mut(slot_id).expect("live");
            slot.state = SlotState::Created;
            slot.output = None;
            slot.predicted_output = None;
            slot.predicted_taken = None;
            slot.learned_calls.clear();
            // input/input_speculative left to the caller to fix up.
            self.refresh_prediction(req_id, slot_id);
        } else {
            req.pipeline.remove(slot_id);
        }
    }

    /// Applies the configured squash mechanism to a live instance.
    /// `site`/`cascade` label the squash for wasted-CPU attribution.
    pub(super) fn kill_instance(
        &mut self,
        id: InstanceId,
        req_id: RequestId,
        site: &'static str,
        cascade: u32,
    ) {
        let now = self.rt.sim.now();
        let Some(inst) = self.rt.instances.get(&id) else {
            return;
        };
        let (state, node, func) = (inst.state, inst.node, inst.func);
        let (started, acc, container) = (inst.started_at, inst.accumulated_core, inst.container);
        let core_time = inst.core_time(now);
        self.slot_of.remove(&id);
        let lazy = self.config.squash == SquashMechanism::Lazy;
        let reusable = self.config.squash != SquashMechanism::ContainerKill;
        match state {
            // LazySquash lets a handler that holds (or is creating) its
            // container run to completion in the background; its outputs
            // are never propagated.
            InstanceState::Running | InstanceState::WaitingCore if lazy => {
                self.orphans.insert(id);
            }
            InstanceState::ColdStarting if lazy && container => {
                self.orphans.insert(id);
            }
            InstanceState::Running => {
                // The handler dies after the kill latency; the core frees
                // then. Wasted-CPU attribution happens now (matching the
                // paper's squash-cost accounting); the kill-latency window
                // itself goes into `squash_kill_busy` at SquashRelease.
                let kill = self.rt.model.process_kill;
                if let Some(s) = started {
                    self.rt
                        .charge_squashed(req_id, func, site, cascade, core_time);
                    let inst = &self.rt.instances[&id];
                    inst.trace_span(&mut self.rt.tracer, Phase::Execution, s, now + kill);
                }
                self.rt
                    .sim
                    .schedule_in(kill, Ev::SquashRelease(id, reusable));
                // Stale Resume events are ignored from here on; the
                // instance stays for resource release.
                let inst = self.rt.instances.get_mut(&id).expect("live");
                inst.state = InstanceState::Squashed;
            }
            _ => {
                // Dies on the spot: a blocked handler waits on callees that
                // are squashed too, so even lazy squashing cannot let it
                // finish, and a never-launched one holds nothing yet. Past
                // blocked stints are wasted work even though no core is
                // held now. A cold start already ran to completion in the
                // model's accounting, so its container returns to the pool.
                self.rt.charge_squashed(req_id, func, site, cascade, acc);
                if state == InstanceState::WaitingCore {
                    let cores = &mut self.rt.cluster.node_mut(node).cores;
                    cores.remove_waiter(|w| *w == id);
                }
                if container {
                    let reusable = reusable || state == InstanceState::ColdStarting;
                    self.rt.cluster.release_container(node, func, now, reusable);
                }
                self.rt.instances.remove(&id);
            }
        }
    }

    pub(super) fn on_squash_release(&mut self, id: InstanceId, reusable: bool) {
        let Some(inst) = self.rt.instances.remove(&id) else {
            return;
        };
        // The stint up to the kill was already charged to
        // squashed_core_time by `kill_instance`; the core stayed busy for
        // the kill latency since then, which only the conservation ledger
        // sees.
        if inst.started_at.is_some() {
            self.squash_kill_busy += self.rt.model.process_kill;
        }
        self.rt.release(&inst, reusable);
    }

    /// Carries out an effect of a lazily squashed orphan: effects proceed
    /// against committed global state, writes are dropped, HTTP requests
    /// are skipped and calls resolve to Null.
    pub(super) fn orphan_effect(&mut self, id: InstanceId, step: Step) {
        let latency = self.rt.kv.latency();
        match step {
            Step::Idle | Step::Crashed => {}
            Step::Kv(KvOp::Get { key }) => {
                let v = self.rt.kv.get(&key).cloned().unwrap_or(Value::Null);
                self.rt
                    .finish_kv(id, latency.read, "specfaas_kv_reads_total", Some(v));
            }
            // Dropped: squashed state never propagates — but the handler
            // still waits out the write latency.
            Step::Kv(KvOp::Set { .. }) => {
                self.rt
                    .finish_kv(id, latency.write, "specfaas_kv_writes_total", None);
            }
            Step::Http => self.rt.resume_in(SimDuration::ZERO, id, None),
            Step::Call(..) => {
                let hop = self.rt.model.transfer_fixed;
                self.rt.resume_in(hop, id, Some(Value::Null));
            }
            Step::Done(_) => {
                let now = self.rt.sim.now();
                self.orphans.remove(&id);
                let inst = self.rt.instances.remove(&id).expect("orphan live");
                // Everything this orphan ever ran was wasted: its final
                // stint plus any stints accumulated while it was blocked
                // before being squashed. It is charged to no request: lazy
                // squash detached it from its slot at kill time.
                let wasted = inst.core_time(now);
                let detached = RequestId(u64::MAX);
                self.rt
                    .charge_squashed(detached, inst.func, "orphan_done", 0, wasted);
                self.rt.release(&inst, true);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault handling: slot retries with backoff, request aborts
    // ------------------------------------------------------------------

    /// Force-removes a dead instance through the runtime's teardown.
    /// Unlike `kill_instance` this ignores the configured squash
    /// mechanism: the handler is already dead, so even lazy squashing
    /// cannot keep it running.
    pub(super) fn teardown_instance(&mut self, id: InstanceId) {
        self.slot_of.remove(&id);
        self.orphans.remove(&id);
        self.rt.teardown_instance(id);
    }

    /// The instance executing `slot_id` suffered an unrecoverable-in-
    /// place fault (container crash, hang timeout, or exhausted storage
    /// retries). The slot and every dependent are squashed; the slot
    /// relaunches after backoff — or the whole request aborts once its
    /// retry budget is exhausted.
    pub(super) fn slot_fault(&mut self, req_id: RequestId, slot_id: SlotId) {
        // The faulted handler is dead on the spot, not squash-killed.
        let inst = self
            .requests
            .get_mut(&req_id)
            .and_then(|r| r.slot_inst.remove(&slot_id));
        if let Some(inst_id) = inst {
            self.teardown_instance(inst_id);
        }
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        if req.pipeline.slot(slot_id).is_none() {
            return; // already squashed away
        }
        let failures = req.attempts.entry(slot_id).or_insert(0);
        *failures += 1;
        let failures = *failures;
        if failures >= self.rt.retry.max_attempts {
            self.abort_request(req_id);
            return;
        }
        // Hold the relaunch until the backoff elapses; squash the slot
        // (reset in place, keeping its input) and its dependents now.
        req.retry_hold.insert(slot_id);
        self.rt.metrics.faults.retried += 1;
        let backoff = self.rt.retry.backoff(failures);
        if self.rt.tracer.enabled() {
            let func = self
                .requests
                .get(&req_id)
                .and_then(|r| r.pipeline.slot(slot_id))
                .map(|s| s.func.0)
                .unwrap_or(u32::MAX);
            let now = self.rt.sim.now();
            self.rt.tracer.emit(
                now,
                TraceEventKind::RetryBackoff {
                    req: req_id.0,
                    func,
                    attempt: failures + 1,
                    backoff,
                },
            );
        }
        self.squash_from(req_id, slot_id, SquashKind::Fault);
        self.rt
            .sim
            .schedule_in(backoff, Ev::RetrySlot(req_id, slot_id));
    }

    /// Backoff elapsed: the held slot may launch again (it was reset in
    /// place by the fault squash, so the ordinary pump relaunches it).
    pub(super) fn on_retry_slot(&mut self, req_id: RequestId, slot_id: SlotId) {
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        req.retry_hold.remove(&slot_id);
        if self.rt.tracer.enabled() {
            let now = self.rt.sim.now();
            self.rt.tracer.emit(
                now,
                TraceEventKind::Replay {
                    req: req_id.0,
                    slot: slot_id.0,
                },
            );
        }
        self.pump(req_id);
    }

    /// Terminally fails a request: tears down every instance still
    /// working for it, discards its speculative state, and records a
    /// [`RequestOutcome::Failed`]. Committed work (already flushed to
    /// global storage) stays, matching a real platform where a workflow
    /// aborts midway.
    pub(super) fn abort_request(&mut self, req_id: RequestId) {
        let now = self.rt.sim.now();
        let Some(req) = self.requests.remove(&req_id) else {
            return;
        };
        let mut victims: Vec<InstanceId> = req.slot_inst.values().copied().collect();
        victims.sort(); // HashMap order is not deterministic
        for id in victims {
            self.teardown_instance(id);
        }
        let mut wasted: Vec<(SlotId, SimDuration)> =
            req.slot_cpu.iter().map(|(s, t)| (*s, *t)).collect();
        wasted.sort_by_key(|(s, _)| *s); // HashMap order is not deterministic
        for (slot, t) in wasted {
            let func = req
                .pipeline
                .slot(slot)
                .map(|s| s.func)
                .unwrap_or(FuncId(u32::MAX));
            self.rt.charge_squashed(req_id, func, "abort", 0, t);
        }
        if self.rt.tracer.enabled() {
            self.rt.tracer.emit(
                now,
                TraceEventKind::Terminal {
                    req: req_id.0,
                    completed: false,
                },
            );
        }
        self.rt.metrics.functions_squashed += u64::from(req.functions_squashed);
        self.rt.registry.inc("specfaas_requests_failed_total");
        if req.measured {
            self.rt.metrics.record_failure(InvocationRecord {
                arrived: req.arrived,
                completed: now,
                functions_run: req.functions_run,
                functions_squashed: req.functions_squashed,
                sequence: req.committed_sequence,
                outcome: RequestOutcome::Failed,
            });
        } else {
            self.rt.metrics.faults.aborted += 1;
        }
        // Closed loop: the client observes the failure and issues its
        // next request.
        harness::closed_loop_resubmit(self);
    }
}
