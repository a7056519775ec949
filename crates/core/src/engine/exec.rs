//! SpecFaaS semantics of instance effects: Data Buffer reads and writes,
//! stalls, calls with callee prefetch matching, and HTTP gating (§V-C,
//! §V-D, §VI).
use super::*;

impl SpecCore {
    /// Resumes an instance: an attached one steps through the shared step
    /// boundary and its effects get SpecFaaS semantics; a lazily squashed
    /// orphan steps in the background.
    pub(super) fn on_resume(&mut self, id: InstanceId, resume: Option<Value>) {
        if self.orphans.contains(&id) {
            let step = self.rt.step_instance(id, resume);
            return self.orphan_effect(id, step);
        }
        let Some((req_id, slot_id)) = self.attached(id) else {
            return; // killed, or squashed and awaiting SquashRelease
        };
        match self.rt.resume_instance(id, resume) {
            Step::Idle => {}
            Step::Crashed => self.slot_fault(req_id, slot_id),
            Step::Kv(op) => self.kv_access(id, op, 1),
            Step::Http => {
                let req = self.requests.get_mut(&req_id).expect("live");
                if Self::effectively_head(req, slot_id) {
                    let lat = self.rt.model.http_latency;
                    self.rt.resume_in(lat, id, None);
                } else {
                    // Deferred until the function turns non-speculative
                    // (§VI, "Side-effect Handling").
                    let slot = req.pipeline.slot_mut(slot_id).expect("live");
                    slot.run.http_deferred = true;
                    self.rt.block_instance(id);
                }
            }
            Step::Call(func, args) => self.handle_call(req_id, slot_id, id, &func, args),
            Step::Done(out) => self.complete_slot(req_id, slot_id, id, out),
        }
    }

    /// How a faulted instance recovers: its slot is squashed and retried
    /// after backoff. A lazily squashed orphan has no slot to retry; the
    /// watchdog just tears it down so it cannot hold its core forever.
    pub(super) fn fault(&mut self, id: InstanceId) {
        match self.attached(id) {
            Some((req_id, slot_id)) => self.slot_fault(req_id, slot_id),
            None => self.teardown_instance(id),
        }
    }

    /// Performs a storage operation of an attached instance after the
    /// transient-fault roll. An instance squashed while its retry backoff
    /// ran drops the operation.
    pub(super) fn kv_access(&mut self, id: InstanceId, op: KvOp, attempt: u32) {
        let Some((req_id, slot_id)) = self.attached(id) else {
            return;
        };
        match self.rt.kv_roll(id, op, attempt) {
            KvRoll::Apply(KvOp::Get { key }) => self.handle_get(req_id, slot_id, id, key),
            KvRoll::Apply(KvOp::Set { key, value }) => {
                self.handle_set(req_id, slot_id, id, key, value)
            }
            KvRoll::Retrying => {}
            // Storage retries exhausted: the whole execution faults.
            KvRoll::Exhausted => self.slot_fault(req_id, slot_id),
        }
    }

    /// Storage read through the Data Buffer (§V-C).
    pub(super) fn handle_get(
        &mut self,
        req_id: RequestId,
        slot_id: SlotId,
        id: InstanceId,
        key: String,
    ) {
        let lat = self.rt.kv.latency().read + self.rt.model.data_buffer_hop;
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        // The slot may have been squashed away while this operation was
        // in flight (kill latency); reads from dying executions are void.
        let Some(slot) = req.pipeline.slot(slot_id) else {
            return;
        };
        let my_func = slot.func;

        // Reading back its own buffered write: no later write by another
        // function can make this read stale, so it is not exposed (§V-C)
        // and needs neither a stall nor the R bit.
        if let Some(own) = req.buffer.own_write(slot_id, &key) {
            let own = own.clone();
            self.rt
                .finish_kv(id, lat, "specfaas_kv_reads_total", Some(own));
            return;
        }

        // Stall-list check (§V-C): if this (producer, consumer, record)
        // has squashed before, stall instead of reading prematurely.
        if self.config.stall_optimization {
            let producers = self.stall_list.producers_for(my_func, &key);
            if !producers.is_empty() {
                let my_pos = req.pipeline.position(slot_id).expect("live");
                let pending_producer = req.pipeline.iter().take(my_pos).find(|s| {
                    producers.contains(&s.func)
                        && s.state != SlotState::Completed
                        && !req.buffer.has_write(s.id, &key)
                });
                if let Some(producer) = pending_producer.map(|s| s.id) {
                    req.stalled_reads.push(StalledRead {
                        slot: slot_id,
                        inst: id,
                        key,
                        producer,
                    });
                    self.stall_list.record_stall();
                    self.rt.block_instance(id);
                    return;
                }
            }
        }
        let value = match req.buffer.read(slot_id, &key, &req.pipeline) {
            ReadResult::Forwarded(v) => v,
            ReadResult::Global => self.rt.kv.get(&key).cloned().unwrap_or(Value::Null),
        };
        self.rt
            .finish_kv(id, lat, "specfaas_kv_reads_total", Some(value));
    }

    /// Storage write through the Data Buffer: buffered, with out-of-order
    /// RAW detection (§V-C).
    pub(super) fn handle_set(
        &mut self,
        req_id: RequestId,
        slot_id: SlotId,
        id: InstanceId,
        key: String,
        value: Value,
    ) {
        let lat = self.rt.kv.latency().write + self.rt.model.data_buffer_hop;
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        // Writes from squashed-in-flight executions are void (§V-E).
        let Some(slot) = req.pipeline.slot(slot_id) else {
            return;
        };
        let my_func = slot.func;
        let victims = req.buffer.write(slot_id, &key, value, &req.pipeline);

        // Remember the producer→consumer pairs that squash (stall list).
        if let Some(first) = victims.first() {
            let consumer_func = req.pipeline.slot(*first).map(|s| s.func);
            if let Some(cf) = consumer_func {
                self.stall_list.record_squash(my_func, cf, &key);
            }
            let first = *first;
            self.squash_from(req_id, first, SquashKind::Violation);
        }

        // Release any stalled reads waiting for this producer+key.
        self.release_stalls(req_id, Some((slot_id, key)));

        self.rt.finish_kv(id, lat, "specfaas_kv_writes_total", None);
    }

    /// Re-resolves stalled reads whose producer wrote the record,
    /// completed, or disappeared.
    pub(super) fn release_stalls(&mut self, req_id: RequestId, wrote: Option<(SlotId, String)>) {
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        let mut released = Vec::new();
        req.stalled_reads.retain(|sr| {
            let producer_live = req.pipeline.slot(sr.producer).is_some();
            let producer_done = req
                .pipeline
                .slot(sr.producer)
                .map(|s| s.state == SlotState::Completed)
                .unwrap_or(true);
            let produced = req.buffer.has_write(sr.producer, &sr.key)
                || wrote
                    .as_ref()
                    .map(|(p, k)| *p == sr.producer && *k == sr.key)
                    .unwrap_or(false);
            if !producer_live || producer_done || produced {
                released.push((sr.inst, sr.key.clone()));
                false
            } else {
                true
            }
        });
        for (inst, key) in released {
            // Re-issue the read, now past the stall window.
            if self.rt.instances.contains_key(&inst) {
                self.kv_access(inst, KvOp::Get { key }, 1);
            }
        }
    }

    /// Implicit-workflow call: match against prefetched callees or spawn
    /// on demand (§V-D).
    pub(super) fn handle_call(
        &mut self,
        req_id: RequestId,
        caller_slot: SlotId,
        caller_inst: InstanceId,
        func_name: &str,
        args: Value,
    ) {
        let Some(callee_func) = self.rt.app.registry.lookup(func_name) else {
            // Unknown callee: resolve as Null after an RPC hop.
            let hop = self.rt.model.transfer_fixed;
            self.rt.resume_in(hop, caller_inst, Some(Value::Null));
            return;
        };
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        let Some(caller) = req.pipeline.slot(caller_slot) else {
            return; // caller squashed while the call was in flight
        };
        let site = caller.run.cursor;
        // Is there a prefetched callee slot for this site? Leading entries
        // whose slots were squashed away are dropped, and the call takes
        // the next one whether or not it matches.
        let squashed = caller
            .run
            .prefetched
            .iter()
            .take_while(|h| req.pipeline.slot(**h).is_none())
            .count();
        let prefetched = caller.run.prefetched.get(squashed).copied();
        let run = &mut req.pipeline.slot_mut(caller_slot).expect("live").run;
        run.cursor += 1;
        run.prefetched
            .drain(..squashed + usize::from(prefetched.is_some()));
        if let Some(cslot) = prefetched {
            let matches = req
                .pipeline
                .slot(cslot)
                .map(|s| {
                    s.func == callee_func
                        && s.input.as_ref() == Some(&args)
                        && matches!(s.role, SlotRole::Callee { site: ps, .. } if ps == site)
                })
                .unwrap_or(false);
            if matches {
                let callee = req.pipeline.slot_mut(cslot).expect("live");
                if callee.state == SlotState::Completed {
                    self.consume_callee(req_id, caller_slot, caller_inst, cslot);
                } else {
                    // Stall the caller until the callee completes (§V-D);
                    // the blocked caller yields its execution slot.
                    callee.caller_waiting = true;
                    self.rt.block_instance(caller_inst);
                    // The callee may just have become the non-speculative
                    // execution point: release its deferred side effects.
                    self.release_deferred_http(req_id);
                }
                return;
            }
            // Mismatch: squash the wrong prefetch (and everything after).
            self.squash_from(req_id, cslot, SquashKind::WrongPath);
        }

        // Spawn the callee on demand (non-speculative input).
        let req = self.requests.get_mut(&req_id).expect("live");
        let caller_path = req.pipeline.slot(caller_slot).expect("live").path;
        let anchor = req.pipeline.block_end(caller_slot);
        let cslot = req.pipeline.insert_after(
            anchor,
            callee_func,
            SlotRole::Callee {
                caller: caller_slot,
                site,
            },
            caller_path,
        );
        let s = req.pipeline.slot_mut(cslot).expect("fresh");
        s.input = Some(args);
        s.non_speculative = self
            .rt
            .app
            .registry
            .spec(callee_func)
            .annotations
            .non_speculative;
        s.caller_waiting = true;
        let launchable = !s.non_speculative || req.pipeline.is_head(cslot);
        self.rt.block_instance(caller_inst);
        if launchable {
            self.launch_slot(req_id, cslot);
        }
        self.release_deferred_http(req_id);
    }

    /// True when `slot` is non-speculative in the paper's sense: it is
    /// the pipeline head, or it is a callee whose entire caller chain is
    /// head-and-blocked-waiting on it (§V-D: the caller stalls at the
    /// call site, so the callee is the actual execution point).
    pub(super) fn effectively_head(req: &Req, slot: SlotId) -> bool {
        let mut cur = slot;
        loop {
            if req.pipeline.is_head(cur) {
                return true;
            }
            let Some(s) = req.pipeline.slot(cur) else {
                return false;
            };
            match s.role {
                SlotRole::Callee { caller, .. } if s.caller_waiting => cur = caller,
                _ => return false,
            }
        }
    }

    /// The top-level entry slot a callee ultimately works for (walks the
    /// caller chain).
    pub(super) fn entry_ancestor(req: &Req, slot: SlotId) -> Option<SlotId> {
        let mut cur = slot;
        loop {
            let s = req.pipeline.slot(cur)?;
            match s.role {
                SlotRole::Entry { .. } => return Some(cur),
                SlotRole::Callee { caller, .. } => cur = caller,
            }
        }
    }

    /// Resumes any deferred side effects whose slot has become
    /// effectively non-speculative, in program order.
    pub(super) fn release_deferred_http(&mut self, req_id: RequestId) {
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        let ready: Vec<SlotId> = req
            .pipeline
            .iter()
            .filter(|s| s.run.http_deferred && Self::effectively_head(req, s.id))
            .map(|s| s.id)
            .collect();
        for slot in ready {
            let slot = req.pipeline.slot_mut(slot).expect("live");
            slot.run.http_deferred = false;
            let inst = slot.run.inst.expect("a deferred slot's handler is live");
            self.rt.resume_in(self.rt.model.http_latency, inst, None);
        }
    }

    /// Folds a completed callee into its caller: merge Data Buffer
    /// columns, record learning, remove the callee slot, resume the
    /// caller with the callee's output.
    pub(super) fn consume_callee(
        &mut self,
        req_id: RequestId,
        caller_slot: SlotId,
        caller_inst: InstanceId,
        callee_slot: SlotId,
    ) {
        let req = self.requests.get_mut(&req_id).expect("live");
        req.buffer.merge(callee_slot, caller_slot);
        let callee = req.pipeline.remove(callee_slot);
        let input = callee.input.expect("callee input");
        let output = callee.output.expect("completed callee");
        req.head.sequence.push(callee.func.0);
        let caller = req.pipeline.slot_mut(caller_slot).expect("live");
        // The caller's memo row records its *direct* calls only.
        caller
            .learned_calls
            .push((callee.func, input.clone(), output.clone()));
        // Move callee CPU accounting into the caller's bucket.
        if let Some(t) = callee.run.cpu {
            caller.run.cpu = Some(caller.run.cpu.unwrap_or(SimDuration::ZERO) + t);
        }
        // Bubble the callee's own observation (with its direct callee
        // list) to the owning entry slot for commit-time promotion.
        if let Some(entry) = Self::entry_ancestor(req, caller_slot) {
            let (callee_funcs, callee_inputs) = callee
                .learned_calls
                .into_iter()
                .map(|(f, i, _)| (f, i))
                .unzip();
            let entry = req.pipeline.slot_mut(entry).expect("live");
            entry.run.call_records.push(CallRecord {
                func: callee.func,
                input,
                output: output.clone(),
                callee_funcs,
                callee_inputs,
            });
        }
        let hop = self.rt.model.data_buffer_hop;
        self.rt.resume_in(hop, caller_inst, Some(output));
    }
}
