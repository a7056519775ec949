//! Completion, branch resolution, successor validation and strictly
//! in-order commit (§V, §V-E).
use std::collections::hash_map::Entry;

use super::*;

impl SpecCore {
    pub(super) fn complete_slot(
        &mut self,
        req_id: RequestId,
        slot_id: SlotId,
        id: InstanceId,
        output: Value,
    ) {
        // Release execution resources.
        self.slot_of.remove(&id);
        self.spec_live.remove(&id);
        let (inst, core_time) = self.rt.finish_instance(id);

        if !self.requests.contains_key(&req_id) {
            // Request already gone (defensive): the stint can no longer be
            // attributed to a slot, so count it as wasted work rather than
            // dropping it from the core-time conservation ledger.
            self.rt
                .charge_squashed(req_id, inst.func, "late_completion", 0, core_time);
            return;
        }
        if self.requests[&req_id].pipeline.slot(slot_id).is_none() {
            // Slot squashed while its completion event was in flight.
            self.rt
                .charge_squashed(req_id, inst.func, "late_completion", 0, core_time);
            return;
        }
        let req = self.requests.get_mut(&req_id).expect("live");
        let slot = req.pipeline.slot_mut(slot_id).expect("live");
        slot.run.inst = None;
        slot.run.cpu = Some(slot.run.cpu.unwrap_or(SimDuration::ZERO) + core_time);
        slot.state = SlotState::Completed;
        slot.output = Some(output);
        // Prefetched callees the caller never consumed (e.g. a
        // conditional call not taken this run) are wasted speculation:
        // squash them and their descendants.
        self.squash_unconsumed_callees(req_id, slot_id);
        self.on_slot_completed(req_id, slot_id);
    }

    /// Removes every still-live prefetched callee of a just-completed
    /// caller, together with their descendant blocks.
    pub(super) fn squash_unconsumed_callees(&mut self, req_id: RequestId, caller: SlotId) {
        let leftovers: Vec<SlotId> = {
            let Some(req) = self.requests.get_mut(&req_id) else {
                return;
            };
            let caller = req.pipeline.slot_mut(caller).expect("live");
            std::mem::take(&mut caller.run.prefetched)
        };
        for head in leftovers {
            // Collect the callee's contiguous descendant block and squash
            // it (removal, not reset: the work is simply not needed).
            let block: Vec<SlotId> = {
                let Some(req) = self.requests.get(&req_id) else {
                    return;
                };
                if req.pipeline.slot(head).is_none() {
                    continue;
                }
                let end = req.pipeline.block_end(head);
                let start = req.pipeline.position(head).expect("live");
                let stop = req.pipeline.position(end).expect("live");
                req.pipeline
                    .iter_order()
                    .skip(start)
                    .take(stop - start + 1)
                    .collect()
            };
            let cascade = block.len() as u32;
            if self.rt.tracer.enabled() {
                let now = self.rt.sim.now();
                self.rt.tracer.emit(
                    now,
                    TraceEventKind::Squash {
                        req: req_id.0,
                        slot: head.0,
                        cause: SquashCause::WrongPath,
                        cascade,
                    },
                );
            }
            for s in block {
                self.squash_slot(req_id, s, false, "unconsumed_callee", cascade);
            }
        }
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        req.stalled_reads
            .retain(|sr| req.pipeline.slot(sr.slot).is_some());
    }

    /// Post-completion processing: resolve branches, validate successor
    /// inputs, wake waiting callers, release stalls, pump.
    pub(super) fn on_slot_completed(&mut self, req_id: RequestId, slot_id: SlotId) {
        // 1. Branch resolution (control-dependence validation).
        self.resolve_branch(req_id, slot_id);
        // 2. Data-dependence validation of the program-order successor.
        self.validate_successor(req_id, slot_id);
        // 3. Wake a caller stalled on this callee.
        self.wake_waiting_caller(req_id, slot_id);
        // 4. Stalled reads watching this producer can proceed.
        self.release_stalls(req_id, None);
        // 5. Fork-join contributions are handled at commit (conservative).
        self.pump(req_id);
    }

    pub(super) fn resolve_branch(&mut self, req_id: RequestId, slot_id: SlotId) {
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        let Some(slot) = req.pipeline.slot_mut(slot_id) else {
            return;
        };
        let SlotRole::Entry { entry } = slot.role else {
            return;
        };
        let EntryKind::Branch { field, .. } = self.seqtable.kind_at(entry) else {
            return;
        };
        let Some(predicted) = slot.predicted_taken else {
            return; // never speculated past
        };
        let output = slot.output.as_ref().expect("completed");
        let actual = branch_outcome(output, field.as_deref());
        slot.predicted_taken = None; // resolved
        self.predictor.record_outcome(predicted == actual);
        if self.rt.tracer.enabled() {
            let now = self.rt.sim.now();
            self.rt.tracer.emit(
                now,
                TraceEventKind::BranchResolve {
                    req: req_id.0,
                    predicted,
                    actual,
                },
            );
        }
        if predicted != actual {
            // Squash the wrong path: everything after the branch.
            let req = self.requests.get_mut(&req_id).expect("live");
            let succ = req.pipeline.successors(slot_id);
            if let Some(first) = succ.first().copied() {
                self.squash_from(req_id, first, SquashKind::WrongPath);
            }
            // Allow re-extension along the correct path.
            let req = self.requests.get_mut(&req_id).expect("live");
            if let Some(slot) = req.pipeline.slot_mut(slot_id) {
                slot.run.extended = false;
            }
        }
    }

    /// Validates the memo-predicted input of this slot's program-order
    /// successor against the actual output (§V-B).
    pub(super) fn validate_successor(&mut self, req_id: RequestId, slot_id: SlotId) {
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        let Some(slot) = req.pipeline.slot(slot_id) else {
            return;
        };
        let SlotRole::Entry { entry } = slot.role else {
            return;
        };
        let expected = match self.seqtable.kind_at(entry) {
            EntryKind::Simple { .. } => slot.output.as_ref().expect("completed"),
            // Branch entries route their own input through; forks are
            // spawned at commit with actual outputs.
            EntryKind::Branch { .. } => slot.input.as_ref().expect("input"),
            EntryKind::Fork { .. } => return,
        };
        // The successor is the first Entry-role slot after this slot's
        // descendant block.
        let anchor = req.pipeline.block_end(slot_id);
        let pos = req.pipeline.position(anchor).expect("live");
        let Some(succ) = req.pipeline.iter_order().nth(pos + 1) else {
            return;
        };
        let s = req.pipeline.slot(succ).expect("live");
        if !matches!(s.role, SlotRole::Entry { .. }) || !s.input_speculative {
            return;
        }
        if s.input.as_ref() == Some(expected) {
            // Validated: the prediction was right.
            req.pipeline.slot_mut(succ).expect("live").input_speculative = false;
        } else {
            // Correct the input BEFORE squashing: squash_from ends with a
            // pump that may relaunch the reset slot on the spot, and that
            // instance must capture the validated input — relaunching
            // with the stale one would recompute the stale output,
            // self-validate the stale speculation downstream, and learn a
            // wrong memo row at commit.
            let expected = expected.clone();
            let s = req.pipeline.slot_mut(succ).expect("live");
            s.input = Some(expected);
            s.input_speculative = false;
            self.squash_from(req_id, succ, SquashKind::WrongInput);
            self.refresh_prediction(req_id, succ);
        }
    }

    pub(super) fn wake_waiting_caller(&mut self, req_id: RequestId, callee_slot: SlotId) {
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        let Some(callee) = req.pipeline.slot_mut(callee_slot) else {
            return;
        };
        let caller_slot = match callee.role {
            SlotRole::Callee { caller, .. } if callee.caller_waiting => caller,
            _ => return,
        };
        callee.caller_waiting = false;
        let Some(caller_inst) = req.pipeline.slot(caller_slot).and_then(|s| s.run.inst) else {
            // The caller was squashed while this callee ran; it will
            // re-issue the call against fresh state, so this completed
            // callee is an orphan — drop it (buffered writes included).
            req.buffer.squash(callee_slot);
            let callee = req.pipeline.remove(callee_slot);
            req.head.functions_squashed += 1;
            if let Some(t) = callee.run.cpu {
                self.rt
                    .charge_squashed(req_id, callee.func, "orphan_callee", 0, t);
            }
            return;
        };
        self.consume_callee(req_id, caller_slot, caller_inst, callee_slot);
    }

    pub(super) fn try_commit(&mut self, req_id: RequestId) {
        let now = self.rt.sim.now();
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        if req.committing.is_some() || req.completed {
            return;
        }
        let Some(head) = req.pipeline.committable() else {
            return;
        };
        // Callee heads are consumed by their caller, not committed.
        if matches!(
            req.pipeline.slot(head).expect("live").role,
            SlotRole::Callee { .. }
        ) {
            return;
        }
        req.committing = Some(head);
        let ctrl = req.head.ctrl;
        let delay = self
            .rt
            .cluster
            .controller_delay(ctrl, now, self.rt.model.spec_commit_service);
        self.rt
            .sim
            .schedule_in(delay, Ev::CommitApply(req_id, head));
    }

    pub(super) fn on_commit_apply(&mut self, req_id: RequestId, slot_id: SlotId) {
        let Some(mut req) = self.requests.get_mut(&req_id) else {
            return;
        };
        req.committing = None;
        if req.pipeline.head() != Some(slot_id)
            || req.pipeline.slot(slot_id).map(|s| s.state) != Some(SlotState::Completed)
        {
            self.try_commit(req_id);
            return;
        }
        // A head that filled the pipeline to depth was never extended,
        // and once it leaves nothing else would create its successor.
        let slot = req.pipeline.slot(slot_id).expect("live head");
        if let (SlotRole::Entry { entry }, false) = (slot.role, slot.run.extended) {
            self.extend_one(req_id, slot_id, entry);
            req = self.requests.get_mut(&req_id).expect("live");
        }
        // Flush buffered writes to global storage.
        let flush = req.buffer.commit(slot_id);
        let slot = req.pipeline.remove(slot_id);
        // Credit the committed work (including merged callee stints).
        if let Some(t) = slot.run.cpu {
            self.rt.metrics.useful_core_time += t;
        }
        for (k, v) in flush {
            self.rt.kv.set(k, v);
        }
        let req = self.requests.get_mut(&req_id).expect("live");
        req.head.sequence.push(slot.func.0);
        self.rt.registry.inc("specfaas_commits_total");
        if self.rt.tracer.enabled() {
            let now = self.rt.sim.now();
            self.rt.tracer.emit(
                now,
                TraceEventKind::Commit {
                    req: req_id.0,
                    slot: slot_id.0,
                    func: slot.func.0,
                },
            );
        }

        // Where the commit leads: a branch outcome to learn, a fork to
        // spawn, a join contribution or the workflow end.
        let input = slot.input.expect("committed slot has input");
        let output = slot.output.expect("committed slot has output");
        let mut branch_taken: Option<bool> = None;
        let mut fork_spawn: Option<(Vec<usize>, Value)> = None;
        let mut join_target: Option<(usize, Value)> = None;
        let mut reached_end = false;
        if let SlotRole::Entry { entry } = slot.role {
            let joins_at = |n: usize| self.seqtable.compiled().entries[n].join_arity > 1;
            match self.seqtable.kind_at(entry) {
                EntryKind::Fork { branches, .. } => {
                    fork_spawn = Some((branches.clone(), output.clone()));
                }
                EntryKind::Simple { next } => match *next {
                    Some(n) if joins_at(n) => join_target = Some((n, output.clone())),
                    Some(_) => {}
                    None => reached_end = true,
                },
                EntryKind::Branch {
                    field,
                    taken,
                    not_taken,
                } => {
                    let dir = branch_outcome(&output, field.as_deref());
                    branch_taken = Some(dir);
                    match if dir { *taken } else { *not_taken } {
                        Some(n) if joins_at(n) => join_target = Some((n, input.clone())),
                        Some(_) => {}
                        None => reached_end = true,
                    }
                }
            }
        }

        // Record committed knowledge for end-of-invocation table updates.
        // The row takes the slot's documents; only the successors' inputs
        // above are copies.
        let (callees, callee_inputs): (Vec<FuncId>, Vec<Value>) = slot
            .learned_calls
            .into_iter()
            .map(|(f, i, _)| (f, i))
            .unzip();
        req.learned.push(Learned::Memo {
            func: slot.func,
            input,
            output,
            callee_inputs,
        });
        // Promote the call observations bubbled up from consumed callees:
        // each carries its own direct callee structure, so mid-tier
        // functions get memoization rows and sequence-table edges too.
        for rec in slot.run.call_records {
            req.learned.push(Learned::Memo {
                func: rec.func,
                input: rec.input,
                output: rec.output,
                callee_inputs: rec.callee_inputs,
            });
            req.learned.push(Learned::Calls {
                caller: rec.func,
                callees: rec.callee_funcs,
            });
        }
        if let SlotRole::Entry { entry } = slot.role {
            if let Some(taken) = branch_taken {
                req.learned.push(Learned::Branch {
                    entry,
                    path: slot.path,
                    taken,
                });
            }
            req.learned.push(Learned::Calls {
                caller: slot.func,
                callees,
            });
        }
        if reached_end {
            req.end_committed = true;
        }

        // Fork: spawn branch heads now, with actual outputs. Their inputs
        // are real, so memo rows can immediately predict their outputs and
        // let extension speculate down each branch.
        if let Some((branches, payload)) = fork_spawn {
            let mut spawned = Vec::new();
            for b in branches {
                let func = self.seqtable.func_at(b);
                let req = self.requests.get_mut(&req_id).expect("live");
                let path = slot.path.extend(slot.func.0);
                let id = req
                    .pipeline
                    .push_back(func, SlotRole::Entry { entry: b }, path);
                let s = req.pipeline.slot_mut(id).expect("fresh");
                s.input = Some(payload.clone());
                s.non_speculative = self.rt.app.registry.spec(func).annotations.non_speculative;
                spawned.push(id);
            }
            for id in spawned {
                self.refresh_prediction(req_id, id);
            }
        }
        // Join contribution.
        if let Some((join_entry, payload)) = join_target {
            let req = self.requests.get_mut(&req_id).expect("live");
            let arity = self.seqtable.compiled().entries[join_entry].join_arity;
            let contribs = req.fork_joins.entry(join_entry).or_default();
            contribs.push(payload);
            if contribs.len() as u32 == arity {
                let inputs = req.fork_joins.remove(&join_entry).expect("present");
                let func = self.seqtable.func_at(join_entry);
                let path = slot.path.extend(slot.func.0);
                let id = req
                    .pipeline
                    .push_back(func, SlotRole::Entry { entry: join_entry }, path);
                let s = req.pipeline.slot_mut(id).expect("fresh");
                s.input = Some(Value::from(inputs));
                s.non_speculative = self.rt.app.registry.spec(func).annotations.non_speculative;
                // The join's input (all contributions) is real: a memo row
                // for it lets extension speculate past the join barrier.
                self.refresh_prediction(req_id, id);
            }
        }

        // Release deferred side effects that turned non-speculative.
        self.release_deferred_http(req_id);

        // Request completion is checked inside pump().
        self.pump(req_id);
    }

    pub(super) fn on_complete(&mut self, req_id: RequestId) {
        let Some(req) = self.requests.remove(&req_id) else {
            return;
        };
        // Apply committed knowledge to the persistent tables (§V-E: never
        // updated with speculative data — the whole invocation validated).
        // Group memo knowledge by (func, input): the callee inputs come
        // from the commit record of the caller. The map's iteration order
        // sets the rows' LRU ticks, hence later evictions.
        let mut memo_rows: FxHashMap<(u32, Value), (Value, Vec<Value>)> = FxHashMap::default();
        for l in req.learned {
            match l {
                Learned::Memo {
                    func,
                    input,
                    output,
                    callee_inputs,
                } => match memo_rows.entry((func.0, input)) {
                    Entry::Occupied(mut e) => {
                        let row = e.get_mut();
                        row.0 = output;
                        if !callee_inputs.is_empty() {
                            row.1 = callee_inputs;
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert((output, callee_inputs));
                    }
                },
                Learned::Branch { entry, path, taken } => {
                    self.predictor.update(BranchSite::Entry(entry), path, taken);
                }
                Learned::Calls { caller, callees } => {
                    self.seqtable.learn_calls(caller, &callees);
                }
            }
        }
        for ((func, input), (output, callee_inputs)) in memo_rows {
            self.memos
                .table_mut(func)
                .insert(input, output, callee_inputs);
        }
        self.memo_entries = self.memos.total_entries();
        if self.rt.tracer.checking() {
            // The learned-table promotion above is the only place memo
            // tables grow; re-validate capacity after every request.
            for f in 0..self.rt.app.registry.len() as u32 {
                let t = self.memos.table(f);
                self.rt.tracer.check_memo_capacity(f, t.len(), t.capacity());
            }
        }
        harness::terminate(self, req_id, req.head, RequestOutcome::Completed);
    }
}
