//! The pump: extending speculation along the predicted path,
//! launching ready slots and prefetching callees (paper §V-A/§V-D).
use super::*;

impl SpecCore {
    pub(super) fn pump(&mut self, req_id: RequestId) {
        if !self.requests.contains_key(&req_id) {
            return;
        }
        self.extend(req_id);
        self.launch_ready(req_id);
        self.release_deferred_http(req_id);
        self.try_commit(req_id);
        self.check_complete(req_id);
    }

    /// Fires the response once the workflow end has committed and no
    /// slots remain in flight (checked after every transition — slots can
    /// leave the pipeline outside the commit path, e.g. orphaned-callee
    /// cleanup).
    pub(super) fn check_complete(&mut self, req_id: RequestId) {
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        if req.end_committed && req.pipeline.is_empty() && !req.completed {
            req.completed = true;
            self.rt
                .sim
                .schedule_in(self.rt.model.response_return, Ev::Complete(req_id));
        }
    }

    /// Creates program-order successors for every unextended entry slot
    /// whose successor payload is (actually or speculatively) known.
    pub(super) fn extend(&mut self, req_id: RequestId) {
        let depth = self.config.effective_depth(self.rt.cluster.occupancy());
        loop {
            let Some(req) = self.requests.get(&req_id) else {
                return;
            };
            if req.pipeline.len() >= depth
                || req.pipeline.total_created() as usize >= SpecConfig::MAX_SLOTS_PER_REQUEST
            {
                return;
            }
            // Find the first unextended entry slot (program order).
            let candidate = req.pipeline.iter().find_map(|s| match s.role {
                SlotRole::Entry { entry } if !s.run.extended => Some((s.id, entry)),
                _ => None,
            });
            let Some((slot_id, entry)) = candidate else {
                return;
            };
            if !self.extend_one(req_id, slot_id, entry) {
                return;
            }
        }
    }

    /// Attempts to create the successor of one entry slot. Returns true
    /// if extension made progress (successor created or slot marked
    /// terminally extended). Only the forwarded payload is copied.
    pub(super) fn extend_one(&mut self, req_id: RequestId, slot_id: SlotId, entry: usize) -> bool {
        let slot = self.requests[&req_id]
            .pipeline
            .slot(slot_id)
            .expect("live slot");
        let completed = slot.state == SlotState::Completed;
        let (slot_path, slot_func) = (slot.path, slot.func);
        let slot_input_spec = slot.input_speculative;

        let (next_entry, payload, payload_spec) = match self.seqtable.kind_at(entry) {
            EntryKind::Simple { next } => {
                let Some(n) = *next else {
                    self.mark_extended(req_id, slot_id);
                    return true;
                };
                // Join entries are speculation barriers: handled at commit.
                if self.seqtable.compiled().entries[n].join_arity > 1 {
                    self.mark_extended(req_id, slot_id);
                    return true;
                }
                if completed {
                    (n, slot.output.clone().expect("completed has output"), false)
                } else if self.config.memoization {
                    match &slot.predicted_output {
                        Some(p) => (n, p.clone(), true),
                        None => return false, // stuck until completion
                    }
                } else {
                    return false;
                }
            }
            EntryKind::Branch {
                field,
                taken,
                not_taken,
            } => {
                let (taken, not_taken) = (*taken, *not_taken);
                let outcome = if completed {
                    Some(branch_outcome(
                        slot.output.as_ref().expect("completed"),
                        field.as_deref(),
                    ))
                } else if !self.config.branch_prediction {
                    None
                } else {
                    // Only the forced-accuracy oracle reads the input.
                    let oracle_input = self
                        .config
                        .forced_branch_accuracy
                        .and_then(|_| slot.input.clone());
                    self.predict_branch(entry, slot_path, slot_func, oracle_input)
                };
                let Some(dir) = outcome else { return false };
                let target = if dir { taken } else { not_taken };
                // Record the prediction on the branch slot (for later
                // validation) when it was actually a prediction.
                if !completed {
                    let req = self.requests.get_mut(&req_id).expect("live");
                    req.pipeline
                        .slot_mut(slot_id)
                        .expect("live")
                        .predicted_taken = Some(dir);
                    self.rt.registry.inc("specfaas_branch_predictions_total");
                    if self.rt.tracer.enabled() {
                        let now = self.rt.sim.now();
                        self.rt.tracer.emit(
                            now,
                            TraceEventKind::BranchPredict {
                                req: req_id.0,
                                taken: dir,
                            },
                        );
                    }
                }
                let Some(n) = target else {
                    // Predicted end of workflow: nothing to launch until
                    // the branch resolves.
                    self.mark_extended(req_id, slot_id);
                    return true;
                };
                if self.seqtable.compiled().entries[n].join_arity > 1 {
                    self.mark_extended(req_id, slot_id);
                    return true;
                }
                // Branch functions route, passing their input through.
                let slot = self.requests[&req_id].pipeline.slot(slot_id);
                let payload = slot.and_then(|s| s.input.clone()).expect("slot has input");
                (n, payload, slot_input_spec || !completed)
            }
            EntryKind::Fork { .. } => {
                // Conservative: parallel fan-out happens at commit.
                self.mark_extended(req_id, slot_id);
                return true;
            }
        };

        // Create the successor slot after this slot's descendant block.
        let func = self.seqtable.func_at(next_entry);
        let non_speculative = self.rt.app.registry.spec(func).annotations.non_speculative;
        let req = self.requests.get_mut(&req_id).expect("live request");
        let anchor = req.pipeline.block_end(slot_id);
        let new_id = req.pipeline.insert_after(
            anchor,
            func,
            SlotRole::Entry { entry: next_entry },
            slot_path.extend(slot_func.0),
        );
        let s = req.pipeline.slot_mut(new_id).expect("fresh slot");
        s.input = Some(payload);
        s.input_speculative = payload_spec;
        s.non_speculative = non_speculative;
        req.pipeline.slot_mut(slot_id).expect("live").run.extended = true;
        // Memo-predict the new slot's own output so extension can continue.
        self.refresh_prediction(req_id, new_id);
        true
    }

    pub(super) fn mark_extended(&mut self, req_id: RequestId, slot_id: SlotId) {
        let req = self.requests.get_mut(&req_id).expect("live");
        req.pipeline.slot_mut(slot_id).expect("live").run.extended = true;
    }

    /// Looks up the memoization table for a slot's input and stores the
    /// predicted output on the slot.
    pub(super) fn refresh_prediction(&mut self, req_id: RequestId, slot_id: SlotId) {
        if !self.config.memoization {
            return;
        }
        let req = self.requests.get_mut(&req_id).expect("live");
        let Some(slot) = req.pipeline.slot_mut(slot_id) else {
            return;
        };
        let Some(input) = &slot.input else {
            return;
        };
        let func = slot.func.0;
        let hit = if let Some(entry) = self.memos.table_mut(func).lookup(input) {
            slot.predicted_output = Some(entry.output.clone());
            true
        } else {
            false
        };
        if hit {
            self.rt.registry.inc("specfaas_memo_hits_total");
            if self.rt.tracer.enabled() {
                let now = self.rt.sim.now();
                self.rt.tracer.emit(
                    now,
                    TraceEventKind::MemoHit {
                        req: req_id.0,
                        func,
                    },
                );
            }
        }
    }

    /// Predicts an unresolved branch, honouring forced-accuracy mode.
    pub(super) fn predict_branch(
        &mut self,
        entry: usize,
        path: PathHistory,
        func: FuncId,
        input: Option<Value>,
    ) -> Option<bool> {
        let site = BranchSite::Entry(entry);
        let pred = if let Some(acc) = self.config.forced_branch_accuracy {
            let input = input?;
            let actual = self.oracle_outcome(entry, func, input)?;
            self.predictor
                .predict(site, path, Some((actual, acc, &mut self.rt.rng)))
        } else {
            self.predictor.predict(site, path, None)
        };
        match pred {
            Prediction::Taken => Some(true),
            Prediction::NotTaken => Some(false),
            Prediction::NoSpeculation => None,
        }
    }

    /// Omniscient evaluation of a branch condition function (used only by
    /// the forced-accuracy oracle of Fig. 14): runs the cond program
    /// functionally against a snapshot view of committed storage.
    pub(super) fn oracle_outcome(
        &mut self,
        entry: usize,
        func: FuncId,
        input: Value,
    ) -> Option<bool> {
        let program: Program = self.rt.app.registry.spec(func).program.clone();
        let mut scratch: FxHashMap<String, Value> = FxHashMap::default();
        // Seed reads lazily by pre-copying every key the store holds is
        // wasteful; instead run with an empty scratch and fall back to
        // committed values by pre-populating on demand is not possible
        // through the closure API, so copy the (small) store.
        for (k, v) in self.rt.kv.iter() {
            scratch.insert(k.to_owned(), v.clone());
        }
        let mut rng = self.rt.rng.split();
        let out = Interp::run_functional(
            &program,
            input,
            &mut scratch,
            &mut |_, _, _, _| Ok(Value::Null),
            &mut rng,
        )
        .ok()?;
        let field = match self.seqtable.kind_at(entry) {
            EntryKind::Branch { field, .. } => field.clone(),
            _ => None,
        };
        Some(branch_outcome(&out, field.as_deref()))
    }

    /// Launches every launchable slot.
    pub(super) fn launch_ready(&mut self, req_id: RequestId) {
        let Some(req) = self.requests.get(&req_id) else {
            return;
        };
        let ready: Vec<SlotId> = req
            .pipeline
            .iter()
            .filter(|slot| Self::launchable(req, slot))
            .map(|slot| slot.id)
            .collect();
        for s in ready {
            // A pure-function skip completes its slot inside `launch_slot`,
            // and the completion pumps the request again, which can launch
            // or remove slots further down this list. Launching one of
            // those again would give its slot a second instance.
            let still_ready = self.requests.get(&req_id).is_some_and(|req| {
                req.pipeline
                    .slot(s)
                    .is_some_and(|slot| Self::launchable(req, slot))
            });
            if still_ready {
                self.launch_slot(req_id, s);
            }
        }
    }

    /// True if `slot` of `req` waits only for a launch.
    fn launchable(req: &Req, slot: &crate::pipeline::Slot) -> bool {
        slot.state == SlotState::Created
            && slot.input.is_some()
            && (!slot.non_speculative || req.pipeline.is_head(slot.id))
            && !slot.retry_hold
    }

    pub(super) fn launch_slot(&mut self, req_id: RequestId, slot_id: SlotId) {
        let now = self.rt.sim.now();
        // Slot-drop fault: the controller loses a *speculative* launch.
        // The launch is re-attempted after a redispatch delay — it must
        // not wait for the slot to reach the pipeline head, because an
        // implicit-workflow callee sits *behind* callers that block on
        // it (waiting for head would deadlock the request). Head
        // launches are never dropped, so re-attempts always terminate.
        if self.rt.faults.enabled() {
            let head = self
                .requests
                .get(&req_id)
                .map(|r| r.pipeline.is_head(slot_id))
                .unwrap_or(true);
            if !head && self.rt.faults.roll(FaultSite::SlotDrop, now) {
                self.rt.metrics.faults.injected += 1;
                self.rt.metrics.faults.slot_drops += 1;
                self.rt.note_fault(req_id, "slot_drop");
                if self.rt.tracer.enabled() {
                    let func = self
                        .requests
                        .get(&req_id)
                        .and_then(|r| r.pipeline.slot(slot_id))
                        .map(|s| s.func.0)
                        .unwrap_or(u32::MAX);
                    self.rt.tracer.emit(
                        now,
                        TraceEventKind::RetryBackoff {
                            req: req_id.0,
                            func,
                            attempt: 1,
                            backoff: self.rt.retry.backoff(1),
                        },
                    );
                }
                self.rt
                    .sim
                    .schedule_in(self.rt.retry.backoff(1), Ev::RetrySlot(req_id, slot_id));
                return;
            }
        }
        let (ctrl, func, input) = {
            let req = self.requests.get_mut(&req_id).expect("live");
            let slot = req.pipeline.slot_mut(slot_id).expect("live");
            slot.state = SlotState::Running;
            (req.head.ctrl, slot.func, slot.input.clone().expect("input"))
        };
        let annotations = self.rt.app.registry.spec(func).annotations;
        let speculative = self
            .requests
            .get(&req_id)
            .map(|r| !r.pipeline.is_head(slot_id))
            .unwrap_or(false);
        if self.rt.tracer.enabled() {
            self.rt.tracer.emit(
                now,
                TraceEventKind::SlotLaunch {
                    req: req_id.0,
                    slot: slot_id.0,
                    func: func.0,
                    speculative,
                },
            );
        }

        // Pure-function skip (§V-B): on a memoization hit, skip execution
        // entirely. Disabled by default to match the paper's conservative
        // evaluation.
        if self.config.pure_function_skip && annotations.pure_function {
            if let Some(entry) = self.memos.table_mut(func.0).lookup(&input) {
                let output = entry.output.clone();
                let req = self.requests.get_mut(&req_id).expect("live");
                let slot = req.pipeline.slot_mut(slot_id).expect("live");
                slot.state = SlotState::Completed;
                slot.output = Some(output);
                req.head.functions_run += 1;
                self.rt.metrics.functions_started += 1;
                self.rt.registry.inc("specfaas_functions_started_total");
                self.rt
                    .topk_by_function("specfaas_requests_by_function", func, 1);
                self.rt.registry.inc("specfaas_memo_hits_total");
                if self.rt.tracer.enabled() {
                    self.rt.tracer.emit(
                        now,
                        TraceEventKind::MemoHit {
                            req: req_id.0,
                            func: func.0,
                        },
                    );
                }
                self.on_slot_completed(req_id, slot_id);
                return;
            }
        }

        // Sequence-table fast path: no conductor, just a cheap controller
        // launch operation plus the fixed wire cost.
        let service = self.rt.model.spec_launch_service;
        let id = self.rt.spawn_instance(req_id, ctrl, service, func, input);
        self.slot_of.insert(id, slot_id);
        let req = self.requests.get_mut(&req_id).expect("live");
        req.pipeline.slot_mut(slot_id).expect("live").run.inst = Some(id);
        req.head.functions_run += 1;
        if speculative && self.rt.registry.enabled() {
            self.spec_live.insert(id);
        }

        // Implicit-workflow callee prefetch (§V-D): launching f with a
        // memoized input row lets us launch its callees speculatively.
        self.prefetch_callees(req_id, slot_id);
    }

    /// Speculatively creates and launches the learned callees of a slot.
    pub(super) fn prefetch_callees(&mut self, req_id: RequestId, caller_slot: SlotId) {
        if !self.config.branch_prediction || !self.config.memoization {
            // For implicit workflows the two mechanisms only work together
            // (§VIII-B).
            return;
        }
        let depth = self.config.effective_depth(self.rt.cluster.occupancy());
        let caller = self.requests[&req_id]
            .pipeline
            .slot(caller_slot)
            .expect("live");
        let (caller_func, caller_path) = (caller.func, caller.path);
        if !self.seqtable.knows_caller(caller_func) {
            return;
        }
        let Some(input) = &caller.input else { return };
        let Some(row) = self.memos.table(caller_func.0).peek(input) else {
            return;
        };

        let mut anchor = caller_slot;
        let mut created = Vec::new();
        for (site, edge) in self.seqtable.callees_of(caller_func).iter().enumerate() {
            let prob = self.seqtable.call_probability(caller_func, site);
            if prob < 0.5 + self.config.branch_confidence_window {
                break; // stop prefetching at the first unlikely call
            }
            let Some(args) = row.callee_inputs.get(site) else {
                break;
            };
            let req = self.requests.get_mut(&req_id).expect("live");
            if req.pipeline.len() >= depth {
                break;
            }
            let path = caller_path.extend(caller_func.0);
            let id = req.pipeline.insert_after(
                anchor,
                edge.callee,
                SlotRole::Callee {
                    caller: caller_slot,
                    site,
                },
                path,
            );
            {
                let s = req.pipeline.slot_mut(id).expect("fresh");
                s.input = Some(args.clone());
                s.input_speculative = true;
                s.non_speculative = self
                    .rt
                    .app
                    .registry
                    .spec(edge.callee)
                    .annotations
                    .non_speculative;
            }
            let caller = req.pipeline.slot_mut(caller_slot).expect("live");
            caller.run.prefetched.push(id);
            anchor = req.pipeline.block_end(id);
            created.push(id);
        }
        for id in created {
            // Launch unless annotation defers it.
            let launchable = {
                let req = self.requests.get(&req_id).expect("live");
                let slot = req.pipeline.slot(id).expect("live");
                slot.state == SlotState::Created
                    && (!slot.non_speculative || req.pipeline.is_head(id))
            };
            if launchable {
                self.launch_slot(req_id, id); // recursively prefetches
            }
        }
    }
}
