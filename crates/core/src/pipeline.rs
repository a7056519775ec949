//! The Function Execution Pipeline (paper §V, Fig. 7).
//!
//! For each application invocation the controller maintains the ordered
//! list of not-yet-committed functions, tagged with speculative / completed
//! state. Commits are strictly in order, like a processor's reorder
//! buffer: the oldest slot commits only once it has completed and its
//! dependences are validated.
//!
//! Slots form a *dynamic program order*: explicit workflow entries unroll
//! branches and loops; implicit callees are inserted between their caller
//! and the caller's successors (§V-D).
//!
//! A slot is the whole record of one in-flight function, like a reorder
//! buffer entry: besides its program-order facts it holds the engine's
//! state for it (instance, core time, call cursor, deferred side effect,
//! retry accounting). Removing a slot drops that state; a squash that
//! re-executes a slot clears it with `Slot::reset`.

use std::fmt;

use specfaas_platform::exec::InstanceId;
use specfaas_sim::hash::FxHashMap;
use specfaas_sim::SimDuration;
use specfaas_storage::Value;
use specfaas_workflow::FuncId;

use crate::predictor::PathHistory;

/// Identifier of a pipeline slot (one dynamic function execution site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(pub u64);

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot#{}", self.0)
    }
}

/// Lifecycle state of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Created but not yet launched (input may still be unknown).
    Created,
    /// Launched: platform overhead / container / core acquisition or
    /// execution in progress.
    Running,
    /// Execution finished; output available; awaiting commit.
    Completed,
    /// Committed (terminal; slot leaves the pipeline).
    Committed,
}

/// Why a slot exists and where its continuation goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRole {
    /// Executes compiled-workflow entry `entry`.
    Entry {
        /// Entry index in the compiled workflow.
        entry: usize,
    },
    /// A speculatively launched (or demand-spawned) callee of `caller`,
    /// at call-site index `site` in call order.
    Callee {
        /// The caller's slot.
        caller: SlotId,
        /// Call-site index (0-based, in call order).
        site: usize,
    },
}

/// What the engine core keeps for a slot's current execution. A squash
/// that re-executes the slot clears all of it ([`Slot::reset`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Run {
    /// The instance executing the slot.
    pub(crate) inst: Option<InstanceId>,
    /// Core time of the completed execution and the callees it consumed,
    /// until commit credits it or a squash charges it as wasted.
    pub(crate) cpu: Option<SimDuration>,
    /// Entry slots: the program-order successor exists (or never will).
    pub(crate) extended: bool,
    /// The HTTP request waits until the slot turns non-speculative.
    pub(crate) http_deferred: bool,
    /// Calls issued so far (the call-site cursor, §V-D).
    pub(crate) cursor: usize,
    /// Prefetched callee slots, in call order, not yet consumed.
    pub(crate) prefetched: Vec<SlotId>,
    /// Entry slots: call observations of the callees consumed beneath
    /// the slot, promoted at commit.
    pub(crate) call_records: Vec<CallRecord>,
}

/// A committed call observation bubbled up from a consumed callee:
/// its own input/output plus its *direct* callee list, promoted to the
/// persistent tables when the owning top-level entry slot commits.
#[derive(Debug, Clone)]
pub(crate) struct CallRecord {
    pub(crate) func: FuncId,
    pub(crate) input: Value,
    pub(crate) output: Value,
    pub(crate) callee_funcs: Vec<FuncId>,
    pub(crate) callee_inputs: Vec<Value>,
}

/// One pipeline slot.
#[derive(Debug, Clone)]
pub struct Slot {
    /// This slot's id.
    pub id: SlotId,
    /// Function executed here.
    pub func: FuncId,
    /// Role (workflow entry or callee).
    pub role: SlotRole,
    /// Lifecycle state.
    pub state: SlotState,
    /// Input document (actual or memo-predicted).
    pub input: Option<Value>,
    /// True if `input` came from a memoization prediction and is not yet
    /// validated against the producer's actual output.
    pub input_speculative: bool,
    /// Memo-predicted output (used to feed successors before completion).
    pub predicted_output: Option<Value>,
    /// Actual output, once completed.
    pub output: Option<Value>,
    /// For branch-entry slots: the direction the controller predicted
    /// (None when not speculated past).
    pub predicted_taken: Option<bool>,
    /// Path history at this slot (used to key predictor updates).
    pub path: PathHistory,
    /// Learned callee records (input/output pairs observed at call
    /// returns), bubbled up for commit-time table updates.
    pub learned_calls: Vec<(FuncId, Value, Value)>,
    /// True for slots whose function carries the `non-speculative`
    /// annotation.
    pub non_speculative: bool,
    /// Engine state of the current execution.
    pub(crate) run: Run,
    /// Callee slots: the caller is blocked waiting for this callee (and
    /// keeps waiting across a reset).
    pub(crate) caller_waiting: bool,
    /// Failed attempts (fault-injection retry accounting).
    pub(crate) attempts: u32,
    /// Relaunch held until the retry backoff elapses.
    pub(crate) retry_hold: bool,
}

impl Slot {
    /// Clears everything the slot's last execution produced so it can run
    /// again in place. What identifies the slot (function, role, path,
    /// input, annotation) and what outlives one execution (retry
    /// accounting, a waiting caller) stays.
    pub(crate) fn reset(&mut self) {
        self.state = SlotState::Created;
        self.output = None;
        self.predicted_output = None;
        self.predicted_taken = None;
        self.learned_calls.clear();
        self.run = Run::default();
    }
}

/// The pipeline of in-progress slots for one application invocation.
///
/// # Example
///
/// ```
/// use specfaas_core::{Pipeline, SlotState};
/// use specfaas_core::pipeline::SlotRole;
/// use specfaas_workflow::FuncId;
/// use specfaas_core::predictor::PathHistory;
///
/// let mut p = Pipeline::new();
/// let a = p.push_back(FuncId(0), SlotRole::Entry { entry: 0 }, PathHistory::start());
/// let b = p.push_back(FuncId(1), SlotRole::Entry { entry: 1 }, PathHistory::start());
/// assert_eq!(p.head(), Some(a));
/// assert!(p.is_before(a, b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    order: Vec<SlotId>,
    slots: FxHashMap<SlotId, Slot>,
    next_id: u64,
    total_created: u64,
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Pipeline::default()
    }

    fn new_slot(&mut self, func: FuncId, role: SlotRole, path: PathHistory) -> Slot {
        let id = SlotId(self.next_id);
        self.next_id += 1;
        self.total_created += 1;
        Slot {
            id,
            func,
            role,
            state: SlotState::Created,
            input: None,
            input_speculative: false,
            predicted_output: None,
            output: None,
            predicted_taken: None,
            path,
            learned_calls: Vec::new(),
            non_speculative: false,
            run: Run::default(),
            caller_waiting: false,
            attempts: 0,
            retry_hold: false,
        }
    }

    /// Appends a slot at the tail of program order.
    pub fn push_back(&mut self, func: FuncId, role: SlotRole, path: PathHistory) -> SlotId {
        let slot = self.new_slot(func, role, path);
        let id = slot.id;
        self.slots.insert(id, slot);
        self.order.push(id);
        id
    }

    /// Inserts a slot immediately after `anchor` in program order (used
    /// for implicit callees, which precede their caller's successors).
    ///
    /// # Panics
    /// Panics if `anchor` is not in the pipeline.
    pub fn insert_after(
        &mut self,
        anchor: SlotId,
        func: FuncId,
        role: SlotRole,
        path: PathHistory,
    ) -> SlotId {
        let pos = self
            .position(anchor)
            .expect("insert_after anchor not in pipeline");
        let slot = self.new_slot(func, role, path);
        let id = slot.id;
        self.slots.insert(id, slot);
        self.order.insert(pos + 1, id);
        id
    }

    /// The oldest (least speculative) slot.
    pub fn head(&self) -> Option<SlotId> {
        self.order.first().copied()
    }

    /// The youngest (most speculative) slot.
    pub fn tail(&self) -> Option<SlotId> {
        self.order.last().copied()
    }

    /// Program-order position of a slot.
    pub fn position(&self, id: SlotId) -> Option<usize> {
        self.order.iter().position(|s| *s == id)
    }

    /// True if `a` precedes `b` in program order.
    ///
    /// # Panics
    /// Panics if either slot is not in the pipeline.
    pub fn is_before(&self, a: SlotId, b: SlotId) -> bool {
        self.position(a).expect("slot a in pipeline")
            < self.position(b).expect("slot b in pipeline")
    }

    /// Number of live (uncommitted, unmerged) slots.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if no slots are live.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total slots ever created for this invocation (squash bookkeeping).
    pub fn total_created(&self) -> u64 {
        self.total_created
    }

    /// Program order, oldest first.
    pub fn iter_order(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.order.iter().copied()
    }

    /// The live slots in program order, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Slot> + '_ {
        self.order.iter().map(|id| &self.slots[id])
    }

    /// Slots strictly after `id` in program order, oldest first.
    pub fn successors(&self, id: SlotId) -> Vec<SlotId> {
        match self.position(id) {
            Some(p) => self.order[p + 1..].to_vec(),
            None => Vec::new(),
        }
    }

    /// The last slot of `anchor`'s descendant block: the anchor itself,
    /// or the last of the callees (and their callees) that directly
    /// follow it. A program-order successor of `anchor` belongs after
    /// this slot.
    ///
    /// A callee is always inserted inside its caller's block, so a block
    /// is contiguous: a slot belongs to it when its caller is one of the
    /// slots scanned so far, and the first slot that does not ends it.
    ///
    /// # Panics
    /// Panics if `anchor` is not in the pipeline.
    pub(crate) fn block_end(&self, anchor: SlotId) -> SlotId {
        let start = self.position(anchor).expect("anchor live");
        let mut end = start;
        for (i, s) in self.order.iter().enumerate().skip(start + 1) {
            match self.slots[s].role {
                SlotRole::Callee { caller, .. } if self.order[start..i].contains(&caller) => {
                    end = i
                }
                _ => break,
            }
        }
        self.order[end]
    }

    /// Shared access to a slot.
    pub fn slot(&self, id: SlotId) -> Option<&Slot> {
        self.slots.get(&id)
    }

    /// Mutable access to a slot.
    pub fn slot_mut(&mut self, id: SlotId) -> Option<&mut Slot> {
        self.slots.get_mut(&id)
    }

    /// Removes a slot from the pipeline (commit, squash-removal, or
    /// callee merge). Returns the slot.
    ///
    /// # Panics
    /// Panics if the slot is not live.
    pub fn remove(&mut self, id: SlotId) -> Slot {
        let pos = self.position(id).expect("removing a slot not in pipeline");
        self.order.remove(pos);
        self.slots.remove(&id).expect("slot data present")
    }

    /// True if every slot before `id` has committed (i.e. `id` is the
    /// head): the slot is non-speculative in the paper's sense.
    pub fn is_head(&self, id: SlotId) -> bool {
        self.head() == Some(id)
    }

    /// The head slot if it is ready to commit (completed).
    pub fn committable(&self) -> Option<SlotId> {
        let head = self.head()?;
        let s = self.slot(head).expect("head slot present");
        (s.state == SlotState::Completed).then_some(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe3() -> (Pipeline, SlotId, SlotId, SlotId) {
        let mut p = Pipeline::new();
        let a = p.push_back(
            FuncId(0),
            SlotRole::Entry { entry: 0 },
            PathHistory::start(),
        );
        let b = p.push_back(
            FuncId(1),
            SlotRole::Entry { entry: 1 },
            PathHistory::start(),
        );
        let c = p.push_back(
            FuncId(2),
            SlotRole::Entry { entry: 2 },
            PathHistory::start(),
        );
        (p, a, b, c)
    }

    #[test]
    fn order_and_head_tail() {
        let (p, a, b, c) = pipe3();
        assert_eq!(p.head(), Some(a));
        assert_eq!(p.tail(), Some(c));
        assert!(p.is_before(a, b));
        assert!(p.is_before(b, c));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn insert_after_places_correctly() {
        let (mut p, a, b, _c) = pipe3();
        let x = p.insert_after(
            a,
            FuncId(9),
            SlotRole::Callee { caller: a, site: 0 },
            PathHistory::start(),
        );
        assert!(p.is_before(a, x));
        assert!(p.is_before(x, b));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn successors_lists_younger_slots() {
        let (p, a, b, c) = pipe3();
        assert_eq!(p.successors(a), vec![b, c]);
        assert_eq!(p.successors(c), Vec::<SlotId>::new());
    }

    #[test]
    fn commit_requires_completed_head() {
        let (mut p, a, b, _c) = pipe3();
        assert_eq!(p.committable(), None);
        p.slot_mut(b).unwrap().state = SlotState::Completed;
        assert_eq!(p.committable(), None, "younger completion is not enough");
        p.slot_mut(a).unwrap().state = SlotState::Completed;
        assert_eq!(p.committable(), Some(a));
        let removed = p.remove(a);
        assert_eq!(removed.id, a);
        assert_eq!(p.committable(), Some(b));
    }

    #[test]
    fn remove_keeps_order_consistent() {
        let (mut p, a, b, c) = pipe3();
        p.remove(b);
        assert_eq!(p.successors(a), vec![c]);
        assert!(p.slot(b).is_none());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn is_head_identifies_non_speculative_slot() {
        let (mut p, a, b, _c) = pipe3();
        assert!(p.is_head(a));
        assert!(!p.is_head(b));
        p.remove(a);
        assert!(p.is_head(b));
    }

    /// Program order `a c1 c2 c3 c4 b d1 e`: entry `a` calls `c1`, which
    /// calls `c2`, and then `c3`, which calls `c4`; entry `b` calls `d1`;
    /// `e` is a trailing entry. A block is the anchor plus every directly
    /// following callee whose caller is already in the block. So `a`'s
    /// block runs through its nested callees to `c4`, while `c1`'s stops
    /// at `c2`: the next slot, `c3`, is the callee of a slot outside it.
    #[test]
    fn block_end_covers_nested_callees_only() {
        let start = PathHistory::start();
        let mut p = Pipeline::new();
        let entry = |e| SlotRole::Entry { entry: e };
        let callee = |caller, site| SlotRole::Callee { caller, site };
        let a = p.push_back(FuncId(0), entry(0), start);
        let b = p.push_back(FuncId(1), entry(1), start);
        let e = p.push_back(FuncId(2), entry(2), start);
        let c1 = p.insert_after(a, FuncId(3), callee(a, 0), start);
        let c2 = p.insert_after(c1, FuncId(4), callee(c1, 0), start);
        let c3 = p.insert_after(c2, FuncId(5), callee(a, 1), start);
        let c4 = p.insert_after(c3, FuncId(6), callee(c3, 0), start);
        let d1 = p.insert_after(b, FuncId(7), callee(b, 0), start);
        let order: Vec<SlotId> = p.iter_order().collect();
        assert_eq!(order, vec![a, c1, c2, c3, c4, b, d1, e]);
        let ends = [
            (a, c4),
            (c1, c2),
            (c2, c2),
            (c3, c4),
            (c4, c4),
            (b, d1),
            (d1, d1),
            (e, e),
        ];
        for (anchor, end) in ends {
            assert_eq!(p.block_end(anchor), end, "block of {anchor}");
        }
    }

    /// A reset clears what the last execution produced and keeps what
    /// outlives it: the input, the retry accounting and a waiting caller.
    #[test]
    fn reset_clears_only_execution_state() {
        let (mut p, a, ..) = pipe3();
        let s = p.slot_mut(a).unwrap();
        s.input = Some(Value::Int(1));
        s.state = SlotState::Completed;
        s.output = Some(Value::Int(2));
        s.run.cpu = Some(SimDuration::from_millis(3));
        s.run.extended = true;
        s.run.prefetched.push(SlotId(9));
        s.caller_waiting = true;
        s.attempts = 2;
        s.retry_hold = true;
        s.reset();
        assert_eq!(s.state, SlotState::Created);
        assert!(s.output.is_none() && s.run.cpu.is_none());
        assert!(!s.run.extended && s.run.prefetched.is_empty());
        assert_eq!(s.input, Some(Value::Int(1)));
        assert!(s.caller_waiting && s.retry_hold);
        assert_eq!(s.attempts, 2);
    }

    #[test]
    fn total_created_monotone() {
        let (mut p, a, _b, _c) = pipe3();
        assert_eq!(p.total_created(), 3);
        p.remove(a);
        p.push_back(
            FuncId(5),
            SlotRole::Entry { entry: 0 },
            PathHistory::start(),
        );
        assert_eq!(p.total_created(), 4);
    }
}
