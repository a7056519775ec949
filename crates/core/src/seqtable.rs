//! The Sequence Table (paper §V-A; implicit-workflow extensions §V-D).
//!
//! The Sequence Table lists the ordered sequence of functions an
//! application executes — like the instruction sequence of a program — so
//! the controller can pick the next function to launch without invoking a
//! conductor (removing the Transfer Function Overhead of §III).
//!
//! For explicit workflows the table is created at application compile time
//! from the [`specfaas_workflow::CompiledWorkflow`]; entries at branches
//! embed branch-predictor state. For implicit workflows the platform
//! cannot see function internals, so the table *learns* the call structure
//! from committed invocations: each caller entry gains pointers with the
//! Call (C) bit to its observed callees, and callee entries carry the
//! Return (R) bit (Fig. 10(b)).

use specfaas_sim::hash::FxHashMap;
use specfaas_workflow::{CompiledWorkflow, EntryKind, FuncId};

/// A learned call edge of an implicit workflow: "`caller` invokes `callee`
/// at its `site`-th call site".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEdge {
    /// The callee function (pointer with C bit in the paper's figure).
    pub callee: FuncId,
    /// How many committed invocations of the caller performed this call
    /// (used to decide whether to speculate the call).
    pub observations: u64,
}

/// The Sequence Table of one application.
#[derive(Debug, Clone)]
pub struct SequenceTable {
    /// The static skeleton (explicit workflows; a single root entry for
    /// implicit workflows).
    compiled: CompiledWorkflow,
    /// Learned callee lists, per caller function, in call order
    /// (implicit workflows, Fig. 10(b)).
    calls: FxHashMap<FuncId, Vec<CallEdge>>,
    /// Committed invocation count per caller (denominator for call
    /// probabilities).
    caller_commits: FxHashMap<FuncId, u64>,
    /// Per entry: whether it heads a branch of some fork.
    fork_head: Vec<bool>,
}

impl SequenceTable {
    /// Builds the table from a compiled workflow.
    pub fn new(compiled: CompiledWorkflow) -> Self {
        let mut fork_head = vec![false; compiled.entries.len()];
        for e in &compiled.entries {
            if let EntryKind::Fork { branches, .. } = &e.kind {
                for &b in branches {
                    fork_head[b] = true;
                }
            }
        }
        SequenceTable {
            compiled,
            calls: FxHashMap::default(),
            caller_commits: FxHashMap::default(),
            fork_head,
        }
    }

    /// The static compiled skeleton.
    pub fn compiled(&self) -> &CompiledWorkflow {
        &self.compiled
    }

    /// The entry index execution starts at.
    pub fn start(&self) -> usize {
        self.compiled.start
    }

    /// The function at `entry`.
    ///
    /// # Panics
    /// Panics if `entry` is out of range.
    pub fn func_at(&self, entry: usize) -> FuncId {
        self.compiled.entries[entry].func
    }

    /// True if `entry` is the first entry of a fork branch. Fork-branch
    /// heads are spawned once, when their fork commits.
    ///
    /// # Panics
    /// Panics if `entry` is out of range.
    pub fn is_fork_head(&self, entry: usize) -> bool {
        self.fork_head[entry]
    }

    /// The continuation kind at `entry`.
    ///
    /// # Panics
    /// Panics if `entry` is out of range.
    pub fn kind_at(&self, entry: usize) -> &EntryKind {
        &self.compiled.entries[entry].kind
    }

    /// Records the committed call sequence of one invocation of `caller`
    /// (Fig. 10(b) is built up this way). Only non-speculative,
    /// committed executions update the table (§V-E).
    pub fn learn_calls(&mut self, caller: FuncId, callees: &[FuncId]) {
        *self.caller_commits.entry(caller).or_insert(0) += 1;
        let edges = self.calls.entry(caller).or_default();
        for (site, callee) in callees.iter().enumerate() {
            match edges.get_mut(site) {
                Some(edge) if edge.callee == *callee => edge.observations += 1,
                Some(edge) => {
                    // Call structure diverged at this site: reset the edge
                    // to the newly observed callee (counts restart).
                    *edge = CallEdge {
                        callee: *callee,
                        observations: 1,
                    };
                    // Later sites are no longer trustworthy.
                    edges.truncate(site + 1);
                }
                None => edges.push(CallEdge {
                    callee: *callee,
                    observations: 1,
                }),
            }
        }
    }

    /// The learned callee list of `caller`, in call order.
    pub fn callees_of(&self, caller: FuncId) -> &[CallEdge] {
        self.calls.get(&caller).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Empirical probability that `caller` performs its `site`-th call.
    pub fn call_probability(&self, caller: FuncId, site: usize) -> f64 {
        let commits = self.caller_commits.get(&caller).copied().unwrap_or(0);
        if commits == 0 {
            return 0.0;
        }
        let obs = self
            .callees_of(caller)
            .get(site)
            .map(|e| e.observations)
            .unwrap_or(0);
        obs as f64 / commits as f64
    }

    /// True once `caller` has at least one committed invocation on record
    /// (speculative callee launch requires history, §V-D).
    pub fn knows_caller(&self, caller: FuncId) -> bool {
        self.caller_commits.get(&caller).copied().unwrap_or(0) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaas_workflow::expr::lit;
    use specfaas_workflow::{FunctionRegistry, FunctionSpec, Program, Workflow};

    fn table() -> SequenceTable {
        let mut reg = FunctionRegistry::new();
        for n in ["a", "b", "c"] {
            reg.register(FunctionSpec::new(n, Program::builder().ret(lit(1i64))));
        }
        let wf = Workflow::sequence(vec![
            Workflow::task("a"),
            Workflow::task("b"),
            Workflow::task("c"),
        ]);
        SequenceTable::new(CompiledWorkflow::compile(&wf, &reg).unwrap())
    }

    #[test]
    fn static_skeleton_walk() {
        let t = table();
        assert_eq!(t.start(), 0);
        assert_eq!(t.func_at(0), FuncId(0));
        assert_eq!(t.kind_at(0), &EntryKind::Simple { next: Some(1) });
    }

    #[test]
    fn learns_call_structure() {
        let mut t = table();
        let f = FuncId(0);
        assert!(!t.knows_caller(f));
        t.learn_calls(f, &[FuncId(1), FuncId(2)]);
        t.learn_calls(f, &[FuncId(1), FuncId(2)]);
        assert!(t.knows_caller(f));
        assert_eq!(t.callees_of(f).len(), 2);
        assert_eq!(t.call_probability(f, 0), 1.0);
        assert_eq!(t.call_probability(f, 1), 1.0);
        assert_eq!(t.call_probability(f, 2), 0.0);
    }

    #[test]
    fn conditional_call_probability() {
        let mut t = table();
        let f = FuncId(0);
        t.learn_calls(f, &[FuncId(1), FuncId(2)]);
        t.learn_calls(f, &[FuncId(1)]); // second call skipped this time
        assert_eq!(t.call_probability(f, 0), 1.0);
        assert_eq!(t.call_probability(f, 1), 0.5);
    }

    #[test]
    fn diverged_call_site_resets() {
        let mut t = table();
        let f = FuncId(0);
        t.learn_calls(f, &[FuncId(1), FuncId(2)]);
        t.learn_calls(f, &[FuncId(2)]); // different callee at site 0
        assert_eq!(t.callees_of(f).len(), 1);
        assert_eq!(t.callees_of(f)[0].callee, FuncId(2));
        assert_eq!(t.callees_of(f)[0].observations, 1);
    }

    #[test]
    fn fork_heads_are_flagged_once_at_build() {
        let mut reg = FunctionRegistry::new();
        for n in ["pre", "b1", "b2", "join"] {
            reg.register(FunctionSpec::new(n, Program::builder().ret(lit(1i64))));
        }
        let wf = Workflow::sequence(vec![
            Workflow::task("pre"),
            Workflow::parallel(vec![Workflow::task("b1"), Workflow::task("b2")]),
            Workflow::task("join"),
        ]);
        let t = SequenceTable::new(CompiledWorkflow::compile(&wf, &reg).unwrap());
        let heads: Vec<bool> = (0..4).map(|e| t.is_fork_head(e)).collect();
        assert_eq!(heads, [false, true, true, false]);
        assert!((0..3).all(|e| !table().is_fork_head(e)));
    }

    #[test]
    fn unknown_caller_has_no_edges() {
        let t = table();
        assert!(t.callees_of(FuncId(9)).is_empty());
        assert_eq!(t.call_probability(FuncId(9), 0), 0.0);
    }
}
