//! Explicit workflows: the OpenWhisk-Composer-shaped DSL and its
//! compilation into the flat form consumed by the Sequence Table.
//!
//! The paper's Listing 1 composes a smart-home app from `when` (control
//! dependence) and `sequence` (data dependence) directives; `while` /
//! `do_while` compile to the same code as `when`, and `parallel` runs
//! functions concurrently (§II-A). [`Workflow`] mirrors those directives.
//!
//! [`CompiledWorkflow`] is the static layout the controller keeps per
//! application (paper Fig. 8): an array of function entries where plain
//! entries point at their successor, branch entries carry taken /
//! not-taken targets (loops become back-edges), and fork entries fan out
//! to parallel branches that re-converge at a join entry.

use std::fmt;

use specfaas_storage::Value;

use crate::function::{FuncId, FunctionRegistry};

/// A workflow composition, mirroring OpenWhisk Composer directives.
///
/// # Example
///
/// The paper's smart-home application (Listing 1 / Fig. 1):
///
/// ```
/// use specfaas_workflow::Workflow;
///
/// let wf = Workflow::when(
///     "Login",
///     Workflow::sequence(vec![
///         Workflow::task("ReadTemp"),
///         Workflow::task("Normalize"),
///         Workflow::when("CompareTemp", Workflow::task("TurnAir"), None),
///         Workflow::task("Done"),
///     ]),
///     Some(Workflow::task("Fail")),
/// );
/// assert_eq!(wf.function_names().len(), 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Workflow {
    /// Invoke a single function.
    Task(String),
    /// Run sub-workflows one after another, piping each output into the
    /// next input (`sequence` directive).
    Sequence(Vec<Workflow>),
    /// Branch: run `cond`, then `then` if its output is truthy (or the
    /// `field` projection of its output, when given), else `els`
    /// (`when` directive).
    When {
        /// Condition function name.
        cond: String,
        /// Optional output field to test instead of the whole output.
        field: Option<String>,
        /// Taken branch.
        then: Box<Workflow>,
        /// Not-taken branch (`None` = fall through).
        els: Option<Box<Workflow>>,
    },
    /// Loop: run `cond`; while its output (or `field`) is truthy, run
    /// `body` and re-run `cond` (`while` directive; compiles to the same
    /// entry kind as `when`, with a back edge).
    WhileLoop {
        /// Condition function name.
        cond: String,
        /// Optional output field to test.
        field: Option<String>,
        /// Loop body.
        body: Box<Workflow>,
    },
    /// Run sub-workflows concurrently, joining afterwards (`parallel`
    /// directive — not supported by OpenWhisk's Python Composer, added by
    /// the paper's authors, §II-A).
    Parallel(Vec<Workflow>),
}

impl Workflow {
    /// A single-function workflow.
    pub fn task(name: impl Into<String>) -> Workflow {
        Workflow::Task(name.into())
    }

    /// A sequential composition.
    pub fn sequence(parts: Vec<Workflow>) -> Workflow {
        Workflow::Sequence(parts)
    }

    /// A branch on the truthiness of `cond`'s entire output.
    pub fn when(cond: impl Into<String>, then: Workflow, els: Option<Workflow>) -> Workflow {
        Workflow::When {
            cond: cond.into(),
            field: None,
            then: Box::new(then),
            els: els.map(Box::new),
        }
    }

    /// A branch testing one field of `cond`'s output.
    pub fn when_field(
        cond: impl Into<String>,
        field: impl Into<String>,
        then: Workflow,
        els: Option<Workflow>,
    ) -> Workflow {
        Workflow::When {
            cond: cond.into(),
            field: Some(field.into()),
            then: Box::new(then),
            els: els.map(Box::new),
        }
    }

    /// A while loop testing one field of `cond`'s output.
    pub fn while_field(
        cond: impl Into<String>,
        field: impl Into<String>,
        body: Workflow,
    ) -> Workflow {
        Workflow::WhileLoop {
            cond: cond.into(),
            field: Some(field.into()),
            body: Box::new(body),
        }
    }

    /// A parallel composition.
    pub fn parallel(parts: Vec<Workflow>) -> Workflow {
        Workflow::Parallel(parts)
    }

    /// All function names referenced, in first-appearance order.
    pub fn function_names(&self) -> Vec<&str> {
        let mut names = Vec::new();
        fn walk<'w>(w: &'w Workflow, out: &mut Vec<&'w str>) {
            match w {
                Workflow::Task(n) => {
                    if !out.contains(&n.as_str()) {
                        out.push(n);
                    }
                }
                Workflow::Sequence(ps) | Workflow::Parallel(ps) => {
                    for p in ps {
                        walk(p, out);
                    }
                }
                Workflow::When {
                    cond, then, els, ..
                } => {
                    if !out.contains(&cond.as_str()) {
                        out.push(cond);
                    }
                    walk(then, out);
                    if let Some(e) = els {
                        walk(e, out);
                    }
                }
                Workflow::WhileLoop { cond, body, .. } => {
                    if !out.contains(&cond.as_str()) {
                        out.push(cond);
                    }
                    walk(body, out);
                }
            }
        }
        walk(self, &mut names);
        names
    }

    /// Number of `when` / `while` directives (cross-function branches,
    /// the "Avg # Branches" column of Table I).
    pub fn branch_count(&self) -> usize {
        match self {
            Workflow::Task(_) => 0,
            Workflow::Sequence(ps) | Workflow::Parallel(ps) => {
                ps.iter().map(Workflow::branch_count).sum()
            }
            Workflow::When { then, els, .. } => {
                1 + then.branch_count() + els.as_ref().map_or(0, |e| e.branch_count())
            }
            Workflow::WhileLoop { body, .. } => 1 + body.branch_count(),
        }
    }

    /// Longest function chain through the workflow (the "Max DAG Depth"
    /// column of Table I; loops counted as one iteration).
    pub fn max_depth(&self) -> usize {
        match self {
            Workflow::Task(_) => 1,
            Workflow::Sequence(ps) => ps.iter().map(Workflow::max_depth).sum(),
            Workflow::Parallel(ps) => ps.iter().map(Workflow::max_depth).max().unwrap_or(0),
            Workflow::When { then, els, .. } => {
                1 + then
                    .max_depth()
                    .max(els.as_ref().map_or(0, |e| e.max_depth()))
            }
            Workflow::WhileLoop { body, .. } => 1 + body.max_depth(),
        }
    }
}

/// Error compiling a workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A referenced function is not in the registry.
    UnknownFunction(String),
    /// `parallel` must follow a function inside a `sequence` (so the fork
    /// has an entry to hang off), and must not be the first element.
    UnsupportedParallelPlacement,
    /// Empty `sequence` or `parallel` composition.
    EmptyComposition,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownFunction(n) => write!(f, "unknown function `{n}` in workflow"),
            CompileError::UnsupportedParallelPlacement => {
                write!(f, "`parallel` must follow a function within a `sequence`")
            }
            CompileError::EmptyComposition => write!(f, "empty sequence/parallel composition"),
        }
    }
}

impl std::error::Error for CompileError {}

/// How execution continues after a sequence-table entry's function
/// completes.
#[derive(Debug, Clone, PartialEq)]
pub enum EntryKind {
    /// Proceed to `next` (or finish the application if `None`).
    Simple {
        /// Successor entry index.
        next: Option<usize>,
    },
    /// Branch on the function's output (optionally one `field` of it):
    /// truthy → `taken`, falsy → `not_taken`. A `taken` index less than or
    /// equal to the entry's own index is a loop back-edge.
    Branch {
        /// Output field to test (`None` tests the whole output).
        field: Option<String>,
        /// Target when the condition is truthy (`None` = finish).
        taken: Option<usize>,
        /// Target when the condition is falsy (`None` = finish).
        not_taken: Option<usize>,
    },
    /// Fan out to the heads of parallel branches; all branches then
    /// converge on `join` (an entry with `join_arity > 1`), or the
    /// application finishes when every branch completes (`join == None`).
    Fork {
        /// Branch head entry indexes.
        branches: Vec<usize>,
        /// Join entry index.
        join: Option<usize>,
    },
}

/// Whether a [`EntryKind::Branch`] entry whose function produced `output`
/// goes to its `taken` target: `output` itself, or its `field` when the
/// entry names one, is truthy. A missing field is falsy. Both engines
/// resolve branches with this one rule.
pub fn branch_outcome(output: &Value, field: Option<&str>) -> bool {
    match field {
        Some(f) => output.get_field(f).is_some_and(Value::truthy),
        None => output.truthy(),
    }
}

/// One entry of a compiled workflow (one row of the Sequence Table's
/// static skeleton).
#[derive(Debug, Clone, PartialEq)]
pub struct SeqEntry {
    /// The function this entry invokes.
    pub func: FuncId,
    /// Continuation after the function completes.
    pub kind: EntryKind,
    /// Number of predecessor arrivals required before this entry runs:
    /// 1 for ordinary entries, the branch count for a parallel join.
    pub join_arity: u32,
}

/// A workflow compiled to the flat, pointer-linked layout of paper Fig. 8.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledWorkflow {
    /// Entries in layout order.
    pub entries: Vec<SeqEntry>,
    /// Index of the first entry to execute.
    pub start: usize,
}

/// A dangling continuation slot produced while compiling a sub-workflow,
/// to be patched with the successor entry index.
#[derive(Debug, Clone, Copy)]
enum Tail {
    Next(usize),
    Taken(usize),
    NotTaken(usize),
    /// Dangling end of a fork branch plus the fork entry itself
    /// (`join` slot).
    ForkJoin(usize),
}

impl CompiledWorkflow {
    /// Compiles a workflow against a registry.
    ///
    /// # Errors
    /// Returns [`CompileError`] for unknown functions, empty compositions,
    /// or unsupported `parallel` placement.
    pub fn compile(
        workflow: &Workflow,
        registry: &FunctionRegistry,
    ) -> Result<CompiledWorkflow, CompileError> {
        let mut entries: Vec<SeqEntry> = Vec::new();
        let (start, tails) = compile_node(workflow, registry, &mut entries)?;
        // Dangling tails finish the application; `Simple { next: None }`
        // etc. is already their state, so nothing to patch.
        let _ = tails;
        Ok(CompiledWorkflow { entries, start })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the workflow compiled to no entries (cannot happen via
    /// [`CompiledWorkflow::compile`], which rejects empty compositions).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Indexes of entries that are branches (used to size branch-predictor
    /// state).
    pub fn branch_entries(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.kind, EntryKind::Branch { .. }))
            .map(|(i, _)| i)
            .collect()
    }
}

fn lookup(name: &str, reg: &FunctionRegistry) -> Result<FuncId, CompileError> {
    reg.lookup(name)
        .ok_or_else(|| CompileError::UnknownFunction(name.to_owned()))
}

fn patch(entries: &mut [SeqEntry], tails: &[Tail], target: usize) {
    for t in tails {
        match *t {
            Tail::Next(i) => {
                if let EntryKind::Simple { next } = &mut entries[i].kind {
                    *next = Some(target);
                }
            }
            Tail::Taken(i) => {
                if let EntryKind::Branch { taken, .. } = &mut entries[i].kind {
                    *taken = Some(target);
                }
            }
            Tail::NotTaken(i) => {
                if let EntryKind::Branch { not_taken, .. } = &mut entries[i].kind {
                    *not_taken = Some(target);
                }
            }
            Tail::ForkJoin(i) => {
                if let EntryKind::Fork { join, .. } = &mut entries[i].kind {
                    *join = Some(target);
                }
            }
        }
    }
}

fn compile_node(
    w: &Workflow,
    reg: &FunctionRegistry,
    entries: &mut Vec<SeqEntry>,
) -> Result<(usize, Vec<Tail>), CompileError> {
    match w {
        Workflow::Task(name) => {
            let idx = entries.len();
            entries.push(SeqEntry {
                func: lookup(name, reg)?,
                kind: EntryKind::Simple { next: None },
                join_arity: 1,
            });
            Ok((idx, vec![Tail::Next(idx)]))
        }
        Workflow::Sequence(parts) => {
            if parts.is_empty() {
                return Err(CompileError::EmptyComposition);
            }
            let mut head: Option<usize> = None;
            let mut tails: Vec<Tail> = Vec::new();
            // Set when the previous element was a `parallel`: the next
            // entry is its join and must wait for this many arrivals.
            let mut pending_join_arity: Option<u32> = None;
            for part in parts {
                if let Workflow::Parallel(branches) = part {
                    // The fork hangs off every pending tail's entry; each
                    // of those entries becomes a Fork. Requires at least
                    // one predecessor function.
                    if tails.is_empty() || branches.is_empty() {
                        return Err(if branches.is_empty() {
                            CompileError::EmptyComposition
                        } else {
                            CompileError::UnsupportedParallelPlacement
                        });
                    }
                    // Only single simple-tail predecessors can fork (a
                    // branch cannot end directly in a parallel).
                    let fork_entry = match tails.as_slice() {
                        [Tail::Next(i)] => *i,
                        _ => return Err(CompileError::UnsupportedParallelPlacement),
                    };
                    let mut heads = Vec::with_capacity(branches.len());
                    let mut branch_tails: Vec<Tail> = Vec::new();
                    for b in branches {
                        let (h, ts) = compile_node(b, reg, entries)?;
                        heads.push(h);
                        branch_tails.extend(ts);
                    }
                    let n_branches = heads.len() as u32;
                    entries[fork_entry].kind = EntryKind::Fork {
                        branches: heads,
                        join: None,
                    };
                    // Branch tails + the fork's join slot converge on
                    // whatever comes next in the sequence. Each branch
                    // contributes exactly ONE dynamic arrival at the join
                    // (internal `when` arms are alternatives), so the
                    // join arity is the branch count, not the tail count.
                    branch_tails.push(Tail::ForkJoin(fork_entry));
                    tails = branch_tails;
                    pending_join_arity = Some(n_branches);
                    if head.is_none() {
                        head = Some(fork_entry);
                    }
                    continue;
                }
                let (h, ts) = compile_node(part, reg, entries)?;
                if let Some(arity) = pending_join_arity.take() {
                    if arity > 1 {
                        entries[h].join_arity = arity;
                    }
                }
                patch(entries, &tails, h);
                tails = ts;
                if head.is_none() {
                    head = Some(h);
                }
            }
            Ok((head.expect("non-empty sequence"), tails))
        }
        Workflow::When {
            cond,
            field,
            then,
            els,
        } => {
            let idx = entries.len();
            entries.push(SeqEntry {
                func: lookup(cond, reg)?,
                kind: EntryKind::Branch {
                    field: field.clone(),
                    taken: None,
                    not_taken: None,
                },
                join_arity: 1,
            });
            let (then_head, mut tails) = compile_node(then, reg, entries)?;
            patch(entries, &[Tail::Taken(idx)], then_head);
            match els {
                Some(e) => {
                    let (els_head, els_tails) = compile_node(e, reg, entries)?;
                    patch(entries, &[Tail::NotTaken(idx)], els_head);
                    tails.extend(els_tails);
                }
                None => tails.push(Tail::NotTaken(idx)),
            }
            Ok((idx, tails))
        }
        Workflow::WhileLoop { cond, field, body } => {
            let idx = entries.len();
            entries.push(SeqEntry {
                func: lookup(cond, reg)?,
                kind: EntryKind::Branch {
                    field: field.clone(),
                    taken: None,
                    not_taken: None,
                },
                join_arity: 1,
            });
            let (body_head, body_tails) = compile_node(body, reg, entries)?;
            patch(entries, &[Tail::Taken(idx)], body_head);
            // Back edge: body repeats the condition check.
            patch(entries, &body_tails, idx);
            Ok((idx, vec![Tail::NotTaken(idx)]))
        }
        Workflow::Parallel(_) => Err(CompileError::UnsupportedParallelPlacement),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::lit;
    use crate::function::FunctionSpec;
    use crate::program::Program;

    fn registry(names: &[&str]) -> FunctionRegistry {
        let mut reg = FunctionRegistry::new();
        for n in names {
            reg.register(FunctionSpec::new(*n, Program::builder().ret(lit(1i64))));
        }
        reg
    }

    #[test]
    fn compile_simple_chain() {
        let reg = registry(&["a", "b", "c"]);
        let wf = Workflow::sequence(vec![
            Workflow::task("a"),
            Workflow::task("b"),
            Workflow::task("c"),
        ]);
        let c = CompiledWorkflow::compile(&wf, &reg).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.start, 0);
        assert_eq!(c.entries[0].kind, EntryKind::Simple { next: Some(1) });
        assert_eq!(c.entries[1].kind, EntryKind::Simple { next: Some(2) });
        assert_eq!(c.entries[2].kind, EntryKind::Simple { next: None });
    }

    #[test]
    fn compile_when_with_else() {
        let reg = registry(&["cond", "t", "e"]);
        let wf = Workflow::when("cond", Workflow::task("t"), Some(Workflow::task("e")));
        let c = CompiledWorkflow::compile(&wf, &reg).unwrap();
        match &c.entries[0].kind {
            EntryKind::Branch {
                taken, not_taken, ..
            } => {
                assert_eq!(*taken, Some(1));
                assert_eq!(*not_taken, Some(2));
            }
            other => panic!("expected branch, got {other:?}"),
        }
        assert_eq!(c.branch_entries(), vec![0]);
    }

    #[test]
    fn compile_when_without_else_falls_through() {
        let reg = registry(&["cond", "t", "after"]);
        let wf = Workflow::sequence(vec![
            Workflow::when("cond", Workflow::task("t"), None),
            Workflow::task("after"),
        ]);
        let c = CompiledWorkflow::compile(&wf, &reg).unwrap();
        match &c.entries[0].kind {
            EntryKind::Branch {
                taken, not_taken, ..
            } => {
                assert_eq!(*taken, Some(1), "taken goes to t");
                assert_eq!(*not_taken, Some(2), "not-taken skips to after");
            }
            other => panic!("expected branch, got {other:?}"),
        }
        // t's next is after.
        assert_eq!(c.entries[1].kind, EntryKind::Simple { next: Some(2) });
    }

    #[test]
    fn compile_while_creates_back_edge() {
        let reg = registry(&["check", "body", "after"]);
        let wf = Workflow::sequence(vec![
            Workflow::while_field("check", "more", Workflow::task("body")),
            Workflow::task("after"),
        ]);
        let c = CompiledWorkflow::compile(&wf, &reg).unwrap();
        match &c.entries[0].kind {
            EntryKind::Branch {
                field,
                taken,
                not_taken,
            } => {
                assert_eq!(field.as_deref(), Some("more"));
                assert_eq!(*taken, Some(1));
                assert_eq!(*not_taken, Some(2));
            }
            other => panic!("expected branch, got {other:?}"),
        }
        // Body loops back to the condition.
        assert_eq!(c.entries[1].kind, EntryKind::Simple { next: Some(0) });
    }

    #[test]
    fn compile_parallel_with_join() {
        let reg = registry(&["pre", "b1", "b2", "join"]);
        let wf = Workflow::sequence(vec![
            Workflow::task("pre"),
            Workflow::parallel(vec![Workflow::task("b1"), Workflow::task("b2")]),
            Workflow::task("join"),
        ]);
        let c = CompiledWorkflow::compile(&wf, &reg).unwrap();
        match &c.entries[0].kind {
            EntryKind::Fork { branches, join } => {
                assert_eq!(branches, &vec![1, 2]);
                assert_eq!(*join, Some(3));
            }
            other => panic!("expected fork, got {other:?}"),
        }
        assert_eq!(c.entries[3].join_arity, 2);
        assert_eq!(c.entries[1].kind, EntryKind::Simple { next: Some(3) });
        assert_eq!(c.entries[2].kind, EntryKind::Simple { next: Some(3) });
    }

    #[test]
    fn compile_parallel_without_join() {
        let reg = registry(&["pre", "b1", "b2"]);
        let wf = Workflow::sequence(vec![
            Workflow::task("pre"),
            Workflow::parallel(vec![Workflow::task("b1"), Workflow::task("b2")]),
        ]);
        let c = CompiledWorkflow::compile(&wf, &reg).unwrap();
        match &c.entries[0].kind {
            EntryKind::Fork { join, .. } => assert_eq!(*join, None),
            other => panic!("expected fork, got {other:?}"),
        }
    }

    #[test]
    fn parallel_first_is_rejected() {
        let reg = registry(&["a", "b"]);
        let wf = Workflow::parallel(vec![Workflow::task("a"), Workflow::task("b")]);
        assert_eq!(
            CompiledWorkflow::compile(&wf, &reg).unwrap_err(),
            CompileError::UnsupportedParallelPlacement
        );
    }

    #[test]
    fn unknown_function_is_rejected() {
        let reg = registry(&["a"]);
        let wf = Workflow::task("ghost");
        assert_eq!(
            CompiledWorkflow::compile(&wf, &reg).unwrap_err(),
            CompileError::UnknownFunction("ghost".into())
        );
    }

    #[test]
    fn empty_sequence_is_rejected() {
        let reg = registry(&[]);
        assert_eq!(
            CompiledWorkflow::compile(&Workflow::sequence(vec![]), &reg).unwrap_err(),
            CompileError::EmptyComposition
        );
    }

    #[test]
    fn smart_home_shape() {
        // Listing 1 of the paper.
        let reg = registry(&[
            "Login",
            "ReadTemp",
            "Normalize",
            "CompareTemp",
            "TurnAir",
            "Done",
            "Fail",
        ]);
        let wf = Workflow::when(
            "Login",
            Workflow::sequence(vec![
                Workflow::task("ReadTemp"),
                Workflow::task("Normalize"),
                Workflow::when("CompareTemp", Workflow::task("TurnAir"), None),
                Workflow::task("Done"),
            ]),
            Some(Workflow::task("Fail")),
        );
        assert_eq!(wf.branch_count(), 2);
        assert_eq!(wf.max_depth(), 6); // Login,ReadTemp,Normalize,CompareTemp,TurnAir,Done
        let c = CompiledWorkflow::compile(&wf, &reg).unwrap();
        assert_eq!(c.len(), 7);
        assert_eq!(c.branch_entries().len(), 2);
    }

    #[test]
    fn function_names_dedup_in_order() {
        let wf = Workflow::sequence(vec![
            Workflow::task("a"),
            Workflow::task("b"),
            Workflow::task("a"),
        ]);
        assert_eq!(wf.function_names(), vec!["a", "b"]);
    }
}
