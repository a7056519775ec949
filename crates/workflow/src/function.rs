//! Function specifications, annotations, and the function registry.

use std::fmt;

use specfaas_sim::hash::FxHashMap;

use crate::explicit::{CompiledWorkflow, Workflow};
use crate::program::Program;

/// Interned identifier of a registered function.
///
/// Stable within one [`FunctionRegistry`]; indexes are assigned in
/// registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// Developer-supplied speculation hints (paper §VI, "Function
/// Annotations").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Annotations {
    /// `pure-function`: the function reads/writes no global state, so the
    /// controller may *skip* executing it entirely on a memoization hit.
    pub pure_function: bool,
    /// `non-speculative`: never execute this function speculatively; wait
    /// until every predecessor has committed.
    pub non_speculative: bool,
}

impl Annotations {
    /// No annotations (the default).
    pub fn none() -> Self {
        Annotations::default()
    }

    /// Marks the function pure.
    pub fn pure_function() -> Self {
        Annotations {
            pure_function: true,
            ..Annotations::default()
        }
    }

    /// Marks the function non-speculative.
    pub fn non_speculative() -> Self {
        Annotations {
            non_speculative: true,
            ..Annotations::default()
        }
    }
}

/// A registered serverless function: a name, its program, and annotations.
#[derive(Debug, Clone)]
pub struct FunctionSpec {
    /// Unique (per application) function name.
    pub name: String,
    /// The function body.
    pub program: Program,
    /// Speculation annotations.
    pub annotations: Annotations,
}

impl FunctionSpec {
    /// Creates an unannotated function.
    pub fn new(name: impl Into<String>, program: Program) -> Self {
        FunctionSpec {
            name: name.into(),
            program,
            annotations: Annotations::none(),
        }
    }

    /// Creates a function with annotations.
    pub fn with_annotations(
        name: impl Into<String>,
        program: Program,
        annotations: Annotations,
    ) -> Self {
        FunctionSpec {
            name: name.into(),
            program,
            annotations,
        }
    }
}

/// The set of functions that make up one application.
///
/// # Example
///
/// ```
/// use specfaas_workflow::{FunctionRegistry, FunctionSpec, Program};
/// use specfaas_workflow::expr::lit;
///
/// let mut reg = FunctionRegistry::new();
/// let id = reg.register(FunctionSpec::new("hello", Program::builder().ret(lit("hi"))));
/// assert_eq!(reg.name(id), "hello");
/// assert_eq!(reg.lookup("hello"), Some(id));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FunctionRegistry {
    funcs: Vec<FunctionSpec>,
    by_name: FxHashMap<String, FuncId>,
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        FunctionRegistry::default()
    }

    /// Registers a function, returning its id.
    ///
    /// # Panics
    /// Panics if a function with the same name is already registered.
    pub fn register(&mut self, spec: FunctionSpec) -> FuncId {
        assert!(
            !self.by_name.contains_key(&spec.name),
            "duplicate function name `{}`",
            spec.name
        );
        let id = FuncId(self.funcs.len() as u32);
        self.by_name.insert(spec.name.clone(), id);
        self.funcs.push(spec);
        id
    }

    /// Looks up a function id by name.
    pub fn lookup(&self, name: &str) -> Option<FuncId> {
        self.by_name.get(name).copied()
    }

    /// The specification of a function.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this registry.
    pub fn spec(&self, id: FuncId) -> &FunctionSpec {
        &self.funcs[id.0 as usize]
    }

    /// The name of a function.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this registry.
    pub fn name(&self, id: FuncId) -> &str {
        &self.spec(id).name
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Iterates `(id, spec)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &FunctionSpec)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, s)| (FuncId(i as u32), s))
    }
}

/// A complete application: functions plus its workflow.
///
/// Explicit-workflow apps carry a composed [`Workflow`]; implicit-workflow
/// apps use [`Workflow::Task`] pointing at the root function (the call
/// graph unfolds dynamically via `Call` effects, since the platform cannot
/// see function internals — paper §II-C).
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Application name (e.g. `"SmartHome"`).
    pub name: String,
    /// The suite this app belongs to (e.g. `"FaaSChain"`).
    pub suite: String,
    /// The application's functions.
    pub registry: FunctionRegistry,
    /// The workflow composition.
    pub workflow: Workflow,
    /// The compiled sequence-table form of the workflow.
    pub compiled: CompiledWorkflow,
}

impl AppSpec {
    /// Builds an application, compiling its workflow.
    ///
    /// # Panics
    /// Panics if the workflow references a function name missing from the
    /// registry (a construction bug in the app suite).
    pub fn new(
        name: impl Into<String>,
        suite: impl Into<String>,
        registry: FunctionRegistry,
        workflow: Workflow,
    ) -> Self {
        let compiled = CompiledWorkflow::compile(&workflow, &registry)
            .expect("workflow references unregistered function");
        AppSpec {
            name: name.into(),
            suite: suite.into(),
            registry,
            workflow,
            compiled,
        }
    }

    /// True if the app's workflow is a single root task (implicit
    /// workflow).
    pub fn is_implicit(&self) -> bool {
        matches!(self.workflow, Workflow::Task(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::lit;

    fn prog() -> Program {
        Program::builder().ret(lit(1i64))
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = FunctionRegistry::new();
        let a = reg.register(FunctionSpec::new("a", prog()));
        let b = reg.register(FunctionSpec::new("b", prog()));
        assert_ne!(a, b);
        assert_eq!(reg.lookup("a"), Some(a));
        assert_eq!(reg.lookup("zz"), None);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_name_panics() {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new("a", prog()));
        reg.register(FunctionSpec::new("a", prog()));
    }

    #[test]
    fn annotations_constructors() {
        assert!(Annotations::pure_function().pure_function);
        assert!(!Annotations::pure_function().non_speculative);
        assert!(Annotations::non_speculative().non_speculative);
    }

    #[test]
    fn iter_in_registration_order() {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new("x", prog()));
        reg.register(FunctionSpec::new("y", prog()));
        let names: Vec<_> = reg.iter().map(|(_, s)| s.name.as_str()).collect();
        assert_eq!(names, vec!["x", "y"]);
    }

    #[test]
    fn app_spec_implicit_detection() {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new("root", prog()));
        let app = AppSpec::new("App", "Suite", reg, Workflow::task("root"));
        assert!(app.is_implicit());
        assert_eq!(app.compiled.entries.len(), 1);
    }
}
