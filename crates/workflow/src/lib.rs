#![warn(missing_docs)]
#![warn(clippy::redundant_clone)]

//! # specfaas-workflow
//!
//! The function model and workflow DSL of the SpecFaaS reproduction.
//!
//! The paper treats every serverless function as a black box (§II-A) whose
//! observable behaviour is: consume an input document, burn CPU, issue
//! `get`/`set` operations against global storage, possibly call other
//! functions (implicit workflows, §II-C), possibly issue HTTP requests or
//! write temporary local files (the three side-effect classes of
//! Observation 5), and produce an output document.
//!
//! This crate implements that behaviour model from scratch:
//!
//! * [`program`] — a small statement/expression language ([`Program`]) in
//!   which every application function is written. Programs *really
//!   compute*: outputs are data-dependent on inputs and on storage reads,
//!   which is what gives speculation its genuine success/failure semantics.
//! * [`interp`] — a resumable interpreter that yields [`interp::Effect`]s
//!   (compute for d microseconds, read key, write key, call function, …) so
//!   the discrete-event platform can charge simulated time to each step.
//! * [`function`] — function specifications, annotations
//!   (`pure-function`, `non-speculative`, §VI) and the function registry.
//! * [`explicit`] — the OpenWhisk-Composer-shaped workflow DSL
//!   (`sequence`, `when`, `while_loop`, `parallel`) and its compilation to
//!   the flat, branch-annotated form the Sequence Table consumes (§V-A).
//! * [`analysis`] — static side-effect classification of programs
//!   (Observations 3 and 5).

pub mod analysis;
pub mod explicit;
pub mod expr;
pub mod function;
pub mod interp;
pub mod program;

pub use explicit::{branch_outcome, CompiledWorkflow, EntryKind, SeqEntry, Workflow};
pub use expr::Expr;
pub use function::{Annotations, AppSpec, FuncId, FunctionRegistry, FunctionSpec};
pub use interp::{Effect, Interp, ProgError};
pub use program::{DurationSpec, Program, ProgramBuilder, Stmt};
