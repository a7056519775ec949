#![warn(missing_docs)]

//! # SpecFaaS — speculative function execution for serverless applications
//!
//! A full reproduction of **SpecFaaS (HPCA 2023)**: accelerating
//! multi-function serverless applications by executing functions *early,
//! speculatively*, before their control and data dependences resolve —
//! out-of-order execution, lifted from processor pipelines to FaaS
//! workflows.
//!
//! The repository builds every layer from scratch:
//!
//! * [`sim`] — deterministic discrete-event simulation kernel,
//! * [`storage`] — the `Value` data model, global key-value store, blob
//!   traces,
//! * [`workflow`] — function programs (a small interpreted language),
//!   explicit workflow DSL, annotations, side-effect analysis,
//! * [`platform`] — an OpenWhisk-shaped platform substrate and the
//!   conventional baseline engine,
//! * [`core`] — the SpecFaaS contribution: sequence table, path-history
//!   branch predictor, memoization tables, Data Buffer, execution
//!   pipeline, squash mechanisms, speculation policies,
//! * [`apps`] — the paper's three application suites (16 apps) and the
//!   synthetic trace/dataset generators.
//!
//! ## Quickstart
//!
//! ```
//! use specfaas::prelude::*;
//! use std::sync::Arc;
//!
//! // A two-function application.
//! let mut reg = FunctionRegistry::new();
//! reg.register(FunctionSpec::new(
//!     "double",
//!     Program::builder()
//!         .compute_ms(5)
//!         .ret(make_map([("v", mul(field(input(), "v"), lit(2i64)))])),
//! ));
//! reg.register(FunctionSpec::new(
//!     "inc",
//!     Program::builder()
//!         .compute_ms(5)
//!         .ret(make_map([("v", add(field(input(), "v"), lit(1i64)))])),
//! ));
//! let wf = Workflow::sequence(vec![Workflow::task("double"), Workflow::task("inc")]);
//! let app = Arc::new(AppSpec::new("Demo", "Docs", reg, wf));
//!
//! // Baseline vs SpecFaaS (trained on one prior request).
//! let mut base = BaselineEngine::new(Arc::clone(&app), 1);
//! base.prewarm();
//! let b = base.run_single(Value::map([("v", Value::Int(20))]));
//!
//! let mut spec = SpecEngine::new(Arc::clone(&app), SpecConfig::full(), 1);
//! spec.prewarm();
//! spec.run_single(Value::map([("v", Value::Int(20))]));
//! let s = spec.run_single(Value::map([("v", Value::Int(20))]));
//! assert!(s < b, "speculation overlaps the two functions");
//! ```

pub use specfaas_apps as apps;
pub use specfaas_core as core;
pub use specfaas_platform as platform;
pub use specfaas_sim as sim;
pub use specfaas_storage as storage;
pub use specfaas_workflow as workflow;

/// The items needed for typical use: building applications, running the
/// baseline and SpecFaaS engines, and inspecting results.
pub mod prelude {
    pub use specfaas_core::{SpecConfig, SpecEngine, SquashMechanism};
    pub use specfaas_platform::{BaselineEngine, Load, RunMetrics};
    pub use specfaas_sim::{FaultPlan, FaultSite, RetryPolicy, SimDuration, SimRng, SimTime};
    pub use specfaas_storage::{KvStore, Value};
    pub use specfaas_workflow::expr::*;
    pub use specfaas_workflow::{
        Annotations, AppSpec, FunctionRegistry, FunctionSpec, Program, Workflow,
    };
}
