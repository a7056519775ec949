#![warn(missing_docs)]
#![warn(clippy::redundant_clone)]

//! # specfaas-core
//!
//! SpecFaaS: software-supported speculative function execution for
//! serverless applications (HPCA 2023).
//!
//! Functions of an application are executed *early, speculatively*, before
//! their control and data dependences are resolved — the serverless
//! analogue of out-of-order instruction execution. The crate implements
//! every mechanism of the paper's §V–§VI:
//!
//! * [`predictor`] — the software branch predictor: per-branch,
//!   per-path-history probability entries with confidence thresholds and a
//!   no-speculate window around 50 % (§V-A), plus the forced-accuracy
//!   oracle mode used for the paper's Fig. 14 sensitivity sweep.
//! * [`memo`] — per-function memoization tables mapping past inputs to
//!   outputs (and, for implicit workflows, callee inputs), LRU-bounded,
//!   never updated with speculative data (§V-B, §V-D).
//! * [`seqtable`] — the Sequence Table: the static compiled workflow plus
//!   dynamically learned call structure for implicit workflows (call /
//!   return bits, §V-D), letting the controller pick the next function
//!   without a conductor round trip.
//! * [`databuffer`] — the Data Buffer: per-invocation buffering of global
//!   state with V/R/W bits per (record × in-progress function), in-order
//!   RAW forwarding, out-of-order RAW squash detection, WAR/WAW handling,
//!   commit write-back and call-return column merging (§V-C, §V-D).
//! * [`pipeline`] — the Function Execution Pipeline: program-ordered
//!   in-flight slots with speculative/completed/committed states and
//!   strictly in-order commit (§V).
//! * [`stall`] — the squash-minimization stall list: remembered
//!   producer→consumer record dependences that stall the consumer instead
//!   of squashing it (§V-C).
//! * [`config`] — speculation policies: ablation switches, squash
//!   mechanisms (§VI), depth throttling and branch-confidence windows.
//! * [`engine`] — the speculative controller orchestrating all of the
//!   above on top of the `specfaas-platform` substrate.

pub mod config;
pub mod databuffer;
pub mod engine;
pub mod memo;
pub mod pipeline;
pub mod predictor;
pub mod seqtable;
pub mod stall;

pub use config::{PolicyConfig, RetryPolicy, SpecConfig, SquashMechanism};
pub use databuffer::DataBuffer;
pub use engine::{SpecCore, SpecEngine};
pub use memo::{MemoEntry, MemoTable};
pub use pipeline::{Pipeline, SlotId, SlotState};
pub use predictor::{BranchPredictor, PathHistory, Prediction};
pub use seqtable::SequenceTable;
pub use stall::StallList;
