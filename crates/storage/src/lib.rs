#![warn(missing_docs)]
#![warn(clippy::redundant_clone)]

//! # specfaas-storage
//!
//! Simulated global storage for the SpecFaaS reproduction.
//!
//! The paper's prototype intercepts `get`/`set` operations against a Redis
//! key-value store — the dominant storage interface for FaaS (§VI,
//! "Storage Request Interception"). This crate provides the equivalent
//! substrate:
//!
//! * [`Value`] — the dynamically typed data model that flows between
//!   functions (function inputs/outputs are JSON-like documents),
//! * [`KvStore`] — the global key-value store with a latency model and
//!   per-key version counters (the Data Buffer uses versions to detect
//!   stale reads),
//! * [`LocalCache`] — the per-node software cache that serverless nodes
//!   keep in front of remote storage (§V-C),
//! * [`blob`] — blob-access trace records and the statistics of the
//!   paper's Observation 4 (Azure Functions blob traces).

pub mod blob;
pub mod cache;
pub mod kv;
pub mod value;

pub use cache::LocalCache;
pub use kv::{KvStore, StorageLatency, Version};
pub use value::Value;
