#![warn(missing_docs)]
#![warn(clippy::format_push_string)]
#![warn(clippy::redundant_clone)]

//! # specfaas-sim
//!
//! Deterministic discrete-event simulation (DES) kernel used by the SpecFaaS
//! reproduction.
//!
//! The SpecFaaS paper (HPCA 2023) evaluates a speculative serverless
//! orchestrator on a five-node OpenWhisk cluster. This crate provides the
//! substrate that replaces that physical testbed: a virtual clock
//! ([`SimTime`]), an ordered event queue ([`Simulator`]), seeded random
//! number generation ([`SimRng`]), queued resources such as CPU core pools
//! ([`resource::CorePool`]) and single-server stations
//! ([`resource::ServiceStation`]), and the statistics machinery
//! ([`hist`], [`stats`]) needed to report latency percentiles, CDFs,
//! throughput and utilization exactly the way the paper's evaluation
//! section does.
//!
//! Everything is deterministic for a given seed: two runs of the same
//! experiment produce identical timelines, which makes the reproduction's
//! tables and figures stable.
//!
//! ## Example
//!
//! ```
//! use specfaas_sim::{Simulator, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut sim = Simulator::new();
//! sim.schedule_in(SimDuration::from_millis(5), Ev::Ping(1));
//! sim.schedule_in(SimDuration::from_millis(2), Ev::Ping(2));
//!
//! let (t, ev) = sim.step().unwrap();
//! assert_eq!(t.as_millis(), 2);
//! assert_eq!(ev, Ev::Ping(2));
//! ```

pub mod event;
pub mod fault;
pub mod hash;
pub mod hist;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeseries;
pub mod topk;
pub mod trace;
pub mod tracegen;

pub use event::{EventId, QueueWork, Simulator};
pub use fault::{FaultInjector, FaultPlan, FaultSite, RetryPolicy};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use hist::LogHistogram;
pub use rng::{SimRng, Zipf};
pub use time::{SimDuration, SimTime};
pub use timeseries::{GaugeHandle, MetricsRegistry, SnapshotLog};
pub use topk::SpaceSaving;
pub use trace::{TraceEvent, TraceEventKind, Tracer};
pub use tracegen::{Arrival, TraceConfig, TraceGen, ZipfTable};
