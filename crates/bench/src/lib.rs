#![warn(missing_docs)]

//! # specfaas-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! SpecFaaS paper's evaluation (§VIII). One binary per artifact:
//!
//! | Binary   | Paper artifact |
//! |----------|----------------|
//! | `table1` | Table I — application-suite characterization |
//! | `fig3`   | Fig. 3 — cold-start response-time breakdown |
//! | `fig4`   | Fig. 4 — CDF of P50–P90 node CPU utilization |
//! | `obs2`   | Observation 2 — most-popular-sequence share |
//! | `obs34`  | Observations 3/4/5 — side-effect & blob-trace stats |
//! | `fig11`  | Fig. 11 — speedup per application × load |
//! | `fig12`  | Fig. 12 — speedup breakdown (cumulative ablation) |
//! | `table3` | Table III — effective throughput under QoS |
//! | `fig13`  | Fig. 13 — normalized P99 tail latency |
//! | `fig14`  | Fig. 14 — speedup vs branch-prediction hit rate |
//! | `table4` | Table IV — CPU utilization of squash mechanisms |
//! | `run_all`| everything above, in sequence |
//!
//! Diagnostic, sweep and host-speed binaries outside the paper's figure
//! set:
//!
//! | Binary       | Purpose |
//! |--------------|---------|
//! | `ablations`  | design-decision studies (DESIGN.md D1–D5): branch confidence, stall list, memo capacity, pure-function skip, speculation depth |
//! | `faults`     | fault-injection ablation: fault-rate and retry-budget sweeps |
//! | `profile`    | flight recorder + metrics registry + trace analytics: invariant-checked run, critical paths, squash attribution; `--trace` exports Chrome-trace JSON, `--prom`/`--csv` the registry |
//! | `scoreboard` | speculation-health scoreboard per app, fleet-wide histogram and top-K merge |
//! | `policies`   | platform policies × engines; `--default-guard` byte-compares the default policy against the goldens |
//! | `scale`      | trace-driven multi-tenant scale runs: 10⁶+ requests across {10², 10³, 10⁴} tenants, written to `BENCH_scale.json` |
//! | `wallclock`  | the simulator's own speed: event-queue ns/op at 100k pending and the instrumented-run overhead, written to `BENCH_wallclock.json` |
//!
//! The library half provides the shared measurement protocol
//! ([`runner`]), the parallel cell executor ([`executor`]), plain-text
//! table rendering ([`report`]), post-hoc trace analytics ([`analysis`]),
//! and the committed perf artifacts' format and guard ([`guard`]).

pub mod analysis;
pub mod executor;
pub mod guard;
pub mod report;
pub mod runner;

pub use executor::{run_cells, ExperimentCell};
pub use runner::{
    measure_baseline_open, measure_spec_open, prepared_baseline, prepared_spec, ExperimentParams,
};
