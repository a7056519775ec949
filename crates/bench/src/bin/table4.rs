//! Table IV — normalized CPU utilization of LazySquash vs SpecFaaS
//! (process-kill) across speculation hit rates, with the SpecFaaS
//! speedup.
//!
//! CPU utilization is compared as *busy core-time per completed request*
//! (useful + squashed work), normalized to the baseline — the same
//! quantity the paper's normalized-utilization columns capture: how many
//! extra cycles speculation costs per unit of served work.
//!
//! `--jobs N` runs the {app × load} grid on N worker threads;
//! output is byte-identical to serial.

use specfaas_bench::executor;
use specfaas_bench::report::{f2, speedup, Table};
use specfaas_bench::runner::{loaded_grid, ExperimentParams};
use specfaas_core::{SpecConfig, SquashMechanism};
use specfaas_platform::RunMetrics;

/// A run reduced to its mean response (ms) and its busy core-ms per
/// completed request.
fn mean_and_cost(m: &RunMetrics) -> (f64, f64) {
    let cost = if m.completed == 0 {
        f64::INFINITY
    } else {
        (m.useful_core_time + m.squashed_core_time).as_millis_f64() / m.completed as f64
    };
    (m.mean_response_ms(), cost)
}

fn main() {
    let jobs = executor::jobs_from_args();
    println!("== Table IV: normalized CPU cost per request vs speculation hit rate ==\n");
    let rates = [1.0, 0.9, 0.7, 0.5];
    // Per rate: LazySquash (without the stall optimization), then
    // SpecFaaS' process kill.
    let configs: Vec<SpecConfig> = rates
        .iter()
        .flat_map(|&rate| {
            let kill = SpecConfig {
                forced_branch_accuracy: Some(rate),
                ..SpecConfig::full()
            };
            let lazy = SpecConfig {
                squash: SquashMechanism::Lazy,
                stall_optimization: false,
                ..kill.clone()
            };
            [lazy, kill]
        })
        .collect();
    let suite = specfaas_apps::suite_named("FaaSChain");
    let grid = loaded_grid(
        jobs,
        &suite.apps,
        &configs,
        ExperimentParams::default(),
        mean_and_cost,
    );

    let mut t = Table::new(["HitRate", "Baseline", "LazySquash", "SpecFaaS", "Speedup"]);
    for (r, rate) in rates.into_iter().enumerate() {
        let mut lazy_ratio = 0.0;
        let mut kill_ratio = 0.0;
        let mut sp = 0.0;
        let mut n = 0.0;
        for cell in grid.iter().flatten() {
            let (base_ms, base_cost) = cell.baseline;
            let (_, lazy_cost) = cell.spec[2 * r];
            let (kill_ms, kill_cost) = cell.spec[2 * r + 1];
            lazy_ratio += lazy_cost / base_cost;
            kill_ratio += kill_cost / base_cost;
            sp += base_ms / kill_ms;
            n += 1.0;
        }
        t.row([
            format!("{:.0}%", rate * 100.0),
            "1.00".to_string(),
            f2(lazy_ratio / n),
            f2(kill_ratio / n),
            speedup(sp / n),
        ]);
    }
    println!("{}", t.render());
    println!("Paper reference (90% row): LazySquash 1.24x, SpecFaaS 1.08x the");
    println!("baseline CPU utilization, at a ~4.6x speedup; immediate process");
    println!("kills save substantial cycles at low hit rates.");
}
