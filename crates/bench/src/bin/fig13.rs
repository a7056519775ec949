//! Fig. 13 — P99 tail latency of SpecFaaS normalized to the baseline,
//! per suite and load level.
//!
//! `--jobs N` runs the {app × load} grid on N worker threads;
//! output is byte-identical to serial.

use specfaas_bench::executor;
use specfaas_bench::report::{f2, pct, Table};
use specfaas_bench::runner::{loaded_grid, ExperimentParams};
use specfaas_core::SpecConfig;
use specfaas_platform::{Load, RunMetrics};

fn main() {
    let jobs = executor::jobs_from_args();
    println!("== Fig. 13: normalized P99 tail latency (SpecFaaS / baseline) ==\n");
    let suites = specfaas_apps::all_suites();
    let grid = loaded_grid(
        jobs,
        suites.iter().flat_map(|suite| &suite.apps),
        &[SpecConfig::full()],
        ExperimentParams::default(),
        RunMetrics::p99_response_ms,
    );

    let mut t = Table::new(["Suite", "Low", "Medium", "High", "AvgReduction"]);
    let mut all_red = Vec::new();
    let mut rest = &grid[..];
    for suite in &suites {
        let (apps, tail) = rest.split_at(suite.apps.len());
        rest = tail;
        let mut row = vec![suite.name.to_string()];
        let mut ratios = Vec::new();
        for l in 0..Load::all().len() {
            let mut b99 = 0.0;
            let mut s99 = 0.0;
            for loads in apps {
                b99 += loads[l].baseline;
                s99 += loads[l].spec[0];
            }
            let ratio = s99 / b99;
            ratios.push(ratio);
            row.push(f2(ratio));
        }
        let avg_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
        all_red.push(1.0 - avg_ratio);
        row.push(pct(1.0 - avg_ratio));
        t.row(row);
    }
    println!("{}", t.render());
    let overall = all_red.iter().sum::<f64>() / all_red.len() as f64;
    println!("Overall average tail-latency reduction: {}", pct(overall));
    println!("Paper reference: 62% / 56% / 58% reductions per suite; 58.7% overall.");
}
