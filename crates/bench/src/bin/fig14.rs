//! Fig. 14 — sensitivity of FaaSChain speedups to the branch-prediction
//! hit rate, using the forced-accuracy oracle at 100 / 90 / 70 / 50 %.
//!
//! `--jobs N` runs the {app × load} grid on N worker threads;
//! output is byte-identical to serial.

use specfaas_bench::executor;
use specfaas_bench::report::{speedup, Table};
use specfaas_bench::runner::{loaded_grid, ExperimentParams};
use specfaas_core::SpecConfig;
use specfaas_platform::RunMetrics;

fn main() {
    let jobs = executor::jobs_from_args();
    println!("== Fig. 14: speedup vs branch-prediction hit rate (FaaSChain) ==\n");
    let configs = [1.0, 0.9, 0.7, 0.5].map(|rate| SpecConfig {
        forced_branch_accuracy: Some(rate),
        ..SpecConfig::full()
    });
    let suite = specfaas_apps::suite_named("FaaSChain");
    let grid = loaded_grid(
        jobs,
        &suite.apps,
        &configs,
        ExperimentParams::default(),
        RunMetrics::mean_response_ms,
    );

    let mut t = Table::new(["App", "100%", "90%", "70%", "50%"]);
    let mut sums = [0.0f64; 4];
    for (bundle, loads) in suite.apps.iter().zip(&grid) {
        let mut row = vec![bundle.name().to_string()];
        for (c, sum) in sums.iter_mut().enumerate() {
            let mut acc = 0.0;
            for cell in loads {
                acc += cell.baseline / cell.spec[c];
            }
            let s = acc / 3.0;
            *sum += s;
            row.push(speedup(s));
        }
        t.row(row);
    }
    let n = suite.apps.len() as f64;
    t.row([
        "AVERAGE".to_string(),
        speedup(sums[0] / n),
        speedup(sums[1] / n),
        speedup(sums[2] / n),
        speedup(sums[3] / n),
    ]);
    println!("{}", t.render());
    println!("Paper reference: dropping from a perfect predictor to 90% costs");
    println!("only ~5.7% speedup; below that, speedups fall off substantially.");
}
