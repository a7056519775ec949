//! Fig. 12 — breakdown of SpecFaaS speedups into its three mechanisms,
//! applied cumulatively: branch prediction (with the Sequence-Table fast
//! path), data memoization, and the squash optimization (process-kill
//! instead of lazy squash).
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
    println!("== Fig. 12: speedup breakdown (cumulative, averaged over loads) ==\n");
    let configs = [
        SpecConfig::branch_prediction_only(),
        SpecConfig::without_squash_optimization(),
        SpecConfig::full(),
    ];
    let suites = specfaas_apps::all_suites();
    let grid = loaded_grid(
        jobs,
        suites.iter().flat_map(|suite| &suite.apps),
        &configs,
        ExperimentParams::default(),
        RunMetrics::mean_response_ms,
    );

    let mut t = Table::new(["Suite", "App", "BranchPred", "+Memoization", "+SquashOpt"]);
    let mut it = grid.iter();
    for suite in &suites {
        let mut sums = [0.0f64; 3];
        for bundle in &suite.apps {
            let loads = it.next().expect("one result per app");
            let mut row = vec![suite.name.to_string(), bundle.name().to_string()];
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
            suite.name.to_string(),
            "AVERAGE".into(),
            speedup(sums[0] / n),
            speedup(sums[1] / n),
            speedup(sums[2] / n),
        ]);
    }
    println!("{}", t.render());
    println!("Note: for implicit workflows (TrainTicket/Alibaba) branch prediction");
    println!("and memoization only work together (§VIII-B), so the first column");
    println!("shows only the Sequence-Table fast path for those suites.");
    println!("Paper reference: FaaSChain 2.9x -> 3.9x -> 5.0x; TrainTicket");
    println!("3.5x -> 4.4x; Alibaba 3.5x -> 4.5x.");
}
