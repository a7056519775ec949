//! Fig. 11 — end-to-end speedup of SpecFaaS over the baseline for every
//! application at Low / Medium / High load (100 / 250 / 500 RPS), plus
//! suite averages, plus the cold-start variant of §VIII-A.
//!
//! Load is driven closed-loop: a client pool sized so the baseline is
//! offered the paper's request rate. At levels beyond a system's capacity
//! the pool self-throttles (as a real fixed-pool load generator does), so
//! latencies stay finite while still reflecting saturation.
//!
//! Flags: `--jobs N` runs the {app × load} grid on N worker threads
//! (output is byte-identical to serial); `--quick` shrinks the
//! measurement window for smoke tests.

use specfaas_bench::executor::{self, ExperimentCell};
use specfaas_bench::report::{speedup, Table};
use specfaas_bench::runner::{loaded_grid, ExperimentParams};
use specfaas_core::{SpecConfig, SpecEngine};
use specfaas_platform::{BaselineEngine, RunMetrics};
use specfaas_sim::{SimDuration, SimRng};

fn main() {
    let jobs = executor::jobs_from_args();
    let quick = executor::has_flag("--quick");
    let suites = specfaas_apps::all_suites();

    println!("== Fig. 11: SpecFaaS speedup over baseline (warm) ==\n");

    let mut p = ExperimentParams::default();
    if quick {
        p.duration = SimDuration::from_millis(800);
        p.warmup = SimDuration::from_millis(100);
        p.train_requests = 60;
    }
    let grid = loaded_grid(
        jobs,
        suites.iter().flat_map(|suite| &suite.apps),
        &[SpecConfig::full()],
        p,
        RunMetrics::mean_response_ms,
    );
    let mut it = grid
        .iter()
        .flatten()
        .map(|cell| cell.baseline / cell.spec[0]);

    let mut t = Table::new(["Suite", "App", "Low", "Medium", "High", "Avg"]);
    let mut grand = Vec::new();
    for suite in &suites {
        let mut suite_speedups = vec![Vec::new(), Vec::new(), Vec::new()];
        for bundle in &suite.apps {
            let mut row = vec![suite.name.to_string(), bundle.name().to_string()];
            let mut app_speedups = Vec::new();
            for speedups in suite_speedups.iter_mut() {
                let s = it.next().expect("one result per cell");
                speedups.push(s);
                app_speedups.push(s);
                row.push(speedup(s));
            }
            let avg = app_speedups.iter().sum::<f64>() / 3.0;
            grand.push(avg);
            row.push(speedup(avg));
            t.row(row);
        }
        let mut avg_row = vec![suite.name.to_string(), "AVERAGE".to_string()];
        let mut all = Vec::new();
        for s in &suite_speedups {
            let a = s.iter().sum::<f64>() / s.len() as f64;
            all.push(a);
            avg_row.push(speedup(a));
        }
        avg_row.push(speedup(all.iter().sum::<f64>() / 3.0));
        t.row(avg_row);
    }
    println!("{}", t.render());
    let overall = grand.iter().sum::<f64>() / grand.len() as f64;
    println!("Overall average speedup: {}", speedup(overall));
    println!("Paper reference: 4.6x average (FaaSChain 5.2/5.0/4.9, TrainTicket");
    println!("4.2/4.4/4.3, Alibaba 4.4/4.5/4.6 at Low/Medium/High).\n");

    println!("== Fig. 11 cold-start variant (§VIII-A): containers reclaimed ==\n");
    cold_variant(jobs, quick);
}

/// §VIII-A repeats the experiment without warming up the environment:
/// here every warm container pool is flushed (idle reclamation) before a
/// single measured request, so every function launch pays a cold start —
/// which SpecFaaS overlaps across speculative launches.
fn cold_variant(jobs: usize, quick: bool) {
    let suites = specfaas_apps::all_suites();
    let train = if quick { 40 } else { 100 };

    let mut cells: Vec<ExperimentCell<f64>> = Vec::new();
    for suite in &suites {
        for bundle in &suite.apps {
            cells.push(ExperimentCell::new(
                format!("fig11-cold/{}/{}", suite.name, bundle.name()),
                move || {
                    let seed = 0xC01D;
                    // Baseline: fresh engine, no prewarm, first request is cold.
                    let bd = {
                        let mut b = BaselineEngine::new(bundle.app.clone(), seed);
                        let mut rng = SimRng::seed(seed);
                        (bundle.seed)(&mut b.kv, &mut rng);
                        b.run_single((bundle.make_input)(&mut rng))
                    };
                    // SpecFaaS: tables trained from earlier invocations, then all
                    // containers reclaimed; the measured request cold-starts
                    // every function but overlaps the starts speculatively.
                    let sd = {
                        let mut e = SpecEngine::new(bundle.app.clone(), SpecConfig::full(), seed);
                        e.prewarm();
                        let mut rng = SimRng::seed(seed);
                        (bundle.seed)(&mut e.kv, &mut rng);
                        let gen = bundle.make_input.clone();
                        e.run_closed(train, move |r| gen(r));
                        e.flush_warm_containers();
                        let mut rng2 = SimRng::seed(seed ^ 1);
                        e.run_single((bundle.make_input)(&mut rng2))
                    };
                    bd.as_millis_f64() / sd.as_millis_f64().max(0.001)
                },
            ));
        }
    }
    let results = executor::run_cells(jobs, cells);

    let mut t = Table::new(["Suite", "AvgSpeedup(cold)"]);
    let mut it = results.into_iter();
    for suite in &suites {
        let speedups: Vec<f64> = suite.apps.iter().map(|_| it.next().unwrap()).collect();
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        t.row([suite.name.to_string(), speedup(avg)]);
    }
    println!("{}", t.render());
    println!("Paper reference: 5.2x / 4.5x / 4.7x (FaaSChain / TrainTicket / Alibaba).");
}
