//! Ablation studies for the design decisions called out in DESIGN.md
//! (D1–D5) — beyond the paper's own figures:
//!
//! * **D1** the branch-confidence window (the no-speculate band around
//!   50 % taken): branch hit rate and speedup across window widths,
//! * **D2** stall-list squash minimization on/off,
//! * **D4** memoization-table capacity sweep (hit rate + speedup),
//! * **D5** the pure-function skip the paper implements but leaves off,
//! * speculation-depth sweep (the §VI throttling knob).
//!
//! `--jobs N` runs each sweep's points on N worker threads; output is
//! byte-identical to serial. Cells return raw measurements; ratios
//! (speedups against the section's baseline) are computed at render time
//! so the baseline is measured exactly once per section.

use specfaas_bench::executor::{self, ExperimentCell};
use specfaas_bench::report::{f1, f2, pct, speedup, Table};
use specfaas_bench::runner::{closed_mean_ms, mean_record_ms, prepared_baseline, prepared_spec};
use specfaas_core::SpecConfig;

fn single_spec_ms(bundle: &specfaas_apps::AppBundle, cfg: SpecConfig, n: u64) -> f64 {
    let mut e = prepared_spec(bundle, cfg, 0xAB1A, 300);
    let gen = bundle.make_input.clone();
    closed_mean_ms(&mut e, n, move |r| gen(r))
}

fn single_base_ms(bundle: &specfaas_apps::AppBundle, n: u64) -> f64 {
    let mut e = prepared_baseline(bundle, 0xAB1A);
    let gen = bundle.make_input.clone();
    closed_mean_ms(&mut e, n, move |r| gen(r))
}

/// Mean response of a fresh run under `cfg`, plus a probe read from the
/// trained engine (memo hit rate, predictor hit rate, …).
fn spec_run_with<P>(
    bundle: &specfaas_apps::AppBundle,
    cfg: SpecConfig,
    n: u64,
    probe: P,
) -> (f64, f64)
where
    P: FnOnce(&specfaas_core::SpecEngine, &specfaas_platform::RunMetrics) -> f64,
{
    let mut e = prepared_spec(bundle, cfg, 0xAB1A, 300);
    let gen = bundle.make_input.clone();
    let m = e.run_closed(n, move |r| gen(r));
    let mean = mean_record_ms(&m, 0);
    let probed = probe(&e, &m);
    (mean, probed)
}

fn d4_memo_capacity(jobs: usize) {
    println!("== D4: memoization-table capacity sweep (TcktApp) ==\n");
    let bundle = specfaas_apps::trainticket::ticket_app();
    let caps = [2usize, 5, 10, 25, 50, 200];

    let mut cells: Vec<ExperimentCell<(f64, f64)>> = Vec::new();
    cells.push(ExperimentCell::new("d4/base", || {
        (
            single_base_ms(&specfaas_apps::trainticket::ticket_app(), 100),
            0.0,
        )
    }));
    for cap in caps {
        let bundle = &bundle;
        cells.push(ExperimentCell::new(format!("d4/cap{cap}"), move || {
            let mut cfg = SpecConfig::full();
            cfg.memo_capacity = cap;
            spec_run_with(bundle, cfg, 100, |e, _| e.memos().hit_rate().rate())
        }));
    }
    let mut results = executor::run_cells(jobs, cells).into_iter();
    let (base, _) = results.next().expect("base cell");

    let mut t = Table::new(["Capacity", "MemoHitRate", "MeanResp(ms)", "Speedup"]);
    for cap in caps {
        let (mean, hit) = results.next().expect("cap cell");
        t.row([cap.to_string(), pct(hit), f1(mean), speedup(base / mean)]);
    }
    println!("{}", t.render());
    println!("Paper reference: a 50-entry table reaches ~96% hits on TrainTicket.\n");
}

fn d2_stall_list(jobs: usize) {
    println!("== D2: stall-list squash minimization (HotelBooking) ==\n");
    let bundle = specfaas_apps::faaschain::hotel_booking();

    let mut cells: Vec<ExperimentCell<(f64, f64, f64)>> = Vec::new();
    for on in [false, true] {
        let bundle = &bundle;
        cells.push(ExperimentCell::new(format!("d2/stall-{on}"), move || {
            let mut cfg = SpecConfig::full();
            cfg.stall_optimization = on;
            cfg.stall_after_squashes = 1;
            let mut e = prepared_spec(bundle, cfg, 0xAB1A, 300);
            let gen = bundle.make_input.clone();
            let m = e.run_closed(100, move |r| gen(r));
            let mean = mean_record_ms(&m, 0);
            (
                m.functions_squashed as f64,
                e.stall_list().stalls_avoided() as f64,
                mean,
            )
        }));
    }
    let results = executor::run_cells(jobs, cells);

    let mut t = Table::new(["StallOpt", "Squashes/100req", "StallsTaken", "MeanResp(ms)"]);
    for (on, (squashes, stalls, mean)) in [false, true].into_iter().zip(results) {
        t.row([
            if on { "on" } else { "off" }.to_string(),
            (squashes as u64).to_string(),
            (stalls as u64).to_string(),
            f1(mean),
        ]);
    }
    println!("{}", t.render());
}

fn d5_pure_skip(jobs: usize) {
    println!("== D5: pure-function skip (TrainTicket suite extension) ==\n");
    let bundles = specfaas_apps::trainticket::apps();

    let mut cells: Vec<ExperimentCell<(f64, f64)>> = Vec::new();
    for bundle in &bundles {
        cells.push(ExperimentCell::new(
            format!("d5/{}", bundle.name()),
            move || {
                let off = single_spec_ms(bundle, SpecConfig::full(), 60);
                let mut cfg = SpecConfig::full();
                cfg.pure_function_skip = true;
                let on = single_spec_ms(bundle, cfg, 60);
                (off, on)
            },
        ));
    }
    let results = executor::run_cells(jobs, cells);

    let mut t = Table::new(["App", "SkipOff(ms)", "SkipOn(ms)", "Gain"]);
    for (bundle, (off, on)) in bundles.iter().zip(results) {
        t.row([
            bundle.name().to_string(),
            f1(off),
            f1(on),
            speedup(off / on),
        ]);
    }
    println!("{}", t.render());
    println!("The paper measures >57.6% pure invocations but conservatively");
    println!("disables the skip in its evaluation (§VIII-B); this is the upside.\n");
}

fn depth_sweep(jobs: usize) {
    println!("== Speculation depth sweep (AliBanking, §VI throttling knob) ==\n");
    let bundles = specfaas_apps::alibaba::apps();
    let bundle = &bundles[1];
    let depths = [1usize, 2, 4, 8, 12, 24];

    let mut cells: Vec<ExperimentCell<f64>> = Vec::new();
    cells.push(ExperimentCell::new("depth/base", move || {
        single_base_ms(bundle, 60)
    }));
    for depth in depths {
        cells.push(ExperimentCell::new(format!("depth/{depth}"), move || {
            let mut cfg = SpecConfig::full();
            cfg.max_depth = depth;
            cfg.throttled_depth = depth.min(4);
            single_spec_ms(bundle, cfg, 60)
        }));
    }
    let mut results = executor::run_cells(jobs, cells).into_iter();
    let base = results.next().expect("base cell");

    let mut t = Table::new(["MaxDepth", "MeanResp(ms)", "Speedup"]);
    for depth in depths {
        let mean = results.next().expect("depth cell");
        t.row([depth.to_string(), f1(mean), speedup(base / mean)]);
    }
    println!("{}", t.render());
    println!("Depth 12 matches the paper's Data Buffer budget (≤12 columns).\n");
}

fn d1_path_history(jobs: usize) {
    println!("== D1: branch-confidence window sweep (SmartHome) ==\n");
    // The no-speculate window around 50% (§VI): too wide never
    // speculates marginal branches; too narrow mispredicts more.
    let bundle = specfaas_apps::faaschain::smart_home();
    let windows = [0.0f64, 0.05, 0.10, 0.25, 0.40];

    let mut cells: Vec<ExperimentCell<(f64, f64)>> = Vec::new();
    cells.push(ExperimentCell::new("d1/base", || {
        (
            single_base_ms(&specfaas_apps::faaschain::smart_home(), 100),
            0.0,
        )
    }));
    for window in windows {
        let bundle = &bundle;
        cells.push(ExperimentCell::new(format!("d1/w{window}"), move || {
            let mut cfg = SpecConfig::full();
            cfg.branch_confidence_window = window;
            spec_run_with(bundle, cfg, 100, |e, _| e.predictor().hit_rate().rate())
        }));
    }
    let mut results = executor::run_cells(jobs, cells).into_iter();
    let (base, _) = results.next().expect("base cell");

    let mut t = Table::new(["Window", "BranchHitRate", "MeanResp(ms)", "Speedup"]);
    for window in windows {
        let (mean, hit) = results.next().expect("window cell");
        t.row([f2(window), pct(hit), f1(mean), speedup(base / mean)]);
    }
    println!("{}", t.render());
}

fn main() {
    let jobs = executor::jobs_from_args();
    d4_memo_capacity(jobs);
    d2_stall_list(jobs);
    d5_pure_skip(jobs);
    depth_sweep(jobs);
    d1_path_history(jobs);
}
