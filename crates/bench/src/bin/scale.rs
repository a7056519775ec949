//! Trace-driven multi-tenant scale runs.
//!
//! Sweeps tenant counts (default {10², 10³, 10⁴}) over a deterministic
//! synthetic Azure-style trace (diurnal rate curve, Zipf tenant
//! popularity — see `specfaas_sim::tracegen`) and drives 10⁶ requests per
//! tier through the flow-level fleet engine
//! (`specfaas_platform::fleet::ScaleEngine`) in both baseline and
//! speculative mode. Tenants are instantiated from the 19 registered
//! application templates over one shared, capacity-bounded warm pool.
//!
//! Reports, per tier × engine: sim-requests per wall-clock second, mean /
//! P50 / P99 latency, cold-start rate, wasted-core fraction, and the
//! approximate peak model memory (deterministic accounting of the tenant
//! directory, warm pool, request slab and streaming metrics — not host
//! RSS). `speculation_win` is baseline mean latency / spec mean latency.
//!
//! Simulation results are byte-deterministic per seed: cells run under
//! the parallel executor and are reported in submission order, so output
//! is identical at any `--jobs` (wall-clock figures are, of course,
//! timing and vary run to run).
//!
//! Flags:
//!
//! * `--quick` — smoke mode: one 50-tenant tier, 10⁴ requests.
//! * `--tiers A,B,C` — override the tenant tiers.
//! * `--requests N` — override requests per tier.
//! * `--seed S` — trace seed (default 0xFA5C).
//! * `--out PATH` — write the JSON artifact (default `BENCH_scale.json`
//!   in full mode; quick mode writes only when `--out` is given).
//! * `--guard PATH` — compare this run against the committed artifact and
//!   exit non-zero on any violated clause (see
//!   [`specfaas_bench::guard::CLAUSES`]). CI runs
//!   `scale --tiers 1000 --out scale.json --guard BENCH_scale.json`.

use std::sync::Arc;
use std::time::Instant;

use specfaas_apps::all_app_specs;
use specfaas_bench::executor::{self, ExperimentCell};
use specfaas_bench::guard::{self, Artifact, TierRun};
use specfaas_bench::report::{f1, f2, pct, Table};
use specfaas_platform::fleet::{ScaleConfig, ScaleEngine, ScaleStats, TemplateProfile};
use specfaas_sim::tracegen::TraceConfig;

/// Default trace seed for scale runs.
const SEED: u64 = 0xFA5C;

/// One (tier, engine) measurement.
struct CellResult {
    tenants: u32,
    requests: u64,
    speculative: bool,
    stats: ScaleStats,
    wall_secs: f64,
}

impl CellResult {
    fn req_per_sec(&self) -> f64 {
        self.stats.completed as f64 / self.wall_secs.max(1e-9)
    }
}

fn run_cell(
    tenants: u32,
    requests: u64,
    seed: u64,
    speculative: bool,
    cores: u32,
    warm_capacity: u32,
) -> CellResult {
    let templates: Vec<Arc<TemplateProfile>> = all_app_specs()
        .iter()
        .map(|a| Arc::new(TemplateProfile::from_app(a)))
        .collect();
    let trace = TraceConfig::new(tenants, requests, seed);
    let mut cfg = ScaleConfig::new(trace, speculative);
    cfg.cores = cores;
    cfg.warm_capacity = warm_capacity;
    let engine = ScaleEngine::new(cfg, templates);
    let t0 = Instant::now();
    let stats = engine.run();
    CellResult {
        tenants,
        requests,
        speculative,
        stats,
        wall_secs: t0.elapsed().as_secs_f64(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: scale [--quick] [--tiers A,B,C] [--requests N] [--seed S] \
         [--jobs N] [--out PATH] [--guard PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let jobs = executor::jobs_from_args();
    let quick = executor::has_flag("--quick");
    let out = executor::arg_value("out");
    let guard_path = executor::arg_value("guard");
    let seed = executor::arg_value("seed")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(SEED);
    let tiers: Vec<u32> = match executor::arg_value("tiers") {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
            .collect(),
        None if quick => vec![50],
        None => vec![100, 1_000, 10_000],
    };
    let requests: u64 = executor::arg_value("requests")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(if quick { 10_000 } else { 1_000_000 });
    // Calibration overrides (0 = auto-size from the fleet profile).
    let cores: u32 = executor::arg_value("cores")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(0);
    let warm_capacity: u32 = executor::arg_value("warm-capacity")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(0);

    println!("== scale: trace-driven multi-tenant runs ==");
    println!(
        "tiers {tiers:?} x {requests} requests, seed {seed:#x}, jobs {jobs} \
         (simulation results are byte-identical at any --jobs)"
    );

    // One cell per (tier, engine); the executor reports in submission
    // order, so the table and artifact are deterministic at any --jobs.
    let cells: Vec<ExperimentCell<CellResult>> = tiers
        .iter()
        .flat_map(|&tenants| {
            [false, true].into_iter().map(move |speculative| {
                let label = format!(
                    "scale/{tenants}t/{}",
                    if speculative { "spec" } else { "base" }
                );
                ExperimentCell::new(label, move || {
                    run_cell(tenants, requests, seed, speculative, cores, warm_capacity)
                })
            })
        })
        .collect();
    let results = executor::run_cells(jobs, cells);

    let mut table = Table::new([
        "tenants",
        "engine",
        "req/s wall",
        "mean ms",
        "p50 ms",
        "p99 ms",
        "cold %",
        "wasted %",
        "peak mem MB",
        "win",
    ]);
    let mut tier_runs = Vec::new();
    for pair in results.chunks(2) {
        let (base, spec) = (&pair[0], &pair[1]);
        assert_eq!(base.tenants, spec.tenants);
        assert!(!base.speculative && spec.speculative);
        let win = base.stats.mean_ms() / spec.stats.mean_ms();
        for r in [base, spec] {
            table.row([
                r.tenants.to_string(),
                if r.speculative { "spec" } else { "baseline" }.to_string(),
                format!("{:.0}", r.req_per_sec()),
                f2(r.stats.mean_ms()),
                f2(r.stats.latency.quantile_ms(0.50)),
                f2(r.stats.latency.quantile_ms(0.99)),
                pct(r.stats.cold_rate()),
                pct(r.stats.wasted_frac()),
                f1(r.stats.peak_mem_bytes as f64 / 1e6),
                if r.speculative {
                    format!("{win:.2}x")
                } else {
                    "-".to_string()
                },
            ]);
        }
        tier_runs.push(TierRun {
            tenants: base.tenants,
            requests: base.requests,
            baseline: &base.stats,
            spec: &spec.stats,
            wall_secs: Some([base.wall_secs, spec.wall_secs]),
        });
    }
    println!("\n{}", table.render());

    let artifact = guard::scale_json(seed, requests, Some(jobs), &tier_runs);

    match (&out, quick) {
        (Some(path), _) => {
            std::fs::write(path, &artifact).expect("write scale json");
            println!("wrote {path}");
        }
        (None, false) => {
            std::fs::write("BENCH_scale.json", &artifact).expect("write scale json");
            println!("wrote BENCH_scale.json");
        }
        (None, true) => {}
    }

    if let Some(path) = guard_path {
        guard::enforce(Artifact::Scale, &artifact, &path);
    }
}
