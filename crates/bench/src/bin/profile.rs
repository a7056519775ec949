//! Run profiler: flight recorder, time-series metrics registry and
//! post-hoc trace analytics (DESIGN.md, "Observability").
//!
//! ```text
//! cargo run --release --bin profile -- [--app NAME] [--engine spec|baseline]
//!     [--requests N] [--seed N] [--faults RATE] [--trace PATH] [--prom PATH]
//!     [--csv PATH]
//! ```
//!
//! Runs one application with both the flight recorder (invariant
//! checking) and the metrics registry armed, then prints:
//!
//! * the per-request critical path aggregated by Fig. 3 phase,
//! * squash attribution (wasted core-time by charge site, reconciled
//!   exactly against the engine's Table-IV squashed-CPU ledger),
//! * the speculation-depth waterfall, and
//! * the what-if speedup bound under zero-overhead speculation.
//!
//! With `--trace PATH` the per-invocation lifecycle timeline (container
//! acquisition, cold-start phases, speculative launches, memo hits,
//! squashes, replays, commits) is written as Chrome-trace JSON, loadable
//! in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev). With
//! `--prom PATH` the final counter/gauge state is written in Prometheus
//! text exposition format; with `--csv PATH` the full gauge time series
//! is written as CSV. Identical seeds produce byte-identical files. Any
//! invariant violation or ledger mismatch fails the process.

use specfaas_bench::analysis::{analyze, check_paths_exact, PathAggregate};
use specfaas_bench::report::{f1, f2, pct, speedup, Table};
use specfaas_bench::runner::{instrumented_closed, prepared_baseline, prepared_spec};
use specfaas_core::SpecConfig;
use specfaas_sim::timeseries::MetricsRegistry;
use specfaas_sim::trace::{validate_json, Phase};
use specfaas_sim::{FaultPlan, RetryPolicy, SimDuration};

struct Args {
    app: String,
    engine: String,
    requests: u64,
    seed: u64,
    faults: f64,
    trace_path: Option<String>,
    prom_path: Option<String>,
    csv_path: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: profile [--app NAME] [--engine spec|baseline] [--requests N] \
         [--seed N] [--faults RATE] [--trace PATH] [--prom PATH] [--csv PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        app: "HotelBooking".to_string(),
        engine: "spec".to_string(),
        requests: 200,
        seed: 0x7ace,
        faults: 0.0,
        trace_path: None,
        prom_path: None,
        csv_path: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |flag: &str| it.next().unwrap_or_else(|| usage_missing(flag));
        match flag.as_str() {
            "--app" => args.app = val("--app"),
            "--engine" => args.engine = val("--engine"),
            "--requests" => args.requests = parse(&val("--requests")),
            "--seed" => args.seed = parse(&val("--seed")),
            "--faults" => args.faults = parse(&val("--faults")),
            "--trace" => args.trace_path = Some(val("--trace")),
            "--prom" => args.prom_path = Some(val("--prom")),
            "--csv" => args.csv_path = Some(val("--csv")),
            _ => usage(),
        }
    }
    args
}

fn usage_missing(flag: &str) -> ! {
    eprintln!("missing value for {flag}");
    usage();
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad numeric argument: {s}");
        usage();
    })
}

fn find_app(name: &str) -> specfaas_apps::AppBundle {
    if let Some(bundle) = specfaas_apps::find_app(name) {
        return bundle;
    }
    eprintln!("unknown app `{name}`; available:");
    for suite in specfaas_apps::all_suites() {
        for bundle in &suite.apps {
            eprintln!("  {} ({})", bundle.app.name, suite.name);
        }
    }
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let bundle = find_app(&args.app);
    let plan = FaultPlan::none()
        .with_container_crash(args.faults)
        .with_kv_get(args.faults / 2.0)
        .with_kv_set(args.faults / 2.0);
    let policy = RetryPolicy::default()
        .with_max_attempts(8)
        .with_timeout(SimDuration::from_secs(2));

    // One generic instrumented body; the match arms only pick the engine.
    let gen = bundle.make_input.clone();
    let (tracer, registry, metrics) = match args.engine.as_str() {
        "spec" => instrumented_closed(
            &mut prepared_spec(&bundle, SpecConfig::full(), args.seed, 300),
            plan,
            policy,
            MetricsRegistry::recording(),
            args.requests,
            move |r| gen(r),
        ),
        "baseline" => instrumented_closed(
            &mut prepared_baseline(&bundle, args.seed),
            plan,
            policy,
            MetricsRegistry::recording(),
            args.requests,
            move |r| gen(r),
        ),
        _ => usage(),
    };

    println!(
        "{} / {}: {} requests done, {} failed, {} trace events",
        bundle.app.name,
        args.engine,
        metrics.completed,
        metrics.failed,
        tracer.events().len()
    );

    if !tracer.violations().is_empty() {
        eprintln!("invariant violations:");
        for v in tracer.violations() {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!("invariants: ok");

    if let Some(path) = args.trace_path {
        let json = tracer.export_chrome_json();
        validate_json(&json).expect("exporter produced invalid JSON");
        std::fs::write(&path, &json).expect("failed to write trace file");
        println!("wrote {} bytes of Chrome-trace JSON to {path}", json.len());
    }

    let a = analyze(tracer.events());

    // The decomposition is exact and the squash attribution reconciles
    // with the Table-IV ledger — both are hard errors if they drift.
    let broken = check_paths_exact(&a);
    if !broken.is_empty() {
        eprintln!("critical-path decomposition is not exact for requests {broken:?}");
        std::process::exit(1);
    }
    if a.squash.total != metrics.squashed_core_time {
        eprintln!(
            "squash attribution ({}us) does not reconcile with the engine ledger ({}us)",
            a.squash.total.as_micros(),
            metrics.squashed_core_time.as_micros()
        );
        std::process::exit(1);
    }
    println!(
        "squash ledger reconciled: {:.3} core-ms attributed across {} charge sites",
        a.squash.total.as_millis_f64(),
        a.squash.by_site.len()
    );

    let agg = PathAggregate::of(&a.requests);
    let mut t = Table::new(["Phase", "Mean ms/req", "Share"]);
    let mean_lat = agg.mean_latency_ms();
    for p in Phase::ALL {
        let m = agg.mean_phase_ms(p);
        t.row([
            p.name().to_string(),
            f2(m),
            pct(if mean_lat > 0.0 { m / mean_lat } else { 0.0 }),
        ]);
    }
    let q = agg.mean_queue_ms();
    t.row([
        "queue/other".to_string(),
        f2(q),
        pct(if mean_lat > 0.0 { q / mean_lat } else { 0.0 }),
    ]);
    t.row(["total".to_string(), f2(mean_lat), pct(1.0)]);
    println!("\nCritical path by phase ({} requests):", agg.count);
    println!("{}", t.render());

    if !a.squash.by_site.is_empty() {
        let mut t = Table::new(["Squash site", "Wasted core-ms", "Charges"]);
        for (site, amt, n) in &a.squash.by_site {
            t.row([site.clone(), f2(amt.as_millis_f64()), n.to_string()]);
        }
        println!("Squash attribution by site:");
        println!("{}", t.render());
    }

    let mut t = Table::new(["Max spec depth", "Requests"]);
    for (d, n) in &a.depth.histogram {
        t.row([d.to_string(), n.to_string()]);
    }
    println!("Speculation-depth waterfall:");
    println!("{}", t.render());

    println!(
        "what-if bound (zero-overhead speculation): {} over mean latency {} ms",
        speedup(a.what_if.speedup_bound()),
        f1(mean_lat)
    );

    if let Some(path) = args.prom_path {
        let prom = registry.export_prometheus();
        std::fs::write(&path, &prom).expect("failed to write Prometheus file");
        println!(
            "wrote {} bytes of Prometheus exposition to {path}",
            prom.len()
        );
    }
    if let Some(path) = args.csv_path {
        let csv = registry.export_csv();
        std::fs::write(&path, &csv).expect("failed to write CSV file");
        println!(
            "wrote {} bytes of gauge time-series CSV to {path}",
            csv.len()
        );
    }
}
