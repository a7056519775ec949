//! Policy sweep: platform policies × engines (DESIGN.md, "Pluggable
//! platform policies").
//!
//! ```text
//! cargo run --release --bin policies -- [--full] [--requests N] [--train N]
//!     [--seed N] [--jobs N] [--ttl-ms N] [--policy SPEC]
//!     [--scale-tenants N] [--scale-requests N] [--out PATH]
//!     [--default-guard]
//! ```
//!
//! Sweeps the pluggable platform-policy layer — keep-alive and prewarm
//! selection — over both execution engines. For each policy the sweep
//! runs one representative application per registered suite (all apps
//! with `--full`) through a closed loop on the baseline and the
//! speculative engine, then drives one quick flow-level scale tier
//! (`--scale-tenants` tenants × `--scale-requests` requests) through the
//! multi-tenant fleet under the same policy. Reported per cell: mean
//! response, cold-start rate (per-function container counters), policy
//! evictions, and the speculation win — so the table answers "how much
//! of SpecFaaS' win survives container unloading pressure?"
//!
//! The default sweep covers four policies:
//!
//! * `default` — the paper platform: unbounded keep-alive (capped per
//!   function), no prewarm. Bit-identical to the pre-policy engines.
//! * `keepalive=ttl:<N>ms` — fixed-TTL unloading (`--ttl-ms`, default
//!   100 ms of idleness).
//! * `keepalive=none` — every container is torn down on release; the
//!   worst-case cold-start regime.
//! * `keepalive=ttl:<N>ms+prewarm=seq-table` — TTL unloading with the
//!   sequence-table prewarmer recovering chain successors.
//!
//! `--policy SPEC` replaces the list with one policy parsed from
//! `SPEC` (see `PolicyConfig::parse`; e.g.
//! `place=round-robin+keepalive=ttl:250ms+prewarm=seq-table`).
//!
//! `--default-guard` instead re-derives the two committed
//! default-policy artifacts and byte-compares them against the goldens:
//! the hotel-booking Prometheus exposition
//! (`tests/golden/hotel_booking_spec.prom`, profile-e2e recipe) and the
//! deterministic fields of the quick scale tier
//! (`tests/golden/scale_quick_default.json`). Any drift exits non-zero —
//! CI runs this to pin "default policy == legacy platform" at the byte
//! level.
//!
//! Simulation results are byte-identical at any `--jobs`.

use std::sync::Arc;

use specfaas_apps::{all_suites, AppBundle};
use specfaas_bench::executor::{self, ExperimentCell};
use specfaas_bench::guard::{self, TierRun};
use specfaas_bench::report::{f2, pct, Table};
use specfaas_bench::runner::{
    instrumented_closed, mean_record_ms, prepared_baseline_with, prepared_spec_with,
};
use specfaas_core::SpecConfig;
use specfaas_platform::fleet::{ScaleConfig, ScaleEngine, ScaleStats, TemplateProfile};
use specfaas_platform::PolicyConfig;
use specfaas_sim::timeseries::MetricsRegistry;
use specfaas_sim::tracegen::TraceConfig;
use specfaas_sim::{FaultPlan, RetryPolicy, SimDuration};

/// Default sweep seed.
const SEED: u64 = 0x90c1;

/// One (policy, app, engine) closed-loop measurement.
struct AppCell {
    policy: String,
    app: String,
    speculative: bool,
    mean_ms: f64,
    cold_rate: f64,
    evictions: u64,
}

/// One (policy, engine) quick scale-tier measurement.
struct ScaleCell {
    policy: String,
    speculative: bool,
    stats: ScaleStats,
}

fn usage() -> ! {
    eprintln!(
        "usage: policies [--full] [--requests N] [--train N] [--seed N] [--jobs N] \
         [--ttl-ms N] [--policy SPEC] [--scale-tenants N] [--scale-requests N] \
         [--out PATH] [--default-guard]"
    );
    std::process::exit(2);
}

fn num<T: std::str::FromStr>(name: &str, default: T) -> T {
    match executor::arg_value(name) {
        Some(s) => s.parse().unwrap_or_else(|_| usage()),
        None => default,
    }
}

/// Runs one app under one policy on one engine and reduces the run to
/// the sweep's row metrics (mean response + container-lifecycle rates).
fn run_app_cell(
    bundle: &AppBundle,
    policy: &PolicyConfig,
    speculative: bool,
    requests: u64,
    train: u64,
    seed: u64,
) -> AppCell {
    let gen = bundle.make_input.clone();
    let (m, row) = if speculative {
        let mut e = prepared_spec_with(bundle, SpecConfig::full(), seed, train, policy);
        let m = e.run_closed(requests, move |r| gen(r));
        let row = e.scoreboard("spec", &m);
        (m, row)
    } else {
        let mut e = prepared_baseline_with(bundle, seed, policy);
        let m = e.run_closed(requests, move |r| gen(r));
        let row = e.scoreboard("baseline", &m);
        (m, row)
    };
    AppCell {
        policy: policy.label(),
        app: bundle.app.name.clone(),
        speculative,
        mean_ms: mean_record_ms(&m, 0),
        cold_rate: row.cold_rate(),
        evictions: row.evictions,
    }
}

/// Runs the quick flow-level scale tier under one policy.
fn run_scale_cell(
    policy: &PolicyConfig,
    speculative: bool,
    tenants: u32,
    requests: u64,
    seed: u64,
) -> ScaleCell {
    let templates: Vec<Arc<TemplateProfile>> = specfaas_apps::all_app_specs()
        .iter()
        .map(|a| Arc::new(TemplateProfile::from_app(a)))
        .collect();
    let trace = TraceConfig::new(tenants, requests, seed);
    let mut cfg = ScaleConfig::new(trace, speculative);
    cfg.policy = *policy;
    ScaleCell {
        policy: policy.label(),
        speculative,
        stats: ScaleEngine::new(cfg, templates).run(),
    }
}

/// Minimal JSON string escape (labels here are plain ASCII anyway).
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

// ---------------------------------------------------------------------
// --default-guard: byte-compare the default policy against the goldens.
// ---------------------------------------------------------------------

/// The profile-e2e recipe (`tests/profile_e2e.rs`): the committed hotel
/// Prometheus golden was produced by exactly these parameters.
fn hotel_prom_default() -> String {
    const SEED: u64 = 0x7ace;
    let plan = FaultPlan::none()
        .with_container_crash(0.02)
        .with_kv_get(0.01)
        .with_kv_set(0.01)
        .with_hang(0.002);
    let retry = RetryPolicy::default()
        .with_max_attempts(8)
        .with_timeout(SimDuration::from_secs(2));
    let bundle = specfaas_apps::faaschain::hotel_booking();
    let gen = bundle.make_input.clone();
    let mut e = prepared_spec_with(
        &bundle,
        SpecConfig::full(),
        SEED,
        120,
        &PolicyConfig::default(),
    );
    let (_, registry, _) = instrumented_closed(
        &mut e,
        plan,
        retry,
        MetricsRegistry::recording(),
        80,
        move |r| gen(r),
    );
    registry.export_prometheus()
}

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Compares one regenerated artifact against its committed golden;
/// returns whether they are byte-identical.
fn guard_compare(label: &str, got: &str, golden: &str) -> bool {
    let want =
        std::fs::read_to_string(golden).unwrap_or_else(|e| panic!("read golden {golden}: {e}"));
    if got == want {
        println!("default-policy guard [{label}]: PASS ({golden})");
        true
    } else {
        eprintln!(
            "default-policy guard [{label}]: FAIL — regenerated output is not \
             byte-identical to {golden}"
        );
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                eprintln!(
                    "  first diff at line {}:\n    got:  {g}\n    want: {w}",
                    i + 1
                );
                break;
            }
        }
        if got.lines().count() != want.lines().count() {
            eprintln!(
                "  line counts differ: got {}, want {}",
                got.lines().count(),
                want.lines().count()
            );
        }
        false
    }
}

/// `--default-guard`: regenerate both committed default-policy artifacts
/// under an explicitly-attached default `PolicyConfig` and byte-compare.
fn run_default_guard(jobs: usize) -> ! {
    println!("== policies --default-guard: default policy vs committed goldens ==");
    let cells = vec![
        ExperimentCell::new("guard/hotel-prom".to_string(), || {
            GuardCell::Prom(hotel_prom_default())
        }),
        ExperimentCell::new("guard/scale-base".to_string(), || {
            GuardCell::Scale(run_scale_cell(
                &PolicyConfig::default(),
                false,
                50,
                10_000,
                0xFA5C,
            ))
        }),
        ExperimentCell::new("guard/scale-spec".to_string(), || {
            GuardCell::Scale(run_scale_cell(
                &PolicyConfig::default(),
                true,
                50,
                10_000,
                0xFA5C,
            ))
        }),
    ];
    let mut results = executor::run_cells(jobs, cells);
    let (mut prom, mut base, mut spec) = (None, None, None);
    for r in results.drain(..) {
        match r {
            GuardCell::Prom(p) => prom = Some(p),
            GuardCell::Scale(c) if !c.speculative => base = Some(c),
            GuardCell::Scale(c) => spec = Some(c),
        }
    }
    let (prom, base, spec) = (prom.unwrap(), base.unwrap(), spec.unwrap());
    let scale = guard::scale_json(
        0xFA5C,
        10_000,
        None,
        &[TierRun {
            tenants: 50,
            requests: 10_000,
            baseline: &base.stats,
            spec: &spec.stats,
            wall_secs: None,
        }],
    );
    let ok_prom = guard_compare("hotel prom", &prom, &golden_path("hotel_booking_spec.prom"));
    let ok_scale = guard_compare(
        "scale quick",
        &scale,
        &golden_path("scale_quick_default.json"),
    );
    std::process::exit(if ok_prom && ok_scale { 0 } else { 1 });
}

enum GuardCell {
    Prom(String),
    Scale(ScaleCell),
}

fn main() {
    let jobs = executor::jobs_from_args();
    if executor::has_flag("--default-guard") {
        run_default_guard(jobs);
    }
    let full = executor::has_flag("--full");
    let requests: u64 = num("requests", 80);
    let train: u64 = num("train", 120);
    let seed: u64 = num("seed", SEED);
    let ttl_ms: u64 = num("ttl-ms", 100);
    let scale_tenants: u32 = num("scale-tenants", 50);
    let scale_requests: u64 = num("scale-requests", 10_000);
    let out = executor::arg_value("out");

    let ttl = SimDuration::from_millis(ttl_ms);
    let policies: Vec<PolicyConfig> = match executor::arg_value("policy") {
        Some(spec) => vec![PolicyConfig::parse(&spec).unwrap_or_else(|e| {
            eprintln!("bad --policy {spec}: {e}");
            usage();
        })],
        None => vec![
            PolicyConfig::default(),
            PolicyConfig::fixed_ttl(ttl),
            PolicyConfig::no_keepalive(),
            PolicyConfig::ttl_with_prewarm(ttl),
        ],
    };

    // One representative app per suite (all apps with --full).
    let apps: Vec<AppBundle> = all_suites()
        .iter()
        .flat_map(|s| {
            if full {
                s.apps.clone()
            } else {
                vec![s.apps[0].clone()]
            }
        })
        .collect();

    println!("== policies: platform-policy sweep x engines ==");
    println!(
        "policies {:?}, {} apps x {requests} requests (train {train}), \
         scale tier {scale_tenants}t x {scale_requests}, seed {seed:#x}, jobs {jobs} \
         (simulation results are byte-identical at any --jobs)",
        policies.iter().map(|p| p.label()).collect::<Vec<_>>(),
        apps.len(),
    );

    // App cells: policy x app x engine, in submission order.
    let app_cells: Vec<ExperimentCell<AppCell>> = policies
        .iter()
        .flat_map(|policy| {
            let apps = &apps;
            apps.iter().flat_map(move |bundle| {
                [false, true].into_iter().map(move |speculative| {
                    let (policy, bundle) = (*policy, bundle.clone());
                    let label = format!(
                        "{}/{}/{}",
                        policy.label(),
                        bundle.app.name,
                        if speculative { "spec" } else { "base" }
                    );
                    ExperimentCell::new(label, move || {
                        run_app_cell(&bundle, &policy, speculative, requests, train, seed)
                    })
                })
            })
        })
        .collect();
    let app_results = executor::run_cells(jobs, app_cells);

    // Scale cells: policy x engine.
    let scale_cells: Vec<ExperimentCell<ScaleCell>> = policies
        .iter()
        .flat_map(|policy| {
            [false, true].into_iter().map(move |speculative| {
                let policy = *policy;
                let label = format!(
                    "scale/{}/{}",
                    policy.label(),
                    if speculative { "spec" } else { "base" }
                );
                ExperimentCell::new(label, move || {
                    run_scale_cell(&policy, speculative, scale_tenants, scale_requests, 0xFA5C)
                })
            })
        })
        .collect();
    let scale_results = executor::run_cells(jobs, scale_cells);

    // Per-app table: baseline/spec pairs ride adjacent in submission
    // order, so chunk and join.
    let mut table = Table::new([
        "policy",
        "app",
        "base ms",
        "spec ms",
        "win",
        "base cold %",
        "spec cold %",
        "evictions b/s",
    ]);
    let mut json_rows = Vec::new();
    for pair in app_results.chunks(2) {
        let (b, s) = (&pair[0], &pair[1]);
        assert!(!b.speculative && s.speculative && b.app == s.app);
        let win = b.mean_ms / s.mean_ms;
        table.row([
            b.policy.clone(),
            b.app.clone(),
            f2(b.mean_ms),
            f2(s.mean_ms),
            format!("{win:.2}x"),
            pct(b.cold_rate),
            pct(s.cold_rate),
            format!("{}/{}", b.evictions, s.evictions),
        ]);
        json_rows.push(format!(
            "    {{ \"policy\": \"{}\", \"app\": \"{}\", \"baseline_mean_ms\": {:.3}, \
             \"spec_mean_ms\": {:.3}, \"speculation_win\": {:.4}, \
             \"baseline_cold_rate\": {:.6}, \"spec_cold_rate\": {:.6}, \
             \"baseline_evictions\": {}, \"spec_evictions\": {} }}",
            esc(&b.policy),
            esc(&b.app),
            b.mean_ms,
            s.mean_ms,
            win,
            b.cold_rate,
            s.cold_rate,
            b.evictions,
            s.evictions,
        ));
    }
    println!(
        "\nper-app closed loops ({requests} requests):\n\n{}",
        table.render()
    );

    let mut scale_table = Table::new([
        "policy", "engine", "mean ms", "p99 ms", "cold %", "prewarms", "win",
    ]);
    let mut scale_json = Vec::new();
    for pair in scale_results.chunks(2) {
        let (b, s) = (&pair[0], &pair[1]);
        assert!(!b.speculative && s.speculative && b.policy == s.policy);
        let win = b.stats.mean_ms() / s.stats.mean_ms();
        for r in [b, s] {
            scale_table.row([
                r.policy.clone(),
                if r.speculative { "spec" } else { "baseline" }.to_string(),
                f2(r.stats.mean_ms()),
                f2(r.stats.latency.quantile_ms(0.99)),
                pct(r.stats.cold_rate()),
                r.stats.prewarm_issued.to_string(),
                if r.speculative {
                    format!("{win:.2}x")
                } else {
                    "-".to_string()
                },
            ]);
        }
        scale_json.push(format!(
            "    {{ \"policy\": \"{}\", \"baseline_mean_ms\": {:.3}, \"spec_mean_ms\": {:.3}, \
             \"speculation_win\": {:.4}, \"baseline_cold_rate\": {:.6}, \
             \"spec_cold_rate\": {:.6}, \"spec_prewarm_issued\": {} }}",
            esc(&b.policy),
            b.stats.mean_ms(),
            s.stats.mean_ms(),
            win,
            b.stats.cold_rate(),
            s.stats.cold_rate(),
            s.stats.prewarm_issued,
        ));
    }
    println!(
        "\nflow-level scale tier ({scale_tenants} tenants x {scale_requests} requests):\n\n{}",
        scale_table.render()
    );

    if let Some(path) = out {
        let artifact = format!(
            "{{\n  \"schema\": \"{}\",\n  \"seed\": {},\n  \"requests\": {},\n  \
             \"apps\": [\n{}\n  ],\n  \"scale\": [\n{}\n  ]\n}}\n",
            esc("specfaas-policies-v1"),
            seed,
            requests,
            json_rows.join(",\n"),
            scale_json.join(",\n"),
        );
        std::fs::write(&path, artifact).expect("write policies json");
        println!("wrote {path}");
    }
}
