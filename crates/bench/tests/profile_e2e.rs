//! End-to-end tests for the metrics registry and trace analytics
//! (DESIGN.md, "Observability").
//!
//! For one representative application per suite these tests assert that
//!
//! * arming the metrics registry leaves `RunMetrics` bit-identical for
//!   both engines, the spec engine also under lazy squashing (sampling
//!   never touches the RNG or the event queue),
//! * two same-seed runs produce byte-identical Prometheus and CSV
//!   exports,
//! * the Prometheus exposition for a fixed app and seed matches a
//!   checked-in golden file per engine and spec squash mechanism
//!   (re-bless with `BLESS_GOLDEN=1`),
//! * squash attribution recovered from the trace reconciles exactly
//!   with the engine's squashed-CPU ledger (Table IV), and
//! * per-request critical-path phase buckets sum exactly to the
//!   end-to-end latency.

use specfaas_bench::analysis::{analyze, check_paths_exact};
use specfaas_bench::runner::{instrumented_closed, prepared_baseline, prepared_spec};
use specfaas_core::{SpecConfig, SquashMechanism};
use specfaas_platform::RunMetrics;
use specfaas_sim::timeseries::MetricsRegistry;
use specfaas_sim::trace::Tracer;
use specfaas_sim::{FaultPlan, RetryPolicy, SimDuration};

const SEED: u64 = 0x7ace;
const TRAIN: u64 = 120;
const REQUESTS: u64 = 80;

fn plan() -> FaultPlan {
    FaultPlan::none()
        .with_container_crash(0.02)
        .with_kv_get(0.01)
        .with_kv_set(0.01)
        .with_hang(0.002)
}

fn policy() -> RetryPolicy {
    RetryPolicy::default()
        .with_max_attempts(8)
        .with_timeout(SimDuration::from_secs(2))
}

/// One instrumented measurement pass. `engine` is `"spec"`,
/// `"spec-lazy"` (the spec engine with lazily squashed orphans),
/// `"spec-container-kill"` (the spec engine tearing down a squashed
/// handler's container) or `"baseline"`; `record` arms the registry (a
/// disabled registry is installed otherwise, which must be a no-op).
fn instrumented_run(
    bundle: &specfaas_apps::AppBundle,
    engine: &str,
    record: bool,
) -> (Tracer, MetricsRegistry, RunMetrics) {
    let registry = if record {
        MetricsRegistry::recording()
    } else {
        MetricsRegistry::disabled()
    };
    let gen = bundle.make_input.clone();
    let mut config = SpecConfig::full();
    match engine {
        "spec" | "spec-lazy" | "spec-container-kill" => {
            match engine {
                "spec-lazy" => config.squash = SquashMechanism::Lazy,
                "spec-container-kill" => config.squash = SquashMechanism::ContainerKill,
                _ => {}
            }
            instrumented_closed(
                &mut prepared_spec(bundle, config, SEED, TRAIN),
                plan(),
                policy(),
                registry,
                REQUESTS,
                move |r| gen(r),
            )
        }
        "baseline" => instrumented_closed(
            &mut prepared_baseline(bundle, SEED),
            plan(),
            policy(),
            registry,
            REQUESTS,
            move |r| gen(r),
        ),
        other => panic!("unknown engine {other}"),
    }
}

fn assert_metrics_eq(a: &RunMetrics, b: &RunMetrics, label: &str) {
    assert_eq!(a.completed, b.completed, "{label}: completed diverged");
    assert_eq!(a.failed, b.failed, "{label}: failed diverged");
    assert_eq!(
        a.useful_core_time, b.useful_core_time,
        "{label}: useful core-time diverged"
    );
    assert_eq!(
        a.squashed_core_time, b.squashed_core_time,
        "{label}: squashed core-time diverged"
    );
    assert_eq!(
        a.latency.mean_ms(),
        b.latency.mean_ms(),
        "{label}: latency diverged"
    );
    assert_eq!(
        a.p99_response_ms(),
        b.p99_response_ms(),
        "{label}: streaming p99 diverged"
    );
}

#[test]
fn registry_is_invisible_to_run_metrics_on_both_engines() {
    for suite in specfaas_apps::all_suites() {
        let bundle = &suite.apps[0];
        for engine in ["spec", "spec-lazy", "baseline"] {
            let label = format!("{}/{}/{engine}", suite.name, bundle.app.name);
            let (_, _, plain) = instrumented_run(bundle, engine, false);
            let (_, registry, recorded) = instrumented_run(bundle, engine, true);
            assert!(registry.enabled(), "{label}: registry not armed");
            assert_metrics_eq(&plain, &recorded, &label);
        }
    }
}

#[test]
fn same_seed_runs_emit_byte_identical_exports() {
    for suite in specfaas_apps::all_suites() {
        let bundle = &suite.apps[0];
        let label = format!("{}/{}", suite.name, bundle.app.name);
        let (_, ra, _) = instrumented_run(bundle, "spec", true);
        let (_, rb, _) = instrumented_run(bundle, "spec", true);
        assert_eq!(
            ra.export_prometheus(),
            rb.export_prometheus(),
            "{label}: Prometheus exposition diverges"
        );
        assert_eq!(
            ra.export_csv(),
            rb.export_csv(),
            "{label}: CSV time series diverges"
        );
    }
}

#[test]
fn prometheus_exposition_matches_golden_file() {
    let bundle = specfaas_apps::faaschain::hotel_booking();
    for engine in ["spec", "spec-lazy", "spec-container-kill", "baseline"] {
        let (_, registry, _) = instrumented_run(&bundle, engine, true);
        let got = registry.export_prometheus();

        let path = format!(
            "{}/tests/golden/hotel_booking_{engine}.prom",
            env!("CARGO_MANIFEST_DIR")
        );
        if std::env::var_os("BLESS_GOLDEN").is_some() {
            std::fs::write(&path, &got).expect("failed to bless golden file");
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .expect("golden file missing; run with BLESS_GOLDEN=1 to create it");
        assert_eq!(
            got, want,
            "{engine}: Prometheus exposition drifted from the golden file; \
             re-bless with BLESS_GOLDEN=1 if the change is intentional"
        );
    }
}

#[test]
fn squash_attribution_reconciles_with_engine_ledger() {
    let bundle = specfaas_apps::faaschain::hotel_booking();
    for engine in ["spec", "baseline"] {
        let (tracer, _, m) = instrumented_run(&bundle, engine, true);
        assert!(tracer.violations().is_empty(), "{engine}: violations");
        let a = analyze(tracer.events());
        assert_eq!(
            a.squash.total, m.squashed_core_time,
            "{engine}: attributed squash total != Table-IV ledger"
        );
        let by_site: SimDuration = a.squash.by_site.iter().map(|(_, amt, _)| *amt).sum();
        assert_eq!(
            by_site, a.squash.total,
            "{engine}: per-site attribution does not sum to the total"
        );
    }
}

#[test]
fn critical_path_phases_sum_to_latency() {
    for suite in specfaas_apps::all_suites() {
        let bundle = &suite.apps[0];
        for engine in ["spec", "baseline"] {
            let label = format!("{}/{}/{engine}", suite.name, bundle.app.name);
            let (tracer, _, m) = instrumented_run(bundle, engine, true);
            let a = analyze(tracer.events());
            assert!(
                !a.requests.is_empty(),
                "{label}: no request paths recovered"
            );
            assert_eq!(
                a.requests.len() as u64,
                m.completed + m.failed,
                "{label}: path count != terminal requests"
            );
            let broken = check_paths_exact(&a);
            assert!(
                broken.is_empty(),
                "{label}: phase buckets do not sum to latency for {broken:?}"
            );
        }
    }
}
