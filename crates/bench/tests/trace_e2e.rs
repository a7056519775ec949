//! End-to-end flight-recorder tests (DESIGN.md, "Observability").
//!
//! For one representative application per suite (FaaSChain, TrainTicket,
//! Alibaba) these tests run the speculative engine with the invariant
//! checker armed under a survivable fault plan, with both the default
//! process-kill squash and LazySquash, and assert that
//!
//! * no invariant trips (commit order, leaked slots, core-time
//!   conservation, memo capacity),
//! * the Chrome-trace export parses,
//! * two same-seed runs produce byte-identical traces, and
//! * installing a disabled tracer leaves run metrics bit-identical.

use specfaas_bench::runner::{prepared_baseline, prepared_spec, traced_closed};
use specfaas_core::{SpecConfig, SquashMechanism};
use specfaas_platform::RunMetrics;
use specfaas_sim::trace::{validate_json, Tracer};
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

/// Runs one traced speculative measurement pass under the given squash
/// mechanism and returns the tracer (with any recorded violations) plus
/// the run metrics.
fn traced_spec_run(
    bundle: &specfaas_apps::AppBundle,
    squash: SquashMechanism,
) -> (Tracer, RunMetrics) {
    let config = SpecConfig {
        squash,
        ..SpecConfig::full()
    };
    let gen = bundle.make_input.clone();
    traced_closed(
        &mut prepared_spec(bundle, config, SEED, TRAIN),
        plan(),
        policy(),
        REQUESTS,
        move |r| gen(r),
    )
}

fn assert_clean(tracer: &Tracer, label: &str) {
    assert!(
        tracer.violations().is_empty(),
        "{label}: invariant violations: {:#?}",
        tracer.violations()
    );
    assert!(
        !tracer.events().is_empty(),
        "{label}: tracer recorded no events"
    );
    let json = tracer.export_chrome_json();
    validate_json(&json).unwrap_or_else(|e| panic!("{label}: bad trace JSON: {e}"));
}

#[test]
fn invariants_hold_across_all_suites_under_faults() {
    for squash in [SquashMechanism::ProcessKill, SquashMechanism::Lazy] {
        for suite in specfaas_apps::all_suites() {
            let bundle = &suite.apps[0];
            let label = format!("{}/{}/{squash:?}", suite.name, bundle.app.name);
            let (tracer, m) = traced_spec_run(bundle, squash);
            assert_clean(&tracer, &label);
            assert!(m.completed > 0, "{label}: no requests completed");
        }
    }
}

#[test]
fn same_seed_runs_emit_byte_identical_traces() {
    for suite in specfaas_apps::all_suites() {
        let bundle = &suite.apps[0];
        let label = format!("{}/{}", suite.name, bundle.app.name);
        let (a, _) = traced_spec_run(bundle, SquashMechanism::ProcessKill);
        let (b, _) = traced_spec_run(bundle, SquashMechanism::ProcessKill);
        assert_eq!(a.events(), b.events(), "{label}: event streams diverge");
        assert_eq!(
            a.export_chrome_json(),
            b.export_chrome_json(),
            "{label}: exported JSON diverges"
        );
    }
}

#[test]
fn baseline_engine_passes_invariants_under_faults() {
    let bundle = specfaas_apps::faaschain::hotel_booking();
    let gen = bundle.make_input.clone();
    let (tracer, m) = traced_closed(
        &mut prepared_baseline(&bundle, SEED),
        plan(),
        policy(),
        REQUESTS,
        move |r| gen(r),
    );
    assert_clean(&tracer, "Baseline/HotelBooking");
    assert!(m.completed > 0);
}

#[test]
fn disabled_tracer_leaves_metrics_bit_identical() {
    let bundle = specfaas_apps::trainticket::ticket_app();

    let run = |install_disabled: bool| -> RunMetrics {
        let mut spec = prepared_spec(&bundle, SpecConfig::full(), SEED, TRAIN);
        spec.enable_faults(plan(), policy());
        if install_disabled {
            spec.set_tracer(Tracer::disabled());
        }
        let gen = bundle.make_input.clone();
        spec.run_closed(REQUESTS, move |r| gen(r))
    };

    let plain = run(false);
    let traced = run(true);
    assert_eq!(plain.completed, traced.completed);
    assert_eq!(plain.failed, traced.failed);
    assert_eq!(plain.useful_core_time, traced.useful_core_time);
    assert_eq!(plain.squashed_core_time, traced.squashed_core_time);
    assert_eq!(plain.mean_response_ms(), traced.mean_response_ms());
}
