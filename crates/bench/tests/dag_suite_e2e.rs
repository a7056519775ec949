//! End-to-end coverage for the DAG suite (MapReduce word count,
//! ML-inference pipeline, FINRA-style validation).
//!
//! * the suite characterization at a fixed seed matches a checked-in
//!   golden rendering (re-bless with `BLESS_GOLDEN=1`),
//! * squash attribution recovered from the trace reconciles exactly
//!   with the engine's Table-IV squashed-CPU ledger for every DAG app,
//! * instrumented runs (tracer + metrics registry armed, fault injector
//!   enabled with an all-zero plan) are bit-identical to plain runs —
//!   observability and fault plumbing must not perturb wide fork/joins.

use specfaas_apps::characterize::characterize_suite;
use specfaas_bench::analysis::analyze;
use specfaas_bench::runner::{instrumented_closed, prepared_baseline, prepared_spec};
use specfaas_core::SpecConfig;
use specfaas_sim::timeseries::MetricsRegistry;
use specfaas_sim::{FaultPlan, RetryPolicy, SimDuration};

const SEED: u64 = 0xDA6;
const TRAIN: u64 = 100;
const REQUESTS: u64 = 60;

fn policy() -> RetryPolicy {
    RetryPolicy::default()
        .with_max_attempts(8)
        .with_timeout(SimDuration::from_secs(2))
}

#[test]
fn characterization_matches_golden_file() {
    let suite = specfaas_apps::suite_named("DAG");
    let c = characterize_suite(&suite, 1);
    let mut got = String::new();
    got.push_str(&format!("suite: {}\n", c.suite));
    got.push_str(&format!("workflow_type: {}\n", c.workflow_type));
    got.push_str(&format!("applications: {}\n", c.applications));
    got.push_str(&format!("avg_functions: {:.2}\n", c.avg_functions));
    match c.avg_branches {
        Some(b) => got.push_str(&format!("avg_branches: {b:.2}\n")),
        None => got.push_str("avg_branches: -\n"),
    }
    got.push_str(&format!("avg_data_deps: {:.2}\n", c.avg_data_deps));
    match c.avg_callees_per_caller {
        Some(v) => got.push_str(&format!("avg_callees_per_caller: {v:.2}\n")),
        None => got.push_str("avg_callees_per_caller: -\n"),
    }
    got.push_str(&format!("max_dag_depth: {}\n", c.max_dag_depth));
    got.push_str(&format!("avg_exec_time_ms: {:.2}\n", c.avg_exec_time_ms));

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/dag_suite_characterization.txt"
    );
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("failed to bless golden file");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing; run with BLESS_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "DAG suite characterization drifted from the golden file; \
         re-bless with BLESS_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn squash_ledger_reconciles_for_every_dag_app() {
    for bundle in specfaas_apps::suite_named("DAG").apps {
        let gen = bundle.make_input.clone();
        let (tracer, _, m) = instrumented_closed(
            &mut prepared_spec(&bundle, SpecConfig::full(), SEED, TRAIN),
            FaultPlan::none(),
            policy(),
            MetricsRegistry::recording(),
            REQUESTS,
            move |r| gen(r),
        );
        let name = &bundle.app.name;
        assert!(
            tracer.violations().is_empty(),
            "{name}: invariant violations: {:?}",
            tracer.violations()
        );
        let a = analyze(tracer.events());
        assert_eq!(
            a.squash.total, m.squashed_core_time,
            "{name}: attributed squash total != Table-IV ledger"
        );
        let by_site: SimDuration = a.squash.by_site.iter().map(|(_, amt, _)| *amt).sum();
        assert_eq!(
            by_site, a.squash.total,
            "{name}: per-site attribution does not sum to the total"
        );
    }
}

#[test]
fn instrumented_runs_are_bit_identical_to_plain_runs() {
    for bundle in specfaas_apps::suite_named("DAG").apps {
        let name = bundle.app.name.clone();
        for engine in ["spec", "baseline"] {
            // Plain: no tracer, no registry, no fault layer.
            let plain = {
                let gen = bundle.make_input.clone();
                match engine {
                    "spec" => prepared_spec(&bundle, SpecConfig::full(), SEED, TRAIN)
                        .run_closed(REQUESTS, move |r| gen(r)),
                    _ => prepared_baseline(&bundle, SEED).run_closed(REQUESTS, move |r| gen(r)),
                }
            };
            // Instrumented: tracer + recording registry + an enabled
            // fault injector whose plan never fires.
            let gen = bundle.make_input.clone();
            let (tracer, _, recorded) = match engine {
                "spec" => instrumented_closed(
                    &mut prepared_spec(&bundle, SpecConfig::full(), SEED, TRAIN),
                    FaultPlan::none(),
                    policy(),
                    MetricsRegistry::recording(),
                    REQUESTS,
                    move |r| gen(r),
                ),
                _ => instrumented_closed(
                    &mut prepared_baseline(&bundle, SEED),
                    FaultPlan::none(),
                    policy(),
                    MetricsRegistry::recording(),
                    REQUESTS,
                    move |r| gen(r),
                ),
            };
            let label = format!("{name}/{engine}");
            assert!(tracer.violations().is_empty(), "{label}: violations");
            assert_eq!(plain.completed, recorded.completed, "{label}: completed");
            assert_eq!(plain.failed, recorded.failed, "{label}: failed");
            assert_eq!(
                plain.useful_core_time, recorded.useful_core_time,
                "{label}: useful core-time"
            );
            assert_eq!(
                plain.squashed_core_time, recorded.squashed_core_time,
                "{label}: squashed core-time"
            );
            assert_eq!(
                plain.mean_response_ms(),
                recorded.mean_response_ms(),
                "{label}: mean latency"
            );
            assert_eq!(
                plain.records.len(),
                recorded.records.len(),
                "{label}: record count"
            );
            for (i, (rp, rr)) in plain.records.iter().zip(&recorded.records).enumerate() {
                assert_eq!(rp.outcome, rr.outcome, "{label}: request {i} outcome");
                assert_eq!(rp.sequence, rr.sequence, "{label}: request {i} sequence");
            }
        }
    }
}

/// Speculation must actually pay off on the DAG shapes: a trained spec
/// engine beats the baseline end-to-end on every app in the suite.
#[test]
fn trained_spec_beats_baseline_on_every_dag_app() {
    for bundle in specfaas_apps::suite_named("DAG").apps {
        let gen = bundle.make_input.clone();
        let mb = prepared_baseline(&bundle, SEED).run_closed(REQUESTS, move |r| gen(r));
        let gen = bundle.make_input.clone();
        let ms = prepared_spec(&bundle, SpecConfig::full(), SEED, TRAIN)
            .run_closed(REQUESTS, move |r| gen(r));
        let (b, s) = (mb.mean_response_ms(), ms.mean_response_ms());
        assert!(
            s < b,
            "{}: trained spec mean latency {s:.2}ms not below baseline {b:.2}ms",
            bundle.app.name
        );
    }
}
