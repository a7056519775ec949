//! The engines' per-event gauges against an every-event reference
//! sampler (DESIGN.md §9, "Interned gauge sampling").
//!
//! The engines sample only the gauges whose readings moved: they read only
//! the nodes the cluster reports changed and skip a gauge whose reading
//! equals the value they last handed the registry. The reference here is
//! the sampler that reads every gauge from public engine state after every
//! dispatched event and hands each reading to a second registry. Both
//! engines run HotelBooking (a chain with branches) and FinraValidate (a
//! fan-out DAG) under injected faults through the public event loop, with
//! a registry swap half-way, and every gauge's CSV rows must match.

use std::cmp::Reverse;

use specfaas_apps::AppBundle;
use specfaas_bench::runner::{prepared_baseline, prepared_spec};
use specfaas_core::{SpecConfig, SpecCore};
use specfaas_platform::cluster::NodeId;
use specfaas_platform::{EngineCore, Harness};
use specfaas_sim::timeseries::{MetricsRegistry, SnapshotLog};
use specfaas_sim::{FaultPlan, RetryPolicy, SimDuration, SimRng};

const SEED: u64 = 0x6a06;
const TRAIN: u64 = 40;
/// Requests per registry; the registry is swapped once in between.
const REQUESTS: u64 = 30;

fn faults() -> FaultPlan {
    FaultPlan::none()
        .with_container_crash(0.02)
        .with_kv_get(0.01)
        .with_kv_set(0.01)
}

fn retry() -> RetryPolicy {
    RetryPolicy::default()
        .with_max_attempts(8)
        .with_timeout(SimDuration::from_secs(2))
}

/// Samples every gauge from public state into `reference`, as the engines
/// did before their sampling became change-driven: all nodes, every
/// event. `spec` is the speculative core's (in-flight slots, memo
/// entries).
fn sample_every_gauge<E: EngineCore>(
    h: &Harness<E>,
    reference: &mut MetricsRegistry,
    spec: Option<(u64, u64)>,
) {
    let rt = h.core.rt();
    let now = rt.sim.now();
    reference.sample(now, "specfaas_warm_pool_size", rt.cluster.warm_pool_total());
    for i in 0..rt.cluster.nodes() {
        let node = rt.cluster.node(NodeId(i));
        let label = i.to_string();
        reference.sample_labeled(
            now,
            "specfaas_busy_cores",
            "node",
            &label,
            node.cores.busy(),
        );
        let depth = node.controller.clone().queue_depth(now);
        reference.sample_labeled(
            now,
            "specfaas_controller_queue_depth",
            "node",
            &label,
            depth as u64,
        );
    }
    if let Some((slots, memo)) = spec {
        reference.sample(now, "specfaas_inflight_spec_slots", slots);
        reference.sample(now, "specfaas_memo_entries", memo);
    }
    let kv = rt.kv_pending.iter().filter(|Reverse(t)| *t > now).count();
    reference.sample(now, "specfaas_outstanding_kv_ops", kv as u64);
}

/// Runs `REQUESTS` requests through the public loop (`admit`,
/// `sim.step`, `dispatch`, `tick_snapshots`), feeding `reference` after
/// every dispatch. Every fourth request is admitted together with the
/// next one, so controllers and cores also see overlapping requests.
fn drive<E: EngineCore>(
    h: &mut Harness<E>,
    bundle: &AppBundle,
    rng: &mut SimRng,
    reference: &mut MetricsRegistry,
    spec: &dyn Fn(&E) -> Option<(u64, u64)>,
) {
    let mut admitted = 0;
    while admitted < REQUESTS {
        let burst = if admitted % 4 == 3 && admitted + 1 < REQUESTS {
            2
        } else {
            1
        };
        let reqs: Vec<_> = (0..burst)
            .map(|_| h.core.admit((bundle.make_input)(rng)))
            .collect();
        admitted += burst;
        while reqs.iter().any(|r| h.core.request_live(*r)) {
            let Some((_, ev)) = h.core.rt_mut().sim.step() else {
                for r in &reqs {
                    h.core.abort(*r);
                }
                break;
            };
            h.core.dispatch(ev);
            sample_every_gauge(h, reference, spec(&h.core));
            h.core.rt_mut().tick_snapshots();
        }
    }
}

/// Asserts that two registries hold the same gauge series, row for row,
/// naming the first row that differs.
fn assert_same_gauges(engine: &MetricsRegistry, reference: &MetricsRegistry, what: &str) {
    let (a, b) = (engine.export_csv(), reference.export_csv());
    let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        panic!(
            "{what}: gauge CSV row {i} differs: engine {:?}, reference {:?}",
            a.get(i),
            b.get(i)
        );
    }
    assert!(a.len() > 100, "{what}: only {} gauge rows", a.len());
}

/// Drives one engine through two registries in turn and checks each
/// against its own reference.
fn check<E: EngineCore>(
    h: &mut Harness<E>,
    bundle: &AppBundle,
    engine: &str,
    spec: &dyn Fn(&E) -> Option<(u64, u64)>,
) {
    h.enable_faults(faults(), retry());
    h.set_snapshots(SnapshotLog::new(SimDuration::from_millis(250)));
    let mut rng = SimRng::seed(SEED ^ 0x1);
    for round in 0..2 {
        let mut reference = MetricsRegistry::recording();
        h.set_registry(MetricsRegistry::recording());
        drive(h, bundle, &mut rng, &mut reference, spec);
        let what = format!("{} / {engine} / registry {round}", bundle.app.name);
        assert_same_gauges(&h.take_registry(), &reference, &what);
    }
}

fn spec_gauges(e: &SpecCore) -> Option<(u64, u64)> {
    Some((
        e.inflight_speculative() as u64,
        e.memos().total_entries() as u64,
    ))
}

#[test]
fn change_driven_gauges_match_every_event_reference() {
    for name in ["HotelBooking", "FinraValidate"] {
        let bundle = specfaas_apps::find_app(name).expect("suite app");
        let mut base = prepared_baseline(&bundle, SEED);
        check(&mut base, &bundle, "baseline", &|_| None);
        let mut spec = prepared_spec(&bundle, SpecConfig::full(), SEED, TRAIN);
        check(&mut spec, &bundle, "spec", &spec_gauges);
    }
}
