//! The shared measurement protocol for all experiments.
//!
//! Every measured configuration follows the paper's methodology (§VII):
//! a warmed-up environment (pre-warmed containers; for SpecFaaS also
//! trained sequence/memoization/predictor tables from prior invocations),
//! Poisson arrivals at the configured load, and a measurement window that
//! excludes the initial transient.
//!
//! The engines are compared along two paths, each written once here:
//!
//! * **Loaded comparison** ([`compare_loaded`], gridded by
//!   [`loaded_grid`]; Figs. 11–14 and Table IV). For one app at one
//!   load, the client pool is sized from the baseline's unloaded response
//!   ([`baseline_single_ms`], [`clients_for`]). The baseline then serves
//!   30 closed warm-up requests before the measured window; SpecFaaS is
//!   trained on [`ExperimentParams::train_requests`] instead. Both run
//!   against that one client pool, and the baseline is measured once per
//!   (app, load) and shared by every SpecFaaS config. Each run is reduced
//!   to the caller's number before the next starts.
//! * **Paired replay** ([`paired_inputs`], [`replay`]; the equivalence
//!   tests). Inputs are drawn outside either engine and fed to a prepared
//!   engine one request at a time; [`Replay::mismatch`] reports the first
//!   difference in outcomes, committed functions or final KV state.

use std::sync::Arc;

use specfaas_apps::AppBundle;
use specfaas_core::{SpecConfig, SpecEngine};
use specfaas_platform::{
    BaselineEngine, EngineCore, Harness, Load, PolicyConfig, RequestOutcome, RunMetrics,
    ScoreboardRow,
};
use specfaas_sim::timeseries::{MetricsRegistry, SnapshotLog};
use specfaas_sim::trace::Tracer;
use specfaas_sim::{FaultPlan, RetryPolicy, SimDuration, SimRng};
use specfaas_storage::Value;

use crate::executor::{self, ExperimentCell};

/// Parameters of one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Poisson arrival rate (requests per second).
    pub rps: f64,
    /// Length of the open-loop generation window (simulated).
    pub duration: SimDuration,
    /// Initial transient excluded from measurement.
    pub warmup: SimDuration,
    /// Closed-loop training invocations before the measured window
    /// (populates SpecFaaS' tables and the container pools).
    pub train_requests: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            rps: 100.0,
            duration: SimDuration::from_secs(5),
            warmup: SimDuration::from_millis(500),
            train_requests: 300,
            seed: 0xFAA5,
        }
    }
}

impl ExperimentParams {
    /// Same parameters at a different load.
    pub fn at_rps(mut self, rps: f64) -> Self {
        self.rps = rps;
        self
    }
}

/// Builds a pre-warmed baseline engine with seeded storage.
pub fn prepared_baseline(bundle: &AppBundle, seed: u64) -> BaselineEngine {
    prepared_baseline_with(bundle, seed, &PolicyConfig::default())
}

/// [`prepared_baseline`] under an explicit platform policy, attached
/// before pre-warm so the policy governs the whole engine lifetime
/// (under [`PolicyConfig::default`] this is bit-identical to the
/// unparameterized builder).
pub fn prepared_baseline_with(
    bundle: &AppBundle,
    seed: u64,
    policy: &PolicyConfig,
) -> BaselineEngine {
    let mut e = BaselineEngine::new(Arc::clone(&bundle.app), seed);
    e.set_policies(policy);
    e.prewarm();
    let mut rng = SimRng::seed(seed ^ 0x5eed);
    (bundle.seed)(&mut e.kv, &mut rng);
    e
}

/// Builds a pre-warmed, *trained* SpecFaaS engine with seeded storage.
pub fn prepared_spec(
    bundle: &AppBundle,
    config: SpecConfig,
    seed: u64,
    train_requests: u64,
) -> SpecEngine {
    prepared_spec_with(
        bundle,
        config,
        seed,
        train_requests,
        &PolicyConfig::default(),
    )
}

/// [`prepared_spec`] under an explicit platform policy. The policy is
/// attached before pre-warm and training, so a prewarm policy's sequence
/// table is populated by the training invocations exactly like SpecFaaS'
/// own speculation tables.
pub fn prepared_spec_with(
    bundle: &AppBundle,
    config: SpecConfig,
    seed: u64,
    train_requests: u64,
    policy: &PolicyConfig,
) -> SpecEngine {
    let mut e = SpecEngine::new(Arc::clone(&bundle.app), config, seed);
    e.set_policies(policy);
    e.prewarm();
    let mut rng = SimRng::seed(seed ^ 0x5eed);
    (bundle.seed)(&mut e.kv, &mut rng);
    let gen = Arc::clone(&bundle.make_input);
    e.run_closed(train_requests, move |r| gen(r));
    e
}

/// Arms fault injection on any engine harness and measures a closed
/// loop — the shared body of the per-engine bench match arms.
pub fn faulted_closed<E: EngineCore>(
    e: &mut Harness<E>,
    plan: FaultPlan,
    policy: RetryPolicy,
    requests: u64,
    input: impl FnMut(&mut SimRng) -> Value,
) -> RunMetrics {
    e.enable_faults(plan, policy);
    e.run_closed(requests, input)
}

/// [`faulted_closed`] with the invariant-checking flight recorder armed;
/// returns the recorder alongside the metrics.
pub fn traced_closed<E: EngineCore>(
    e: &mut Harness<E>,
    plan: FaultPlan,
    policy: RetryPolicy,
    requests: u64,
    input: impl FnMut(&mut SimRng) -> Value,
) -> (Tracer, RunMetrics) {
    e.enable_faults(plan, policy);
    e.set_tracer(Tracer::with_invariants());
    let m = e.run_closed(requests, input);
    (e.take_tracer(), m)
}

/// Fully instrumented closed loop on any engine: fault injection, the
/// invariant-checking flight recorder and the given metrics registry are
/// attached (in that order, matching the bit-identity tests), then the
/// instruments are taken back out and returned with the metrics.
pub fn instrumented_closed<E: EngineCore>(
    e: &mut Harness<E>,
    plan: FaultPlan,
    policy: RetryPolicy,
    registry: MetricsRegistry,
    requests: u64,
    input: impl FnMut(&mut SimRng) -> Value,
) -> (Tracer, MetricsRegistry, RunMetrics) {
    e.enable_faults(plan, policy);
    e.set_tracer(Tracer::with_invariants());
    e.set_registry(registry);
    let m = e.run_closed(requests, input);
    (e.take_tracer(), e.take_registry(), m)
}

/// Runs a closed loop with the streaming observability instruments armed
/// (metrics registry + windowed snapshot log) and assembles the
/// speculation-health scoreboard row for the run. Returns the row, the
/// snapshot log (final snapshot already stamped) and the run metrics;
/// the registry is taken back out and discarded — everything the
/// scoreboard needs has been copied into the row.
pub fn scoreboard_closed<E: EngineCore>(
    e: &mut Harness<E>,
    engine: &'static str,
    requests: u64,
    snapshot_window: SimDuration,
    input: impl FnMut(&mut SimRng) -> Value,
) -> (ScoreboardRow, SnapshotLog, RunMetrics) {
    e.set_registry(MetricsRegistry::recording());
    e.set_snapshots(SnapshotLog::new(snapshot_window));
    let m = e.run_closed(requests, input);
    let row = e.scoreboard(engine, &m);
    let log = e.take_snapshots().expect("snapshots armed above");
    e.take_registry();
    (row, log, m)
}

/// Mean completed-request response (ms) over `m.records`, skipping the
/// first `skip` (container warm-up) records.
pub fn mean_record_ms(m: &RunMetrics, skip: usize) -> f64 {
    let later = &m.records[m.records.len().min(skip)..];
    later
        .iter()
        .map(|r| r.response_time().as_millis_f64())
        .sum::<f64>()
        / later.len().max(1) as f64
}

/// Runs a closed loop on any prepared engine and returns the mean
/// completed-request response in milliseconds (no warm-up skip).
pub fn closed_mean_ms<E: EngineCore>(
    e: &mut Harness<E>,
    n: u64,
    input: impl FnMut(&mut SimRng) -> Value,
) -> f64 {
    mean_record_ms(&e.run_closed(n, input), 0)
}

/// Measures the baseline under an open-loop load.
pub fn measure_baseline_open(bundle: &AppBundle, p: ExperimentParams) -> RunMetrics {
    let mut e = prepared_baseline(bundle, p.seed);
    // Warm the containers along realistic paths.
    let gen = Arc::clone(&bundle.make_input);
    e.run_closed(p.train_requests.min(50), {
        let gen = Arc::clone(&gen);
        move |r| gen(r)
    });
    let gen2 = Arc::clone(&bundle.make_input);
    e.run_open(p.rps, p.duration, p.warmup, move |r| gen2(r))
}

/// Measures SpecFaaS under an open-loop load with the given config.
pub fn measure_spec_open(
    bundle: &AppBundle,
    config: SpecConfig,
    p: ExperimentParams,
) -> RunMetrics {
    let mut e = prepared_spec(bundle, config, p.seed, p.train_requests);
    let gen = Arc::clone(&bundle.make_input);
    e.run_open(p.rps, p.duration, p.warmup, move |r| gen(r))
}

/// Unloaded single-request mean response (the Table-III QoS reference):
/// average over `n` isolated requests.
pub fn baseline_single_ms(bundle: &AppBundle, seed: u64, n: u64) -> f64 {
    let mut e = prepared_baseline(bundle, seed);
    let gen = Arc::clone(&bundle.make_input);
    let m = e.run_closed(n.max(1) + 2, move |r| gen(r));
    // Skip the first two (container warm-up) records.
    mean_record_ms(&m, 2)
}

/// Unloaded single-request mean response for a trained SpecFaaS engine.
pub fn spec_single_ms(bundle: &AppBundle, config: SpecConfig, seed: u64, n: u64) -> f64 {
    let mut e = prepared_spec(bundle, config, seed, 200);
    let gen = Arc::clone(&bundle.make_input);
    closed_mean_ms(&mut e, n.max(1), move |r| gen(r))
}

/// Converts the paper's open-loop load level into a closed-loop client
/// count: enough concurrent clients that the *baseline* would be offered
/// approximately `rps` (clients = rps × unloaded baseline response). At
/// saturating levels the pool self-throttles instead of growing an
/// unbounded queue — the behaviour of a real fixed-pool load generator.
pub fn clients_for(rps: f64, baseline_single_ms: f64) -> u32 {
    ((rps * baseline_single_ms / 1_000.0).round() as u32).max(1)
}

/// One app at one load, each run reduced to the caller's number: the
/// baseline's, then one per SpecFaaS config in the order given.
#[derive(Debug)]
pub struct Loaded<R> {
    /// The reduced baseline run.
    pub baseline: R,
    /// The reduced SpecFaaS runs, one per config.
    pub spec: Vec<R>,
}

/// The loaded comparison of one app at `p.rps` (see the module doc):
/// the baseline once, then SpecFaaS under each of `configs`, all against
/// the client pool sized from the baseline's unloaded response.
pub fn compare_loaded<R>(
    bundle: &AppBundle,
    p: ExperimentParams,
    configs: &[SpecConfig],
    reduce: impl Fn(&RunMetrics) -> R,
) -> Loaded<R> {
    let clients = clients_for(p.rps, baseline_single_ms(bundle, p.seed, 3));
    let gen = || {
        let gen = Arc::clone(&bundle.make_input);
        move |r: &mut SimRng| gen(r)
    };
    let mut e = prepared_baseline(bundle, p.seed);
    e.run_closed(30, gen());
    let baseline = reduce(&e.run_concurrent(clients, p.duration, p.warmup, gen()));
    let spec = configs
        .iter()
        .map(|cfg| {
            let mut e = prepared_spec(bundle, cfg.clone(), p.seed, p.train_requests);
            reduce(&e.run_concurrent(clients, p.duration, p.warmup, gen()))
        })
        .collect();
    Loaded { baseline, spec }
}

/// [`compare_loaded`] over every app × [`Load::all`], one executor cell
/// per (app, load) on `jobs` workers. Returns one entry per app, in the
/// order given, indexed by load; the result is the same for any `jobs`.
pub fn loaded_grid<'a, R: Send>(
    jobs: usize,
    apps: impl IntoIterator<Item = &'a AppBundle>,
    configs: &[SpecConfig],
    p: ExperimentParams,
    reduce: fn(&RunMetrics) -> R,
) -> Vec<[Loaded<R>; 3]> {
    let cells: Vec<ExperimentCell<Loaded<R>>> = apps
        .into_iter()
        .flat_map(|bundle| {
            Load::all().map(|load| {
                ExperimentCell::new(format!("{}/{load:?}", bundle.name()), move || {
                    compare_loaded(bundle, p.at_rps(load.rps()), configs, reduce)
                })
            })
        })
        .collect();
    let mut results = executor::run_cells(jobs, cells).into_iter();
    let mut per_app = Vec::new();
    while let (Some(low), Some(medium), Some(high)) =
        (results.next(), results.next(), results.next())
    {
        per_app.push([low, medium, high]);
    }
    per_app
}

/// The inputs of a paired replay: `n` draws from `SimRng::seed(seed)`,
/// outside either engine, so neither engine's own draws can skew them.
pub fn paired_inputs(bundle: &AppBundle, seed: u64, n: usize) -> Vec<Value> {
    let mut rng = SimRng::seed(seed);
    (0..n).map(|_| (bundle.make_input)(&mut rng)).collect()
}

/// What a prepared engine committed over a [`replay`].
#[derive(Debug)]
pub struct Replay {
    /// The run's metrics.
    pub metrics: RunMetrics,
    /// The final KV-store state, sorted by key, values `Debug`-formatted.
    pub kv: Vec<(String, String)>,
}

/// Runs `inputs` one request at a time on a prepared engine.
pub fn replay<E: EngineCore>(e: &mut Harness<E>, inputs: &[Value]) -> Replay {
    for input in inputs {
        e.run_single(input.clone());
    }
    let metrics = e.run_closed(0, |_| Value::Null);
    let mut kv: Vec<(String, String)> = e
        .rt()
        .kv
        .iter()
        .map(|(k, v)| (k.to_string(), format!("{v:?}")))
        .collect();
    kv.sort();
    Replay { metrics, kv }
}

impl Replay {
    /// The first difference from `other`, a replay of the same fault-free
    /// inputs, or `None` when every request of both completed with the
    /// same committed functions and the final KV states are equal.
    /// Committed functions compare as multisets, because parallel-stage
    /// siblings commit in a timing-dependent order on both engines.
    pub fn mismatch(&self, other: &Replay) -> Option<String> {
        let (a, b) = (&self.metrics, &other.metrics);
        let counts = |m: &RunMetrics| (m.completed, m.failed, m.records.len());
        if counts(a) != counts(b) {
            return Some(format!(
                "(completed, failed, records) diverge: {:?} vs {:?}",
                counts(a),
                counts(b)
            ));
        }
        for (i, (ra, rb)) in a.records.iter().zip(&b.records).enumerate() {
            if (ra.outcome, rb.outcome) != (RequestOutcome::Completed, RequestOutcome::Completed) {
                return Some(format!(
                    "request {i} did not complete: {:?} vs {:?}",
                    ra.outcome, rb.outcome
                ));
            }
            let (mut sa, mut sb) = (ra.sequence.clone(), rb.sequence.clone());
            sa.sort_unstable();
            sb.sort_unstable();
            if sa != sb {
                return Some(format!(
                    "request {i} committed functions diverge: {sa:?} vs {sb:?}"
                ));
            }
        }
        (self.kv != other.kv).then(|| "final KV-store state diverges".to_string())
    }
}

/// Finds the effective throughput (Table III): the highest request rate
/// served with mean response ≤ 2× the unloaded single-request response,
/// located by bisection over the arrival rate.
///
/// Every probe is a full open-loop measurement, so probes are memoized by
/// rate: the expansion loop's final `hi` measurement is reused if the
/// bisection (or a caller-supplied bracket) ever lands on the same rate
/// again, cutting one full measurement per call.
pub fn effective_throughput<F>(mut measure: F, single_ms: f64, lo: f64, hi: f64) -> f64
where
    F: FnMut(f64) -> f64, // rps -> mean response ms
{
    let qos = 2.0 * single_ms;
    // Memoized probe: rates are derived from the same bracket by halving,
    // so re-visited rates compare bit-exactly.
    let mut probes: Vec<(f64, f64)> = Vec::new();
    let mut probe = move |rps: f64| -> f64 {
        if let Some(&(_, resp)) = probes.iter().find(|&&(r, _)| r == rps) {
            return resp;
        }
        let resp = measure(rps);
        probes.push((rps, resp));
        resp
    };
    let mut lo = lo;
    let mut hi = hi;
    // Expand hi until QoS violated (or cap).
    let mut hi_resp = probe(hi);
    while hi_resp <= qos && hi < 4_000.0 {
        lo = hi;
        hi *= 2.0;
        hi_resp = probe(hi);
    }
    if hi_resp <= qos {
        return hi;
    }
    for _ in 0..7 {
        let mid = 0.5 * (lo + hi);
        if probe(mid) <= qos {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaas_apps::faaschain;

    #[test]
    fn params_builder() {
        let p = ExperimentParams::default().at_rps(250.0);
        assert_eq!(p.rps, 250.0);
    }

    #[test]
    fn effective_throughput_bisection_converges() {
        // Synthetic response curve: flat 10ms until 200 rps, then rising.
        let f = |rps: f64| {
            if rps <= 200.0 {
                10.0
            } else {
                10.0 + (rps - 200.0)
            }
        };
        let thr = effective_throughput(f, 10.0, 50.0, 100.0);
        assert!(
            (195.0..=215.0).contains(&thr),
            "bisection found {thr}, expected ~210 (QoS 20ms)"
        );
    }

    #[test]
    fn effective_throughput_probes_each_rate_once() {
        use std::cell::RefCell;
        // Count every probe and record the rates measured.
        let seen = RefCell::new(Vec::<f64>::new());
        let f = |rps: f64| {
            seen.borrow_mut().push(rps);
            if rps <= 200.0 {
                10.0
            } else {
                10.0 + (rps - 200.0)
            }
        };
        effective_throughput(f, 10.0, 50.0, 100.0);
        let probes = seen.borrow();
        // Expansion measures 100, 200, 400 (first violation), then 7
        // bisection midpoints: exactly 10 probes, no rate re-measured.
        assert_eq!(probes.len(), 3 + 7, "probe count: {probes:?}");
        let mut uniq = probes.clone();
        uniq.sort_by(f64::total_cmp);
        uniq.dedup();
        assert_eq!(uniq.len(), probes.len(), "no rate probed twice");
    }

    #[test]
    fn effective_throughput_degenerate_bracket_probes_once() {
        use std::cell::RefCell;
        // lo == hi and the bracket already violates QoS: every bisection
        // midpoint equals the bracket, so the memo must collapse the
        // 1 + 7 probes of the uncached implementation down to one.
        let count = RefCell::new(0u32);
        let f = |_rps: f64| {
            *count.borrow_mut() += 1;
            1_000.0
        };
        let thr = effective_throughput(f, 10.0, 100.0, 100.0);
        assert_eq!(*count.borrow(), 1, "memoized probe must be reused");
        assert_eq!(thr, 100.0);
    }

    #[test]
    fn baseline_and_spec_single_request_sane() {
        let bundle = &faaschain::apps()[0]; // Login
        let b = baseline_single_ms(bundle, 1, 5);
        let s = spec_single_ms(bundle, SpecConfig::full(), 1, 5);
        assert!(b > 5.0, "baseline {b}ms");
        assert!(s > 1.0, "spec {s}ms");
        assert!(s < b, "spec {s}ms should beat baseline {b}ms");
    }

    #[test]
    fn open_loop_measurements_produce_data() {
        let bundle = &faaschain::apps()[0];
        let p = ExperimentParams {
            rps: 50.0,
            duration: SimDuration::from_secs(1),
            warmup: SimDuration::from_millis(100),
            train_requests: 50,
            seed: 3,
        };
        let mb = measure_baseline_open(bundle, p);
        let ms = measure_spec_open(bundle, SpecConfig::full(), p);
        assert!(mb.completed > 20);
        assert!(ms.completed > 20);
        assert!(ms.mean_response_ms() < mb.mean_response_ms());
    }
}
