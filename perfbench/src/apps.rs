//! The `apps` and `apps-observed` workloads: every suite app on a
//! baseline and a speculative engine, fed the same inputs one request at
//! a time through `Harness::run_single`.

use std::sync::Arc;
use std::time::Instant;

use specfaas_apps::{all_suites, AppBundle};
use specfaas_core::{SpecConfig, SpecEngine};
use specfaas_platform::{BaselineEngine, EngineCore, Harness, PolicyConfig, RunMetrics};
use specfaas_sim::timeseries::{MetricsRegistry, SnapshotLog};
use specfaas_sim::trace::{validate_json, Tracer};
use specfaas_sim::{SimDuration, SimRng};
use specfaas_storage::Value;

use crate::reference::Reference;
use crate::{Outputs, Phase, Round, Size, Stopwatch};

/// Window of the snapshot log armed on `apps-observed` (the value the
/// repository's wall-clock bench uses).
const SNAPSHOT_WINDOW: SimDuration = SimDuration::from_millis(250);

/// One app's request inputs, drawn outside the engines.
#[derive(Clone, Debug)]
pub struct AppInputs {
    /// Warm-up requests (set-up).
    pub warmup: Vec<Value>,
    /// Measured requests.
    pub measured: Vec<Value>,
}

impl AppInputs {
    /// Draws app `index`'s inputs from `seed`.
    pub fn draw(bundle: &AppBundle, seed: u64, index: usize, size: Size) -> AppInputs {
        let mut rng = SimRng::seed(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let warmup = (0..size.warmup)
            .map(|_| (bundle.make_input)(&mut rng))
            .collect();
        let measured = (0..size.measured)
            .map(|_| (bundle.make_input)(&mut rng))
            .collect();
        AppInputs { warmup, measured }
    }
}

/// Builds every suite app's bundle.
pub fn bundles() -> Vec<AppBundle> {
    all_suites().into_iter().flat_map(|s| s.apps).collect()
}

/// One round: builds bundles and inputs, then runs [`round_with`] with
/// the same inputs for both engines.
pub(crate) fn round(
    seed: u64,
    size: Size,
    observed: bool,
    traced: bool,
    rf: &mut Reference,
) -> Round {
    let t = Stopwatch::start();
    let bundles = bundles();
    let bundles_time = t.cpu();
    let t = Stopwatch::start();
    let base_inputs: Vec<AppInputs> = bundles
        .iter()
        .enumerate()
        .map(|(i, b)| AppInputs::draw(b, seed, i, size))
        .collect();
    let spec_inputs = base_inputs.clone();
    let inputs_time = t.cpu();
    let mut r = round_with(
        &bundles,
        seed,
        base_inputs,
        spec_inputs,
        observed,
        traced,
        rf,
    );
    r.setup.bundles = bundles_time;
    r.setup.inputs = inputs_time;
    r
}

/// A baseline and a speculative engine for one app.
struct Pair {
    base: BaselineEngine,
    spec: SpecEngine,
}

/// Runs one round on the given inputs: set-up (engines, prewarm, storage
/// seed, warm-up), then each app's measured phase on the baseline and on
/// the speculative engine, then the output checks. Each engine gets its
/// own inputs so the measured phase moves them instead of cloning; the
/// equivalence check compares what the engines did with them. A slice of
/// the reference kernel follows each measured phase.
pub fn round_with(
    bundles: &[AppBundle],
    seed: u64,
    base_inputs: Vec<AppInputs>,
    spec_inputs: Vec<AppInputs>,
    observed: bool,
    traced: bool,
    rf: &mut Reference,
) -> Round {
    let mut r = Round {
        traced,
        ..Round::default()
    };
    let policy = PolicyConfig::default();

    let t = Stopwatch::start();
    let mut pairs: Vec<Pair> = bundles
        .iter()
        .map(|b| {
            let mut base = BaselineEngine::new(Arc::clone(&b.app), seed);
            let mut spec = SpecEngine::new(Arc::clone(&b.app), SpecConfig::full(), seed);
            base.set_policies(&policy);
            spec.set_policies(&policy);
            Pair { base, spec }
        })
        .collect();
    r.setup.engine = t.cpu();

    let t = Stopwatch::start();
    for p in &mut pairs {
        p.base.prewarm();
        p.spec.prewarm();
    }
    r.setup.prewarm = t.cpu();

    let t = Stopwatch::start();
    for (p, b) in pairs.iter_mut().zip(bundles) {
        (b.seed)(&mut p.base.kv, &mut SimRng::seed(seed ^ 0x5eed));
        (b.seed)(&mut p.spec.kv, &mut SimRng::seed(seed ^ 0x5eed));
    }
    r.setup.seed = t.cpu();

    let t = Stopwatch::start();
    let mut warm = Vec::with_capacity(pairs.len());
    let mut base_measured = Vec::with_capacity(pairs.len());
    let mut spec_measured = Vec::with_capacity(pairs.len());
    for ((p, bi), si) in pairs.iter_mut().zip(base_inputs).zip(spec_inputs) {
        let n_warm = bi.warmup.len();
        for v in bi.warmup {
            p.base.run_single(v);
        }
        for v in si.warmup {
            p.spec.run_single(v);
        }
        warm.push((
            n_warm,
            p.base.run_closed(0, |_| Value::Null),
            p.spec.run_closed(0, |_| Value::Null),
        ));
        base_measured.push(bi.measured);
        spec_measured.push(si.measured);
    }
    r.setup.warmup = t.cpu();

    let mut base_acc = Acc::default();
    let mut spec_acc = Acc::default();
    for (i, (p, b)) in pairs.iter_mut().zip(bundles).enumerate() {
        let app = b.app.name.as_str();
        let (n_warm, wb, ws) = &warm[i];
        check_pair(app, "warm-up", wb, ws, *n_warm, &mut r.errors);

        let bin = std::mem::take(&mut base_measured[i]);
        let sin = std::mem::take(&mut spec_measured[i]);
        let n = bin.len();
        let mb = measure(
            &mut p.base,
            "baseline",
            bin,
            observed,
            traced,
            &mut r.base,
            &mut base_acc,
            &mut r.errors,
        );
        rf.slice();
        let ms = measure(
            &mut p.spec,
            "spec",
            sin,
            observed,
            traced,
            &mut r.spec,
            &mut spec_acc,
            &mut r.errors,
        );
        rf.slice();
        check_pair(app, "measured", &mb, &ms, n, &mut r.errors);
        if kv_dump(&p.base) != kv_dump(&p.spec) {
            r.errors.push(format!(
                "{app}: final KV-store state diverges between engines"
            ));
        }
    }
    r.outputs = outputs(&base_acc, &spec_acc);
    r
}

/// Model outputs of one engine, summed over the apps.
#[derive(Default)]
struct Acc {
    /// Simulated response times of measured requests, ms.
    response_ms: Vec<f64>,
    started: u64,
    squashed: u64,
    useful_us: u64,
    squashed_us: u64,
    branch: (u64, u64),
    memo: (u64, u64),
    events: u64,
    trace_events: u64,
    acquires: u64,
    cold: u64,
    evictions: u64,
    prewarm_hits: u64,
    completed: u64,
}

/// Cluster container counters: (acquisitions, cold starts, evictions,
/// prewarm piggybacks).
fn cluster_counts<E: EngineCore>(h: &Harness<E>) -> [u64; 4] {
    let c = &h.core.rt().cluster;
    [
        c.cold_starts() + c.warm_starts(),
        c.cold_starts(),
        c.evictions(),
        c.prewarm_hits(),
    ]
}

/// Runs one engine's measured phase for one app and returns its metrics.
/// The phase covers arming the instruments, the requests, collecting the
/// run metrics and (on `apps-observed`) rendering every export; checks
/// run after the clock stops.
#[allow(clippy::too_many_arguments)]
fn measure<E: EngineCore>(
    h: &mut Harness<E>,
    engine: &'static str,
    inputs: Vec<Value>,
    observed: bool,
    traced: bool,
    phase: &mut Phase,
    acc: &mut Acc,
    errors: &mut Vec<String>,
) -> RunMetrics {
    let app = h.app().name.clone();
    let counts0 = cluster_counts(h);
    let events0 = h.core.rt().sim.events_delivered();
    phase.attempted += inputs.len() as u64;

    let t0 = Stopwatch::start();
    if observed {
        h.set_tracer(Tracer::with_invariants());
        h.set_registry(MetricsRegistry::recording());
        h.set_snapshots(SnapshotLog::new(SNAPSHOT_WINDOW));
    }
    for v in inputs {
        if traced {
            run_single_traced(h, v, phase);
        } else {
            h.run_single(v);
        }
    }
    let m = h.run_closed(0, |_| Value::Null);
    let exports = observed.then(|| {
        let row = h.scoreboard(engine, &m);
        let log = h.take_snapshots().expect("snapshots armed above");
        let registry = h.take_registry();
        let tracer = h.take_tracer();
        let t = Instant::now();
        let rendered = [
            tracer.export_chrome_json(),
            registry.export_prometheus(),
            log.to_jsonl(),
            row.jsonl(),
        ];
        if traced {
            phase.export.add(t.elapsed());
        }
        (tracer, rendered)
    });
    phase.host += t0.cpu();
    phase.wall += t0.wall();

    let events = h.core.rt().sim.events_delivered() - events0;
    let counts1 = cluster_counts(h);
    if let Some((tracer, [chrome, prom, snapshots, row])) = &exports {
        if let Some(v) = tracer.violations().first() {
            errors.push(format!("{app}/{engine}: invariant violated: {v}"));
        }
        if let Err(e) = validate_json(chrome) {
            errors.push(format!(
                "{app}/{engine}: exported trace is not valid JSON: {e}"
            ));
        }
        if let Err(e) = validate_json(row) {
            errors.push(format!(
                "{app}/{engine}: scoreboard row is not valid JSON: {e}"
            ));
        }
        if prom.is_empty() || snapshots.is_empty() {
            errors.push(format!(
                "{app}/{engine}: empty Prometheus or snapshot export"
            ));
        }
        acc.trace_events += tracer.events().len() as u64;
    }

    phase.completed += m.completed;
    for r in &m.records {
        acc.response_ms.push(r.response_time().as_millis_f64());
    }
    acc.started += m.functions_started;
    acc.squashed += m.functions_squashed;
    acc.useful_us += m.useful_core_time.as_micros();
    acc.squashed_us += m.squashed_core_time.as_micros();
    acc.branch.0 += m.branch_hits.hits();
    acc.branch.1 += m.branch_hits.total();
    acc.memo.0 += m.memo_hits.hits();
    acc.memo.1 += m.memo_hits.total();
    acc.events += events;
    acc.acquires += counts1[0] - counts0[0];
    acc.cold += counts1[1] - counts0[1];
    acc.evictions += counts1[2] - counts0[2];
    acc.prewarm_hits += counts1[3] - counts0[3];
    acc.completed += m.completed;
    m
}

/// `Harness::run_single` replayed through its public calls, with the
/// benchmark's timers around each layer.
fn run_single_traced<E: EngineCore>(h: &mut Harness<E>, input: Value, phase: &mut Phase) {
    let t = Instant::now();
    let req = h.core.admit(input);
    phase.admit.add(t.elapsed());
    while h.core.request_live(req) {
        let a = Instant::now();
        let Some((_, ev)) = h.core.rt_mut().sim.step() else {
            h.core.abort(req);
            break;
        };
        let b = Instant::now();
        h.core.dispatch(ev);
        let c = Instant::now();
        h.core.rt_mut().tick_snapshots();
        let d = Instant::now();
        phase.step.add(b - a);
        phase.dispatch.add(c - b);
        phase.tick.add(d - c);
    }
}

/// Both engines completed all `n` requests of a phase, with the same
/// per-request outcomes and committed-function multisets.
fn check_pair(
    app: &str,
    what: &str,
    mb: &RunMetrics,
    ms: &RunMetrics,
    n: usize,
    errors: &mut Vec<String>,
) {
    for (engine, m) in [("baseline", mb), ("spec", ms)] {
        if m.failed > 0 || m.completed != n as u64 || m.records.len() != n {
            errors.push(format!(
                "{app}/{engine} {what}: {} of {n} requests completed, {} failed",
                m.completed, m.failed
            ));
        }
    }
    for (i, (rb, rs)) in mb.records.iter().zip(&ms.records).enumerate() {
        if rb.outcome != rs.outcome {
            errors.push(format!(
                "{app} {what} request {i}: outcome diverges between engines"
            ));
        }
        // Parallel-stage siblings commit in a timing-dependent order on
        // both engines, so committed invocations compare as multisets.
        let mut sb = rb.sequence.clone();
        let mut ss = rs.sequence.clone();
        sb.sort_unstable();
        ss.sort_unstable();
        if sb != ss {
            errors.push(format!(
                "{app} {what} request {i}: committed functions diverge between engines"
            ));
        }
    }
}

/// Sorted dump of an engine's final KV state.
fn kv_dump<E: EngineCore>(h: &Harness<E>) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = h
        .core
        .rt()
        .kv
        .iter()
        .map(|(k, v)| (k.to_string(), format!("{v:?}")))
        .collect();
    pairs.sort();
    pairs
}

/// Nearest-rank quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The model outputs of a round, from both engines' sums.
fn outputs(base: &Acc, spec: &Acc) -> Outputs {
    let mut o = Outputs::new();
    for (e, a) in [("base", base), ("spec", spec)] {
        let mut sorted = a.response_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let put = |o: &mut Outputs, name: &str, v: f64| {
            o.insert(format!("{e}.{name}"), v);
        };
        put(&mut o, "sim_p50_ms", quantile(&sorted, 0.50));
        put(&mut o, "sim_p99_ms", quantile(&sorted, 0.99));
        put(&mut o, "events_per_req", ratio(a.events, a.completed));
        put(&mut o, "trace_events", a.trace_events as f64);
        put(&mut o, "pool_acquires", a.acquires as f64);
        put(&mut o, "cold_starts", a.cold as f64);
        put(&mut o, "evictions", a.evictions as f64);
        put(&mut o, "prewarm_issued", a.prewarm_hits as f64);
        put(&mut o, "completed", a.completed as f64);
    }
    let total = |a: &Acc| a.response_ms.iter().sum::<f64>();
    o.insert(
        "speculation_win".to_string(),
        total(base) / total(spec).max(1e-12),
    );
    o.insert(
        "spec.squash_frac".to_string(),
        ratio(spec.squashed, spec.started),
    );
    o.insert(
        "spec.memo_hit_rate".to_string(),
        ratio(spec.memo.0, spec.memo.1),
    );
    o.insert(
        "spec.branch_hit_rate".to_string(),
        ratio(spec.branch.0, spec.branch.1),
    );
    o.insert(
        "spec.wasted_core_frac".to_string(),
        ratio(spec.squashed_us, spec.useful_us + spec.squashed_us),
    );
    o
}
