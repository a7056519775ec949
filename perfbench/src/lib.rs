//! Host-time benchmark of the SpecFaaS simulator, end to end and per
//! layer.
//!
//! One run executes one workload (see [`Workload`]) on one thread for a
//! fixed host-time budget as a series of identical *rounds*. Each round
//! sets the workload up anew, runs its measured phase on the
//! baseline engine and on the speculative engine, and checks the
//! program's outputs. Slices of a fixed reference kernel run between the
//! timed phases ([`reference`]); end-to-end times are scaled to the host
//! speed that kernel defines, and reported as medians over the rounds.
//!
//! What the simulator computes (simulated latencies, speculation win,
//! squash, memo, cold-start and eviction counts) is an *output*, not a
//! metric: every round's outputs must equal the first round's, and at
//! [`DEFAULT_SEED`] they must equal the values recorded in
//! `expected.txt`. A change that alters what is simulated therefore fails
//! the run instead of posting a speed-up.
//!
//! A traced run (`--trace 1`) alternates plain rounds with rounds that
//! wrap the benchmark's own timers around public calls into each layer;
//! it reports the per-layer ledger and the tracing overhead. See
//! `README.md` for why each workload exists and which end-to-end metric
//! each layer metric should move.

pub mod apps;
pub mod fleet;
pub mod reference;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use reference::{Reference, Speed};

/// Seed whose model outputs are recorded in `expected.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Model outputs recorded at [`DEFAULT_SEED`], one `workload name value`
/// line each.
pub const RECORDED: &str = include_str!("../expected.txt");

/// Rounds a run makes even when the time budget is already spent, so
/// every median has at least this many samples.
const MIN_ROUNDS: usize = 3;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All suite apps, closed loop, instruments off.
    Apps,
    /// The same with flight recorder, metrics registry and snapshots on.
    AppsObserved,
    /// 10⁴-tenant fleet, default platform policy.
    Fleet,
    /// The same fleet under short-TTL keep-alive plus sequence prewarm.
    FleetChurn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Apps,
        Workload::AppsObserved,
        Workload::Fleet,
        Workload::FleetChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Apps => "apps",
            Workload::AppsObserved => "apps-observed",
            Workload::Fleet => "fleet",
            Workload::FleetChurn => "fleet-churn",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Work done by one round.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Warm-up requests per app and engine (apps workloads).
    pub warmup: usize,
    /// Measured requests per app and engine (apps workloads).
    pub measured: usize,
    /// Fleet tenants (fleet workloads).
    pub tenants: u32,
    /// Traces per round (fleet workloads).
    pub traces: u32,
    /// Requests per trace and engine (fleet workloads).
    pub requests: u64,
}

impl Size {
    /// The size the benchmark command runs.
    pub const FULL: Size = Size {
        warmup: 300,
        measured: 200,
        tenants: 10_000,
        traces: 48,
        requests: 12_500,
    };

    /// A small size for the benchmark's own tests.
    pub const REDUCED: Size = Size {
        warmup: 12,
        measured: 8,
        tenants: 400,
        traces: 2,
        requests: 3_000,
    };
}

/// This thread's CPU time. The simulator is single-threaded and does no
/// I/O, so this is its host time minus the time other processes on a
/// shared host take the core away.
fn thread_cpu() -> Duration {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` has the layout of Linux's `struct timespec` (two
    // longs), and the pointer is to a live, exclusively borrowed value.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail on Linux"
    );
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Measures an interval in CPU time (the benchmark's host time) and in
/// wall-clock time (the base the layer spans share).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    /// Starts both clocks.
    pub(crate) fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: thread_cpu(),
        }
    }

    /// CPU time since the start.
    pub(crate) fn cpu(&self) -> Duration {
        thread_cpu().saturating_sub(self.cpu)
    }

    /// Wall-clock time since the start.
    pub(crate) fn wall(&self) -> Duration {
        self.wall.elapsed()
    }
}

/// Calls into one layer and the host time they took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Number of timed calls (or, for the standalone probes, operations).
    pub calls: u64,
    /// Total host time, nanoseconds.
    pub nanos: u64,
}

impl Span {
    /// Records one call that took `d`.
    pub fn add(&mut self, d: Duration) {
        self.calls += 1;
        self.nanos += d.as_nanos() as u64;
    }

    /// Adds another span's calls and time.
    pub fn merge(&mut self, o: &Span) {
        self.calls += o.calls;
        self.nanos += o.nanos;
    }

    /// Mean host nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.nanos as f64 / self.calls as f64
        }
    }

    /// Total host seconds.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// CPU time of one round's set-up, per part. Parts a workload does not
/// have stay zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Building the app bundles (specs, inputs generators, seeders).
    pub bundles: Duration,
    /// Drawing request inputs (`AppBundle::make_input`).
    pub inputs: Duration,
    /// Constructing engines (`BaselineEngine`/`SpecEngine::new`,
    /// `ScaleEngine::new`).
    pub engine: Duration,
    /// Pre-warming container pools (`Harness::prewarm`).
    pub prewarm: Duration,
    /// Seeding storage (`AppBundle::seed` into `KvStore`).
    pub seed: Duration,
    /// Both engines' warm-up requests.
    pub warmup: Duration,
    /// Deriving fleet templates (`TemplateProfile::from_app`).
    pub templates: Duration,
}

impl Setup {
    /// The parts, by metric name.
    pub fn parts(&self) -> [(&'static str, Duration); 7] {
        [
            ("setup.bundles_s", self.bundles),
            ("setup.inputs_s", self.inputs),
            ("setup.seed_s", self.seed),
            ("setup.prewarm_s", self.prewarm),
            ("setup.warmup_s", self.warmup),
            ("setup.templates_s", self.templates),
            ("setup.engine_s", self.engine),
        ]
    }

    /// CPU time before the first measured request.
    pub fn total(&self) -> Duration {
        self.parts().iter().map(|p| p.1).sum()
    }
}

/// One engine's measured phase in one round.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase {
    /// CPU time of the whole measured phase.
    pub host: Duration,
    /// Wall-clock time of the whole measured phase (the base of the
    /// layer spans, which are wall-clock).
    pub wall: Duration,
    /// Requests submitted.
    pub attempted: u64,
    /// Requests that completed.
    pub completed: u64,
    /// `EngineCore::admit` (traced rounds).
    pub admit: Span,
    /// `Simulator::step` (traced rounds).
    pub step: Span,
    /// `EngineCore::dispatch` (traced rounds).
    pub dispatch: Span,
    /// `Runtime::tick_snapshots` (traced rounds).
    pub tick: Span,
    /// Trace, Prometheus, snapshot and scoreboard rendering (traced
    /// rounds of `apps-observed`).
    pub export: Span,
}

impl Phase {
    /// Simulated requests completed per CPU second.
    pub fn req_per_s(&self) -> f64 {
        self.completed as f64 / self.host.as_secs_f64().max(1e-9)
    }

    /// The timed layers, by name.
    pub fn layers(&self) -> [(&'static str, Span); 5] {
        [
            ("admit", self.admit),
            ("step", self.step),
            ("dispatch", self.dispatch),
            ("tick", self.tick),
            ("export", self.export),
        ]
    }

    /// Adds another phase's times, counts and spans.
    pub fn merge(&mut self, o: &Phase) {
        self.host += o.host;
        self.wall += o.wall;
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.admit.merge(&o.admit);
        self.step.merge(&o.step);
        self.dispatch.merge(&o.dispatch);
        self.tick.merge(&o.tick);
        self.export.merge(&o.export);
    }
}

/// Deterministic model outputs of a round, by metric name.
pub type Outputs = BTreeMap<String, f64>;

/// Everything one round measured and found.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Whether the layer timers were on.
    pub traced: bool,
    /// Mean CPU time of the reference slices run during the round (zero
    /// when none ran).
    pub reference: Speed,
    /// Set-up host time per part.
    pub setup: Setup,
    /// The baseline engine's measured phase.
    pub base: Phase,
    /// The speculative engine's measured phase.
    pub spec: Phase,
    /// Model outputs (compared exactly across rounds).
    pub outputs: Outputs,
    /// Standalone `TraceGen::fill` probe (traced fleet rounds).
    pub tracegen: Span,
    /// Standalone `WarmPool` replay probe (traced fleet rounds).
    pub pool: Span,
    /// Failed output checks.
    pub errors: Vec<String>,
}

impl Round {
    /// How much slower than nominal the host ran during this round (1
    /// without a reference measurement). Host times divided by it, and
    /// rates multiplied by it, are at the reference host speed.
    pub fn host_factor(&self) -> f64 {
        self.reference.factor()
    }
}

/// Runs one round of `workload`, with reference slices between its timed
/// phases.
fn round(workload: Workload, seed: u64, size: Size, traced: bool, rf: &mut Reference) -> Round {
    match workload {
        Workload::Apps => apps::round(seed, size, false, traced, rf),
        Workload::AppsObserved => apps::round(seed, size, true, traced, rf),
        Workload::Fleet => fleet::round(seed, size, false, traced, rf),
        Workload::FleetChurn => fleet::round(seed, size, true, traced, rf),
    }
}

/// Runs at least three rounds, and more while another round (as long as
/// the longest so far) still ends within `seconds` of wall-clock time.
/// With `trace`, every second round is traced.
pub fn run(workload: Workload, seed: u64, size: Size, seconds: f64, trace: bool) -> Vec<Round> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut reference = Reference::new();
    let mut longest = Duration::ZERO;
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed() + longest <= budget {
        let t = Instant::now();
        let traced = trace && rounds.len() % 2 == 1;
        let mut r = round(workload, seed, size, traced, &mut reference);
        r.reference = reference.take();
        rounds.push(r);
        longest = longest.max(t.elapsed());
    }
    rounds
}

/// Parses recorded outputs (`workload name value` lines; `#` comments).
pub fn parse_recorded(text: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let [w, name, v] = f[..] else {
            return Err(format!("line {}: expected `workload name value`", i + 1));
        };
        let v: f64 = v
            .parse()
            .map_err(|_| format!("line {}: bad value `{v}`", i + 1))?;
        out.insert((w.to_string(), name.to_string()), v);
    }
    Ok(out)
}

/// Formats outputs as recorded lines (exact round-trip floats).
pub fn format_recorded(workload: Workload, outputs: &Outputs) -> String {
    let mut s = String::new();
    for (name, v) in outputs {
        let _ = writeln!(s, "{} {name} {v:?}", workload.name());
    }
    s
}

/// Model-output check: every round equals the first, and, when
/// `recorded` is given, the first equals the recorded values exactly.
pub fn check_outputs(
    workload: Workload,
    rounds: &[Round],
    recorded: Option<&BTreeMap<(String, String), f64>>,
) -> Vec<String> {
    let mut errors = Vec::new();
    let Some(first) = rounds.first() else {
        return vec!["no rounds ran".to_string()];
    };
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.outputs != first.outputs {
            errors.push(format!(
                "round {i} ({}) model outputs differ from round 0: {}",
                if r.traced { "traced" } else { "untraced" },
                diff(&first.outputs, &r.outputs)
            ));
        }
    }
    if let Some(rec) = recorded {
        let want: Outputs = rec
            .iter()
            .filter(|((w, _), _)| w == workload.name())
            .map(|((_, name), v)| (name.clone(), *v))
            .collect();
        if want != first.outputs {
            errors.push(format!(
                "model outputs differ from expected.txt: {}",
                diff(&want, &first.outputs)
            ));
        }
    }
    errors
}

/// First few differing entries of two output maps.
fn diff(a: &Outputs, b: &Outputs) -> String {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let shown: Vec<String> = keys
        .into_iter()
        .filter(|k| a.get(*k).map(|v| v.to_bits()) != b.get(*k).map(|v| v.to_bits()))
        .take(4)
        .map(|k| format!("{k}: {:?} vs {:?}", a.get(k), b.get(k)))
        .collect();
    shown.join(", ")
}

/// Median of `v` (mean of the middle pair for even lengths; 0 if empty).
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// End-to-end metrics: `(name, unit)`, in reporting order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("base_req_per_s", "req/s"),
    ("spec_req_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, in reporting order. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("host.ref_compute_ms", "ms"),
    ("host.ref_memory_ms", "ms"),
    ("host.setup_s", "s"),
    ("host.base_req_per_s", "req/s"),
    ("host.spec_req_per_s", "req/s"),
    ("base.admit_ns", "ns"),
    ("spec.admit_ns", "ns"),
    ("base.step_ns", "ns"),
    ("spec.step_ns", "ns"),
    ("base.dispatch_ns", "ns"),
    ("spec.dispatch_ns", "ns"),
    ("base.tick_ns", "ns"),
    ("spec.tick_ns", "ns"),
    ("base.export_s", "s"),
    ("spec.export_s", "s"),
    ("base.residual_frac", "fraction"),
    ("spec.residual_frac", "fraction"),
    ("trace_overhead", "ratio"),
    ("setup.bundles_s", "s"),
    ("setup.inputs_s", "s"),
    ("setup.seed_s", "s"),
    ("setup.prewarm_s", "s"),
    ("setup.warmup_s", "s"),
    ("setup.templates_s", "s"),
    ("setup.engine_s", "s"),
    ("tracegen.ns_per_arrival", "ns"),
    ("pool.ns_per_op", "ns"),
    ("base.events_per_req", "count"),
    ("spec.events_per_req", "count"),
    ("base.trace_events", "count"),
    ("spec.trace_events", "count"),
    ("base.pool_acquires", "count"),
    ("spec.pool_acquires", "count"),
    ("base.cold_starts", "count"),
    ("spec.cold_starts", "count"),
    ("base.evictions", "count"),
    ("spec.evictions", "count"),
    ("base.prewarm_issued", "count"),
    ("spec.prewarm_issued", "count"),
    ("base.peak_live", "count"),
    ("spec.peak_live", "count"),
    ("base.model_mem_mb", "MB"),
    ("spec.model_mem_mb", "MB"),
    ("base.sim_p50_ms", "ms"),
    ("spec.sim_p50_ms", "ms"),
    ("base.sim_p99_ms", "ms"),
    ("spec.sim_p99_ms", "ms"),
    ("speculation_win", "ratio"),
    ("spec.squash_frac", "fraction"),
    ("spec.memo_hit_rate", "fraction"),
    ("spec.branch_hit_rate", "fraction"),
    ("spec.wasted_core_frac", "fraction"),
    ("base.completed", "count"),
    ("spec.completed", "count"),
];

/// Peak resident set size of this process, in megabytes.
fn peak_rss_mb() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Rusage {
        utime: [c_long; 2],
        stime: [c_long; 2],
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_SELF: c_int = 0;
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of Linux's `struct rusage` (two
    // `struct timeval`s of two longs each, then fourteen longs), and the
    // pointer is to a live, exclusively borrowed value for the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    // Linux reports ru_maxrss in kilobytes.
    u.maxrss as f64 * 1024.0 / 1e6
}

/// Result of a whole run, ready to print.
#[derive(Debug)]
pub struct Report {
    /// No output check failed.
    pub correct: bool,
    /// Measured requests submitted over all rounds and both engines.
    pub attempted: u64,
    /// Of those, requests that failed or were lost.
    pub failed: u64,
    /// Reported metrics: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Failed checks, for the human-readable log.
    pub errors: Vec<String>,
}

impl Report {
    /// Builds the report of a run: end-to-end metrics for an untraced
    /// run, per-layer metrics for a traced one.
    pub fn new(workload: Workload, seed: u64, rounds: &[Round], trace: bool) -> Report {
        let recorded = parse_recorded(RECORDED);
        let mut errors: Vec<String> = rounds.iter().flat_map(|r| r.errors.clone()).collect();
        match &recorded {
            Ok(rec) => errors.extend(check_outputs(
                workload,
                rounds,
                (seed == DEFAULT_SEED).then_some(rec),
            )),
            Err(e) => errors.push(format!("expected.txt: {e}")),
        }
        let attempted: u64 = rounds
            .iter()
            .map(|r| r.base.attempted + r.spec.attempted)
            .sum();
        let completed: u64 = rounds
            .iter()
            .map(|r| r.base.completed + r.spec.completed)
            .sum();
        let values = if trace {
            per_layer(rounds)
        } else {
            end_to_end(rounds)
        };
        let table: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = table
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        Report {
            correct: errors.is_empty(),
            attempted: attempted.max(1),
            failed: attempted - completed.min(attempted),
            metrics,
            errors,
        }
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                m,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Medians of the end-to-end metrics over all rounds, each round's
/// times scaled to the reference host speed.
fn end_to_end(rounds: &[Round]) -> BTreeMap<String, f64> {
    let col = |f: fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    BTreeMap::from([
        (
            "setup_s".to_string(),
            col(|r| r.setup.total().as_secs_f64() / r.host_factor()),
        ),
        (
            "base_req_per_s".to_string(),
            col(|r| r.base.req_per_s() * r.host_factor()),
        ),
        (
            "spec_req_per_s".to_string(),
            col(|r| r.spec.req_per_s() * r.host_factor()),
        ),
        ("peak_rss_mb".to_string(), peak_rss_mb()),
    ])
}

/// One engine's phases summed over the traced rounds.
fn traced_phase(rounds: &[Round], pick: fn(&Round) -> &Phase) -> Phase {
    let mut p = Phase::default();
    for r in rounds.iter().filter(|r| r.traced) {
        p.merge(pick(r));
    }
    p
}

type Pick = fn(&Round) -> &Phase;

/// One figure of a round.
type Column = fn(&Round) -> f64;

/// The two engines' phases, by metric prefix.
const ENGINES: [(&str, Pick); 2] = [("base", |r| &r.base), ("spec", |r| &r.spec)];

/// Per-layer metrics: span means over the traced rounds, set-up parts as
/// medians over all rounds, model outputs from the first round.
fn per_layer(rounds: &[Round]) -> BTreeMap<String, f64> {
    let mut out = rounds
        .first()
        .map(|r| r.outputs.clone())
        .unwrap_or_default();
    let col = |traced: Option<bool>, f: &dyn Fn(&Round) -> f64| {
        median(
            rounds
                .iter()
                .filter(|r| traced.is_none_or(|t| r.traced == t))
                .map(f)
                .collect(),
        )
    };
    for (i, (name, _)) in Setup::default().parts().into_iter().enumerate() {
        out.insert(
            name.to_string(),
            col(None, &|r| r.setup.parts()[i].1.as_secs_f64()),
        );
    }
    // The end-to-end figures as measured, before scaling to the
    // reference speed, and the kernel times that scale them.
    let host: [(&str, Column); 5] = [
        ("host.ref_compute_ms", |r| {
            r.reference.compute.as_secs_f64() * 1e3
        }),
        ("host.ref_memory_ms", |r| {
            r.reference.memory.as_secs_f64() * 1e3
        }),
        ("host.setup_s", |r| r.setup.total().as_secs_f64()),
        ("host.base_req_per_s", |r| r.base.req_per_s()),
        ("host.spec_req_per_s", |r| r.spec.req_per_s()),
    ];
    for (name, f) in host {
        out.insert(name.to_string(), col(None, &f));
    }
    let measured = |r: &Round| (r.base.host + r.spec.host).as_secs_f64() / r.host_factor();
    out.insert(
        "trace_overhead".to_string(),
        col(Some(true), &measured) / col(Some(false), &measured).max(1e-12),
    );

    let mut tracegen = Span::default();
    let mut pool = Span::default();
    for r in rounds.iter().filter(|r| r.traced) {
        tracegen.merge(&r.tracegen);
        pool.merge(&r.pool);
    }
    out.insert("tracegen.ns_per_arrival".to_string(), tracegen.mean_ns());
    out.insert("pool.ns_per_op".to_string(), pool.mean_ns());

    let traced_rounds = rounds.iter().filter(|r| r.traced).count() as f64;
    for (e, pick) in ENGINES {
        let p = traced_phase(rounds, pick);
        let layers = p.layers();
        for (name, span) in &layers[..4] {
            out.insert(format!("{e}.{name}_ns"), span.mean_ns());
        }
        out.insert(
            format!("{e}.export_s"),
            p.export.secs() / traced_rounds.max(1.0),
        );
        // Host time the timed layers explain. `ScaleEngine::run` is
        // opaque, so on the fleet workloads the standalone probes' per-op
        // costs times the run's own arrivals and acquisitions (each
        // acquisition is paired with a release) stand in for spans.
        let explained = if p.step.calls > 0 {
            layers.iter().map(|(_, s)| s.nanos as f64).sum::<f64>()
        } else {
            let count = |name: &str| out.get(&format!("{e}.{name}")).copied().unwrap_or(0.0);
            traced_rounds
                * (count("completed") * tracegen.mean_ns()
                    + 2.0 * count("pool_acquires") * pool.mean_ns())
        };
        let wall = p.wall.as_nanos() as f64;
        let residual = if wall > 0.0 {
            1.0 - explained / wall
        } else {
            0.0
        };
        out.insert(format!("{e}.residual_frac"), residual);
    }
    out
}

/// Human-readable ledger of a run (printed before the JSON line).
pub fn ledger(workload: Workload, seed: u64, rounds: &[Round], report: &Report) -> String {
    let mut s = String::new();
    let traced = rounds.iter().filter(|r| r.traced).count();
    let _ = writeln!(
        s,
        "perfbench {} seed {seed}: {} rounds ({traced} traced), attempted {}, failed {}",
        workload.name(),
        rounds.len(),
        report.attempted,
        report.failed
    );
    if traced > 0 {
        let _ = writeln!(
            s,
            "{:<18}{:>12}{:>12}{:>12}{:>9}",
            "layer", "calls", "total s", "mean ns", "share"
        );
        for (e, pick) in ENGINES {
            let p = traced_phase(rounds, pick);
            let wall = p.wall.as_secs_f64();
            for (name, span) in p.layers().into_iter().filter(|(_, sp)| sp.calls > 0) {
                let _ = writeln!(
                    s,
                    "{:<18}{:>12}{:>12.6}{:>12.1}{:>8.1}%",
                    format!("{e}.{name}"),
                    span.calls,
                    span.secs(),
                    span.mean_ns(),
                    100.0 * span.secs() / wall.max(1e-12)
                );
            }
            let _ = writeln!(s, "{:<18}{:>12}{:>12.6}", format!("{e}.measured"), "", wall);
        }
    }
    for (name, v, unit) in &report.metrics {
        let _ = writeln!(s, "  {name:<26} {v:>16.6} {unit}");
    }
    if let Some(first) = rounds.first() {
        for line in format_recorded(workload, &first.outputs).lines() {
            let _ = writeln!(s, "model {line}");
        }
    }
    for e in &report.errors {
        let _ = writeln!(s, "CHECK FAILED: {e}");
    }
    s
}
