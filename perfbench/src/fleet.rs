//! The `fleet` and `fleet-churn` workloads: the flow-level
//! `ScaleEngine` over 10⁴-tenant traces, baseline then speculative.
//!
//! `ScaleEngine::run` is opaque from outside, so traced rounds time the
//! two layers it leans on standalone, on the round's own traces: trace
//! generation (`TraceGen::fill`) and the warm pool (`WarmPool::acquire`
//! and `release`, replaying the trace's stage acquisitions under the
//! workload's keep-alive policy and the capacity the engine chose).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use specfaas_apps::all_app_specs;
use specfaas_platform::fleet::{
    Fleet, ScaleConfig, ScaleEngine, ScaleStats, TemplateProfile, WarmPool,
};
use specfaas_platform::PolicyConfig;
use specfaas_sim::tracegen::{TraceConfig, TraceGen};
use specfaas_sim::{LogHistogram, SimTime};

use crate::reference::Reference;
use crate::{Outputs, Phase, Round, Size, Span, Stopwatch};

/// The churn policy: the stack the repository's CI policy smoke runs.
const CHURN_POLICY: &str = "keepalive=ttl:100ms+prewarm=seq-table";

/// Arrivals pulled per `TraceGen::fill` call (the engine's batch size).
const BATCH: usize = 4096;

/// Traces of a traced round that the standalone probes replay. Their
/// per-operation costs need no more; probing every trace made a traced
/// `fleet-churn` round several times longer than a plain one.
const PROBED_TRACES: u32 = 4;

/// The workload's platform policy.
fn policy(churn: bool) -> PolicyConfig {
    if churn {
        PolicyConfig::parse(CHURN_POLICY).expect("churn policy spec parses")
    } else {
        PolicyConfig::default()
    }
}

/// The `k`-th trace of a round. Each round runs several traces from
/// seeds derived from the run's seed: the popularity ranking, and with
/// it which templates are hot, differs per trace, so a round averages
/// over several hot sets instead of resting on one.
fn trace_config(seed: u64, size: Size, k: u32) -> TraceConfig {
    let derived = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(k));
    TraceConfig::new(size.tenants, size.requests, derived)
}

/// One round: the templates (set-up), then per trace both engines
/// (set-up) and the baseline and the speculative run (measured, each
/// followed by a slice of the reference kernel), then the checks.
pub(crate) fn round(seed: u64, size: Size, churn: bool, traced: bool, rf: &mut Reference) -> Round {
    let mut r = Round {
        traced,
        ..Round::default()
    };
    let policy = policy(churn);

    let t = Stopwatch::start();
    let specs = all_app_specs();
    r.setup.bundles = t.cpu();
    let t = Stopwatch::start();
    let templates: Vec<Arc<TemplateProfile>> = specs
        .iter()
        .map(|a| Arc::new(TemplateProfile::from_app(a)))
        .collect();
    r.setup.templates = t.cpu();

    let mut base_stats = Vec::new();
    let mut spec_stats = Vec::new();
    for k in 0..size.traces {
        let trace = trace_config(seed, size, k);
        let config = |speculative| {
            let mut c = ScaleConfig::new(trace.clone(), speculative);
            c.policy = policy;
            c
        };
        let t = Stopwatch::start();
        let base = ScaleEngine::new(config(false), templates.clone());
        let spec = ScaleEngine::new(config(true), templates.clone());
        r.setup.engine += t.cpu();

        let b = timed_run(base, &mut r.base, size.requests);
        rf.slice();
        let s = timed_run(spec, &mut r.spec, size.requests);
        rf.slice();
        for (engine, st) in [("baseline", &b), ("spec", &s)] {
            if st.completed != size.requests {
                r.errors.push(format!(
                    "fleet trace {k}/{engine}: {} of {} trace requests completed",
                    st.completed, size.requests
                ));
            }
        }
        if traced && k < PROBED_TRACES {
            r.tracegen.merge(&tracegen_probe(&trace));
            r.pool.merge(&pool_probe(
                &trace,
                templates.clone(),
                &policy,
                b.warm_capacity,
            ));
        }
        base_stats.push(b);
        spec_stats.push(s);
    }
    r.outputs = outputs(&base_stats, &spec_stats);
    r
}

fn timed_run(engine: ScaleEngine, phase: &mut Phase, requests: u64) -> ScaleStats {
    let t = Stopwatch::start();
    let stats = engine.run();
    phase.host += t.cpu();
    phase.wall += t.wall();
    phase.attempted += requests;
    phase.completed += stats.completed;
    stats
}

/// The model outputs of a round, over all its traces.
fn outputs(base: &[ScaleStats], spec: &[ScaleStats]) -> Outputs {
    let mut o = Outputs::new();
    let mut means = [0.0; 2];
    for (i, (e, runs)) in [("base", base), ("spec", spec)].into_iter().enumerate() {
        let mut latency = LogHistogram::new();
        for s in runs {
            latency.merge(&s.latency);
        }
        means[i] = latency.mean();
        let sum = |f: fn(&ScaleStats) -> u64| runs.iter().map(f).sum::<u64>() as f64;
        let max = |f: fn(&ScaleStats) -> u64| runs.iter().map(f).max().unwrap_or(0) as f64;
        let mut put = |name: &str, v: f64| {
            o.insert(format!("{e}.{name}"), v);
        };
        put("sim_p50_ms", latency.quantile_ms(0.50));
        put("sim_p99_ms", latency.quantile_ms(0.99));
        put("pool_acquires", sum(|s| s.cold_starts + s.warm_starts));
        put("cold_starts", sum(|s| s.cold_starts));
        put("evictions", sum(|s| s.evictions));
        put("prewarm_issued", sum(|s| s.prewarm_issued));
        put("peak_live", max(|s| u64::from(s.peak_live)));
        put("model_mem_mb", max(|s| s.peak_mem_bytes) / 1e6);
        put("completed", sum(|s| s.completed));
    }
    let wasted: u64 = spec.iter().map(|s| s.wasted_core_us).sum();
    let busy: u64 = spec.iter().map(|s| s.busy_core_us).sum();
    o.insert(
        "spec.wasted_core_frac".to_string(),
        wasted as f64 / busy.max(1) as f64,
    );
    o.insert(
        "speculation_win".to_string(),
        means[0] / means[1].max(1e-12),
    );
    o
}

/// Generates the round's whole trace with `TraceGen::fill`; one call per
/// arrival in the span.
fn tracegen_probe(trace: &TraceConfig) -> Span {
    let mut gen = TraceGen::new(trace.clone());
    let mut batch = Vec::with_capacity(BATCH);
    let mut arrivals = 0u64;
    let t = Instant::now();
    loop {
        batch.clear();
        let n = gen.fill(&mut batch, BATCH);
        if n == 0 {
            break;
        }
        arrivals += n as u64;
        black_box(&batch);
    }
    Span {
        calls: arrivals,
        nanos: t.elapsed().as_nanos() as u64,
    }
}

/// One warm-pool operation of the replay.
#[derive(Clone, Copy)]
struct PoolOp {
    at: SimTime,
    gfunc: u32,
    acquire: bool,
}

/// Replays the trace's container traffic on a fresh `WarmPool`: every
/// stage of every arrival acquires its function's container when it
/// starts and releases it `exec` later, stages running back to back.
/// The operation list is built first, so the span holds pool calls only.
fn pool_probe(
    trace: &TraceConfig,
    templates: Vec<Arc<TemplateProfile>>,
    policy: &PolicyConfig,
    capacity: u32,
) -> Span {
    let fleet = Fleet::new(templates, trace.tenants);
    let ops = pool_ops(&fleet, trace);
    let keepalive = policy.build_keepalive();
    let mut pool = WarmPool::new(capacity);
    // Seeded like `ScaleEngine::new`: one idle container per function.
    for g in 0..fleet.total_gfuncs() {
        pool.release(g, SimTime::ZERO, &*keepalive);
    }
    let t = Instant::now();
    for op in &ops {
        if op.acquire {
            black_box(pool.acquire(op.gfunc, op.at, &*keepalive));
        } else {
            pool.release(op.gfunc, op.at, &*keepalive);
        }
    }
    Span {
        calls: ops.len() as u64,
        nanos: t.elapsed().as_nanos() as u64,
    }
}

/// The time-ordered acquire/release sequence of the replay.
fn pool_ops(fleet: &Fleet, trace: &TraceConfig) -> Vec<PoolOp> {
    // (time, tie-break sequence, gfunc, acquire)
    let mut pending: BinaryHeap<Reverse<(SimTime, u64, u32, bool)>> = BinaryHeap::new();
    let mut ops = Vec::new();
    let mut seq = 0u64;
    let flush = |pending: &mut BinaryHeap<Reverse<(SimTime, u64, u32, bool)>>,
                 until: Option<SimTime>,
                 ops: &mut Vec<PoolOp>| {
        while let Some(&Reverse((at, _, gfunc, acquire))) = pending.peek() {
            if until.is_some_and(|u| at > u) {
                break;
            }
            pending.pop();
            ops.push(PoolOp { at, gfunc, acquire });
        }
    };
    let mut gen = TraceGen::new(trace.clone());
    let mut batch = Vec::with_capacity(BATCH);
    while gen.fill(&mut batch, BATCH) > 0 {
        for a in batch.drain(..) {
            flush(&mut pending, Some(a.time), &mut ops);
            let mut at = a.time;
            for (s, stage) in fleet.template_of(a.tenant).stages.iter().enumerate() {
                let gfunc = fleet.gfunc(a.tenant, s as u16);
                pending.push(Reverse((at, seq, gfunc, true)));
                at += stage.exec;
                pending.push(Reverse((at, seq + 1, gfunc, false)));
                seq += 2;
            }
        }
    }
    flush(&mut pending, None, &mut ops);
    ops
}
