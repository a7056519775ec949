//! Wall-clock benchmark harness — measures the *simulator's* speed, not
//! the simulated systems. Two measurements, the ones a host's speed
//! decides and no exact count can stand in for:
//!
//! 1. **Event queue**: schedule+step churn at 100k pending events. The
//!    calendar-bucket queue keeps the op amortized O(1) at any backlog;
//!    that it stays flat in queue depth is tested exactly on the queue's
//!    own work counters (`specfaas_sim::event`), so only the absolute
//!    cost is timed here.
//! 2. **Instrumented overhead**: the same closed loop on a trained
//!    SpecFaaS engine with and without the streaming-observability
//!    instruments (metrics registry + windowed snapshots) armed.
//!
//! Every number is a median of K repeats. Results are printed and
//! written machine-readably to `BENCH_wallclock.json` (override with
//! `--out PATH`; `--quick` skips the file unless `--out` is given).
//!
//! `--guard PATH` compares this run against the committed artifact at
//! PATH and exits non-zero if any clause fires (see
//! [`specfaas_bench::guard::CLAUSES`]). CI runs
//! `wallclock --quick --out wallclock.json --guard BENCH_wallclock.json`.

use std::time::Instant;

use specfaas_bench::executor;
use specfaas_bench::guard::{self, Artifact};
use specfaas_bench::runner::{prepared_spec, ExperimentParams};
use specfaas_core::SpecConfig;
use specfaas_sim::{MetricsRegistry, SimDuration, SimRng, Simulator, SnapshotLog};

/// Backlog of the timed event-queue churn.
const PENDING: usize = 100_000;

/// Repeats of each arm of the instrumented-overhead measurement. One
/// repeat of the quick run's 200 requests takes a few milliseconds, so
/// a single one reads whatever the host did in that instant.
const OVERHEAD_REPEATS: usize = 9;

/// Wall seconds of one call of `body`.
fn time_once(body: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    body();
    t0.elapsed().as_secs_f64()
}

/// The median of `samples`.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times `body` K times and returns the median wall time in seconds.
fn timed<K: FnMut()>(repeats: usize, mut body: K) -> f64 {
    median((0..repeats.max(1)).map(|_| time_once(&mut body)).collect())
}

/// schedule+step churn at [`PENDING`] events, median ns per op: the
/// queue size stays at the backlog, every op is one insert and one pop.
///
/// The prefill (arena + bucket growth) happens *outside* the timed region:
/// ns/op measures steady-state churn at the given backlog, not one-time
/// allocation. Repeats continue on the same simulator — the queue is in
/// steady state throughout, so every repeat measures the same regime.
fn schedule_step_ns(ops: usize, repeats: usize) -> f64 {
    let mut rng = SimRng::seed(0x5EED_0001);
    let mut sim = Simulator::new();
    for i in 0..PENDING {
        sim.schedule_in(
            SimDuration::from_micros(rng.uniform_range(1, 1_000_000)),
            i as u64,
        );
    }
    let mut item = 0u64;
    let secs = timed(repeats, || {
        for _ in 0..ops {
            sim.schedule_in(
                SimDuration::from_micros(rng.uniform_range(1, 1_000_000)),
                item,
            );
            item += 1;
            std::hint::black_box(sim.step());
        }
        assert_eq!(sim.pending(), PENDING);
    });
    secs * 1e9 / ops as f64
}

/// Instrumented-run overhead: times `requests` closed-loop requests on
/// two trained SpecFaaS engines, one plain and one with the streaming
/// observability instruments armed (recording [`MetricsRegistry`] +
/// 250 ms windowed [`SnapshotLog`]). Engine prep (prewarm + training) is
/// hoisted outside the timed regions; repeats continue the same closed
/// loops, so both arms measure steady-state request processing and the
/// ratio isolates what the instruments add per event. The arms take
/// turns, one repeat each, so a change in host speed during the run
/// reaches both. Returns `(requests, median plain_secs, median
/// instrumented_secs)`.
fn instrumented_overhead(quick: bool, repeats: usize) -> (u64, f64, f64) {
    let bundle = specfaas_apps::faaschain::apps().remove(0); // Login
    let requests: u64 = if quick { 200 } else { 1_000 };
    let seed = ExperimentParams::default().seed;

    let mut plain = prepared_spec(&bundle, SpecConfig::full(), seed, 120);
    let mut inst = prepared_spec(&bundle, SpecConfig::full(), seed, 120);
    inst.set_registry(MetricsRegistry::recording());
    inst.set_snapshots(SnapshotLog::new(SimDuration::from_millis(250)));

    let (mut plain_secs, mut inst_secs) = (Vec::new(), Vec::new());
    for _ in 0..repeats {
        for (engine, secs) in [(&mut plain, &mut plain_secs), (&mut inst, &mut inst_secs)] {
            let gen = bundle.make_input.clone();
            secs.push(time_once(|| {
                std::hint::black_box(engine.run_closed(requests, move |r| gen(r)));
            }));
        }
    }
    (requests, median(plain_secs), median(inst_secs))
}

fn main() {
    let quick = executor::has_flag("--quick");
    let out = executor::arg_value("out");
    let guard_path = executor::arg_value("guard");

    let repeats = if quick { 3 } else { 5 };
    let ops = if quick { 50_000 } else { 400_000 };

    println!("== Wall-clock: event-queue throughput ==\n");
    let step_ns = schedule_step_ns(ops, repeats);
    println!(
        "schedule_step at {PENDING} pending: {step_ns:.1} ns/op ({:.2} Mops/s)",
        1e3 / step_ns
    );

    println!("\n== Wall-clock: instrumented-run overhead (Login) ==\n");
    let (ov_requests, ov_plain, ov_inst) = instrumented_overhead(quick, OVERHEAD_REPEATS);
    let overhead_ratio = ov_inst / ov_plain;
    println!(
        "{ov_requests} requests: plain {ov_plain:.3} s, instrumented {ov_inst:.3} s, \
         ratio {overhead_ratio:.3}x"
    );

    let j = format!(
        "{{\n  \"schema\": \"specfaas-bench/wallclock/v3\",\n  \"quick\": {quick},\n  \
         \"host_parallelism\": {},\n  \"repeats\": {repeats},\n  \"event_queue\": [\n    \
         {{\"bench\": \"schedule_step\", \"pending\": {PENDING}, \"ops\": {ops}, \
         \"median_ns_per_op\": {step_ns:.2}, \"ops_per_sec\": {:.0}}}\n  ],\n  \
         \"instrumented_overhead\": {{\"app\": \"Login\", \"requests\": {ov_requests}, \
         \"repeats\": {OVERHEAD_REPEATS}, \"plain_secs\": {ov_plain:.4}, \
         \"instrumented_secs\": {ov_inst:.4}, \"overhead_ratio\": {overhead_ratio:.4}}}\n}}\n",
        executor::host_parallelism(),
        1e9 / step_ns,
    );

    match (out, quick) {
        (Some(path), _) => {
            std::fs::write(&path, &j).expect("write wallclock json");
            println!("\nwrote {path}");
        }
        (None, false) => {
            std::fs::write("BENCH_wallclock.json", &j).expect("write wallclock json");
            println!("\nwrote BENCH_wallclock.json");
        }
        (None, true) => {}
    }

    if let Some(path) = guard_path {
        guard::enforce(Artifact::Wallclock, &j, &path);
    }
}
