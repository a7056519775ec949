//! Cross-engine equivalence: speculation must be semantically invisible.
//!
//! For every suite application and several seeds, the speculative engine
//! and the baseline engine are fed the *same* pre-generated input
//! sequence, one request at a time (`runner::replay`). Speculation may
//! only change *when* work happens (latencies and core-time differ by
//! design) — never *what* is computed. So after the run both engines must
//! agree on
//!
//! * the final KV-store state (every key and value),
//! * which requests completed vs. failed, and
//! * each request's committed function invocations (the observable
//!   control-flow path; compared as a multiset because parallel-stage
//!   siblings commit in a timing-dependent order on both engines).

use specfaas_apps::AppBundle;
use specfaas_bench::runner::{
    paired_inputs, prepared_baseline_with, prepared_spec, prepared_spec_with, replay,
};
use specfaas_core::{PolicyConfig, SpecConfig};
use specfaas_sim::SimRng;

const REQUESTS: usize = 40;
const SEEDS: [u64; 3] = [1, 0xE0, 0xFAA5];

/// Replays the same inputs on both engines under `cfg` and `policy` and
/// panics on the first divergence.
fn assert_engines_agree(
    bundle: &AppBundle,
    cfg: &SpecConfig,
    seed: u64,
    policy: &PolicyConfig,
    label: &str,
) {
    let inputs = paired_inputs(bundle, seed, REQUESTS);
    let base = replay(&mut prepared_baseline_with(bundle, seed, policy), &inputs);
    let spec = replay(
        &mut prepared_spec_with(bundle, cfg.clone(), seed, 0, policy),
        &inputs,
    );
    if let Some(m) = base.mismatch(&spec) {
        panic!("{label}: {m}");
    }
}

/// The full system on every seed, and speculation depths 1 and 2 (the
/// head alone, and one slot beyond it) on the first.
#[test]
fn spec_and_baseline_agree_on_state_and_outputs() {
    let shallow = |depth| SpecConfig {
        max_depth: depth,
        throttled_depth: depth,
        ..SpecConfig::full()
    };
    let runs = [
        (SpecConfig::full(), &SEEDS[..]),
        (shallow(1), &SEEDS[..1]),
        (shallow(2), &SEEDS[..1]),
    ];
    for suite in specfaas_apps::all_suites() {
        for bundle in &suite.apps {
            for (cfg, seeds) in &runs {
                for &seed in *seeds {
                    let label = format!(
                        "{}/{}/seed={seed}/depth={}",
                        suite.name, bundle.app.name, cfg.max_depth
                    );
                    assert_engines_agree(bundle, cfg, seed, &PolicyConfig::default(), &label);
                }
            }
        }
    }
}

/// Platform policies may only move *when* containers exist — never what
/// the workflow computes. Both engines under the same aggressive
/// non-default policy (round-robin placement, short-TTL unloading,
/// sequence-table prewarm) must still agree on outcomes, committed
/// function multisets and the final KV state.
#[test]
fn engines_agree_under_non_default_policy() {
    let policy = PolicyConfig::parse("place=round-robin+keepalive=ttl:150ms+prewarm=seq-table")
        .expect("policy spec parses");
    for suite in specfaas_apps::all_suites() {
        let bundle = &suite.apps[0];
        for seed in [1u64, 0xE0] {
            let label = format!(
                "{}/{}/seed={seed}/policy={}",
                suite.name,
                bundle.app.name,
                policy.label()
            );
            assert_engines_agree(bundle, &SpecConfig::full(), seed, &policy, &label);
        }
    }
}

/// Speculation must stay invisible under training too: a spec engine
/// whose persistent tables were warmed by earlier invocations still
/// commits the same state as a cold one fed the same measured inputs.
#[test]
fn trained_spec_commits_the_same_state_as_cold_spec() {
    let bundle = specfaas_apps::faaschain::hotel_booking();
    let seed = 7u64;
    let inputs = paired_inputs(&bundle, seed, REQUESTS);

    let run = |train: u64| {
        let mut e = prepared_spec(&bundle, SpecConfig::full(), seed, train);
        // Reset storage so only the measured inputs shape the final state.
        e.kv.clear();
        let mut rng = SimRng::seed(seed ^ 0x5eed);
        (bundle.seed)(&mut e.kv, &mut rng);
        replay(&mut e, &inputs).kv
    };

    assert_eq!(run(0), run(200), "training changed committed state");
}
