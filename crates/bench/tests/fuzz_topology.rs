//! Randomized DAG-topology equivalence fuzzing.
//!
//! The hand-built suites cover 19 fixed topologies; this test feeds
//! seeded *random* DAGs (bounded width/depth, wide fork/joins,
//! data-dependent branches, cross-boundary storage reads — see
//! `specfaas_apps::topology`) through the same cross-engine equivalence
//! harness as `equivalence_e2e`: for every generated app, the
//! speculative engine and the baseline must agree on final KV state,
//! request outcomes, and committed-function multisets.
//!
//! The seed budget is fixed (`DEFAULT_TOPOLOGIES`) so runs are
//! reproducible; set `FUZZ_TOPOLOGIES=<n>` to widen or narrow the sweep
//! (CI pins it explicitly).

use specfaas_bench::runner::{paired_inputs, prepared_baseline, prepared_spec, replay};
use specfaas_core::SpecConfig;

/// Topologies checked per run unless `FUZZ_TOPOLOGIES` overrides it.
const DEFAULT_TOPOLOGIES: u64 = 100;
/// Requests fed to each engine per topology.
const REQUESTS: usize = 12;
/// Base of the seed range, so fuzz seeds never collide with suite seeds.
const SEED_BASE: u64 = 0xDA6_0000;

fn budget() -> u64 {
    std::env::var("FUZZ_TOPOLOGIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_TOPOLOGIES)
}

/// Every topology under the full system and at speculation depths 1 and
/// 2, where wide fork/joins fill the pipeline before any slot extends.
#[test]
fn random_topologies_commit_identically_on_both_engines() {
    let n = budget();
    assert!(n > 0, "FUZZ_TOPOLOGIES must be positive");
    let configs = [SpecConfig::full(), shallow(1), shallow(2)];
    for t in 0..n {
        let topo_seed = SEED_BASE + t;
        let bundle = specfaas_apps::topology::random_bundle(topo_seed);
        let inputs = paired_inputs(&bundle, topo_seed, REQUESTS);
        let base = replay(&mut prepared_baseline(&bundle, topo_seed), &inputs);
        for cfg in &configs {
            let spec = replay(
                &mut prepared_spec(&bundle, cfg.clone(), topo_seed, 0),
                &inputs,
            );
            if let Some(m) = base.mismatch(&spec) {
                panic!("topology seed {topo_seed:#x}, depth {}: {m}", cfg.max_depth);
            }
        }
    }
}

fn shallow(depth: usize) -> SpecConfig {
    SpecConfig {
        max_depth: depth,
        throttled_depth: depth,
        ..SpecConfig::full()
    }
}

/// A mutated seed must change the topology (the generator is actually
/// sensitive to its seed, not collapsing to one shape).
#[test]
fn fuzz_seeds_generate_distinct_topologies() {
    let shapes: Vec<Vec<String>> = (0..16)
        .map(|t| {
            specfaas_apps::topology::random_bundle(SEED_BASE + t)
                .app
                .workflow
                .function_names()
                .iter()
                .map(|s| s.to_string())
                .collect()
        })
        .collect();
    let distinct: std::collections::HashSet<_> = shapes.iter().collect();
    assert!(
        distinct.len() > 8,
        "only {} distinct topologies in 16 seeds",
        distinct.len()
    );
}
