//! Generator golden: pins every workload generator's output byte for byte.
//!
//! For each suite application this digests the first [`INPUTS`] request
//! inputs drawn at seed 1 and the key-value store its seeder fills at
//! seed 1, plus the generator's RNG state after each phase (so a change
//! that returns the same values but consumes the stream differently still
//! shows). The blob-access trace of Observation 4 and a random topology
//! bundle are pinned the same way. Rows are compared against
//! `tests/golden/generators.txt`; re-bless with `BLESS_GOLDEN=1` only when
//! a generator change is intentional.

use std::fmt::Write as _;

use specfaas_apps::azure_blobs::{self, BlobTraceConfig};
use specfaas_apps::{all_suites, topology, AppBundle};
use specfaas_sim::SimRng;
use specfaas_storage::KvStore;

/// Request inputs pinned per application.
const INPUTS: usize = 200;
/// The seed every generator is driven with.
const SEED: u64 = 1;

/// FNV-1a over the rendered bytes: stable across runs, platforms and
/// hash-map orders.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One golden row: input digest, KV-dump digest and record count.
fn bundle_row(name: &str, bundle: &AppBundle) -> String {
    let mut rng = SimRng::seed(SEED);
    let mut inputs = String::new();
    for _ in 0..INPUTS {
        writeln!(inputs, "{}", (bundle.make_input)(&mut rng)).unwrap();
    }
    writeln!(inputs, "rng {}", rng.uniform_u64(u64::MAX)).unwrap();

    let mut kv = KvStore::new();
    let mut rng = SimRng::seed(SEED);
    (bundle.seed)(&mut kv, &mut rng);
    let mut records: Vec<(&str, _)> = kv.iter().collect();
    records.sort_unstable_by_key(|&(k, _)| k);
    let mut dump = String::new();
    for (k, v) in records {
        writeln!(dump, "{k} v{} = {v}", kv.version(k).unwrap().0).unwrap();
    }
    writeln!(dump, "rng {}", rng.uniform_u64(u64::MAX)).unwrap();

    format!(
        "{name} inputs={:016x} kv={:016x} records={}",
        fnv1a(inputs.as_bytes()),
        fnv1a(dump.as_bytes()),
        kv.len()
    )
}

fn blob_trace_row() -> String {
    let mut rng = SimRng::seed(SEED);
    let cfg = BlobTraceConfig {
        accesses: 20_000,
        ..BlobTraceConfig::default()
    };
    let mut out = String::new();
    for a in azure_blobs::generate(&cfg, &mut rng) {
        writeln!(out, "{} {} {:?}", a.at.as_micros(), a.blob, a.kind).unwrap();
    }
    writeln!(out, "rng {}", rng.uniform_u64(u64::MAX)).unwrap();
    format!(
        "azure_blobs accesses={} trace={:016x}",
        cfg.accesses,
        fnv1a(out.as_bytes())
    )
}

fn render() -> String {
    let mut rows = Vec::new();
    for suite in all_suites() {
        for app in &suite.apps {
            rows.push(bundle_row(app.name(), app));
        }
    }
    let random = topology::random_bundle(1);
    rows.push(bundle_row(random.name(), &random));
    rows.push(blob_trace_row());
    rows.join("\n") + "\n"
}

#[test]
fn generators_match_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/generators.txt");
    let got = render();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("failed to bless golden file");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing; run with BLESS_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "workload generator output drifted from the golden; \
         re-bless with BLESS_GOLDEN=1 if the change is intentional"
    );
}
