//! Alibaba: five implicit-workflow applications synthesized from the
//! published statistics of Alibaba's production microservice traces
//! (paper §VII), plus the node-utilization trace generator behind Fig. 4.
//!
//! The real traces provide call graphs and per-function execution times
//! but no function code, so (like the paper, which replays trace timing)
//! we generate deterministic call trees matched to Table I: on average
//! 17.6 functions per application, 3.4 callees per calling function,
//! maximum DAG depth 5, and ≈90 % most-popular-sequence share
//! (Observation 2 / the 90 % branch-predictor hit rate of §VIII-B).

use specfaas_sim::{SimRng, Zipf};
use specfaas_storage::Value;
use specfaas_workflow::expr::*;
use specfaas_workflow::{AppSpec, FunctionRegistry, FunctionSpec, Program, Workflow};

use crate::suite::AppBundle;

/// Probability that a conditional call edge is exercised (matches the
/// 90 % predictability of the traces).
pub const CALL_BIAS: f64 = 0.9;

/// All five Alibaba applications.
pub fn apps() -> Vec<AppBundle> {
    // Shapes chosen so the suite averages ~17.6 functions and max call
    // depth 5: trees of 16, 21, 15, 22 and 15 functions respectively.
    vec![
        synth_app("AliLogin", 0, &[3, 2, 1], 5),
        synth_app("AliBanking", 1, &[4, 2, 1], 6),
        synth_app("AliFlightBook", 2, &[2, 3, 1], 5),
        synth_app("AliHotelBook", 3, &[3, 3, 1], 6),
        synth_app("AliOnlPurch", 4, &[2, 2, 1, 1], 5),
    ]
}

/// Builds one synthetic multi-tier application.
///
/// `fanout[d]` is the number of callees at tree depth `d`; depth
/// `fanout.len()` nodes are leaves. One call edge per mid-tier node is
/// *conditional*: taken only when the request's `variant` field is 0
/// (drawn true with probability [`CALL_BIAS`]), reproducing the trace's
/// dominant-path behaviour.
fn synth_app(name: &str, salt: u64, fanout: &[usize], leaf_ms: u64) -> AppBundle {
    let mut reg = FunctionRegistry::new();
    build_node(&mut reg, name, salt, 0, fanout, leaf_ms, "n");
    let root = format!("{name}_n");
    let app = AppSpec::new(name, "Alibaba", reg, Workflow::task(root));
    let keys = Zipf::new(60, 1.4);
    AppBundle::new(
        app,
        move |rng: &mut SimRng| {
            Value::map([
                ("key", Value::str(format!("k{}", keys.sample(rng)))),
                ("variant", Value::Int(i64::from(!rng.chance(CALL_BIAS)))),
            ])
        },
        move |kv, _rng| {
            for k in 0..60 {
                kv.set(format!("state:k{k}"), Value::Int(k * 17 + 3));
            }
        },
    )
}

/// Recursively registers the function tree; returns the node's name.
fn build_node(
    reg: &mut FunctionRegistry,
    app: &str,
    salt: u64,
    depth: usize,
    fanout: &[usize],
    leaf_ms: u64,
    path: &str,
) -> String {
    let name = format!("{app}_{path}");
    if depth >= fanout.len() {
        // Leaf: compute plus an occasional read of shared state.
        let prog = if path.ends_with('0') {
            Program::builder()
                .compute_jitter_ms(leaf_ms, 0.15)
                .get(concat([lit("state:"), field(input(), "key")]), "s")
                .ret(make_map([(
                    "r",
                    add(var("s"), hash_of(field(input(), "key"))),
                )]))
        } else {
            Program::builder()
                .compute_jitter_ms(leaf_ms + (salt % 3), 0.15)
                .ret(make_map([("r", hash_of(input()))]))
        };
        reg.register(FunctionSpec::new(&name, prog));
        return name;
    }
    let n_children = fanout[depth];
    let mut children = Vec::new();
    for c in 0..n_children {
        let child = build_node(
            reg,
            app,
            salt,
            depth + 1,
            fanout,
            leaf_ms,
            &format!("{path}{c}"),
        );
        children.push(child);
    }
    // Mid-tier node: calls each child in order; the LAST call is
    // conditional on the request variant.
    let mut b = Program::builder().compute_jitter_ms(2 + (salt % 2), 0.1);
    let total = children.len();
    for (i, child) in children.iter().enumerate() {
        let args = make_map([
            ("key", field(input(), "key")),
            ("variant", field(input(), "variant")),
        ]);
        if i + 1 == total && total > 1 {
            b = b.if_(
                eq(field(input(), "variant"), lit(0i64)),
                vec![specfaas_workflow::Stmt::Call {
                    func: child.clone(),
                    args,
                    var: format!("r{i}"),
                }],
                vec![specfaas_workflow::Stmt::Let {
                    var: format!("r{i}"),
                    expr: lit(Value::Null),
                }],
            );
        } else {
            b = b.call(child.clone(), args, format!("r{i}"));
        }
    }
    let prog = b
        .compute_jitter_ms(2, 0.1)
        .ret(make_map([("r", hash_of(make_list([var("r0"), input()])))]));
    reg.register(FunctionSpec::new(&name, prog));
    name
}

// ---------------------------------------------------------------------
// Node-utilization trace (Fig. 4)
// ---------------------------------------------------------------------

/// Per-node CPU-utilization samples synthesized to match the published
/// CDFs of Fig. 4 (most nodes run at 60–80 % CPU most of the time).
#[derive(Debug, Clone)]
pub struct UtilizationTrace {
    /// Per-node utilization sample series, values in `[0, 1]`.
    pub nodes: Vec<Vec<f64>>,
}

impl UtilizationTrace {
    /// Generates a trace of `nodes` nodes × `samples` samples each.
    ///
    /// Node baselines are drawn around 55–75 % with diurnal-style
    /// oscillation and noise, clamped to `[0.05, 0.99]`.
    pub fn generate(nodes: usize, samples: usize, rng: &mut SimRng) -> Self {
        let mut out = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let base = rng.normal_clamped(0.62, 0.10, 0.25, 0.85);
            let amp = rng.normal_clamped(0.10, 0.04, 0.02, 0.25);
            let phase = rng.uniform_f64() * std::f64::consts::TAU;
            let mut series = Vec::with_capacity(samples);
            for t in 0..samples {
                let diurnal =
                    amp * (t as f64 / samples as f64 * 8.0 * std::f64::consts::TAU + phase).sin();
                let noise = rng.normal_clamped(0.0, 0.05, -0.2, 0.2);
                series.push((base + diurnal + noise).clamp(0.05, 0.99));
            }
            out.push(series);
        }
        UtilizationTrace { nodes: out }
    }

    /// Per-node `p`-th percentile utilization (the P50–P90 series of
    /// Fig. 4), one value per node.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 100]`.
    pub fn node_percentiles(&self, p: f64) -> Vec<f64> {
        assert!((0.0..=100.0).contains(&p));
        self.nodes
            .iter()
            .map(|series| {
                let mut s = series.clone();
                s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let idx = ((p / 100.0) * (s.len() - 1) as f64).round() as usize;
                s[idx]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_shape_matches_table1() {
        let apps = apps();
        assert_eq!(apps.len(), 5);
        let fns: usize = apps.iter().map(|a| a.app.registry.len()).sum();
        let avg = fns as f64 / 5.0;
        assert!(
            (14.0..=22.0).contains(&avg),
            "avg functions {avg}, paper reports 17.6"
        );
        for a in &apps {
            assert!(a.app.is_implicit());
        }
    }

    #[test]
    fn apps_run_on_baseline() {
        use specfaas_platform::BaselineEngine;
        for bundle in apps() {
            let mut e = BaselineEngine::new(bundle.app.clone(), 21);
            e.prewarm();
            let mut rng = SimRng::seed(6);
            (bundle.seed)(&mut e.kv, &mut rng);
            let d = e.run_single((bundle.make_input)(&mut rng));
            assert!(
                d.as_millis() > 50,
                "{} should be a deep multi-tier app: {d}",
                bundle.name()
            );
        }
    }

    #[test]
    fn dominant_path_share_matches_observation2() {
        // ~90% of invocations follow the most popular function sequence.
        use specfaas_platform::BaselineEngine;
        let bundle = &apps()[0];
        let mut e = BaselineEngine::new(bundle.app.clone(), 23);
        e.prewarm();
        let mut rng = SimRng::seed(7);
        (bundle.seed)(&mut e.kv, &mut rng);
        let gen = bundle.make_input.clone();
        let m = e.run_closed(300, move |r| gen(r));
        let (_, share) = m.most_popular_sequence().unwrap();
        assert!(
            (0.80..=0.97).contains(&share),
            "dominant sequence share {share}, expected ≈0.9"
        );
    }

    #[test]
    fn utilization_trace_matches_fig4_band() {
        let mut rng = SimRng::seed(8);
        let trace = UtilizationTrace::generate(500, 200, &mut rng);
        let p90 = trace.node_percentiles(90.0);
        let in_band = p90.iter().filter(|u| (0.5..=0.95).contains(*u)).count();
        // Fig. 4: most of the time CPU usage is 60-80%; P90 mostly in a
        // moderate band, leaving headroom for misspeculation.
        assert!(
            in_band as f64 / p90.len() as f64 > 0.8,
            "only {in_band}/{} nodes in band",
            p90.len()
        );
        let median_p50 = {
            let mut p50 = trace.node_percentiles(50.0);
            p50.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            p50[p50.len() / 2]
        };
        assert!(
            (0.45..=0.80).contains(&median_p50),
            "median P50 {median_p50}"
        );
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut rng = SimRng::seed(9);
        let trace = UtilizationTrace::generate(50, 100, &mut rng);
        let p50 = trace.node_percentiles(50.0);
        let p90 = trace.node_percentiles(90.0);
        for (a, b) in p50.iter().zip(&p90) {
            assert!(b >= a);
        }
    }
}
