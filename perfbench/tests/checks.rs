//! The benchmark's own checks: a reduced run of every workload passes
//! them, and each check catches the fault it exists for.

use std::collections::BTreeSet;

use specfaas_perfbench::apps::{self, AppInputs};
use specfaas_perfbench::reference::Reference;
use specfaas_perfbench::{
    check_outputs, format_recorded, parse_recorded, run, Report, Size, Workload, END_TO_END,
    PER_LAYER, RECORDED,
};
use specfaas_sim::SimRng;

/// A seed other than the default, so reduced runs are not compared with
/// the full-size values in `expected.txt`.
const SEED: u64 = 7;

#[test]
fn reduced_run_of_every_workload_passes_every_check() {
    let recorded = parse_recorded(RECORDED).expect("expected.txt parses");
    for w in Workload::ALL {
        let rounds = run(w, SEED, Size::REDUCED, 0.0, true);
        assert!(rounds.iter().any(|r| r.traced) && rounds.iter().any(|r| !r.traced));
        let report = Report::new(w, SEED, &rounds, true);
        assert!(report.correct, "{}: {:?}", w.name(), report.errors);
        assert_eq!(report.failed, 0, "{}", w.name());
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(
            names,
            want,
            "{}: traced run reports every per-layer metric",
            w.name()
        );
        let e2e = Report::new(w, SEED, &rounds, false);
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.map(|m| m.0), "{}", w.name());
        assert!(
            e2e.metrics.iter().all(|m| m.1 > 0.0),
            "{}: end-to-end metrics are never 0",
            w.name()
        );

        // expected.txt records exactly the outputs this workload produces.
        let produced: BTreeSet<String> = rounds[0].outputs.keys().cloned().collect();
        let stored: BTreeSet<String> = recorded
            .keys()
            .filter(|(rw, _)| rw == w.name())
            .map(|(_, k)| k.clone())
            .collect();
        assert_eq!(produced, stored, "{}: expected.txt names", w.name());
    }
}

#[test]
fn a_different_baseline_input_fails_the_equivalence_check() {
    let bundles = apps::bundles();
    let bundle = bundles
        .iter()
        .find(|b| b.app.name == "HotelBooking")
        .expect("HotelBooking is registered");
    let one = std::slice::from_ref(bundle);
    let inputs = vec![AppInputs::draw(bundle, SEED, 0, Size::REDUCED)];

    let rf = &mut Reference::new();
    let same = apps::round_with(one, SEED, inputs.clone(), inputs.clone(), false, false, rf);
    assert!(same.errors.is_empty(), "{:?}", same.errors);

    let mut altered = inputs.clone();
    let mut rng = SimRng::seed(SEED ^ 0xD1FF);
    let mut other = (bundle.make_input)(&mut rng);
    while format!("{other:?}") == format!("{:?}", altered[0].measured[0]) {
        other = (bundle.make_input)(&mut rng);
    }
    altered[0].measured[0] = other;
    let r = apps::round_with(one, SEED, altered, inputs, false, false, rf);
    assert!(
        r.errors.iter().any(|e| e.contains("diverge")),
        "equivalence check missed a different input: {:?}",
        r.errors
    );
}

#[test]
fn an_altered_recorded_value_fails_the_model_output_check() {
    let w = Workload::Fleet;
    let rounds = run(w, SEED, Size::REDUCED, 0.0, false);
    let text = format_recorded(w, &rounds[0].outputs);
    let recorded = parse_recorded(&text).expect("formatted outputs parse");
    assert!(check_outputs(w, &rounds, Some(&recorded)).is_empty());

    let mut altered = recorded.clone();
    let key = (w.name().to_string(), "spec.sim_p99_ms".to_string());
    let v = altered.get_mut(&key).expect("spec.sim_p99_ms is an output");
    *v = f64::from_bits(v.to_bits() + 1);
    let errors = check_outputs(w, &rounds, Some(&altered));
    assert!(
        errors
            .iter()
            .any(|e| e.contains("expected.txt") && e.contains("spec.sim_p99_ms")),
        "{errors:?}"
    );

    let mut changed_round = rounds.clone();
    changed_round[1]
        .outputs
        .insert("base.cold_starts".to_string(), -1.0);
    assert!(
        !check_outputs(w, &changed_round, None).is_empty(),
        "rounds must repeat exactly"
    );
}

#[test]
fn benchmark_json_declares_every_reported_metric() {
    let json = include_str!("../../BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
    }
    assert_eq!(
        json.matches("\"better\"").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
}
