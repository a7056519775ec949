//! Suite characterization — reproduces Table I of the paper.
//!
//! For each suite: number of applications and, per application on
//! average, the number of functions, cross-function branches, data
//! dependences, callees per calling function, maximum DAG depth, and the
//! application execution time in a warmed-up environment (measured by
//! actually running each app once, warm, on the baseline engine).

use specfaas_platform::BaselineEngine;
use specfaas_sim::SimRng;
use specfaas_workflow::analysis::SideEffects;
use specfaas_workflow::Stmt;

use crate::suite::Suite;

/// Table-I row for one suite.
#[derive(Debug, Clone)]
pub struct SuiteCharacterization {
    /// Suite name.
    pub suite: String,
    /// Explicit or implicit workflows.
    pub workflow_type: String,
    /// Number of applications.
    pub applications: usize,
    /// Average functions per application.
    pub avg_functions: f64,
    /// Average cross-function branches per application (explicit suites).
    pub avg_branches: Option<f64>,
    /// Average data dependences per application (payload-carrying
    /// transitions plus cross-function storage dependences).
    pub avg_data_deps: f64,
    /// Average callees per function that makes calls (implicit suites).
    pub avg_callees_per_caller: Option<f64>,
    /// Maximum DAG depth across the suite's applications.
    pub max_dag_depth: usize,
    /// Average warmed-up end-to-end execution time in milliseconds.
    pub avg_exec_time_ms: f64,
}

/// Counts `Call` statements per function, returning (callers, calls).
fn call_stats(app: &specfaas_workflow::AppSpec) -> (usize, usize) {
    let mut callers = 0;
    let mut calls = 0;
    for (_, spec) in app.registry.iter() {
        let mut n = 0;
        spec.program.visit(&mut |s| {
            if matches!(s, Stmt::Call { .. }) {
                n += 1;
            }
        });
        if n > 0 {
            callers += 1;
            calls += n;
        }
    }
    (callers, calls)
}

/// Characterizes one suite (runs every app once, warm, for timing).
pub fn characterize_suite(suite: &Suite, seed: u64) -> SuiteCharacterization {
    let implicit = suite.apps.iter().all(|a| a.app.is_implicit());
    let n = suite.apps.len();
    let mut fns = 0usize;
    let mut branches = 0usize;
    let mut data_deps = 0usize;
    let mut callers = 0usize;
    let mut calls = 0usize;
    let mut max_depth = 0usize;
    let mut exec_ms = 0.0f64;

    for bundle in &suite.apps {
        fns += bundle.app.registry.len();
        branches += bundle.app.workflow.branch_count();
        max_depth = max_depth.max(if implicit {
            // For implicit workflows depth = call-tree depth; derive from
            // static call edges (registry order guarantees leaves first).
            implicit_depth(&bundle.app)
        } else {
            bundle.app.workflow.max_depth()
        });
        let (c, k) = call_stats(&bundle.app);
        callers += c;
        calls += k;
        // Data dependences: payload-carrying workflow transitions plus
        // cross-function storage producer→consumer pairs.
        data_deps += payload_deps(&bundle.app) + storage_deps(&bundle.app);

        // Warm single-request timing on the baseline.
        let mut engine = BaselineEngine::new(bundle.app.clone(), seed);
        engine.prewarm();
        let mut rng = SimRng::seed(seed ^ 0x5eed);
        (bundle.seed)(&mut engine.kv, &mut rng);
        // One throwaway to settle caches, then measure.
        engine.run_single((bundle.make_input)(&mut rng));
        let d = engine.run_single((bundle.make_input)(&mut rng));
        exec_ms += d.as_millis_f64();
    }

    SuiteCharacterization {
        suite: suite.name.to_owned(),
        workflow_type: if implicit { "Implicit" } else { "Explicit" }.to_owned(),
        applications: n,
        avg_functions: fns as f64 / n as f64,
        avg_branches: (!implicit).then(|| branches as f64 / n as f64),
        avg_data_deps: data_deps as f64 / n as f64,
        avg_callees_per_caller: (callers > 0).then(|| calls as f64 / callers as f64),
        max_dag_depth: max_depth,
        avg_exec_time_ms: exec_ms / n as f64,
    }
}

/// Payload-carrying (sequence) transitions in the compiled workflow.
fn payload_deps(app: &specfaas_workflow::AppSpec) -> usize {
    app.compiled
        .entries
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                specfaas_workflow::EntryKind::Simple { next: Some(_) }
            )
        })
        .count()
}

/// Cross-function storage dependences: functions that write keys with a
/// prefix some other function reads.
fn storage_deps(app: &specfaas_workflow::AppSpec) -> usize {
    let effects: Vec<SideEffects> = app
        .registry
        .iter()
        .map(|(_, s)| SideEffects::of(&s.program))
        .collect();
    let writers = effects.iter().filter(|e| e.writes_global).count();
    let readers = effects.iter().filter(|e| e.reads_global).count();
    writers.min(readers)
}

/// Depth of the static call tree of an implicit app.
fn implicit_depth(app: &specfaas_workflow::AppSpec) -> usize {
    fn depth_of(
        app: &specfaas_workflow::AppSpec,
        func: specfaas_workflow::FuncId,
        seen: &mut Vec<specfaas_workflow::FuncId>,
    ) -> usize {
        if seen.contains(&func) {
            return 1;
        }
        seen.push(func);
        let mut callees = Vec::new();
        app.registry.spec(func).program.visit(&mut |s| {
            if let Stmt::Call { func: name, .. } = s {
                if let Some(id) = app.registry.lookup(name) {
                    callees.push(id);
                }
            }
        });
        let d = 1 + callees
            .into_iter()
            .map(|c| depth_of(app, c, seen))
            .max()
            .unwrap_or(0);
        seen.pop();
        d
    }
    let root = app.registry.lookup(match &app.workflow {
        specfaas_workflow::Workflow::Task(n) => n.as_str(),
        _ => return app.workflow.max_depth(),
    });
    match root {
        Some(r) => depth_of(app, r, &mut Vec::new()),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::all_suites;

    fn by_name<'a>(suites: &'a [crate::Suite], name: &str) -> &'a crate::Suite {
        suites
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("suite {name} not registered"))
    }

    #[test]
    fn characterization_matches_paper_bands() {
        let suites = all_suites();
        let faaschain = characterize_suite(by_name(&suites, "FaaSChain"), 1);
        assert_eq!(faaschain.workflow_type, "Explicit");
        assert_eq!(faaschain.applications, 6);
        assert!((6.5..=9.0).contains(&faaschain.avg_functions));
        assert!(faaschain.avg_branches.unwrap() >= 2.0);
        assert!(faaschain.avg_callees_per_caller.is_none());
        assert!(faaschain.max_dag_depth >= 8);
        // Paper: 160ms average warm execution.
        assert!(
            (80.0..=320.0).contains(&faaschain.avg_exec_time_ms),
            "FaaSChain exec {}ms",
            faaschain.avg_exec_time_ms
        );

        let tt = characterize_suite(by_name(&suites, "TrainTicket"), 1);
        assert_eq!(tt.workflow_type, "Implicit");
        assert!((10.0..=13.0).contains(&tt.avg_functions));
        assert!(tt.avg_callees_per_caller.unwrap() >= 2.0);
        assert_eq!(tt.max_dag_depth, 3);
        // Paper: 268.8ms.
        assert!(
            (130.0..=520.0).contains(&tt.avg_exec_time_ms),
            "TrainTicket exec {}ms",
            tt.avg_exec_time_ms
        );

        let ali = characterize_suite(by_name(&suites, "Alibaba"), 1);
        assert!((14.0..=22.0).contains(&ali.avg_functions));
        assert!(ali.max_dag_depth >= 4, "depth {}", ali.max_dag_depth);
        // Paper: 387.2ms.
        assert!(
            (200.0..=700.0).contains(&ali.avg_exec_time_ms),
            "Alibaba exec {}ms",
            ali.avg_exec_time_ms
        );
    }

    #[test]
    fn dag_suite_characterization_is_wide_and_explicit() {
        let suites = all_suites();
        let dag = characterize_suite(by_name(&suites, "DAG"), 1);
        assert_eq!(dag.workflow_type, "Explicit");
        assert_eq!(dag.applications, 3);
        // 11 + 11 + 12 functions across the three DAG apps.
        assert!(
            (10.0..=13.0).contains(&dag.avg_functions),
            "avg functions {}",
            dag.avg_functions
        );
        assert!(
            dag.avg_branches.is_some(),
            "explicit suite reports branches"
        );
        assert!(dag.avg_callees_per_caller.is_none());
        assert!(
            dag.avg_data_deps >= 4.0,
            "wide fan-outs carry many data deps, got {}",
            dag.avg_data_deps
        );
        assert!(
            dag.avg_exec_time_ms > 20.0,
            "DAG exec {}ms suspiciously fast",
            dag.avg_exec_time_ms
        );
    }
}
