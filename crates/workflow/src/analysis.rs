//! Static side-effect analysis of function programs.
//!
//! Reproduces the paper's characterization methodology:
//!
//! * **Observation 3** — the fraction of functions that never read writable
//!   global state, and the fraction that never write global state.
//! * **Observation 5** — functions have only three side-effect classes:
//!   global-storage writes, temporary-local-file writes, and HTTP requests.
//!
//! The SpecFaaS controller also uses the pure-function classification to
//! honour the `pure-function` annotation safely.

use crate::function::{FunctionRegistry, FunctionSpec};
use crate::program::{Program, Stmt};

/// The side-effect profile of one function program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SideEffects {
    /// Reads global storage (`Get`).
    pub reads_global: bool,
    /// Writes global storage (`Set`).
    pub writes_global: bool,
    /// Writes temporary local files (`FileWrite`).
    pub writes_local_files: bool,
    /// Issues HTTP requests (`Http`).
    pub http_requests: bool,
    /// Calls other functions (`Call`).
    pub calls_functions: bool,
}

impl SideEffects {
    /// Analyzes one program.
    pub fn of(program: &Program) -> SideEffects {
        let mut fx = SideEffects::default();
        program.visit(&mut |s: &Stmt| match s {
            Stmt::Get { .. } => fx.reads_global = true,
            Stmt::Set { .. } => fx.writes_global = true,
            Stmt::FileWrite { .. } => fx.writes_local_files = true,
            Stmt::Http { .. } => fx.http_requests = true,
            Stmt::Call { .. } => fx.calls_functions = true,
            _ => {}
        });
        fx
    }

    /// Pure in the paper's sense (§V-B): no global reads or writes, and no
    /// externally visible effects — inputs fully determine outputs.
    /// (Temporary local files are discarded at handler exit, so they do not
    /// break purity.)
    pub fn is_pure(&self) -> bool {
        !self.reads_global && !self.writes_global && !self.http_requests && !self.calls_functions
    }

    /// Has *any* side effect visible outside the handler process
    /// (Observation 5's "has side-effects" bucket).
    pub fn has_side_effects(&self) -> bool {
        self.writes_global || self.writes_local_files || self.http_requests
    }
}

/// Aggregate side-effect statistics over a registry of functions — the
/// percentages quoted in Observations 3 and 5.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegistryProfile {
    /// Number of functions analyzed.
    pub functions: usize,
    /// Fraction that never read global state.
    pub no_global_read_fraction: f64,
    /// Fraction that never write global state.
    pub no_global_write_fraction: f64,
    /// Fraction with no side effects at all.
    pub side_effect_free_fraction: f64,
    /// Fraction that are pure (memoization may skip them).
    pub pure_fraction: f64,
}

impl RegistryProfile {
    /// Profiles every function in a registry.
    pub fn of(registry: &FunctionRegistry) -> RegistryProfile {
        let specs: Vec<&FunctionSpec> = registry.iter().map(|(_, s)| s).collect();
        let n = specs.len();
        if n == 0 {
            return RegistryProfile::default();
        }
        let effects: Vec<SideEffects> = specs.iter().map(|s| SideEffects::of(&s.program)).collect();
        let frac = |pred: &dyn Fn(&SideEffects) -> bool| {
            effects.iter().filter(|e| pred(e)).count() as f64 / n as f64
        };
        RegistryProfile {
            functions: n,
            no_global_read_fraction: frac(&|e| !e.reads_global),
            no_global_write_fraction: frac(&|e| !e.writes_global),
            side_effect_free_fraction: frac(&|e| !e.has_side_effects()),
            pure_fraction: frac(&SideEffects::is_pure),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::lit;
    use crate::function::FunctionSpec;

    #[test]
    fn pure_program_detected() {
        let p = Program::builder().compute_ms(1).ret(lit(1i64));
        let fx = SideEffects::of(&p);
        assert!(fx.is_pure());
        assert!(!fx.has_side_effects());
    }

    #[test]
    fn global_write_breaks_purity() {
        let p = Program::builder().set(lit("k"), lit(1i64)).ret(lit(1i64));
        let fx = SideEffects::of(&p);
        assert!(!fx.is_pure());
        assert!(fx.has_side_effects());
        assert!(fx.writes_global);
    }

    #[test]
    fn local_files_are_side_effect_but_not_impure() {
        let p = Program::builder()
            .file_write(lit("tmp"), lit(1i64))
            .ret(lit(1i64));
        let fx = SideEffects::of(&p);
        assert!(fx.is_pure(), "temp files do not break purity");
        assert!(fx.has_side_effects());
    }

    #[test]
    fn nested_effects_found() {
        let p = Program::builder()
            .if_(lit(true), vec![Stmt::Http { url: lit("u") }], vec![])
            .build();
        assert!(SideEffects::of(&p).http_requests);
    }

    #[test]
    fn call_detected() {
        let p = Program::builder().call("f", lit(1i64), "r").ret(lit(1i64));
        let fx = SideEffects::of(&p);
        assert!(fx.calls_functions);
        assert!(!fx.is_pure());
    }

    #[test]
    fn registry_profile_fractions() {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "pure",
            Program::builder().compute_ms(1).ret(lit(1i64)),
        ));
        reg.register(FunctionSpec::new(
            "writer",
            Program::builder().set(lit("k"), lit(1i64)).ret(lit(1i64)),
        ));
        reg.register(FunctionSpec::new(
            "reader",
            Program::builder().get(lit("k"), "v").ret(lit(1i64)),
        ));
        reg.register(FunctionSpec::new(
            "rw",
            Program::builder()
                .get(lit("k"), "v")
                .set(lit("k"), lit(2i64))
                .ret(lit(1i64)),
        ));
        let prof = RegistryProfile::of(&reg);
        assert_eq!(prof.functions, 4);
        assert!((prof.no_global_read_fraction - 0.5).abs() < 1e-12);
        assert!((prof.no_global_write_fraction - 0.5).abs() < 1e-12);
        assert!((prof.side_effect_free_fraction - 0.5).abs() < 1e-12);
        assert!((prof.pure_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_registry_profile() {
        let prof = RegistryProfile::of(&FunctionRegistry::new());
        assert_eq!(prof.functions, 0);
        assert_eq!(prof.pure_fraction, 0.0);
    }
}
