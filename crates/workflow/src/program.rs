//! The statement language of function programs, and its builder.
//!
//! A [`Program`] is a list of statements. Effectful statements (compute,
//! storage access, calls, HTTP, files) suspend the interpreter and surface
//! an [`crate::interp::Effect`] to the platform, which charges simulated
//! time and resumes with any result.

use std::sync::Arc;

use specfaas_sim::{SimDuration, SimRng};

use crate::expr::Expr;

/// How long a compute segment takes.
#[derive(Debug, Clone, PartialEq)]
pub enum DurationSpec {
    /// Exactly this long, every invocation.
    Fixed(SimDuration),
    /// Normally distributed around `mean` with coefficient of variation
    /// `cv`, clamped to `[mean/4, mean*4]`. Jitter affects only *timing*,
    /// never data values, so memoization stays sound.
    Jittered {
        /// Mean duration.
        mean: SimDuration,
        /// Coefficient of variation (std-dev / mean).
        cv: f64,
    },
}

impl DurationSpec {
    /// Fixed duration in milliseconds.
    pub fn millis(ms: u64) -> DurationSpec {
        DurationSpec::Fixed(SimDuration::from_millis(ms))
    }

    /// Draws a concrete duration.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            DurationSpec::Fixed(d) => *d,
            DurationSpec::Jittered { mean, cv } => {
                let m = mean.as_micros() as f64;
                let us = rng.normal_clamped(m, m * cv, m / 4.0, m * 4.0);
                SimDuration::from_micros(us.round() as u64)
            }
        }
    }

    /// The mean duration (the fixed value, or the jitter mean).
    pub fn mean(&self) -> SimDuration {
        match self {
            DurationSpec::Fixed(d) => *d,
            DurationSpec::Jittered { mean, .. } => *mean,
        }
    }
}

/// A block of statements, shared so interpreter frames can point into the
/// program without cloning statement bodies.
pub type Block = Arc<Vec<Stmt>>;

/// One statement in a function program.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Burn CPU for the given duration.
    Compute(DurationSpec),
    /// Bind a local variable to the value of an expression.
    Let {
        /// Variable name.
        var: String,
        /// Pure expression to evaluate.
        expr: Expr,
    },
    /// Read `key` from global storage into `var` (`Value::Null` if absent).
    Get {
        /// Expression producing the storage key (rendered as a string).
        key: Expr,
        /// Variable receiving the value.
        var: String,
    },
    /// Write `value` to `key` in global storage.
    Set {
        /// Expression producing the storage key.
        key: Expr,
        /// Expression producing the value to store.
        value: Expr,
    },
    /// Call another function with `args`, binding its output to `var`.
    /// The caller blocks until the callee returns (paper §II-C).
    Call {
        /// Callee function name.
        func: String,
        /// Expression producing the callee input document.
        args: Expr,
        /// Variable receiving the callee output.
        var: String,
    },
    /// Issue an external HTTP request (a side effect that speculative
    /// functions must defer, paper §VI "Side-effect Handling").
    Http {
        /// Expression producing the request URL.
        url: Expr,
    },
    /// Write a temporary local file (copy-on-write under speculation).
    FileWrite {
        /// Expression producing the file name.
        name: Expr,
        /// Expression producing the data.
        data: Expr,
    },
    /// Read a temporary local file into `var` (`Value::Null` if absent).
    FileRead {
        /// Expression producing the file name.
        name: Expr,
        /// Variable receiving the contents.
        var: String,
    },
    /// Two-way branch.
    If {
        /// Condition (truthiness).
        cond: Expr,
        /// Then-block.
        then: Block,
        /// Else-block (possibly empty).
        els: Block,
    },
    /// Bounded loop; re-evaluates `cond` before each iteration and aborts
    /// with [`crate::interp::ProgError::LoopLimit`] after `max_iters`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Hard iteration bound (programs must terminate).
        max_iters: u32,
    },
    /// Finish the function with the given output document.
    Return(Expr),
}

/// A complete function program.
///
/// Falls off the end → returns `Value::Null`.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level statement block.
    pub body: Block,
}

impl Program {
    /// Creates a program from a statement list.
    pub fn new(body: Vec<Stmt>) -> Self {
        Program {
            body: Arc::new(body),
        }
    }

    /// Starts a fluent builder.
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder::new()
    }

    /// Walks all statements (including nested blocks), calling `f` on each.
    pub fn visit<F: FnMut(&Stmt)>(&self, f: &mut F) {
        fn walk<F: FnMut(&Stmt)>(block: &Block, f: &mut F) {
            for s in block.iter() {
                f(s);
                match s {
                    Stmt::If { then, els, .. } => {
                        walk(then, f);
                        walk(els, f);
                    }
                    Stmt::While { body, .. } => walk(body, f),
                    _ => {}
                }
            }
        }
        walk(&self.body, f);
    }

    /// Sum of the mean durations of all compute statements on the longest
    /// syntactic path (loops counted once). A rough static service-time
    /// estimate used by the characterization harness.
    pub fn static_compute_estimate(&self) -> SimDuration {
        fn est(block: &Block) -> SimDuration {
            let mut total = SimDuration::ZERO;
            for s in block.iter() {
                match s {
                    Stmt::Compute(d) => total += d.mean(),
                    Stmt::If { then, els, .. } => total += est(then).max(est(els)),
                    Stmt::While { body, .. } => total += est(body),
                    _ => {}
                }
            }
            total
        }
        est(&self.body)
    }
}

/// Fluent builder for [`Program`].
///
/// # Example
///
/// ```
/// use specfaas_workflow::{Program, DurationSpec};
/// use specfaas_workflow::expr::{input, field, lit, make_map, var, add};
///
/// let p = Program::builder()
///     .compute_ms(5)
///     .get(field(input(), "key"), "record")
///     .let_("total", add(field(var("record"), "count"), lit(1i64)))
///     .ret(make_map([("total", var("total"))]));
/// assert_eq!(p.body.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    stmts: Vec<Stmt>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Appends a raw statement.
    pub fn stmt(mut self, s: Stmt) -> Self {
        self.stmts.push(s);
        self
    }

    /// Compute for a fixed number of milliseconds.
    pub fn compute_ms(self, ms: u64) -> Self {
        self.stmt(Stmt::Compute(DurationSpec::millis(ms)))
    }

    /// Compute with jitter (mean milliseconds, coefficient of variation).
    pub fn compute_jitter_ms(self, mean_ms: u64, cv: f64) -> Self {
        self.stmt(Stmt::Compute(DurationSpec::Jittered {
            mean: SimDuration::from_millis(mean_ms),
            cv,
        }))
    }

    /// Bind a local variable.
    pub fn let_(self, var: impl Into<String>, expr: Expr) -> Self {
        self.stmt(Stmt::Let {
            var: var.into(),
            expr,
        })
    }

    /// Read global storage.
    pub fn get(self, key: Expr, var: impl Into<String>) -> Self {
        self.stmt(Stmt::Get {
            key,
            var: var.into(),
        })
    }

    /// Write global storage.
    pub fn set(self, key: Expr, value: Expr) -> Self {
        self.stmt(Stmt::Set { key, value })
    }

    /// Call another function.
    pub fn call(self, func: impl Into<String>, args: Expr, var: impl Into<String>) -> Self {
        self.stmt(Stmt::Call {
            func: func.into(),
            args,
            var: var.into(),
        })
    }

    /// Issue an HTTP request.
    pub fn http(self, url: Expr) -> Self {
        self.stmt(Stmt::Http { url })
    }

    /// Write a temporary local file.
    pub fn file_write(self, name: Expr, data: Expr) -> Self {
        self.stmt(Stmt::FileWrite { name, data })
    }

    /// Read a temporary local file.
    pub fn file_read(self, name: Expr, var: impl Into<String>) -> Self {
        self.stmt(Stmt::FileRead {
            name,
            var: var.into(),
        })
    }

    /// Branch on a condition.
    pub fn if_(self, cond: Expr, then: Vec<Stmt>, els: Vec<Stmt>) -> Self {
        self.stmt(Stmt::If {
            cond,
            then: Arc::new(then),
            els: Arc::new(els),
        })
    }

    /// Bounded while loop.
    pub fn while_(self, cond: Expr, body: Vec<Stmt>, max_iters: u32) -> Self {
        self.stmt(Stmt::While {
            cond,
            body: Arc::new(body),
            max_iters,
        })
    }

    /// Return an output document and finish the program.
    pub fn ret(self, expr: Expr) -> Program {
        self.stmt(Stmt::Return(expr)).build()
    }

    /// Finishes the program without an explicit return (output `Null`).
    pub fn build(self) -> Program {
        Program::new(self.stmts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::lit;

    #[test]
    fn duration_spec_fixed_and_mean() {
        let d = DurationSpec::millis(7);
        let mut rng = SimRng::seed(1);
        assert_eq!(d.sample(&mut rng), SimDuration::from_millis(7));
        assert_eq!(d.mean(), SimDuration::from_millis(7));
    }

    #[test]
    fn duration_spec_jitter_bounds() {
        let d = DurationSpec::Jittered {
            mean: SimDuration::from_millis(10),
            cv: 0.5,
        };
        let mut rng = SimRng::seed(2);
        for _ in 0..200 {
            let s = d.sample(&mut rng);
            assert!(s >= SimDuration::from_micros(2_500));
            assert!(s <= SimDuration::from_millis(40));
        }
        assert_eq!(d.mean(), SimDuration::from_millis(10));
    }

    #[test]
    fn builder_produces_expected_shape() {
        let p = Program::builder()
            .compute_ms(1)
            .set(lit("k"), lit(1i64))
            .ret(lit("done"));
        assert_eq!(p.body.len(), 3);
        assert!(matches!(p.body[2], Stmt::Return(_)));
    }

    #[test]
    fn visit_reaches_nested_statements() {
        let p = Program::builder()
            .if_(
                lit(true),
                vec![Stmt::Compute(DurationSpec::millis(1))],
                vec![Stmt::While {
                    cond: lit(false),
                    body: Arc::new(vec![Stmt::Compute(DurationSpec::millis(2))]),
                    max_iters: 3,
                }],
            )
            .build();
        let mut computes = 0;
        p.visit(&mut |s| {
            if matches!(s, Stmt::Compute(_)) {
                computes += 1;
            }
        });
        assert_eq!(computes, 2);
    }

    #[test]
    fn static_estimate_takes_max_branch() {
        let p = Program::builder()
            .compute_ms(5)
            .if_(
                lit(true),
                vec![Stmt::Compute(DurationSpec::millis(10))],
                vec![Stmt::Compute(DurationSpec::millis(30))],
            )
            .build();
        assert_eq!(p.static_compute_estimate(), SimDuration::from_millis(35));
    }
}
