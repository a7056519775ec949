//! The resumable program interpreter.
//!
//! A function instance executes by repeatedly calling [`Interp::step`]: the
//! interpreter evaluates pure statements immediately and suspends whenever
//! it reaches an effectful statement, returning an [`Effect`] to the
//! platform. The platform charges simulated time (compute segments, storage
//! latency, callee execution) and then resumes the interpreter with the
//! effect's result.
//!
//! This mirrors how the SpecFaaS prototype intercepts its runtime: storage
//! operations, function calls, HTTP requests and file syscalls all become
//! visible control points where the speculation machinery (Data Buffer,
//! side-effect deferral) can intervene.

use specfaas_sim::hash::FxHashMap;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use specfaas_sim::{SimDuration, SimRng};
use specfaas_storage::Value;

use crate::expr::Expr;
use crate::program::{Block, Program, Stmt};

/// An error raised while executing a function program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgError {
    /// Reference to a variable that was never bound.
    UnknownVar(String),
    /// Type mismatch in an expression.
    TypeError(String),
    /// Integer or float division by zero.
    DivisionByZero,
    /// A `While` loop exceeded its `max_iters` bound.
    LoopLimit,
    /// `step` was called after the program finished.
    AlreadyFinished,
    /// `step` expected a resume value (e.g. after a `Get`) but none was
    /// supplied, or one was supplied when not expected.
    ResumeMismatch,
}

impl fmt::Display for ProgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgError::UnknownVar(v) => write!(f, "unknown variable `{v}`"),
            ProgError::TypeError(msg) => write!(f, "type error: {msg}"),
            ProgError::DivisionByZero => write!(f, "division by zero"),
            ProgError::LoopLimit => write!(f, "loop iteration limit exceeded"),
            ProgError::AlreadyFinished => write!(f, "program already finished"),
            ProgError::ResumeMismatch => write!(f, "resume value mismatch"),
        }
    }
}

impl std::error::Error for ProgError {}

/// An effect surfaced by the interpreter; the platform decides how much
/// simulated time it costs and what value (if any) it produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Busy-compute for this long, then resume with no value.
    Compute(SimDuration),
    /// Read `key` from global storage; resume with the value.
    Get {
        /// Storage key.
        key: String,
    },
    /// Write `value` to `key`; resume with no value once acknowledged.
    Set {
        /// Storage key.
        key: String,
        /// Value to store.
        value: Value,
    },
    /// Call function `func` with `args`; resume with its output.
    Call {
        /// Callee name.
        func: String,
        /// Callee input document.
        args: Value,
    },
    /// External HTTP request; resume with no value when performed.
    Http {
        /// Request URL.
        url: String,
    },
    /// Write a temporary local file; resume with no value.
    FileWrite {
        /// File name.
        name: String,
        /// Data written.
        data: Value,
    },
    /// Read a temporary local file; resume with the contents.
    FileRead {
        /// File name.
        name: String,
    },
    /// The program finished with this output document.
    Done(Value),
}

/// What the interpreter is waiting for across a suspension.
#[derive(Debug, Clone, PartialEq)]
enum Pending {
    None,
    /// Resume value must be bound to this variable.
    BindVar(String),
    /// Resume is an acknowledgement with no value.
    Ack,
}

#[derive(Debug)]
enum FrameKind {
    /// Straight-line block (program body or an `If` arm).
    Linear,
    /// A `While` body; when the block ends, re-check the condition.
    Loop {
        cond: Expr,
        body: Block,
        remaining: u32,
    },
}

#[derive(Debug)]
struct Frame {
    block: Block,
    pc: usize,
    kind: FrameKind,
}

/// A resumable execution of one [`Program`] over one input document.
///
/// # Example
///
/// ```
/// use specfaas_workflow::{Interp, Program, Effect};
/// use specfaas_workflow::expr::{lit, var};
/// use specfaas_storage::Value;
/// use specfaas_sim::SimRng;
///
/// let p = Program::builder()
///     .get(lit("answer"), "a")
///     .ret(var("a"));
/// let mut interp = Interp::new(&p, Value::Null);
/// let mut rng = SimRng::seed(0);
///
/// // First step suspends on the storage read.
/// let eff = interp.step(None, &mut rng).unwrap();
/// assert_eq!(eff, Effect::Get { key: "answer".into() });
///
/// // The platform resolves the read and resumes.
/// let eff = interp.step(Some(Value::Int(42)), &mut rng).unwrap();
/// assert_eq!(eff, Effect::Done(Value::Int(42)));
/// ```
#[derive(Debug)]
pub struct Interp {
    input: Value,
    env: FxHashMap<String, Value>,
    frames: Vec<Frame>,
    pending: Pending,
    finished: bool,
    steps: u64,
}

impl Interp {
    /// Starts an execution of `program` on `input`.
    pub fn new(program: &Program, input: Value) -> Self {
        Interp {
            input,
            env: FxHashMap::default(),
            frames: vec![Frame {
                block: Arc::clone(&program.body),
                pc: 0,
                kind: FrameKind::Linear,
            }],
            pending: Pending::None,
            finished: false,
            steps: 0,
        }
    }

    /// The input document this execution was started with.
    pub fn input(&self) -> &Value {
        &self.input
    }

    /// Number of `step` calls so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// True once the program has produced [`Effect::Done`] or errored.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    fn eval(&self, e: &Expr) -> Result<Value, ProgError> {
        e.eval(&self.input, &self.env)
    }

    fn truthy(&self, e: &Expr) -> Result<bool, ProgError> {
        Ok(e.eval_ref(&self.input, &self.env)?.truthy())
    }

    /// Renders a key, URL or file name: a string as itself (taking over a
    /// freshly built one, such as a `concat` result), anything else in its
    /// `Display` form.
    fn key_string(&self, e: &Expr) -> Result<String, ProgError> {
        Ok(match e.eval_ref(&self.input, &self.env)? {
            Cow::Owned(Value::Str(s)) => Arc::unwrap_or_clone(s),
            v => match &*v {
                Value::Str(s) => String::clone(s),
                other => other.to_string(),
            },
        })
    }

    /// Advances execution until the next effect.
    ///
    /// `resume` carries the result of the previous effect: `Some(value)`
    /// after `Get`/`Call`/`FileRead`, `Some(Value::Null)` or `None` after
    /// acknowledged effects, and `None` on the very first call.
    ///
    /// # Errors
    /// Returns a [`ProgError`] if the program misbehaves (type error,
    /// loop-limit, resume protocol violation, stepping a finished
    /// execution). A platform treats this as a failed invocation.
    pub fn step(&mut self, resume: Option<Value>, rng: &mut SimRng) -> Result<Effect, ProgError> {
        if self.finished {
            return Err(ProgError::AlreadyFinished);
        }
        self.steps += 1;

        // Deliver the resume value.
        match std::mem::replace(&mut self.pending, Pending::None) {
            Pending::None => {
                if self.steps > 1 {
                    // Interior steps always follow an effect.
                    return Err(ProgError::ResumeMismatch);
                }
            }
            Pending::BindVar(var) => {
                let v = resume.ok_or(ProgError::ResumeMismatch)?;
                self.env.insert(var, v);
            }
            Pending::Ack => {
                // Value (if any) is ignored.
            }
        }

        loop {
            let Some(frame) = self.frames.last_mut() else {
                self.finished = true;
                return Ok(Effect::Done(Value::Null));
            };

            if frame.pc >= frame.block.len() {
                // Block exhausted: loop frames re-check their condition,
                // linear frames pop.
                let frame = self.frames.pop().expect("frame exists");
                if let FrameKind::Loop {
                    cond,
                    body,
                    remaining,
                } = frame.kind
                {
                    if self.truthy(&cond)? {
                        if remaining == 0 {
                            self.finished = true;
                            return Err(ProgError::LoopLimit);
                        }
                        self.frames.push(Frame {
                            block: Arc::clone(&body),
                            pc: 0,
                            kind: FrameKind::Loop {
                                cond,
                                body,
                                remaining: remaining - 1,
                            },
                        });
                    }
                }
                continue;
            }

            // Borrow the statement through a cheap Arc bump of the block
            // rather than deep-cloning the Stmt (strings + expression
            // trees) on every interpreter step — this runs several times
            // per simulated event.
            let block = Arc::clone(&frame.block);
            let pc = frame.pc;
            frame.pc += 1;

            match &block[pc] {
                Stmt::Compute(spec) => {
                    self.pending = Pending::Ack;
                    return Ok(Effect::Compute(spec.sample(rng)));
                }
                Stmt::Let { var, expr } => {
                    let v = self.eval(expr)?;
                    self.env.insert(var.clone(), v);
                }
                Stmt::Get { key, var } => {
                    let key = self.key_string(key)?;
                    self.pending = Pending::BindVar(var.clone());
                    return Ok(Effect::Get { key });
                }
                Stmt::Set { key, value } => {
                    let key = self.key_string(key)?;
                    let value = self.eval(value)?;
                    self.pending = Pending::Ack;
                    return Ok(Effect::Set { key, value });
                }
                Stmt::Call { func, args, var } => {
                    let args = self.eval(args)?;
                    self.pending = Pending::BindVar(var.clone());
                    return Ok(Effect::Call {
                        func: func.clone(),
                        args,
                    });
                }
                Stmt::Http { url } => {
                    let url = self.key_string(url)?;
                    self.pending = Pending::Ack;
                    return Ok(Effect::Http { url });
                }
                Stmt::FileWrite { name, data } => {
                    let name = self.key_string(name)?;
                    let data = self.eval(data)?;
                    self.pending = Pending::Ack;
                    return Ok(Effect::FileWrite { name, data });
                }
                Stmt::FileRead { name, var } => {
                    let name = self.key_string(name)?;
                    self.pending = Pending::BindVar(var.clone());
                    return Ok(Effect::FileRead { name });
                }
                Stmt::If { cond, then, els } => {
                    let block = if self.truthy(cond)? {
                        Arc::clone(then)
                    } else {
                        Arc::clone(els)
                    };
                    self.frames.push(Frame {
                        block,
                        pc: 0,
                        kind: FrameKind::Linear,
                    });
                }
                Stmt::While {
                    cond,
                    body,
                    max_iters,
                } => {
                    if self.truthy(cond)? {
                        if *max_iters == 0 {
                            self.finished = true;
                            return Err(ProgError::LoopLimit);
                        }
                        self.frames.push(Frame {
                            block: Arc::clone(body),
                            pc: 0,
                            kind: FrameKind::Loop {
                                cond: cond.clone(),
                                body: Arc::clone(body),
                                remaining: max_iters - 1,
                            },
                        });
                    }
                }
                Stmt::Return(expr) => {
                    let v = self.eval(expr)?;
                    self.finished = true;
                    return Ok(Effect::Done(v));
                }
            }
        }
    }

    /// Runs the program to completion against simple in-memory storage and
    /// a call resolver, returning the output.
    ///
    /// This is the *functional semantics* of a program, used by tests,
    /// static characterization, and the memoization validation logic —
    /// anywhere timing does not matter.
    ///
    /// `storage` maps keys to values; `files` is the temp-file namespace;
    /// `call` resolves nested function calls.
    ///
    /// # Errors
    /// Propagates any [`ProgError`] from execution.
    pub fn run_functional<C>(
        program: &Program,
        input: Value,
        storage: &mut FxHashMap<String, Value>,
        call: &mut C,
        rng: &mut SimRng,
    ) -> Result<Value, ProgError>
    where
        C: FnMut(
            &str,
            Value,
            &mut FxHashMap<String, Value>,
            &mut SimRng,
        ) -> Result<Value, ProgError>,
    {
        let mut files: FxHashMap<String, Value> = FxHashMap::default();
        let mut interp = Interp::new(program, input);
        let mut resume: Option<Value> = None;
        loop {
            match interp.step(resume.take(), rng)? {
                Effect::Compute(_) => {}
                Effect::Get { key } => {
                    resume = Some(storage.get(&key).cloned().unwrap_or(Value::Null));
                }
                Effect::Set { key, value } => {
                    storage.insert(key, value);
                }
                Effect::Call { func, args } => {
                    resume = Some(call(&func, args, storage, rng)?);
                }
                Effect::Http { .. } => {}
                Effect::FileWrite { name, data } => {
                    files.insert(name, data);
                }
                Effect::FileRead { name } => {
                    resume = Some(files.get(&name).cloned().unwrap_or(Value::Null));
                }
                Effect::Done(v) => return Ok(v),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::*;
    use crate::program::DurationSpec;

    fn rng() -> SimRng {
        SimRng::seed(99)
    }

    fn run(p: &Program, input: Value) -> Value {
        let mut storage = FxHashMap::default();
        Interp::run_functional(
            p,
            input,
            &mut storage,
            &mut |_, _, _, _| Ok(Value::Null),
            &mut rng(),
        )
        .unwrap()
    }

    #[test]
    fn straight_line_compute_and_return() {
        let p = Program::builder().compute_ms(3).ret(lit("ok"));
        let mut i = Interp::new(&p, Value::Null);
        let mut r = rng();
        assert_eq!(
            i.step(None, &mut r).unwrap(),
            Effect::Compute(SimDuration::from_millis(3))
        );
        assert_eq!(
            i.step(None, &mut r).unwrap(),
            Effect::Done(Value::str("ok"))
        );
        assert!(i.is_finished());
    }

    #[test]
    fn step_after_done_errors() {
        let p = Program::builder().ret(lit(1i64));
        let mut i = Interp::new(&p, Value::Null);
        let mut r = rng();
        i.step(None, &mut r).unwrap();
        assert_eq!(i.step(None, &mut r), Err(ProgError::AlreadyFinished));
    }

    #[test]
    fn get_suspends_and_binds() {
        let p = Program::builder()
            .get(concat([lit("user:"), field(input(), "id")]), "u")
            .ret(var("u"));
        let mut i = Interp::new(&p, Value::map([("id", Value::Int(7))]));
        let mut r = rng();
        assert_eq!(
            i.step(None, &mut r).unwrap(),
            Effect::Get {
                key: "user:7".into()
            }
        );
        assert_eq!(
            i.step(Some(Value::str("alice")), &mut r).unwrap(),
            Effect::Done(Value::str("alice"))
        );
    }

    #[test]
    fn missing_resume_value_is_protocol_error() {
        let p = Program::builder().get(lit("k"), "v").ret(var("v"));
        let mut i = Interp::new(&p, Value::Null);
        let mut r = rng();
        i.step(None, &mut r).unwrap();
        assert_eq!(i.step(None, &mut r), Err(ProgError::ResumeMismatch));
    }

    #[test]
    fn if_branches_on_data() {
        let p = Program::builder()
            .if_(
                gt(field(input(), "x"), lit(10i64)),
                vec![Stmt::Return(lit("big"))],
                vec![Stmt::Return(lit("small"))],
            )
            .build();
        assert_eq!(
            run(&p, Value::map([("x", Value::Int(50))])),
            Value::str("big")
        );
        assert_eq!(
            run(&p, Value::map([("x", Value::Int(5))])),
            Value::str("small")
        );
    }

    #[test]
    fn while_loop_accumulates() {
        // i = 0; total = 0; while i < 5 { total += i; i += 1 } return total
        let p = Program::builder()
            .let_("i", lit(0i64))
            .let_("total", lit(0i64))
            .while_(
                lt(var("i"), lit(5i64)),
                vec![
                    Stmt::Let {
                        var: "total".into(),
                        expr: add(var("total"), var("i")),
                    },
                    Stmt::Let {
                        var: "i".into(),
                        expr: add(var("i"), lit(1i64)),
                    },
                ],
                100,
            )
            .ret(var("total"));
        assert_eq!(run(&p, Value::Null), Value::Int(10));
    }

    #[test]
    fn while_loop_limit_enforced() {
        let p = Program::builder()
            .while_(lit(true), vec![], 3)
            .ret(lit(0i64));
        let mut storage = FxHashMap::default();
        let err = Interp::run_functional(
            &p,
            Value::Null,
            &mut storage,
            &mut |_, _, _, _| Ok(Value::Null),
            &mut rng(),
        )
        .unwrap_err();
        assert_eq!(err, ProgError::LoopLimit);
    }

    #[test]
    fn storage_set_then_get_roundtrip() {
        let p = Program::builder()
            .set(lit("k"), field(input(), "v"))
            .get(lit("k"), "back")
            .ret(var("back"));
        assert_eq!(run(&p, Value::map([("v", Value::Int(9))])), Value::Int(9));
    }

    #[test]
    fn files_are_private_scratch_space() {
        let p = Program::builder()
            .file_write(lit("tmp"), lit("data"))
            .file_read(lit("tmp"), "d")
            .file_read(lit("other"), "missing")
            .ret(make_list([var("d"), var("missing")]));
        assert_eq!(
            run(&p, Value::Null),
            Value::list([Value::str("data"), Value::Null])
        );
    }

    #[test]
    fn nested_calls_resolve_via_resolver() {
        let callee = Program::builder().ret(add(field(input(), "x"), lit(1i64)));
        let caller = Program::builder()
            .call("inc", make_map([("x", lit(41i64))]), "r")
            .ret(var("r"));
        let mut storage = FxHashMap::default();
        let out = Interp::run_functional(
            &caller,
            Value::Null,
            &mut storage,
            &mut |name, args, storage, rng| {
                assert_eq!(name, "inc");
                Interp::run_functional(
                    &callee,
                    args,
                    storage,
                    &mut |_, _, _, _| Ok(Value::Null),
                    rng,
                )
            },
            &mut rng(),
        )
        .unwrap();
        assert_eq!(out, Value::Int(42));
    }

    #[test]
    fn fallthrough_returns_null() {
        let p = Program::builder().compute_ms(1).build();
        assert_eq!(run(&p, Value::Null), Value::Null);
    }

    #[test]
    fn http_effect_surfaces_url() {
        let p = Program::builder()
            .http(concat([lit("https://api/"), field(input(), "ep")]))
            .ret(lit(true));
        let mut i = Interp::new(&p, Value::map([("ep", Value::str("pay"))]));
        let mut r = rng();
        assert_eq!(
            i.step(None, &mut r).unwrap(),
            Effect::Http {
                url: "https://api/pay".into()
            }
        );
        assert_eq!(
            i.step(None, &mut r).unwrap(),
            Effect::Done(Value::Bool(true))
        );
    }

    #[test]
    fn jittered_compute_varies_but_data_does_not() {
        let p = Program::builder()
            .compute_jitter_ms(10, 0.3)
            .ret(hash_of(field(input(), "seed")));
        let inp = Value::map([("seed", Value::Int(5))]);
        let a = run(&p, inp.clone());
        let b = run(&p, inp);
        assert_eq!(a, b, "output must be deterministic despite timing jitter");
    }

    #[test]
    fn deeply_nested_blocks() {
        let p = Program::builder()
            .if_(
                lit(true),
                vec![Stmt::If {
                    cond: lit(true),
                    then: Arc::new(vec![Stmt::If {
                        cond: lit(false),
                        then: Arc::new(vec![Stmt::Return(lit("wrong"))]),
                        els: Arc::new(vec![Stmt::Return(lit("right"))]),
                    }]),
                    els: Arc::new(vec![]),
                }],
                vec![],
            )
            .build();
        assert_eq!(run(&p, Value::Null), Value::str("right"));
    }

    #[test]
    fn duration_spec_zero_while_never_entered() {
        let p = Program::builder()
            .while_(lit(false), vec![Stmt::Compute(DurationSpec::millis(1))], 0)
            .ret(lit("skipped"));
        assert_eq!(run(&p, Value::Null), Value::str("skipped"));
    }
}
