//! Property tests over the program interpreter: randomly generated
//! programs must never panic, always terminate (loop bounds), and be
//! deterministic for a given input and storage state; and every generated
//! expression must evaluate exactly as a deep-copying reference evaluator
//! does.
//!
//! The generators are driven by the repo's own seeded `SimRng` (the
//! offline build environment cannot fetch `proptest`), so every case is
//! reproducible from the loop seed printed in an assertion message.

use specfaas_sim::hash::FxHashMap;
use specfaas_sim::SimRng;
use specfaas_storage::Value;
use specfaas_workflow::expr::*;
use specfaas_workflow::{Effect, Expr, Interp, ProgError, Program, Stmt};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const CASES: u64 = 200;

/// Field names of generated map documents; `field` projects one of them
/// or the absent `"z"`.
const FIELDS: [&str; 4] = ["a", "b", "c", "z"];

fn arb_str(rng: &mut SimRng) -> String {
    let len = rng.uniform_range(1, 4) as usize;
    (0..len)
        .map(|_| (b'a' + rng.uniform_u64(26) as u8) as char)
        .collect()
}

/// A random document: scalars at the leaves, lists and maps (over
/// `FIELDS[..3]`) inside.
fn arb_doc(rng: &mut SimRng, depth: u32) -> Value {
    match rng.uniform_u64(if depth == 0 { 4 } else { 7 }) {
        0 => Value::Int(rng.uniform_range(0, 7) as i64 - 3),
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::str(arb_str(rng)),
        3 => Value::Null,
        4 => Value::from(
            (0..rng.uniform_u64(4))
                .map(|_| arb_doc(rng, depth - 1))
                .collect::<Vec<Value>>(),
        ),
        _ => {
            let mut m = Value::map::<&str, 0>([]);
            for f in &FIELDS[..3] {
                if rng.chance(0.7) {
                    m.set_field(*f, arb_doc(rng, depth - 1));
                }
            }
            m
        }
    }
}

/// A small generator of well-formed expressions over known variables.
fn arb_expr(rng: &mut SimRng, depth: u32) -> Expr {
    let leaf = depth == 0 || rng.chance(0.35);
    if leaf {
        return match rng.uniform_u64(6) {
            0 => lit(rng.uniform_range(0, 1 << 32) as i64 - (1 << 31)),
            1 => lit(Value::Bool(rng.chance(0.5))),
            2 => lit(Value::str(arb_str(rng))),
            3 => input(),
            4 => lit(arb_doc(rng, 2)),
            _ => var("x"), // bound by the program prologue
        };
    }
    let a = arb_expr(rng, depth - 1);
    let b = arb_expr(rng, depth - 1);
    match rng.uniform_u64(18) {
        0 => add(a, b),
        1 => sub(a, b),
        2 => mul(a, b),
        3 => div(a, b),
        4 => eq(a, b),
        5 => lt(a, b),
        6 => and(a, b),
        7 => not(a),
        8 => hash_of(a),
        9 => field(a, FIELDS[rng.uniform_u64(4) as usize]),
        10 => index(a, lit(rng.uniform_range(0, 7) as i64 - 3)),
        11 => index(a, b),
        12 => concat([a, b, arb_expr(rng, depth - 1)]),
        13 => make_map([("a", a), ("b", b)]),
        14 => make_list([a, b]),
        15 => len(a),
        16 => or(a, b),
        _ => {
            if rng.chance(0.5) {
                ne(a, b)
            } else {
                let c = arb_expr(rng, depth - 1);
                if_else(c, a, b)
            }
        }
    }
}

fn arb_leaf_stmt(rng: &mut SimRng) -> Stmt {
    if rng.chance(0.5) {
        Stmt::Compute(specfaas_workflow::DurationSpec::millis(
            rng.uniform_range(1, 4),
        ))
    } else {
        Stmt::Let {
            var: "x".into(),
            expr: arb_expr(rng, 1),
        }
    }
}

fn arb_leaf_block(rng: &mut SimRng) -> Vec<Stmt> {
    (0..rng.uniform_u64(3))
        .map(|_| arb_leaf_stmt(rng))
        .collect()
}

/// Well-formed statements (variables referenced are always bound).
fn arb_stmt(rng: &mut SimRng) -> Stmt {
    match rng.uniform_u64(7) {
        0 => Stmt::Compute(specfaas_workflow::DurationSpec::millis(
            rng.uniform_range(1, 19),
        )),
        1 => Stmt::Let {
            var: "x".into(),
            expr: arb_expr(rng, 2),
        },
        2 => Stmt::Get {
            key: concat([lit("key:"), hash_of(arb_expr(rng, 2))]),
            var: "x".into(),
        },
        3 => Stmt::Set {
            key: concat([lit("key:"), hash_of(arb_expr(rng, 2))]),
            value: arb_expr(rng, 2),
        },
        4 => Stmt::FileWrite {
            name: concat([lit("f"), hash_of(arb_expr(rng, 2))]),
            data: arb_expr(rng, 2),
        },
        5 => Stmt::While {
            cond: arb_expr(rng, 1),
            body: Arc::new(arb_leaf_block(rng)),
            max_iters: 4,
        },
        _ => Stmt::If {
            cond: arb_expr(rng, 1),
            then: Arc::new(arb_leaf_block(rng)),
            els: Arc::new(arb_leaf_block(rng)),
        },
    }
}

fn arb_program(rng: &mut SimRng) -> Program {
    let mut stmts: Vec<Stmt> = (0..rng.uniform_u64(8)).map(|_| arb_stmt(rng)).collect();
    // Prologue binds `x`; epilogue returns it.
    stmts.insert(
        0,
        Stmt::Let {
            var: "x".into(),
            expr: lit(0i64),
        },
    );
    stmts.push(Stmt::Return(var("x")));
    Program::new(stmts)
}

fn run_program(p: &Program, input: Value, seed: u64) -> Result<Value, String> {
    let mut storage: FxHashMap<String, Value> = FxHashMap::default();
    let mut rng = SimRng::seed(seed);
    Interp::run_functional(
        p,
        input,
        &mut storage,
        &mut |_, _, _, _| Ok(Value::Null),
        &mut rng,
    )
    .map_err(|e| e.to_string())
}

/// Random programs never panic and always terminate (errors are fine;
/// hangs and panics are not).
#[test]
fn interpreter_total_on_random_programs() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0xF00D + case);
        let p = arb_program(&mut rng);
        let v = rng.uniform_range(0, 1 << 40) as i64 - (1 << 39);
        let _ = run_program(&p, Value::Int(v), 1);
    }
}

/// Program outputs are deterministic in (program, input), regardless of
/// the timing-jitter seed.
#[test]
fn interpreter_deterministic() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0xBEEF + case);
        let p = arb_program(&mut rng);
        let v = rng.uniform_range(0, 1 << 40) as i64 - (1 << 39);
        let a = run_program(&p, Value::Int(v), 1);
        let b = run_program(&p, Value::Int(v), 999);
        assert_eq!(a, b, "case {case}: outputs diverged across jitter seeds");
    }
}

/// Step counts are bounded: with loop bounds of 4 and ≤8 top-level
/// statements, no program runs forever.
#[test]
fn interpreter_bounded_steps() {
    'cases: for case in 0..CASES {
        let mut gen = SimRng::seed(0xCAFE + case);
        let p = arb_program(&mut gen);
        let mut interp = Interp::new(&p, Value::Int(1));
        let mut rng = SimRng::seed(3);
        let mut resume: Option<Value> = None;
        for _ in 0..10_000 {
            match interp.step(resume.take(), &mut rng) {
                Ok(Effect::Done(_)) | Err(_) => continue 'cases,
                Ok(Effect::Get { .. }) | Ok(Effect::FileRead { .. }) | Ok(Effect::Call { .. }) => {
                    resume = Some(Value::Null);
                }
                Ok(_) => {}
            }
        }
        panic!("case {case}: program did not terminate within 10k steps");
    }
}

// ---------------------------------------------------------------------------
// Reference evaluator: the deep-copying `Expr::eval` the borrowing evaluator
// replaced. Every value it returns is built afresh, sharing nothing with the
// input, the environment or the expression's literals.
// ---------------------------------------------------------------------------

fn deep_copy(v: &Value) -> Value {
    match v {
        Value::Str(s) => Value::str(s.as_str()),
        Value::List(l) => Value::from(l.iter().map(deep_copy).collect::<Vec<Value>>()),
        Value::Map(m) => ref_map(m.iter().map(|(k, v)| (k.clone(), deep_copy(v))).collect()),
        scalar => scalar.clone(),
    }
}

fn ref_map(m: BTreeMap<String, Value>) -> Value {
    let mut out = Value::map::<&str, 0>([]);
    for (k, v) in m {
        out.set_field(k, v);
    }
    out
}

fn ref_stable_hash(v: &Value) -> i64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
        }
    }
    let mut h = Fnv(0xcbf29ce484222325);
    v.hash(&mut h);
    (h.finish() & 0x7fff_ffff_ffff_ffff) as i64
}

fn ref_display_for_concat(v: &Value) -> String {
    match v {
        Value::Str(s) => s.to_string(),
        other => other.to_string(),
    }
}

fn ref_eval(e: &Expr, input: &Value, env: &FxHashMap<String, Value>) -> Result<Value, ProgError> {
    match e {
        Expr::Lit(v) => Ok(deep_copy(v)),
        Expr::Input => Ok(deep_copy(input)),
        Expr::Var(name) => env
            .get(name)
            .map(deep_copy)
            .ok_or_else(|| ProgError::UnknownVar(name.clone())),
        Expr::Field(e, f) => {
            let v = ref_eval(e, input, env)?;
            Ok(v.get_field(f).map(deep_copy).unwrap_or(Value::Null))
        }
        Expr::Index(e, i) => {
            let list = ref_eval(e, input, env)?;
            let idx = ref_eval(i, input, env)?;
            let items = list
                .as_list()
                .ok_or_else(|| ProgError::TypeError("index on non-list".into()))?;
            let raw = idx
                .as_int()
                .ok_or_else(|| ProgError::TypeError("non-integer index".into()))?;
            let n = items.len() as i64;
            let pos = if raw < 0 { raw + n } else { raw };
            if pos < 0 || pos >= n {
                return Ok(Value::Null);
            }
            Ok(deep_copy(&items[pos as usize]))
        }
        Expr::Bin(op, a, b) => {
            match op {
                BinOp::And => {
                    let av = ref_eval(a, input, env)?;
                    if !av.truthy() {
                        return Ok(Value::Bool(false));
                    }
                    return Ok(Value::Bool(ref_eval(b, input, env)?.truthy()));
                }
                BinOp::Or => {
                    let av = ref_eval(a, input, env)?;
                    if av.truthy() {
                        return Ok(Value::Bool(true));
                    }
                    return Ok(Value::Bool(ref_eval(b, input, env)?.truthy()));
                }
                _ => {}
            }
            let av = ref_eval(a, input, env)?;
            let bv = ref_eval(b, input, env)?;
            ref_binop(*op, &av, &bv)
        }
        Expr::Not(e) => Ok(Value::Bool(!ref_eval(e, input, env)?.truthy())),
        Expr::Concat(parts) => {
            let mut s = String::new();
            for p in parts {
                s.push_str(&ref_display_for_concat(&ref_eval(p, input, env)?));
            }
            Ok(Value::str(s))
        }
        Expr::MakeMap(entries) => {
            let mut m = BTreeMap::new();
            for (k, e) in entries {
                m.insert(k.clone(), ref_eval(e, input, env)?);
            }
            Ok(ref_map(m))
        }
        Expr::MakeList(items) => {
            let mut l = Vec::with_capacity(items.len());
            for e in items {
                l.push(ref_eval(e, input, env)?);
            }
            Ok(Value::from(l))
        }
        Expr::HashOf(e) => Ok(Value::Int(ref_stable_hash(&ref_eval(e, input, env)?))),
        Expr::Len(e) => {
            let v = ref_eval(e, input, env)?;
            let n = match &v {
                Value::Str(s) => s.len(),
                Value::List(l) => l.len(),
                Value::Map(m) => m.len(),
                _ => return Err(ProgError::TypeError("len on scalar".into())),
            };
            Ok(Value::Int(n as i64))
        }
        Expr::IfElse(c, a, b) => {
            if ref_eval(c, input, env)?.truthy() {
                ref_eval(a, input, env)
            } else {
                ref_eval(b, input, env)
            }
        }
    }
}

fn ref_binop(op: BinOp, a: &Value, b: &Value) -> Result<Value, ProgError> {
    use BinOp::*;
    match op {
        Eq => return Ok(Value::Bool(a == b)),
        Ne => return Ok(Value::Bool(a != b)),
        _ => {}
    }
    if op == Add {
        if let (Value::Str(x), Value::Str(y)) = (a, b) {
            return Ok(Value::str(format!("{x}{y}")));
        }
    }
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return match op {
            Add => Ok(Value::Int(x.wrapping_add(*y))),
            Sub => Ok(Value::Int(x.wrapping_sub(*y))),
            Mul => Ok(Value::Int(x.wrapping_mul(*y))),
            Div => {
                if *y == 0 {
                    Err(ProgError::DivisionByZero)
                } else {
                    Ok(Value::Int(x / y))
                }
            }
            Mod => {
                if *y == 0 {
                    Err(ProgError::DivisionByZero)
                } else {
                    Ok(Value::Int(x.rem_euclid(*y)))
                }
            }
            Lt => Ok(Value::Bool(x < y)),
            Le => Ok(Value::Bool(x <= y)),
            Gt => Ok(Value::Bool(x > y)),
            Ge => Ok(Value::Bool(x >= y)),
            Eq | Ne | And | Or => unreachable!("handled above"),
        };
    }
    let (x, y) = match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(ProgError::TypeError(format!(
                "binary {op:?} on non-numeric operands {a} and {b}"
            )))
        }
    };
    match op {
        Add => Ok(Value::Float(x + y)),
        Sub => Ok(Value::Float(x - y)),
        Mul => Ok(Value::Float(x * y)),
        Div => {
            if y == 0.0 {
                Err(ProgError::DivisionByZero)
            } else {
                Ok(Value::Float(x / y))
            }
        }
        Mod => {
            if y == 0.0 {
                Err(ProgError::DivisionByZero)
            } else {
                Ok(Value::Float(x.rem_euclid(y)))
            }
        }
        Lt => Ok(Value::Bool(x < y)),
        Le => Ok(Value::Bool(x <= y)),
        Gt => Ok(Value::Bool(x > y)),
        Ge => Ok(Value::Bool(x >= y)),
        Eq | Ne | And | Or => unreachable!("handled above"),
    }
}

/// Every generated expression evaluates, over map, list and scalar inputs
/// and a document-valued `x`, to exactly the reference's value or error.
/// Results compare by `Debug` rendering, which also tells `0.0` from
/// `-0.0` and matches a NaN with itself.
#[test]
fn eval_matches_deep_copying_reference() {
    let mut errors = 0;
    for case in 0..CASES * 20 {
        let mut rng = SimRng::seed(0xE7A1 + case);
        let input = arb_doc(&mut rng, 3);
        let mut env = FxHashMap::default();
        env.insert("x".to_string(), arb_doc(&mut rng, 3));
        let e = arb_expr(&mut rng, 4);
        let operands = format!("{input:?} {:?} {e:?}", env["x"]);
        let got = e.eval(&input, &env);
        let want = ref_eval(&e, &input, &env);
        errors += want.is_err() as u32;
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "case {case}: {e:?} on input {input:?}, x = {:?}",
            env["x"]
        );
        // Writing into the result leaves the documents it came from as
        // they were.
        if let Ok(mut v @ Value::Map(_)) = got {
            v.set_field("a", Value::str("written"));
            assert_eq!(format!("{input:?} {:?} {e:?}", env["x"]), operands);
        }
    }
    // The generator reaches both outcomes.
    assert!(
        errors > 0 && errors < (CASES * 20) as u32,
        "{errors} errors"
    );
}
