//! The pure expression language used inside function programs.
//!
//! Expressions evaluate against a local variable environment plus the
//! function's input document. They have no side effects — all effects
//! (storage, calls, compute time) are statements ([`crate::program::Stmt`]).

use specfaas_sim::hash::FxHashMap;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

use specfaas_storage::Value;

use crate::interp::ProgError;

/// A binary operator in the expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Numeric addition (also string concatenation when both are strings).
    Add,
    /// Numeric subtraction.
    Sub,
    /// Numeric multiplication.
    Mul,
    /// Numeric division. Division by zero is a [`ProgError`].
    Div,
    /// Integer modulo. Modulo zero is a [`ProgError`].
    Mod,
    /// Structural equality.
    Eq,
    /// Structural inequality.
    Ne,
    /// Numeric less-than.
    Lt,
    /// Numeric less-or-equal.
    Le,
    /// Numeric greater-than.
    Gt,
    /// Numeric greater-or-equal.
    Ge,
    /// Short-circuiting logical and (on truthiness).
    And,
    /// Short-circuiting logical or (on truthiness).
    Or,
}

/// A pure expression.
///
/// Build expressions with the free constructor functions in this module
/// ([`lit`], [`var`], [`input`], [`field`], [`concat()`], …); they keep
/// application code readable:
///
/// ```
/// use specfaas_workflow::expr::{input, field, lit, gt};
/// use specfaas_storage::Value;
///
/// // input.amount > 100
/// let e = gt(field(input(), "amount"), lit(100i64));
/// let v = e.eval(&Value::map([("amount", Value::Int(250))]),
///                &Default::default()).unwrap();
/// assert_eq!(v, Value::Bool(true));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// The function's entire input document.
    Input,
    /// A local variable, set by `Let`/`Get`/`Call` statements.
    Var(String),
    /// Field projection on a map value.
    Field(Box<Expr>, String),
    /// List indexing (negative indices count from the end).
    Index(Box<Expr>, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation of truthiness.
    Not(Box<Expr>),
    /// String concatenation of the `Display` forms of the operands
    /// (strings render unquoted). Used heavily to build storage keys.
    Concat(Vec<Expr>),
    /// Construct a map.
    MakeMap(Vec<(String, Expr)>),
    /// Construct a list.
    MakeList(Vec<Expr>),
    /// Deterministic 64-bit hash of a value, as a non-negative `Int`.
    /// Stands in for arbitrary data transformations: it makes outputs
    /// depend on inputs in a way memoization must reproduce exactly.
    HashOf(Box<Expr>),
    /// Length of a list, map or string.
    Len(Box<Expr>),
    /// `cond ? a : b` on truthiness.
    IfElse(Box<Expr>, Box<Expr>, Box<Expr>),
}

/// Deterministic value hash (FNV-1a over the `Hash` impl via a stable
/// hasher) — stable across runs and platforms, unlike `DefaultHasher`.
fn stable_hash(v: &Value) -> i64 {
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

/// Appends `v` to `out` as `concat` renders it: strings unquoted,
/// everything else in its `Display` form.
fn push_for_concat(out: &mut String, v: &Value) {
    match v {
        Value::Str(s) => out.push_str(s),
        other => {
            write!(out, "{other}").expect("writing to a String cannot fail");
        }
    }
}

impl Expr {
    /// Evaluates the expression against `input` and local variables `env`.
    ///
    /// # Errors
    /// Returns [`ProgError`] on type mismatches, unknown variables,
    /// out-of-range indexing, or division by zero.
    pub fn eval(&self, input: &Value, env: &FxHashMap<String, Value>) -> Result<Value, ProgError> {
        self.eval_ref(input, env).map(Cow::into_owned)
    }

    /// Evaluates the expression like [`Expr::eval`], but borrows the
    /// result where it already exists: `Input`, `Var`, `Lit` and the
    /// `Field` and `Index` projections of a borrowed value return a
    /// reference into `input`, `env` or the expression itself. Operators
    /// that only read their operands (`HashOf`, `Len`, `Not`, the
    /// comparisons, conditions) never take ownership of them.
    ///
    /// # Errors
    /// As [`Expr::eval`].
    pub fn eval_ref<'a>(
        &'a self,
        input: &'a Value,
        env: &'a FxHashMap<String, Value>,
    ) -> Result<Cow<'a, Value>, ProgError> {
        Ok(match self {
            Expr::Lit(v) => Cow::Borrowed(v),
            Expr::Input => Cow::Borrowed(input),
            Expr::Var(name) => Cow::Borrowed(
                env.get(name)
                    .ok_or_else(|| ProgError::UnknownVar(name.clone()))?,
            ),
            Expr::Field(e, f) => match e.eval_ref(input, env)? {
                Cow::Borrowed(v) => Cow::Borrowed(v.get_field(f).unwrap_or(&Value::Null)),
                Cow::Owned(v) => Cow::Owned(v.get_field(f).cloned().unwrap_or(Value::Null)),
            },
            Expr::Index(e, i) => {
                let list = e.eval_ref(input, env)?;
                let idx = i.eval_ref(input, env)?;
                let items = list
                    .as_list()
                    .ok_or_else(|| ProgError::TypeError("index on non-list".into()))?;
                let raw = idx
                    .as_int()
                    .ok_or_else(|| ProgError::TypeError("non-integer index".into()))?;
                let n = items.len() as i64;
                let pos = if raw < 0 { raw + n } else { raw };
                if pos < 0 || pos >= n {
                    return Ok(Cow::Owned(Value::Null));
                }
                match list {
                    Cow::Borrowed(v) => {
                        Cow::Borrowed(&v.as_list().expect("checked above")[pos as usize])
                    }
                    Cow::Owned(_) => Cow::Owned(items[pos as usize].clone()),
                }
            }
            Expr::Bin(op, a, b) => {
                // Short-circuit logical operators first.
                let v = match op {
                    BinOp::And => {
                        a.eval_ref(input, env)?.truthy() && b.eval_ref(input, env)?.truthy()
                    }
                    BinOp::Or => {
                        a.eval_ref(input, env)?.truthy() || b.eval_ref(input, env)?.truthy()
                    }
                    _ => {
                        let av = a.eval_ref(input, env)?;
                        let bv = b.eval_ref(input, env)?;
                        return eval_binop(*op, &av, &bv).map(Cow::Owned);
                    }
                };
                Cow::Owned(Value::Bool(v))
            }
            Expr::Not(e) => Cow::Owned(Value::Bool(!e.eval_ref(input, env)?.truthy())),
            Expr::Concat(parts) => {
                let mut s = String::new();
                for p in parts {
                    push_for_concat(&mut s, &*p.eval_ref(input, env)?);
                }
                Cow::Owned(Value::str(s))
            }
            Expr::MakeMap(entries) => {
                let mut m = BTreeMap::new();
                for (k, e) in entries {
                    m.insert(k.clone(), e.eval(input, env)?);
                }
                Cow::Owned(Value::from(m))
            }
            Expr::MakeList(items) => {
                let mut l = Vec::with_capacity(items.len());
                for e in items {
                    l.push(e.eval(input, env)?);
                }
                Cow::Owned(Value::from(l))
            }
            Expr::HashOf(e) => Cow::Owned(Value::Int(stable_hash(&*e.eval_ref(input, env)?))),
            Expr::Len(e) => {
                let n = match &*e.eval_ref(input, env)? {
                    Value::Str(s) => s.len(),
                    Value::List(l) => l.len(),
                    Value::Map(m) => m.len(),
                    _ => return Err(ProgError::TypeError("len on scalar".into())),
                };
                Cow::Owned(Value::Int(n as i64))
            }
            Expr::IfElse(c, a, b) => {
                if c.eval_ref(input, env)?.truthy() {
                    a.eval_ref(input, env)?
                } else {
                    b.eval_ref(input, env)?
                }
            }
        })
    }
}

fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Result<Value, ProgError> {
    use BinOp::*;
    match op {
        Eq => return Ok(Value::Bool(a == b)),
        Ne => return Ok(Value::Bool(a != b)),
        _ => {}
    }
    // String + string concatenates.
    if op == Add {
        if let (Value::Str(x), Value::Str(y)) = (a, b) {
            let mut s = String::with_capacity(x.len() + y.len());
            s.push_str(x);
            s.push_str(y);
            return Ok(Value::str(s));
        }
    }
    // Integer-preserving arithmetic when both sides are Int.
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

// ---------------------------------------------------------------------------
// Free constructor helpers (the app-authoring API).
// ---------------------------------------------------------------------------

/// A literal value.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

/// The function's input document.
pub fn input() -> Expr {
    Expr::Input
}

/// A local variable reference.
pub fn var(name: impl Into<String>) -> Expr {
    Expr::Var(name.into())
}

/// Field projection: `base.field`.
pub fn field(base: Expr, name: impl Into<String>) -> Expr {
    Expr::Field(Box::new(base), name.into())
}

/// List indexing: `base[idx]`.
pub fn index(base: Expr, idx: Expr) -> Expr {
    Expr::Index(Box::new(base), Box::new(idx))
}

/// String concatenation of rendered operands.
pub fn concat<const N: usize>(parts: [Expr; N]) -> Expr {
    Expr::Concat(parts.into())
}

/// Map construction.
pub fn make_map<K: Into<String>, const N: usize>(entries: [(K, Expr); N]) -> Expr {
    Expr::MakeMap(entries.into_iter().map(|(k, e)| (k.into(), e)).collect())
}

/// List construction.
pub fn make_list<const N: usize>(items: [Expr; N]) -> Expr {
    Expr::MakeList(items.into())
}

/// Deterministic hash of a value.
pub fn hash_of(e: Expr) -> Expr {
    Expr::HashOf(Box::new(e))
}

/// Length of a string/list/map.
pub fn len(e: Expr) -> Expr {
    Expr::Len(Box::new(e))
}

/// Truthiness negation.
pub fn not(e: Expr) -> Expr {
    Expr::Not(Box::new(e))
}

/// Conditional expression.
pub fn if_else(c: Expr, a: Expr, b: Expr) -> Expr {
    Expr::IfElse(Box::new(c), Box::new(a), Box::new(b))
}

macro_rules! binop_fn {
    ($(#[$doc:meta] $name:ident => $op:ident),* $(,)?) => {
        $(
            #[$doc]
            pub fn $name(a: Expr, b: Expr) -> Expr {
                Expr::Bin(BinOp::$op, Box::new(a), Box::new(b))
            }
        )*
    };
}

binop_fn! {
    /// Addition (string concatenation for two strings).
    add => Add,
    /// Subtraction.
    sub => Sub,
    /// Multiplication.
    mul => Mul,
    /// Division.
    div => Div,
    /// Modulo.
    modulo => Mod,
    /// Structural equality.
    eq => Eq,
    /// Structural inequality.
    ne => Ne,
    /// Less-than.
    lt => Lt,
    /// Less-or-equal.
    le => Le,
    /// Greater-than.
    gt => Gt,
    /// Greater-or-equal.
    ge => Ge,
    /// Logical and.
    and => And,
    /// Logical or.
    or => Or,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(e: &Expr) -> Value {
        e.eval(&Value::Null, &FxHashMap::default()).unwrap()
    }

    #[test]
    fn arithmetic_int_preserving() {
        assert_eq!(ev(&add(lit(2i64), lit(3i64))), Value::Int(5));
        assert_eq!(ev(&mul(lit(2i64), lit(3i64))), Value::Int(6));
        assert_eq!(ev(&div(lit(7i64), lit(2i64))), Value::Int(3));
        assert_eq!(ev(&modulo(lit(-7i64), lit(3i64))), Value::Int(2));
    }

    #[test]
    fn arithmetic_float_promotion() {
        assert_eq!(ev(&add(lit(2i64), lit(0.5))), Value::Float(2.5));
        assert_eq!(ev(&div(lit(1.0), lit(4i64))), Value::Float(0.25));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = div(lit(1i64), lit(0i64));
        assert!(matches!(
            e.eval(&Value::Null, &FxHashMap::default()),
            Err(ProgError::DivisionByZero)
        ));
    }

    #[test]
    fn string_add_concatenates() {
        assert_eq!(ev(&add(lit("ab"), lit("cd"))), Value::str("abcd"));
    }

    #[test]
    fn comparisons() {
        assert_eq!(ev(&lt(lit(1i64), lit(2i64))), Value::Bool(true));
        assert_eq!(ev(&ge(lit(2.0), lit(2i64))), Value::Bool(true));
        assert_eq!(ev(&eq(lit("a"), lit("a"))), Value::Bool(true));
        assert_eq!(
            ev(&ne(lit(1i64), lit(1.0))),
            Value::Bool(true),
            "Int != Float structurally"
        );
    }

    #[test]
    fn short_circuit_and_or() {
        // The right side would error (unknown var) if evaluated.
        let e = and(lit(false), var("missing"));
        assert_eq!(ev(&e), Value::Bool(false));
        let e = or(lit(true), var("missing"));
        assert_eq!(ev(&e), Value::Bool(true));
    }

    #[test]
    fn field_access_returns_null_for_missing() {
        let doc = Value::map([("a", Value::Int(1))]);
        let env = FxHashMap::default();
        assert_eq!(field(input(), "a").eval(&doc, &env).unwrap(), Value::Int(1));
        assert_eq!(field(input(), "b").eval(&doc, &env).unwrap(), Value::Null);
    }

    #[test]
    fn indexing_with_negative_and_oob() {
        let l = lit(Value::list([
            Value::Int(10),
            Value::Int(20),
            Value::Int(30),
        ]));
        assert_eq!(ev(&index(l.clone(), lit(0i64))), Value::Int(10));
        assert_eq!(ev(&index(l.clone(), lit(-1i64))), Value::Int(30));
        assert_eq!(ev(&index(l, lit(99i64))), Value::Null);
    }

    #[test]
    fn concat_renders_strings_unquoted() {
        let e = concat([lit("user:"), lit(42i64)]);
        assert_eq!(ev(&e), Value::str("user:42"));
    }

    #[test]
    fn make_map_and_list() {
        let e = make_map([("k", lit(1i64))]);
        assert_eq!(ev(&e), Value::map([("k", Value::Int(1))]));
        let e = make_list([lit(1i64), lit(2i64)]);
        assert_eq!(ev(&e), Value::list([Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn hash_is_deterministic_and_input_sensitive() {
        let a = ev(&hash_of(lit("alpha")));
        let a2 = ev(&hash_of(lit("alpha")));
        let b = ev(&hash_of(lit("beta")));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert!(a.as_int().unwrap() >= 0);
    }

    #[test]
    fn len_and_not_and_ifelse() {
        assert_eq!(ev(&len(lit("abc"))), Value::Int(3));
        assert_eq!(ev(&not(lit(0i64))), Value::Bool(true));
        assert_eq!(ev(&if_else(lit(true), lit(1i64), lit(2i64))), Value::Int(1));
        assert_eq!(ev(&if_else(lit(0i64), lit(1i64), lit(2i64))), Value::Int(2));
    }

    #[test]
    fn unknown_var_errors() {
        assert!(matches!(
            var("nope").eval(&Value::Null, &FxHashMap::default()),
            Err(ProgError::UnknownVar(_))
        ));
    }

    #[test]
    fn type_errors_reported() {
        assert!(matches!(
            len(lit(3i64)).eval(&Value::Null, &FxHashMap::default()),
            Err(ProgError::TypeError(_))
        ));
        assert!(matches!(
            add(lit("s"), lit(1i64)).eval(&Value::Null, &FxHashMap::default()),
            Err(ProgError::TypeError(_))
        ));
    }
}
