//! The dynamically typed data model exchanged between serverless functions.
//!
//! Function inputs and outputs in FaaS platforms are JSON documents. The
//! memoization tables (paper §V-B) key on *exact input values*, so [`Value`]
//! implements `Hash`/`Eq` with canonical float bit patterns, making it
//! usable directly as a `HashMap` key.
//!
//! Documents are handed whole between functions, into memo rows and
//! through the Data Buffer, so a copy must be cheap: string, list and map
//! payloads sit behind an [`Arc`], a `clone` is a reference-count bump,
//! and [`Value::set_field`] copies a shared map on write. A document is
//! immutable once shared, so the sharing is invisible: equality, hashing
//! and rendering read the payload, never its address.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A JSON-like dynamically typed value.
///
/// # Example
///
/// ```
/// use specfaas_storage::Value;
///
/// let v = Value::map([
///     ("user", Value::str("alice")),
///     ("balance", Value::Int(100)),
/// ]);
/// assert_eq!(v.get_field("user").unwrap().as_str(), Some("alice"));
/// assert!(v.truthy());
/// ```
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// Absent / null.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. Compared by bit pattern with every `NaN` folded
    /// into one, so `NaN` equals `NaN` and `0.0` differs from `-0.0` (as
    /// their renderings do); hashed with `-0.0` folded into `0.0` as well.
    Float(f64),
    /// UTF-8 string.
    Str(Arc<String>),
    /// Ordered list.
    List(Arc<Vec<Value>>),
    /// String-keyed map with deterministic (sorted) iteration order.
    Map(Arc<BTreeMap<String, Value>>),
}

/// Structural equality on the payloads, floats by bit pattern with every
/// `NaN` folded into one, so it is reflexive (a true `Eq`) and a memo key
/// holding a `NaN` can hit. Written out because a derived one would
/// compare floats as `f64`.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => float_bits(*a) == float_bits(*b),
            (Value::Str(a), Value::Str(b)) => a.as_str() == b.as_str(),
            (Value::List(a), Value::List(b)) => a[..] == b[..],
            (Value::Map(a), Value::Map(b)) => **a == **b,
            _ => false,
        }
    }
}

impl Eq for Value {}

/// A float's bit pattern with every `NaN` folded into one: what
/// [`Value`] equality compares.
fn float_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

/// What [`Value`] hashes for a float: [`float_bits`] with `-0.0` folded
/// into `0.0` too, so equal floats hash equal.
fn canonical_bits(f: f64) -> u64 {
    if f == 0.0 {
        0
    } else {
        float_bits(f)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => canonical_bits(*f).hash(state),
            Value::Str(s) => s.as_str().hash(state),
            Value::List(l) => l[..].hash(state),
            Value::Map(m) => {
                for (k, v) in m.iter() {
                    k.hash(state);
                    v.hash(state);
                }
            }
        }
    }
}

impl Value {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Arc::new(s.into()))
    }

    /// Convenience constructor for a map value.
    pub fn map<K: Into<String>, const N: usize>(entries: [(K, Value); N]) -> Value {
        Value::Map(Arc::new(
            entries.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        ))
    }

    /// Convenience constructor for a list value.
    pub fn list<const N: usize>(items: [Value; N]) -> Value {
        Value::List(Arc::new(items.into()))
    }

    /// JavaScript-style truthiness, used by branch conditions (`when`
    /// directives branch on the condition function's output).
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0 && !f.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::List(l) => !l.is_empty(),
            Value::Map(m) => !m.is_empty(),
        }
    }

    /// Borrow as `bool` if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as `i64` if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Float` both convert; everything else is
    /// `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Borrow as `&str` if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a list if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Borrow as a map if this is a `Map`.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up `field` if this is a `Map`.
    pub fn get_field(&self, field: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(field))
    }

    /// Inserts `field` into a `Map`, turning `Null` into an empty map
    /// first. Returns the previous value if any. A map shared with other
    /// copies is copied first (one level: its entries are shared), so
    /// they keep seeing the old contents.
    ///
    /// # Panics
    /// Panics if `self` is neither `Map` nor `Null`.
    pub fn set_field(&mut self, field: impl Into<String>, value: Value) -> Option<Value> {
        if matches!(self, Value::Null) {
            *self = Value::Map(Arc::default());
        }
        match self {
            Value::Map(m) => Arc::make_mut(m).insert(field.into(), value),
            other => panic!("set_field on non-map value {other:?}"),
        }
    }

    /// True if this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate in-memory footprint in bytes, used to size the
    /// memoization tables the way the paper does (§V-B reports 1.5 KB–30 KB
    /// for 100–1K entries).
    pub fn approx_size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => 8 + s.len(),
            Value::List(l) => 8 + l.iter().map(Value::approx_size_bytes).sum::<usize>(),
            Value::Map(m) => {
                8 + m
                    .iter()
                    .map(|(k, v)| k.len() + v.approx_size_bytes())
                    .sum::<usize>()
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::List(Arc::new(v.into_iter().map(Into::into).collect()))
    }
}

impl From<BTreeMap<String, Value>> for Value {
    fn from(m: BTreeMap<String, Value>) -> Value {
        Value::Map(Arc::new(m))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{k:?}:{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn truthiness_rules() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Bool(true).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-1).truthy());
        assert!(!Value::Float(0.0).truthy());
        assert!(!Value::Float(f64::NAN).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(!Value::list([]).truthy());
        assert!(!Value::from(BTreeMap::new()).truthy());
    }

    #[test]
    fn float_hash_canonicalization() {
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(
            hash_of(&Value::Float(f64::NAN)),
            hash_of(&Value::Float(-f64::NAN))
        );
        assert_ne!(hash_of(&Value::Float(1.0)), hash_of(&Value::Float(2.0)));
    }

    #[test]
    fn map_access_and_mutation() {
        let mut v = Value::Null;
        assert_eq!(v.set_field("a", Value::Int(1)), None);
        assert_eq!(
            v.set_field("a", Value::Int(2)),
            Some(Value::Int(1)),
            "set_field returns the displaced value"
        );
        assert_eq!(v.get_field("a"), Some(&Value::Int(2)));
        assert_eq!(v.get_field("missing"), None);
    }

    #[test]
    #[should_panic(expected = "set_field on non-map")]
    fn set_field_on_scalar_panics() {
        let mut v = Value::Int(3);
        v.set_field("x", Value::Null);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(
            Value::from(vec![1i64, 2]),
            Value::list([Value::Int(1), Value::Int(2)])
        );
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_f64(), None);
    }

    #[test]
    fn display_is_compact_json_like() {
        let v = Value::map([("k", Value::list([Value::Int(1), Value::str("s")]))]);
        assert_eq!(v.to_string(), "{\"k\":[1,\"s\"]}");
    }

    #[test]
    fn approx_size_scales_with_content() {
        let small = Value::Int(1);
        let big = Value::map([("key", Value::str("x".repeat(100)))]);
        assert!(big.approx_size_bytes() > small.approx_size_bytes() + 90);
    }

    #[test]
    fn a_value_is_two_words() {
        // A tag and one word: every payload wider than a word is an `Arc`.
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn equality_distinguishes_types() {
        assert_ne!(Value::Int(1), Value::Float(1.0));
        assert_ne!(Value::Null, Value::Bool(false));
        assert_eq!(
            Value::map([("a", Value::Int(1))]),
            Value::map([("a", Value::Int(1))])
        );
    }
}
