//! Pins of every externally visible rendering of a fixed set of `Value`
//! documents: the `FxHasher` stream (it orders memo rows, and so memo
//! LRU ticks and evictions), `hash_of` (its result lands inside
//! documents), `Display` (storage keys built by `concat` and error
//! documents), `Debug` and `approx_size_bytes` (memo sizing). The
//! literals were recorded from the deep-copying `Value`, so any change to
//! the representation that moves one of them moves a simulated output.

use specfaas_sim::hash::FxHasher;
use specfaas_storage::Value;
use specfaas_workflow::expr::{hash_of, lit};
use std::hash::{Hash, Hasher};

fn empty_map() -> Value {
    Value::map::<&str, 0>([])
}

/// The fixed document set; `PINS[i]` belongs to `documents()[i]`.
fn documents() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::Int(0),
        Value::Int(-1),
        Value::Int(i64::MIN),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Float(1.5),
        Value::str(""),
        Value::str("naïve \"日本\"\n"),
        Value::list([]),
        empty_map(),
        Value::list([
            Value::Int(1),
            Value::str("a"),
            Value::list([Value::Null, Value::Float(2.5)]),
            Value::map([("k", Value::Bool(true))]),
        ]),
        Value::map([
            ("a", Value::Int(1)),
            ("b", Value::list([Value::str("x"), empty_map()])),
            (
                "c",
                Value::map([("d", Value::Null), ("é", Value::Float(-0.0))]),
            ),
        ]),
    ]
}

/// `(FxHasher hash, hash_of, Display, Debug, approx_size_bytes)`.
const PINS: [(u64, i64, &str, &str, usize); 16] = [
    (0x0000000000000000, 2938590176187398597, "null", "Null", 1),
    (
        0x0d4569ee47d3c0f2,
        5952119183343170476,
        "false",
        "Bool(false)",
        1,
    ),
    (
        0x5ec22ba56ef5cb87,
        5952120282854798687,
        "true",
        "Bool(true)",
        1,
    ),
    (0x1a8ad3dc8fa781e4, 2746152651961504999, "0", "Int(0)", 8),
    (0x93f86a6c49367387, 5295004910985675615, "-1", "Int(-1)", 8),
    (
        0x9a8ad3dc8fa781e4,
        2746011914473093991,
        "-9223372036854775808",
        "Int(-9223372036854775808)",
        8,
    ),
    (
        0x27d03dcad77b42d6,
        6277513760715603110,
        "0",
        "Float(0.0)",
        8,
    ),
    (
        0x27d03dcad77b42d6,
        6277513760715603110,
        "-0",
        "Float(-0.0)",
        8,
    ),
    (
        0x7e583dcad77b42d6,
        6423030826145682127,
        "NaN",
        "Float(NaN)",
        8,
    ),
    (
        0x3e583dcad77b42d6,
        6422960457401476623,
        "1.5",
        "Float(1.5)",
        8,
    ),
    (
        0x9c3493aaa1cafd43,
        1755183138300306906,
        "\"\"",
        "Str(\"\")",
        8,
    ),
    (
        0x496b2f343f76a2c9,
        5904041937178323522,
        "\"naïve \\\"日本\\\"\\n\"",
        "Str(\"naïve \\\"日本\\\"\\n\")",
        24,
    ),
    (0x12c2dac282e1721a, 9018936339530640160, "[]", "List([])", 8),
    (0xe8ec8a4aeacc3f7e, 7697331399106995587, "{}", "Map({})", 8),
    (
        0xa8157c45b9673abf,
        2663886080874021605,
        "[1,\"a\",[null,2.5],{\"k\":true}]",
        "List([Int(1), Str(\"a\"), List([Null, Float(2.5)]), Map({\"k\": Bool(true)})])",
        52,
    ),
    (
        0x0b606f01209b7bdf,
        2453908360004458580,
        "{\"a\":1,\"b\":[\"x\",{}],\"c\":{\"d\":null,\"é\":-0}}",
        "Map({\"a\": Int(1), \"b\": List([Str(\"x\"), Map({})]), \
         \"c\": Map({\"d\": Null, \"é\": Float(-0.0)})})",
        64,
    ),
];

/// Index of the one document that is not equal to itself (a NaN float).
const NAN: usize = 8;

/// Floats compare by value, so `0.0` (document 6) equals `-0.0` (7).
fn class(i: usize) -> usize {
    if i == 7 {
        6
    } else {
        i
    }
}

fn fx_hash(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

fn hash_of_value(v: &Value) -> i64 {
    hash_of(lit(v.clone()))
        .eval(&Value::Null, &Default::default())
        .expect("hash_of is total")
        .as_int()
        .expect("hash_of yields an Int")
}

#[test]
fn fx_hash_stream_is_pinned() {
    for (i, d) in documents().iter().enumerate() {
        assert_eq!(fx_hash(d), PINS[i].0, "document {i}: {d:?}");
    }
}

#[test]
fn hash_of_is_pinned() {
    for (i, d) in documents().iter().enumerate() {
        assert_eq!(hash_of_value(d), PINS[i].1, "document {i}: {d:?}");
    }
}

#[test]
fn display_is_pinned() {
    for (i, d) in documents().iter().enumerate() {
        assert_eq!(d.to_string(), PINS[i].2, "document {i}: {d:?}");
    }
}

#[test]
fn debug_is_pinned() {
    for (i, d) in documents().iter().enumerate() {
        assert_eq!(format!("{d:?}"), PINS[i].3, "document {i}");
    }
}

#[test]
fn approx_size_is_pinned() {
    for (i, d) in documents().iter().enumerate() {
        assert_eq!(d.approx_size_bytes(), PINS[i].4, "document {i}: {d:?}");
    }
}

/// Equality is structural: each document equals itself and its copies
/// and nothing else, except that `0.0 == -0.0` and that a NaN float (even
/// one reached through a shared copy of a list) is equal to nothing,
/// itself included.
#[test]
fn equality_is_pinned() {
    let docs = documents();
    for (i, a) in docs.iter().enumerate() {
        for (j, b) in docs.iter().enumerate() {
            let expected = class(i) == class(j) && i != NAN;
            assert_eq!(a == b, expected, "documents {i} and {j}");
        }
        assert_eq!(a.clone() == *a, i != NAN, "document {i} and its copy");
    }
    let with_nan = Value::list([Value::Float(f64::NAN)]);
    assert_ne!(with_nan.clone(), with_nan);
    let with_nan = Value::map([("x", Value::Float(f64::NAN))]);
    assert_ne!(with_nan.clone(), with_nan);
}

/// Writing a field through one copy leaves the other copies as they were.
#[test]
fn set_field_leaves_other_copies_unchanged() {
    let mut a = documents()[15].clone();
    let b = a.clone();
    a.set_field("a", Value::Int(2));
    assert_eq!(a.get_field("a"), Some(&Value::Int(2)));
    assert_eq!(b.get_field("a"), Some(&Value::Int(1)));
    assert_eq!(b.to_string(), PINS[15].2);
    assert_eq!(fx_hash(&b), PINS[15].0);
}
