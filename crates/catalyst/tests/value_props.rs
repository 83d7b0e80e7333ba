//! Property tests on the Value lattice: total ordering, hash/equality
//! consistency, arithmetic laws, and cast behaviors — the invariants
//! grouping, sorting, and shuffling rely on.
//!
//! Deterministic seeded sweeps (formerly proptest; rewritten because the
//! build environment vendors only a minimal rand shim).

use catalyst::expr::BinaryOperator;
use catalyst::types::DataType;
use catalyst::value::Value;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn arb_string(rng: &mut StdRng) -> String {
    let len = rng.random_range(0usize..9);
    (0..len)
        .map(|_| char::from(rng.random_range(b'a'..b'z' + 1)))
        .collect()
}

fn arb_value(rng: &mut StdRng) -> Value {
    match rng.random_range(0u32..10) {
        0 => Value::Null,
        1 => Value::Boolean(rng.random_bool(0.5)),
        2 => Value::Int(rng.next_u64() as i32),
        3 => Value::Long(rng.next_u64() as i64),
        4 => Value::Float(f32::from_bits(rng.next_u64() as u32)),
        5 => Value::Double(f64::from_bits(rng.next_u64())),
        6 => Value::str(arb_string(rng)),
        7 => Value::Date(rng.random_range(-100_000i32..100_000)),
        8 => Value::Timestamp(rng.next_u64() as i64),
        _ => Value::Decimal(rng.next_u64() as i64 as i128, 18, rng.random_range(0u8..6)),
    }
}

fn h(v: &Value) -> u64 {
    let mut s = DefaultHasher::new();
    v.hash(&mut s);
    s.finish()
}

/// total_cmp is reflexive, antisymmetric, and transitive.
#[test]
fn total_order_laws() {
    let mut rng = StdRng::seed_from_u64(0x5EED_1001);
    for _ in 0..256 {
        let a = arb_value(&mut rng);
        let b = arb_value(&mut rng);
        let c = arb_value(&mut rng);
        assert_eq!(a.total_cmp(&a), Ordering::Equal);
        assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            assert_ne!(a.total_cmp(&c), Ordering::Greater, "{a:?} {b:?} {c:?}");
        }
    }
}

/// Eq values hash identically (HashMap grouping soundness).
#[test]
fn eq_implies_same_hash() {
    let mut rng = StdRng::seed_from_u64(0x5EED_1002);
    for _ in 0..256 {
        let a = arb_value(&mut rng);
        let b = arb_value(&mut rng);
        if a == b {
            assert_eq!(h(&a), h(&b), "{a:?} == {b:?} but hashes differ");
        }
        // Clones are always equal and must collide.
        assert_eq!(h(&a), h(&a.clone()));
    }
}

/// Cross-width numeric equality hashes consistently (Int 5 groups
/// with Long 5 and Double 5.0 after coercion edge cases).
#[test]
fn numeric_widening_hash() {
    let mut rng = StdRng::seed_from_u64(0x5EED_1003);
    for _ in 0..256 {
        let v = rng.next_u64() as i32;
        assert_eq!(h(&Value::Int(v)), h(&Value::Long(v as i64)));
        assert_eq!(h(&Value::Long(v as i64)), h(&Value::Double(v as f64)));
        assert_eq!(Value::Int(v), Value::Long(v as i64));
    }
}

/// NULL propagates through every arithmetic op.
#[test]
fn null_absorbs_arithmetic() {
    let mut rng = StdRng::seed_from_u64(0x5EED_1004);
    for _ in 0..256 {
        let v = arb_value(&mut rng);
        assert_eq!(Value::Null.add(&v).unwrap(), Value::Null);
        assert_eq!(v.sub(&Value::Null).unwrap(), Value::Null);
        assert_eq!(Value::Null.mul(&v).unwrap(), Value::Null);
        assert_eq!(
            v.arith(BinaryOperator::Div, &Value::Null).unwrap(),
            Value::Null
        );
        assert_eq!(
            v.arith(BinaryOperator::Mod, &Value::Null).unwrap(),
            Value::Null
        );
    }
}

/// Integer addition is commutative and matches i64 semantics in range.
#[test]
fn int_add_commutes() {
    let mut rng = StdRng::seed_from_u64(0x5EED_1005);
    for _ in 0..256 {
        let a = rng.random_range(-1_000_000i64..1_000_000);
        let b = rng.random_range(-1_000_000i64..1_000_000);
        let x = Value::Long(a);
        let y = Value::Long(b);
        assert_eq!(x.add(&y).unwrap(), y.add(&x).unwrap());
        assert_eq!(x.add(&y).unwrap(), Value::Long(a + b));
    }
}

/// String round-trips through a cast to STRING and back for integers.
#[test]
fn long_string_cast_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5EED_1006);
    for _ in 0..256 {
        let v = rng.next_u64() as i64;
        let s = Value::Long(v).cast_to(&DataType::String).unwrap();
        assert_eq!(s.cast_to(&DataType::Long).unwrap(), Value::Long(v));
    }
}

/// Date formatting and parsing are inverse.
#[test]
fn date_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5EED_1007);
    for _ in 0..256 {
        let d = rng.random_range(-200_000i32..200_000);
        let text = catalyst::value::format_date(d);
        assert_eq!(
            catalyst::value::parse_date(&text),
            Some(d),
            "date {d} via {text}"
        );
    }
}

/// sql_cmp agrees with total_cmp on non-null values.
#[test]
fn sql_cmp_consistent() {
    let mut rng = StdRng::seed_from_u64(0x5EED_1008);
    for _ in 0..256 {
        let a = arb_value(&mut rng);
        let b = arb_value(&mut rng);
        match a.sql_cmp(&b) {
            None => assert!(a.is_null() || b.is_null()),
            Some(ord) => assert_eq!(ord, a.total_cmp(&b), "{a:?} vs {b:?}"),
        }
    }
}

/// Casting to the value's own type is the identity.
#[test]
fn self_cast_is_identity() {
    let mut rng = StdRng::seed_from_u64(0x5EED_1009);
    for _ in 0..256 {
        let v = arb_value(&mut rng);
        if !v.is_null() {
            let t = v.dtype();
            assert_eq!(v.cast_to(&t).unwrap(), v);
        }
    }
}

#[test]
fn nan_is_orderable_and_hashable() {
    let nan = Value::Double(f64::NAN);
    assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
    assert_eq!(h(&nan), h(&Value::Double(f64::NAN)));
    // NaN sorts after all finite doubles under total order.
    assert_eq!(
        nan.total_cmp(&Value::Double(f64::INFINITY)),
        Ordering::Greater
    );
}
