//! Expression-level optimization rules (§4.3.2): constant folding, null
//! propagation, Boolean simplification, LIKE simplification, and the
//! paper's `DecimalAggregates` showcase rule.

use crate::expr::{BinaryOperator, Expr};
use crate::interpreter;
use crate::plan::LogicalPlan;
use crate::row::Row;
use crate::rules::Rule;
use crate::tree::Transformed;
use crate::types::DataType;
use crate::value::Value;

/// A NULL of type `dtype`. A bare NULL literal types as `Null`, so a
/// rewrite that turns a typed expression into NULL keeps a cast around
/// it, and the output keeps its type.
fn typed_null(dtype: DataType) -> Expr {
    let null = Expr::Literal(Value::Null);
    if dtype == DataType::Null {
        null
    } else {
        Expr::Cast {
            expr: Box::new(null),
            dtype,
        }
    }
}

/// A NULL literal, bare or typed by [`typed_null`].
pub(crate) fn is_null_literal(e: &Expr) -> bool {
    match e {
        Expr::Cast { expr, .. } => matches!(**expr, Expr::Literal(Value::Null)),
        e => matches!(e, Expr::Literal(Value::Null)),
    }
}

/// Evaluate subexpressions with no attribute references at plan time.
pub struct ConstantFolding;

impl Rule<LogicalPlan> for ConstantFolding {
    fn name(&self) -> &str {
        "ConstantFolding"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_all_expressions(&mut |e| {
            // Never fold an Alias node itself: the alias carries the
            // output name and attribute id, and replacing it with a bare
            // literal silently drops the column from `output()`. The
            // alias's child has already been folded by the bottom-up
            // traversal.
            // A typed NULL is as folded as it gets.
            let folded = matches!(e, Expr::Literal(_) | Expr::Alias { .. }) || is_null_literal(&e);
            if folded || !e.is_resolved() || !e.foldable() {
                return Transformed::no(e);
            }
            match (interpreter::eval(&e, &Row::empty()), e.data_type()) {
                (Ok(Value::Null), Ok(dtype)) => Transformed::yes(typed_null(dtype)),
                (Ok(v), _) => Transformed::yes(Expr::Literal(v)),
                // Leave runtime errors to runtime.
                (Err(_), _) => Transformed::no(e),
            }
        })
    }
}

/// `x + NULL → NULL` (of the sum's type), `IS NULL(non-nullable) →
/// false`, etc.
pub struct NullPropagation;

impl Rule<LogicalPlan> for NullPropagation {
    fn name(&self) -> &str {
        "NullPropagation"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_all_expressions(&mut |e| match e {
            // Arithmetic/comparison with a NULL literal operand (bare or
            // typed) is NULL, so `(x + NULL) + y` folds all the way.
            Expr::BinaryOp {
                ref left,
                op,
                ref right,
            } if !op.is_boolean() && (is_null_literal(left) || is_null_literal(right)) => {
                match e.data_type() {
                    Ok(dtype) => Transformed::yes(typed_null(dtype)),
                    Err(_) => Transformed::no(e),
                }
            }
            Expr::IsNull(inner) => match &*inner {
                Expr::Literal(v) => Transformed::yes(Expr::Literal(Value::Boolean(v.is_null()))),
                Expr::Column(c) if !c.nullable => {
                    Transformed::yes(Expr::Literal(Value::Boolean(false)))
                }
                _ => Transformed::no(Expr::IsNull(inner)),
            },
            Expr::IsNotNull(inner) => match &*inner {
                Expr::Literal(v) => Transformed::yes(Expr::Literal(Value::Boolean(!v.is_null()))),
                Expr::Column(c) if !c.nullable => {
                    Transformed::yes(Expr::Literal(Value::Boolean(true)))
                }
                _ => Transformed::no(Expr::IsNotNull(inner)),
            },
            other => Transformed::no(other),
        })
    }
}

/// Boolean algebra: identity/annihilator elimination, double negation,
/// and `col = col` for non-nullable columns (enabled by unique expr ids).
pub struct BooleanSimplification;

impl Rule<LogicalPlan> for BooleanSimplification {
    fn name(&self) -> &str {
        "BooleanSimplification"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_all_expressions(&mut |e| match e {
            Expr::BinaryOp {
                left,
                op: BinaryOperator::And,
                right,
            } => match (&*left, &*right) {
                (Expr::Literal(Value::Boolean(true)), _) => Transformed::yes(*right),
                (_, Expr::Literal(Value::Boolean(true))) => Transformed::yes(*left),
                (Expr::Literal(Value::Boolean(false)), _)
                | (_, Expr::Literal(Value::Boolean(false))) => {
                    Transformed::yes(Expr::Literal(Value::Boolean(false)))
                }
                _ => Transformed::no(Expr::BinaryOp {
                    left,
                    op: BinaryOperator::And,
                    right,
                }),
            },
            Expr::BinaryOp {
                left,
                op: BinaryOperator::Or,
                right,
            } => match (&*left, &*right) {
                (Expr::Literal(Value::Boolean(false)), _) => Transformed::yes(*right),
                (_, Expr::Literal(Value::Boolean(false))) => Transformed::yes(*left),
                (Expr::Literal(Value::Boolean(true)), _)
                | (_, Expr::Literal(Value::Boolean(true))) => {
                    Transformed::yes(Expr::Literal(Value::Boolean(true)))
                }
                _ => Transformed::no(Expr::BinaryOp {
                    left,
                    op: BinaryOperator::Or,
                    right,
                }),
            },
            Expr::Not(inner) => match *inner {
                Expr::Literal(Value::Boolean(b)) => {
                    Transformed::yes(Expr::Literal(Value::Boolean(!b)))
                }
                Expr::Not(inner2) => Transformed::yes(*inner2),
                other => Transformed::no(Expr::Not(Box::new(other))),
            },
            // col = col is true for non-nullable columns; the unique-ID
            // analysis step (§4.3.1) is what makes this sound.
            Expr::BinaryOp {
                left,
                op: BinaryOperator::Eq,
                right,
            } => match (&*left, &*right) {
                (Expr::Column(a), Expr::Column(b)) if a.id == b.id && !a.nullable => {
                    Transformed::yes(Expr::Literal(Value::Boolean(true)))
                }
                _ => Transformed::no(Expr::BinaryOp {
                    left,
                    op: BinaryOperator::Eq,
                    right,
                }),
            },
            other => Transformed::no(other),
        })
    }
}

/// The paper's 12-line rule: LIKE patterns with simple shapes become
/// `starts_with` / `ends_with` / `contains` / equality calls.
pub struct SimplifyLike;

impl Rule<LogicalPlan> for SimplifyLike {
    fn name(&self) -> &str {
        "SimplifyLike"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_all_expressions(&mut |e| match e {
            Expr::Like {
                expr,
                pattern,
                negated: false,
            } => {
                let pat = match &*pattern {
                    Expr::Literal(Value::Str(s)) => s.clone(),
                    _ => {
                        return Transformed::no(Expr::Like {
                            expr,
                            pattern,
                            negated: false,
                        })
                    }
                };
                let inner = pat.trim_matches('%');
                // Only simplify when the inner text has no wildcards.
                if inner.contains('%') || inner.contains('_') {
                    return Transformed::no(Expr::Like {
                        expr,
                        pattern,
                        negated: false,
                    });
                }
                let starts = pat.starts_with('%');
                let ends = pat.ends_with('%');
                let make = |func| Expr::ScalarFn {
                    func,
                    args: vec![(*expr).clone(), Expr::Literal(Value::str(inner))],
                };
                match (starts, ends) {
                    (false, false) => {
                        Transformed::yes((*expr).clone().eq(Expr::Literal(Value::str(inner))))
                    }
                    (false, true) => Transformed::yes(make(crate::expr::ScalarFunc::StartsWith)),
                    (true, false) => Transformed::yes(make(crate::expr::ScalarFunc::EndsWith)),
                    (true, true) => Transformed::yes(make(crate::expr::ScalarFunc::Contains)),
                }
            }
            other => Transformed::no(other),
        })
    }
}

/// Maximum number of decimal digits representable in a Long.
const MAX_LONG_DIGITS: u8 = 18;

/// The paper's §4.3.2 `DecimalAggregates` rule, reproduced: sums over
/// small-precision decimals run on unscaled 64-bit longs and convert back.
pub struct DecimalAggregates;

impl Rule<LogicalPlan> for DecimalAggregates {
    fn name(&self) -> &str {
        "DecimalAggregates"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_all_expressions(&mut |e| match e {
            Expr::Agg {
                func: crate::expr::AggFunc::Sum,
                arg: Some(arg),
                distinct: false,
            } => {
                // Skip if already rewritten (argument is UnscaledValue).
                if matches!(*arg, Expr::UnscaledValue(_)) {
                    return Transformed::no(Expr::Agg {
                        func: crate::expr::AggFunc::Sum,
                        arg: Some(arg),
                        distinct: false,
                    });
                }
                match arg.data_type() {
                    Ok(DataType::Decimal(prec, scale)) if prec + 10 <= MAX_LONG_DIGITS => {
                        Transformed::yes(Expr::MakeDecimal {
                            expr: Box::new(Expr::Agg {
                                func: crate::expr::AggFunc::Sum,
                                arg: Some(Box::new(Expr::UnscaledValue(arg))),
                                distinct: false,
                            }),
                            precision: prec + 10,
                            scale,
                        })
                    }
                    _ => Transformed::no(Expr::Agg {
                        func: crate::expr::AggFunc::Sum,
                        arg: Some(arg),
                        distinct: false,
                    }),
                }
            }
            other => Transformed::no(other),
        })
    }
}
