//! Expression trees: the ASTs captured by the DataFrame DSL and the SQL
//! parser, optimized by Catalyst rules, and evaluated by the interpreter
//! or the compiled ("code-generated") evaluator.

pub mod attribute;
pub mod builders;
pub mod display;
pub mod transform;

pub use attribute::{new_expr_id, ColumnRef, ExprId};
pub use builders::{col, lit, qualified_col, when};

use crate::error::{CatalystError, Result};
use crate::types::DataType;
use crate::value::Value;
use std::sync::Arc;

/// Binary operators (arithmetic, comparison, boolean).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOperator {
    /// `+` (also string concatenation after coercion).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/` — always fractional (Hive semantics).
    Div,
    /// `%`.
    Mod,
    /// `=`.
    Eq,
    /// `<>` / `!=`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    LtEq,
    /// `>`.
    Gt,
    /// `>=`.
    GtEq,
    /// `AND`.
    And,
    /// `OR`.
    Or,
}

impl BinaryOperator {
    /// Arithmetic (+ - * / %)?
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOperator::Add
                | BinaryOperator::Sub
                | BinaryOperator::Mul
                | BinaryOperator::Div
                | BinaryOperator::Mod
        )
    }

    /// Comparison (= <> < <= > >=)?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOperator::Eq
                | BinaryOperator::NotEq
                | BinaryOperator::Lt
                | BinaryOperator::LtEq
                | BinaryOperator::Gt
                | BinaryOperator::GtEq
        )
    }

    /// Boolean connective (AND / OR)?
    pub fn is_boolean(self) -> bool {
        matches!(self, BinaryOperator::And | BinaryOperator::Or)
    }

    /// The type `l op r` has: BOOLEAN for a comparison or connective,
    /// DOUBLE for `/` (Hive), BIGINT for `%` of two integers and DOUBLE
    /// for any other `%`, else the operands' common type (`None` when they
    /// have none). Arithmetic is computed at this type.
    pub fn result_type(self, l: &DataType, r: &DataType) -> Option<DataType> {
        use BinaryOperator::*;
        match self {
            _ if self.is_comparison() || self.is_boolean() => Some(DataType::Boolean),
            Div => Some(DataType::Double),
            Mod if l.is_integral() && r.is_integral() => Some(DataType::Long),
            Mod => Some(DataType::Double),
            _ => DataType::tightest_common_type(l, r),
        }
    }

    /// SQL token for display.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOperator::Add => "+",
            BinaryOperator::Sub => "-",
            BinaryOperator::Mul => "*",
            BinaryOperator::Div => "/",
            BinaryOperator::Mod => "%",
            BinaryOperator::Eq => "=",
            BinaryOperator::NotEq => "<>",
            BinaryOperator::Lt => "<",
            BinaryOperator::LtEq => "<=",
            BinaryOperator::Gt => ">",
            BinaryOperator::GtEq => ">=",
            BinaryOperator::And => "AND",
            BinaryOperator::Or => "OR",
        }
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ScalarFunc {
    Substr,
    Length,
    Upper,
    Lower,
    Trim,
    Concat,
    StartsWith,
    EndsWith,
    Contains,
    Abs,
    Sqrt,
    Pow,
    Round,
    Floor,
    Ceil,
    Coalesce,
    Year,
    SplitWords,
}

impl ScalarFunc {
    /// Resolve a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "substr" | "substring" => ScalarFunc::Substr,
            "length" | "len" => ScalarFunc::Length,
            "upper" => ScalarFunc::Upper,
            "lower" => ScalarFunc::Lower,
            "trim" => ScalarFunc::Trim,
            "concat" => ScalarFunc::Concat,
            "starts_with" | "startswith" => ScalarFunc::StartsWith,
            "ends_with" | "endswith" => ScalarFunc::EndsWith,
            "contains" => ScalarFunc::Contains,
            "abs" => ScalarFunc::Abs,
            "sqrt" => ScalarFunc::Sqrt,
            "pow" | "power" => ScalarFunc::Pow,
            "round" => ScalarFunc::Round,
            "floor" => ScalarFunc::Floor,
            "ceil" | "ceiling" => ScalarFunc::Ceil,
            "coalesce" => ScalarFunc::Coalesce,
            "year" => ScalarFunc::Year,
            "split_words" => ScalarFunc::SplitWords,
            _ => return None,
        })
    }

    /// SQL name for display.
    pub fn name(self) -> &'static str {
        match self {
            ScalarFunc::Substr => "substr",
            ScalarFunc::Length => "length",
            ScalarFunc::Upper => "upper",
            ScalarFunc::Lower => "lower",
            ScalarFunc::Trim => "trim",
            ScalarFunc::Concat => "concat",
            ScalarFunc::StartsWith => "starts_with",
            ScalarFunc::EndsWith => "ends_with",
            ScalarFunc::Contains => "contains",
            ScalarFunc::Abs => "abs",
            ScalarFunc::Sqrt => "sqrt",
            ScalarFunc::Pow => "pow",
            ScalarFunc::Round => "round",
            ScalarFunc::Floor => "floor",
            ScalarFunc::Ceil => "ceil",
            ScalarFunc::Coalesce => "coalesce",
            ScalarFunc::Year => "year",
            ScalarFunc::SplitWords => "split_words",
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// Resolve an aggregate name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" | "mean" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }

    /// SQL name for display.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// Window functions (ranking, offset, and framed aggregates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowFunc {
    /// `row_number()` — 1-based position within the partition.
    RowNumber,
    /// `rank()` — 1-based rank with gaps after peer groups.
    Rank,
    /// `dense_rank()` — 1-based rank without gaps.
    DenseRank,
    /// `lag(expr[, offset[, default]])` — value `offset` rows back.
    Lag,
    /// `lead(expr[, offset[, default]])` — value `offset` rows ahead.
    Lead,
    /// An aggregate evaluated over the window frame.
    Agg(AggFunc),
}

impl WindowFunc {
    /// Resolve a window function name (case-insensitive). Plain
    /// aggregate names resolve to framed aggregates.
    pub fn from_name(name: &str) -> Option<WindowFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "row_number" => WindowFunc::RowNumber,
            "rank" => WindowFunc::Rank,
            "dense_rank" => WindowFunc::DenseRank,
            "lag" => WindowFunc::Lag,
            "lead" => WindowFunc::Lead,
            other => WindowFunc::Agg(AggFunc::from_name(other)?),
        })
    }

    /// SQL name for display.
    pub fn name(self) -> &'static str {
        match self {
            WindowFunc::RowNumber => "row_number",
            WindowFunc::Rank => "rank",
            WindowFunc::DenseRank => "dense_rank",
            WindowFunc::Lag => "lag",
            WindowFunc::Lead => "lead",
            WindowFunc::Agg(f) => f.name(),
        }
    }

    /// Ranking and offset functions ignore their frame entirely; only
    /// framed aggregates read it.
    pub fn frame_sensitive(self) -> bool {
        matches!(self, WindowFunc::Agg(_))
    }
}

/// `ROWS` vs `RANGE` frame semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameUnits {
    /// Physical row offsets.
    Rows,
    /// Logical peer groups: the frame extends over all ORDER BY peers.
    Range,
}

/// One end of a window frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameBound {
    /// `UNBOUNDED PRECEDING`.
    UnboundedPreceding,
    /// `<n> PRECEDING` (ROWS only in this engine).
    Preceding(u64),
    /// `CURRENT ROW`.
    CurrentRow,
    /// `<n> FOLLOWING` (ROWS only in this engine).
    Following(u64),
    /// `UNBOUNDED FOLLOWING`.
    UnboundedFollowing,
}

/// A window frame: units plus start/end bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowFrame {
    /// ROWS or RANGE.
    pub units: FrameUnits,
    /// Frame start (inclusive).
    pub start: FrameBound,
    /// Frame end (inclusive).
    pub end: FrameBound,
}

impl WindowFrame {
    /// The SQL-standard default frame: `RANGE UNBOUNDED PRECEDING`
    /// through `CURRENT ROW` when the window has an ORDER BY, the whole
    /// partition otherwise.
    pub fn default_for(has_order_by: bool) -> WindowFrame {
        if has_order_by {
            WindowFrame {
                units: FrameUnits::Range,
                start: FrameBound::UnboundedPreceding,
                end: FrameBound::CurrentRow,
            }
        } else {
            WindowFrame::whole_partition()
        }
    }

    /// `ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING`.
    pub fn whole_partition() -> WindowFrame {
        WindowFrame {
            units: FrameUnits::Rows,
            start: FrameBound::UnboundedPreceding,
            end: FrameBound::UnboundedFollowing,
        }
    }

    /// Does the frame cover the entire partition regardless of units?
    pub fn is_whole_partition(&self) -> bool {
        self.start == FrameBound::UnboundedPreceding && self.end == FrameBound::UnboundedFollowing
    }
}

/// A user-defined scalar function registered inline (§3.7).
pub struct UdfImpl {
    /// Registered name.
    pub name: Arc<str>,
    /// Declared return type.
    pub return_type: DataType,
    /// The implementation — an arbitrary host-language closure.
    pub func: Box<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>,
}

impl std::fmt::Debug for UdfImpl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Udf({})", self.name)
    }
}

impl PartialEq for UdfImpl {
    fn eq(&self, other: &Self) -> bool {
        // UDFs are identified by registered name (closures can't compare).
        self.name == other.name && self.return_type == other.return_type
    }
}

/// Sort direction + null ordering for ORDER BY.
#[derive(Debug, Clone, PartialEq)]
pub struct SortOrder {
    /// Sort key expression.
    pub expr: Expr,
    /// Ascending?
    pub ascending: bool,
}

/// An expression tree node.
///
/// Expressions start *unresolved* (names only), are resolved to
/// [`ColumnRef`]s by the analyzer, and are *bound* to physical column
/// indices ([`Expr::BoundRef`]) just before execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Constant value.
    Literal(Value),
    /// A name not yet matched to an input column.
    UnresolvedAttribute {
        /// Optional relation qualifier (`users.age`).
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// A function call not yet resolved to a builtin/UDF/aggregate.
    UnresolvedFunction {
        /// Function name as written.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// DISTINCT flag (aggregates).
        distinct: bool,
    },
    /// `*` or `t.*` in a select list.
    Wildcard {
        /// Optional qualifier.
        qualifier: Option<String>,
    },
    /// Resolved attribute.
    Column(ColumnRef),
    /// Attribute bound to a physical input position.
    BoundRef {
        /// Index into the input row.
        index: usize,
        /// Type at that position.
        dtype: DataType,
        /// Nullability at that position.
        nullable: bool,
        /// Original name (for display).
        name: Arc<str>,
    },
    /// Named expression.
    Alias {
        /// Wrapped expression.
        child: Box<Expr>,
        /// Output name.
        name: Arc<str>,
        /// Stable output attribute id.
        id: ExprId,
    },
    /// Binary operation.
    BinaryOp {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOperator,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Boolean NOT.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Negate(Box<Expr>),
    /// `IS NULL`.
    IsNull(Box<Expr>),
    /// `IS NOT NULL`.
    IsNotNull(Box<Expr>),
    /// SQL LIKE with `%` and `_` wildcards.
    Like {
        /// Value tested.
        expr: Box<Expr>,
        /// Pattern (usually a literal).
        pattern: Box<Expr>,
        /// NOT LIKE?
        negated: bool,
    },
    /// `IN (v1, v2, …)`.
    InList {
        /// Value tested.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// NOT IN?
        negated: bool,
    },
    /// CASE \[operand\] WHEN … THEN … ELSE … END.
    Case {
        /// Simple-case operand, if any.
        operand: Option<Box<Expr>>,
        /// (condition/match, result) pairs.
        branches: Vec<(Expr, Expr)>,
        /// ELSE result.
        else_expr: Option<Box<Expr>>,
    },
    /// Explicit or coercion-inserted cast.
    Cast {
        /// Input expression.
        expr: Box<Expr>,
        /// Target type.
        dtype: DataType,
    },
    /// Built-in scalar function call.
    ScalarFn {
        /// Which function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// User-defined function call.
    Udf {
        /// Shared implementation.
        udf: Arc<UdfImpl>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Aggregate function call (only valid under `Aggregate` plans).
    Agg {
        /// Which aggregate.
        func: AggFunc,
        /// Argument (`None` = `COUNT(*)`).
        arg: Option<Box<Expr>>,
        /// DISTINCT?
        distinct: bool,
    },
    /// Window function call with its OVER clause (only valid under
    /// `Window` plans after analysis).
    WindowFunction {
        /// Which window function.
        func: WindowFunc,
        /// Arguments (empty for ranking functions; `None` argument
        /// aggregates like `COUNT(*)` use an empty list too).
        args: Vec<Expr>,
        /// `PARTITION BY` expressions.
        partition_by: Vec<Expr>,
        /// `ORDER BY` keys within each partition.
        order_by: Vec<SortOrder>,
        /// The evaluation frame.
        frame: WindowFrame,
    },
    /// Struct field access (`loc.lat` once `loc` resolves to a struct).
    GetField {
        /// Struct-typed input.
        expr: Box<Expr>,
        /// Field name.
        name: Arc<str>,
    },
    /// Array element access.
    GetItem {
        /// Array-typed input.
        expr: Box<Expr>,
        /// Zero-based index expression.
        index: Box<Expr>,
    },
    /// Decimal → unscaled Long (used by the `DecimalAggregates` rule,
    /// reproduced from §4.3.2 of the paper).
    UnscaledValue(Box<Expr>),
    /// Unscaled Long → Decimal (the rule's inverse).
    MakeDecimal {
        /// Long-typed input.
        expr: Box<Expr>,
        /// Result precision.
        precision: u8,
        /// Result scale.
        scale: u8,
    },
}

impl Expr {
    /// Resolved output type. Errors on unresolved expressions.
    pub fn data_type(&self) -> Result<DataType> {
        match self {
            Expr::Literal(v) => Ok(v.dtype()),
            Expr::Column(c) => Ok(c.dtype.clone()),
            Expr::BoundRef { dtype, .. } => Ok(dtype.clone()),
            Expr::Alias { child, .. } => child.data_type(),
            Expr::BinaryOp { left, op, right } => {
                if op.is_comparison() || op.is_boolean() {
                    return Ok(DataType::Boolean);
                }
                let lt = left.data_type()?;
                let rt = right.data_type()?;
                op.result_type(&lt, &rt).ok_or_else(|| {
                    CatalystError::analysis(format!("incompatible operand types {lt} and {rt}"))
                })
            }
            Expr::Not(_)
            | Expr::IsNull(_)
            | Expr::IsNotNull(_)
            | Expr::Like { .. }
            | Expr::InList { .. } => Ok(DataType::Boolean),
            Expr::Negate(e) => e.data_type(),
            Expr::Case {
                branches,
                else_expr,
                ..
            } => {
                let mut t = DataType::Null;
                for (_, r) in branches {
                    t = DataType::tightest_common_type(&t, &r.data_type()?)
                        .unwrap_or(DataType::String);
                }
                if let Some(e) = else_expr {
                    t = DataType::tightest_common_type(&t, &e.data_type()?)
                        .unwrap_or(DataType::String);
                }
                Ok(t)
            }
            Expr::Cast { dtype, .. } => Ok(dtype.clone()),
            Expr::ScalarFn { func, args } => scalar_fn_type(*func, args),
            Expr::Udf { udf, .. } => Ok(udf.return_type.clone()),
            Expr::Agg { func, arg, .. } => match func {
                AggFunc::Count => Ok(DataType::Long),
                AggFunc::Avg => Ok(DataType::Double),
                AggFunc::Sum => {
                    let t = arg
                        .as_ref()
                        .ok_or_else(|| CatalystError::analysis("SUM requires an argument"))?
                        .data_type()?;
                    Ok(match t {
                        DataType::Int | DataType::Long => DataType::Long,
                        DataType::Float | DataType::Double => DataType::Double,
                        // Paper §4.3.2: SUM over DECIMAL(p, s) yields
                        // DECIMAL(p + 10, s).
                        DataType::Decimal(p, s) => DataType::Decimal((p + 10).min(38), s),
                        other => other,
                    })
                }
                AggFunc::Min | AggFunc::Max => arg
                    .as_ref()
                    .ok_or_else(|| CatalystError::analysis("MIN/MAX require an argument"))?
                    .data_type(),
            },
            Expr::WindowFunction { func, args, .. } => match func {
                WindowFunc::RowNumber | WindowFunc::Rank | WindowFunc::DenseRank => {
                    Ok(DataType::Long)
                }
                WindowFunc::Lag | WindowFunc::Lead => args
                    .first()
                    .ok_or_else(|| CatalystError::analysis("LAG/LEAD require an argument"))?
                    .data_type(),
                WindowFunc::Agg(f) => match f {
                    AggFunc::Count => Ok(DataType::Long),
                    AggFunc::Avg => Ok(DataType::Double),
                    AggFunc::Sum => {
                        let t = args
                            .first()
                            .ok_or_else(|| CatalystError::analysis("SUM requires an argument"))?
                            .data_type()?;
                        Ok(match t {
                            DataType::Int | DataType::Long => DataType::Long,
                            DataType::Float | DataType::Double => DataType::Double,
                            DataType::Decimal(p, s) => DataType::Decimal((p + 10).min(38), s),
                            other => other,
                        })
                    }
                    AggFunc::Min | AggFunc::Max => args
                        .first()
                        .ok_or_else(|| CatalystError::analysis("MIN/MAX require an argument"))?
                        .data_type(),
                },
            },
            Expr::GetField { expr, name } => match expr.data_type()? {
                DataType::Struct(fields) => fields
                    .iter()
                    .find(|f| f.name.eq_ignore_ascii_case(name))
                    .map(|f| f.dtype.clone())
                    .ok_or_else(|| CatalystError::analysis(format!("no field '{name}' in struct"))),
                other => Err(CatalystError::analysis(format!(
                    "cannot access field '{name}' of non-struct type {other}"
                ))),
            },
            Expr::GetItem { expr, .. } => match expr.data_type()? {
                DataType::Array(e) => Ok(*e),
                other => Err(CatalystError::analysis(format!(
                    "cannot index non-array type {other}"
                ))),
            },
            Expr::UnscaledValue(_) => Ok(DataType::Long),
            Expr::MakeDecimal {
                precision, scale, ..
            } => Ok(DataType::Decimal(*precision, *scale)),
            Expr::UnresolvedAttribute { name, .. } => Err(CatalystError::analysis(format!(
                "unresolved attribute '{name}'"
            ))),
            Expr::UnresolvedFunction { name, .. } => Err(CatalystError::analysis(format!(
                "unresolved function '{name}'"
            ))),
            Expr::Wildcard { .. } => Err(CatalystError::analysis("unexpanded wildcard")),
        }
    }

    /// Conservative nullability.
    pub fn nullable(&self) -> bool {
        match self {
            Expr::Literal(v) => v.is_null(),
            Expr::Column(c) => c.nullable,
            Expr::BoundRef { nullable, .. } => *nullable,
            Expr::Alias { child, .. } => child.nullable(),
            Expr::IsNull(_) | Expr::IsNotNull(_) => false,
            Expr::Agg {
                func: AggFunc::Count,
                ..
            } => false,
            Expr::WindowFunction { func, .. } => !matches!(
                func,
                WindowFunc::RowNumber
                    | WindowFunc::Rank
                    | WindowFunc::DenseRank
                    | WindowFunc::Agg(AggFunc::Count)
            ),
            _ => true,
        }
    }

    /// True when this expression contains no attribute references, UDFs
    /// or aggregates — i.e. it can be evaluated at plan time (constant
    /// folding).
    pub fn foldable(&self) -> bool {
        let mut foldable = true;
        self.for_each_node(&mut |e| match e {
            Expr::Column(_)
            | Expr::BoundRef { .. }
            | Expr::UnresolvedAttribute { .. }
            | Expr::UnresolvedFunction { .. }
            | Expr::Wildcard { .. }
            | Expr::Udf { .. }
            | Expr::Agg { .. }
            | Expr::WindowFunction { .. } => foldable = false,
            _ => {}
        });
        foldable
    }

    /// True when any node is a window function call.
    pub fn contains_window(&self) -> bool {
        let mut found = false;
        self.for_each_node(&mut |e| {
            if matches!(e, Expr::WindowFunction { .. }) {
                found = true;
            }
        });
        found
    }

    /// True when any node is an aggregate function.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.for_each_node(&mut |e| {
            if matches!(e, Expr::Agg { .. }) {
                found = true;
            }
        });
        found
    }

    /// True when the tree still contains unresolved names.
    pub fn is_resolved(&self) -> bool {
        let mut resolved = true;
        self.for_each_node(&mut |e| {
            if matches!(
                e,
                Expr::UnresolvedAttribute { .. }
                    | Expr::UnresolvedFunction { .. }
                    | Expr::Wildcard { .. }
            ) {
                resolved = false;
            }
        });
        resolved
    }

    /// Collect every resolved column referenced in this tree.
    pub fn references(&self) -> Vec<ColumnRef> {
        let mut out = Vec::new();
        self.for_each_node(&mut |e| {
            if let Expr::Column(c) = e {
                if !out.iter().any(|o: &ColumnRef| o.id == c.id) {
                    out.push(c.clone());
                }
            }
        });
        out
    }

    /// The output attribute this expression produces in a projection.
    ///
    /// `Alias` and `Column` have stable identities; anything else errors
    /// (the analyzer wraps unnamed projection items in aliases first).
    pub fn to_attribute(&self) -> Result<ColumnRef> {
        match self {
            Expr::Column(c) => Ok(c.clone()),
            Expr::Alias { child, name, id } => Ok(ColumnRef {
                id: *id,
                name: name.clone(),
                dtype: child.data_type()?,
                nullable: child.nullable(),
                qualifier: None,
            }),
            other => Err(CatalystError::analysis(format!(
                "expression '{other}' has no name; alias it"
            ))),
        }
    }

    /// A deterministic display-based name for auto-aliasing.
    pub fn auto_name(&self) -> String {
        match self {
            Expr::Column(c) => c.name.to_string(),
            Expr::UnresolvedAttribute { name, .. } => name.clone(),
            Expr::Alias { name, .. } => name.to_string(),
            Expr::GetField { name, .. } => name.to_string(),
            other => other.to_string(),
        }
    }
}

fn scalar_fn_type(func: ScalarFunc, args: &[Expr]) -> Result<DataType> {
    Ok(match func {
        ScalarFunc::Substr
        | ScalarFunc::Upper
        | ScalarFunc::Lower
        | ScalarFunc::Trim
        | ScalarFunc::Concat => DataType::String,
        ScalarFunc::Length | ScalarFunc::Year => DataType::Int,
        ScalarFunc::StartsWith | ScalarFunc::EndsWith | ScalarFunc::Contains => DataType::Boolean,
        ScalarFunc::Abs | ScalarFunc::Floor | ScalarFunc::Ceil | ScalarFunc::Round => args
            .first()
            .map(|a| a.data_type())
            .transpose()?
            .unwrap_or(DataType::Double),
        ScalarFunc::Sqrt | ScalarFunc::Pow => DataType::Double,
        ScalarFunc::Coalesce => {
            let mut t = DataType::Null;
            for a in args {
                t = DataType::tightest_common_type(&t, &a.data_type()?).unwrap_or(DataType::String);
            }
            t
        }
        ScalarFunc::SplitWords => DataType::Array(Box::new(DataType::String)),
    })
}
