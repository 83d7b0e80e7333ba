//! Analysis (§4.3.1): turn an unresolved logical plan into a resolved,
//! type-checked one.
//!
//! The analyzer repeatedly applies resolution rules until a fixed point:
//!
//! * **ResolveRelations** — look up relations by name from the catalog
//!   (errors eagerly with the list of known tables);
//! * **ResolveReferences** — map named attributes to the unique-id'd
//!   output attributes of each operator's children, expanding `*` and
//!   falling back to struct-field access for dotted names;
//! * **ResolveFunctions** — match function calls to builtins, aggregates,
//!   or registered UDFs;
//! * **AliasUnnamed** — give every projection output a stable name/id;
//! * **TypeCoercion** — propagate and coerce types through expressions by
//!   inserting casts toward the tightest common type.
//!
//! After the fixed point, [`check_analysis`] runs sanity checks over the
//! tree (everything resolved, predicates boolean, aggregates well-formed)
//! — the "sanity checks after each batch" of §4.2. Analysis runs eagerly
//! when DataFrames are constructed (§3.4), so these errors surface as
//! soon as the user types an invalid line of code.

pub mod catalog;
pub mod constraints;
pub mod lint;

pub use catalog::{
    Catalog, CatalogEntry, FunctionRegistry, OverlayCatalog, RecordingCatalog, SimpleCatalog,
};

use crate::error::{CatalystError, Result};
use crate::expr::{AggFunc, BinaryOperator, ColumnRef, Expr, ScalarFunc, SortOrder};
use crate::plan::LogicalPlan;
use crate::tree::{Transformed, TreeNode};
use crate::types::DataType;
use std::sync::Arc;

/// The analyzer: resolution + coercion rules over a catalog.
pub struct Analyzer {
    catalog: Arc<dyn Catalog>,
    functions: Arc<FunctionRegistry>,
}

impl Analyzer {
    /// Build an analyzer.
    pub fn new(catalog: Arc<dyn Catalog>, functions: Arc<FunctionRegistry>) -> Self {
        Analyzer { catalog, functions }
    }

    /// Resolve and validate `plan`.
    pub fn analyze(&self, plan: LogicalPlan) -> Result<LogicalPlan> {
        let mut plan = plan;
        for _ in 0..50 {
            let mut changed = false;
            plan = self.resolve_relations(plan, &mut changed)?;
            plan = resolve_references(plan, &self.functions, &mut changed)?;
            plan = alias_unnamed(plan, &mut changed);
            plan = coerce_types(plan, &mut changed)?;
            if !changed {
                break;
            }
        }
        check_analysis(&plan)?;
        // With plan validation on (debug builds / CATALYST_VALIDATE=1),
        // hold the analyzer to the same invariants the optimizer is held
        // to: a plan leaving analysis must pass every static check.
        if crate::validation::enabled() {
            let violations = crate::validation::PlanValidator::new().check_logical(&plan);
            if !violations.is_empty() {
                return Err(CatalystError::analysis(format!(
                    "analyzed plan failed integrity checks:\n{}",
                    crate::validation::render_violations(&violations)
                )));
            }
        }
        Ok(plan)
    }

    fn resolve_relations(&self, plan: LogicalPlan, changed: &mut bool) -> Result<LogicalPlan> {
        let mut err = None;
        let out = plan.transform_up(&mut |p| match p {
            LogicalPlan::UnresolvedRelation { name } => {
                match catalog::require_table(self.catalog.as_ref(), &name) {
                    Ok(entry) => Transformed::yes(entry.plan.subquery_alias(name)),
                    Err(e) => {
                        err = Some(e);
                        Transformed::no(LogicalPlan::UnresolvedRelation { name })
                    }
                }
            }
            other => Transformed::no(other),
        });
        if let Some(e) = err {
            return Err(e);
        }
        *changed |= out.changed;
        Ok(out.data)
    }
}

/// Resolve attribute and function names bottom-up.
fn resolve_references(
    plan: LogicalPlan,
    functions: &FunctionRegistry,
    changed: &mut bool,
) -> Result<LogicalPlan> {
    let mut err: Option<CatalystError> = None;
    let out = plan.transform_up(&mut |p| {
        if err.is_some() {
            return Transformed::no(p);
        }
        let attrs: Vec<ColumnRef> = p.children().iter().flat_map(|c| c.output()).collect();

        // Expand wildcards in projections first.
        let (p, mut ch) = match p {
            LogicalPlan::Project { input, exprs }
                if exprs.iter().any(|e| matches!(e, Expr::Wildcard { .. }))
                    && !attrs.is_empty() =>
            {
                let mut out_exprs = Vec::with_capacity(exprs.len());
                for e in exprs {
                    match e {
                        Expr::Wildcard { qualifier } => {
                            for a in attrs.iter().filter(|a| match &qualifier {
                                Some(q) => a
                                    .qualifier
                                    .as_deref()
                                    .is_some_and(|mine| mine.eq_ignore_ascii_case(q)),
                                None => true,
                            }) {
                                out_exprs.push(Expr::Column(a.clone()));
                            }
                        }
                        other => out_exprs.push(other),
                    }
                }
                (
                    LogicalPlan::Project {
                        input,
                        exprs: out_exprs,
                    },
                    true,
                )
            }
            other => (other, false),
        };

        // Resolve names/functions in this node's expressions.
        let resolved = p.map_expressions(&mut |e| {
            e.transform_up(&mut |e| resolve_expr(e, &attrs, functions, &mut err))
        });
        ch |= resolved.changed;
        let widened = resolve_missing_references(resolved.data);
        Transformed {
            data: widened.data,
            changed: ch || widened.changed,
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    *changed |= out.changed;
    Ok(out.data)
}

fn resolve_expr(
    e: Expr,
    attrs: &[ColumnRef],
    functions: &FunctionRegistry,
    err: &mut Option<CatalystError>,
) -> Transformed<Expr> {
    match e {
        Expr::UnresolvedAttribute { qualifier, name } => {
            let matches: Vec<&ColumnRef> = attrs
                .iter()
                .filter(|a| a.matches(qualifier.as_deref(), &name))
                .collect();
            match matches.len() {
                1 => Transformed::yes(Expr::Column(matches[0].clone())),
                0 => {
                    // Dotted name that didn't match `table.column`: try
                    // `struct_column.field` (§5.1 path access).
                    if let Some(q) = &qualifier {
                        let base: Vec<&ColumnRef> =
                            attrs.iter().filter(|a| a.matches(None, q)).collect();
                        if base.len() == 1 && matches!(base[0].dtype, DataType::Struct(_)) {
                            return Transformed::yes(Expr::GetField {
                                expr: Box::new(Expr::Column(base[0].clone())),
                                name: Arc::from(name.as_str()),
                            });
                        }
                    }
                    // Leave unresolved: a later fixed-point iteration may
                    // succeed once relations resolve; check_analysis
                    // reports leftovers.
                    Transformed::no(Expr::UnresolvedAttribute { qualifier, name })
                }
                _ => {
                    *err = Some(CatalystError::analysis(format!(
                        "ambiguous reference '{}{}' matches {} columns",
                        qualifier.map(|q| format!("{q}.")).unwrap_or_default(),
                        name,
                        matches.len()
                    )));
                    Transformed::no(Expr::Literal(crate::value::Value::Null))
                }
            }
        }
        Expr::UnresolvedFunction {
            name,
            args,
            distinct,
        } => {
            let is_star = args.len() == 1 && matches!(args[0], Expr::Wildcard { .. });
            if let Some(func) = AggFunc::from_name(&name) {
                let arg = if is_star || args.is_empty() {
                    None
                } else {
                    Some(Box::new(args[0].clone()))
                };
                if func != AggFunc::Count && arg.is_none() {
                    *err = Some(CatalystError::analysis(format!(
                        "aggregate {name}() requires an argument"
                    )));
                    return Transformed::no(Expr::Literal(crate::value::Value::Null));
                }
                return Transformed::yes(Expr::Agg {
                    func,
                    arg,
                    distinct,
                });
            }
            if let Some(func) = ScalarFunc::from_name(&name) {
                return Transformed::yes(Expr::ScalarFn { func, args });
            }
            if let Some(udf) = functions.lookup(&name) {
                return Transformed::yes(Expr::Udf { udf, args });
            }
            *err = Some(CatalystError::analysis(format!(
                "undefined function '{name}'; registered UDFs: [{}]",
                functions.names().join(", ")
            )));
            Transformed::no(Expr::Literal(crate::value::Value::Null))
        }
        other => Transformed::no(other),
    }
}

/// Resolve the ORDER BY keys a projection dropped against that
/// projection's input, as Spark's `ResolveMissingReferences` does: the
/// projection under the sort is widened with the attributes the keys
/// miss, and a projection above the sort drops them again. Only a plain
/// projection is widened, once every item is named: under a DISTINCT or
/// an aggregate a dropped column has no single value per output row, so
/// those keys stay unresolved and analysis reports them. Runs on each
/// node as [`resolve_references`] leaves it.
fn resolve_missing_references(p: LogicalPlan) -> Transformed<LogicalPlan> {
    let LogicalPlan::Sort { input, orders } = &p else {
        return Transformed::no(p);
    };
    let LogicalPlan::Project {
        input: child,
        exprs,
    } = input.as_ref()
    else {
        return Transformed::no(p);
    };
    if orders.iter().all(|o| o.expr.is_resolved()) {
        return Transformed::no(p);
    }
    let Ok(output) = exprs
        .iter()
        .map(Expr::to_attribute)
        .collect::<Result<Vec<_>>>()
    else {
        return Transformed::no(p);
    };
    if exprs.iter().any(Expr::contains_aggregate) {
        return Transformed::no(p);
    }
    let available = child.output();
    let mut missing: Vec<ColumnRef> = Vec::new();
    for order in orders {
        order.expr.for_each_node(&mut |e| {
            let Expr::UnresolvedAttribute { qualifier, name } = e else {
                return;
            };
            let mut found = (available.iter()).filter(|a| a.matches(qualifier.as_deref(), name));
            if let (Some(a), None) = (found.next(), found.next()) {
                if !missing.contains(a) && output.iter().all(|o| o.id != a.id) {
                    missing.push(a.clone());
                }
            }
        });
    }
    if missing.is_empty() {
        return Transformed::no(p);
    }
    let widened = LogicalPlan::Project {
        input: child.clone(),
        exprs: exprs
            .iter()
            .cloned()
            .chain(missing.into_iter().map(Expr::Column))
            .collect(),
    };
    let sort = LogicalPlan::Sort {
        input: Arc::new(widened),
        orders: orders.clone(),
    };
    Transformed::yes(LogicalPlan::Project {
        input: Arc::new(sort),
        exprs: output.into_iter().map(Expr::Column).collect(),
    })
}

/// Wrap unnamed projection/aggregate outputs in aliases so every output
/// attribute has a stable name and id.
fn alias_unnamed(plan: LogicalPlan, changed: &mut bool) -> LogicalPlan {
    fn needs_alias(e: &Expr) -> bool {
        !matches!(
            e,
            Expr::Column(_) | Expr::Alias { .. } | Expr::Wildcard { .. }
        )
    }
    fn alias_all(exprs: Vec<Expr>, ch: &mut bool) -> Vec<Expr> {
        exprs
            .into_iter()
            .map(|e| {
                if needs_alias(&e) {
                    *ch = true;
                    let name = e.auto_name();
                    e.alias(name)
                } else {
                    e
                }
            })
            .collect()
    }
    let out = plan.transform_up(&mut |p| match p {
        LogicalPlan::Project { input, exprs } => {
            let mut ch = false;
            let exprs = alias_all(exprs, &mut ch);
            let node = LogicalPlan::Project { input, exprs };
            if ch {
                Transformed::yes(node)
            } else {
                Transformed::no(node)
            }
        }
        LogicalPlan::Aggregate {
            input,
            groupings,
            aggregates,
        } => {
            let mut ch = false;
            let aggregates = alias_all(aggregates, &mut ch);
            let node = LogicalPlan::Aggregate {
                input,
                groupings,
                aggregates,
            };
            if ch {
                Transformed::yes(node)
            } else {
                Transformed::no(node)
            }
        }
        other => Transformed::no(other),
    });
    *changed |= out.changed;
    out.data
}

/// Insert casts so operand types agree (§4.3.1: "propagating and coercing
/// types through expressions").
fn coerce_types(plan: LogicalPlan, changed: &mut bool) -> Result<LogicalPlan> {
    let out = plan.transform_all_expressions(&mut |e| {
        if !e.is_resolved() {
            return Transformed::no(e);
        }
        coerce_expr(e)
    });
    *changed |= out.changed;
    Ok(out.data)
}

fn cast_if_needed(e: Expr, target: &DataType) -> (Expr, bool) {
    match e.data_type() {
        Ok(t) if &t == target => (e, false),
        Ok(DataType::Null) => (e, false), // NULL literals adapt at runtime
        Ok(_) => (e.cast(target.clone()), true),
        Err(_) => (e, false),
    }
}

fn coerce_expr(e: Expr) -> Transformed<Expr> {
    match e {
        Expr::BinaryOp { left, op, right } if op.is_arithmetic() || op.is_comparison() => {
            let (lt, rt) = match (left.data_type(), right.data_type()) {
                (Ok(l), Ok(r)) => (l, r),
                _ => return Transformed::no(Expr::BinaryOp { left, op, right }),
            };
            // Division always goes through Double (Hive semantics).
            if op == BinaryOperator::Div {
                let (l, lc) = cast_if_needed(*left, &DataType::Double);
                let (r, rc) = cast_if_needed(*right, &DataType::Double);
                let node = Expr::BinaryOp {
                    left: Box::new(l),
                    op,
                    right: Box::new(r),
                };
                return if lc || rc {
                    Transformed::yes(node)
                } else {
                    Transformed::no(node)
                };
            }
            if lt == rt || lt == DataType::Null || rt == DataType::Null {
                return Transformed::no(Expr::BinaryOp { left, op, right });
            }
            // Date/timestamp compared with a string: parse the string side
            // ('2015-01-01' style literals, as in the §5.3 query).
            if op.is_comparison() {
                let temporal = |t: &DataType| matches!(t, DataType::Date | DataType::Timestamp);
                if temporal(&lt) && rt == DataType::String {
                    let (r, _) = cast_if_needed(*right, &lt);
                    return Transformed::yes(Expr::BinaryOp {
                        left,
                        op,
                        right: Box::new(r),
                    });
                }
                if temporal(&rt) && lt == DataType::String {
                    let (l, _) = cast_if_needed(*left, &rt);
                    return Transformed::yes(Expr::BinaryOp {
                        left: Box::new(l),
                        op,
                        right,
                    });
                }
            }
            match DataType::tightest_common_type(&lt, &rt) {
                Some(common) => {
                    let (l, lc) = cast_if_needed(*left, &common);
                    let (r, rc) = cast_if_needed(*right, &common);
                    let node = Expr::BinaryOp {
                        left: Box::new(l),
                        op,
                        right: Box::new(r),
                    };
                    if lc || rc {
                        Transformed::yes(node)
                    } else {
                        Transformed::no(node)
                    }
                }
                None => Transformed::no(Expr::BinaryOp { left, op, right }),
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let base = match expr.data_type() {
                Ok(t) => t,
                Err(_) => {
                    return Transformed::no(Expr::InList {
                        expr,
                        list,
                        negated,
                    })
                }
            };
            let mut common = base.clone();
            for item in &list {
                if let Ok(t) = item.data_type() {
                    common = DataType::tightest_common_type(&common, &t).unwrap_or(common);
                }
            }
            let mut ch = false;
            let (e2, c0) = cast_if_needed(*expr, &common);
            ch |= c0;
            let list2: Vec<Expr> = list
                .into_iter()
                .map(|i| {
                    let (i2, c) = cast_if_needed(i, &common);
                    ch |= c;
                    i2
                })
                .collect();
            let node = Expr::InList {
                expr: Box::new(e2),
                list: list2,
                negated,
            };
            if ch {
                Transformed::yes(node)
            } else {
                Transformed::no(node)
            }
        }
        other => Transformed::no(other),
    }
}

/// Post-analysis sanity checks.
pub fn check_analysis(plan: &LogicalPlan) -> Result<()> {
    let mut problem: Option<CatalystError> = None;
    plan.for_each(&mut |p| {
        if problem.is_some() {
            return;
        }
        if let LogicalPlan::UnresolvedRelation { name } = p {
            problem = Some(CatalystError::analysis(format!(
                "unresolved table '{name}'"
            )));
            return;
        }
        let child_cols: Vec<String> = p
            .children()
            .iter()
            .flat_map(|c| c.output())
            .map(|a| match a.qualifier {
                Some(q) => format!("{q}.{}", a.name),
                None => a.name.to_string(),
            })
            .collect();
        let in_window = matches!(p, LogicalPlan::Window { .. });
        for e in p.expressions() {
            e.for_each_node(&mut |e| {
                if problem.is_some() {
                    return;
                }
                match e {
                    Expr::WindowFunction { func, .. } if !in_window => {
                        problem = Some(CatalystError::analysis(format!(
                            "window function {}() is only allowed in the SELECT list",
                            func.name()
                        )));
                    }
                    Expr::UnresolvedAttribute { qualifier, name } => {
                        let full = match qualifier {
                            Some(q) => format!("{q}.{name}"),
                            None => name.clone(),
                        };
                        problem = Some(CatalystError::analysis(format!(
                            "cannot resolve column '{full}'; available: [{}]",
                            child_cols.join(", ")
                        )));
                    }
                    Expr::UnresolvedFunction { name, .. } => {
                        problem = Some(CatalystError::analysis(format!(
                            "unresolved function '{name}'"
                        )));
                    }
                    Expr::Wildcard { .. } => {
                        problem = Some(CatalystError::analysis(
                            "'*' is only allowed in a SELECT list",
                        ));
                    }
                    _ => {}
                }
            });
        }
        if problem.is_some() {
            return;
        }
        match p {
            LogicalPlan::Filter { predicate, .. } => {
                if let Ok(t) = predicate.data_type() {
                    if t != DataType::Boolean && t != DataType::Null {
                        problem = Some(CatalystError::analysis(format!(
                            "filter predicate '{predicate}' has type {t}, expected BOOLEAN"
                        )));
                    }
                }
            }
            LogicalPlan::Join {
                condition: Some(c), ..
            } => {
                if let Ok(t) = c.data_type() {
                    if t != DataType::Boolean {
                        problem = Some(CatalystError::analysis(format!(
                            "join condition '{c}' has type {t}, expected BOOLEAN"
                        )));
                    }
                }
            }
            LogicalPlan::Aggregate {
                groupings,
                aggregates,
                ..
            } => {
                for agg in aggregates {
                    if let Some(e) = invalid_aggregate_expr(agg, groupings) {
                        problem = Some(CatalystError::analysis(format!(
                            "expression '{e}' is neither in GROUP BY nor inside an \
                             aggregate function"
                        )));
                        return;
                    }
                }
            }
            LogicalPlan::Union { inputs } => {
                if let Some(first) = inputs.first() {
                    let w = first.output().len();
                    for i in inputs.iter().skip(1) {
                        if i.output().len() != w {
                            problem = Some(CatalystError::analysis(format!(
                                "UNION inputs have different widths ({} vs {})",
                                w,
                                i.output().len()
                            )));
                        }
                    }
                }
            }
            _ => {}
        }
    });
    match problem {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// If `expr` references a column that is neither a grouping expression nor
/// under an aggregate function, return the offending subexpression.
fn invalid_aggregate_expr(expr: &Expr, groupings: &[Expr]) -> Option<Expr> {
    // An expression equal to a grouping expression is fine wherever it
    // appears; aggregates guard everything below them.
    if groupings.iter().any(|g| g == expr) {
        return None;
    }
    match expr {
        Expr::Alias { child, .. } => invalid_aggregate_expr(child, groupings),
        Expr::Agg { .. } => None,
        Expr::Column(_) => Some(expr.clone()),
        _ => {
            let mut offender = None;
            visit_direct_children(expr, &mut |c| {
                if offender.is_none() {
                    offender = invalid_aggregate_expr(c, groupings);
                }
            });
            offender
        }
    }
}

/// Call `f` on each *direct* child expression.
fn visit_direct_children(e: &Expr, f: &mut dyn FnMut(&Expr)) {
    match e {
        Expr::Literal(_)
        | Expr::UnresolvedAttribute { .. }
        | Expr::Wildcard { .. }
        | Expr::Column(_)
        | Expr::BoundRef { .. } => {}
        Expr::UnresolvedFunction { args, .. }
        | Expr::ScalarFn { args, .. }
        | Expr::Udf { args, .. } => args.iter().for_each(f),
        Expr::Alias { child, .. } => f(child),
        Expr::BinaryOp { left, right, .. } => {
            f(left);
            f(right);
        }
        Expr::Not(e)
        | Expr::Negate(e)
        | Expr::IsNull(e)
        | Expr::IsNotNull(e)
        | Expr::UnscaledValue(e) => f(e),
        Expr::Like { expr, pattern, .. } => {
            f(expr);
            f(pattern);
        }
        Expr::InList { expr, list, .. } => {
            f(expr);
            list.iter().for_each(f);
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(o) = operand {
                f(o);
            }
            for (c, r) in branches {
                f(c);
                f(r);
            }
            if let Some(e) = else_expr {
                f(e);
            }
        }
        Expr::Cast { expr, .. } | Expr::GetField { expr, .. } | Expr::MakeDecimal { expr, .. } => {
            f(expr)
        }
        Expr::GetItem { expr, index } => {
            f(expr);
            f(index);
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                f(a);
            }
        }
        Expr::WindowFunction {
            args,
            partition_by,
            order_by,
            ..
        } => {
            args.iter().chain(partition_by).for_each(&mut *f);
            order_by.iter().for_each(|o| f(&o.expr));
        }
    }
}

/// Resolve a sort-order list against given attributes (used by the
/// DataFrame API's eager analysis of `order_by`).
pub fn resolve_sort_orders(
    orders: Vec<SortOrder>,
    attrs: &[ColumnRef],
    functions: &FunctionRegistry,
) -> Result<Vec<SortOrder>> {
    let mut err = None;
    let out = orders
        .into_iter()
        .map(|o| SortOrder {
            expr: o
                .expr
                .transform_up(&mut |e| resolve_expr(e, attrs, functions, &mut err))
                .data,
            ascending: o.ascending,
        })
        .collect();
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builders::{col, count, count_star, lit, sum};
    use crate::row::Row;
    use crate::value::Value;

    fn users_table() -> LogicalPlan {
        LogicalPlan::LocalRelation {
            output: vec![
                ColumnRef::new("name", DataType::String, false),
                ColumnRef::new("age", DataType::Int, false),
            ],
            rows: Arc::new(vec![Row::new(vec![Value::str("Alice"), Value::Int(22)])]),
        }
    }

    fn analyzer() -> (Analyzer, Arc<SimpleCatalog>) {
        let catalog = Arc::new(SimpleCatalog::default());
        catalog.register("users", users_table());
        let a = Analyzer::new(catalog.clone(), Arc::new(FunctionRegistry::default()));
        (a, catalog)
    }

    #[test]
    fn resolves_table_and_columns() {
        let (a, _) = analyzer();
        let plan = LogicalPlan::UnresolvedRelation {
            name: "users".into(),
        }
        .filter(col("age").lt(lit(21)))
        .project(vec![col("name")]);
        let analyzed = a.analyze(plan).unwrap();
        assert!(analyzed.is_resolved());
        assert_eq!(analyzed.schema().field(0).name.as_ref(), "name");
    }

    #[test]
    fn unknown_table_errors_eagerly_with_candidates() {
        let (a, _) = analyzer();
        let plan = LogicalPlan::UnresolvedRelation {
            name: "missing".into(),
        };
        let err = a.analyze(plan).unwrap_err().to_string();
        assert!(err.contains("missing"));
        assert!(err.contains("users"));
    }

    #[test]
    fn unknown_column_errors_with_available_columns() {
        let (a, _) = analyzer();
        let plan = LogicalPlan::UnresolvedRelation {
            name: "users".into(),
        }
        .filter(col("aage").lt(lit(21)));
        let err = a.analyze(plan).unwrap_err().to_string();
        assert!(err.contains("aage"), "{err}");
        assert!(err.contains("age"), "{err}");
    }

    #[test]
    fn wildcard_expands_to_all_columns() {
        let (a, _) = analyzer();
        let plan = LogicalPlan::UnresolvedRelation {
            name: "users".into(),
        }
        .project(vec![Expr::Wildcard { qualifier: None }]);
        let analyzed = a.analyze(plan).unwrap();
        assert_eq!(analyzed.schema().len(), 2);
    }

    #[test]
    fn type_coercion_inserts_casts() {
        let (a, _) = analyzer();
        // age (Int) + 1.5 (Double) → cast(age as Double) + 1.5.
        let plan = LogicalPlan::UnresolvedRelation {
            name: "users".into(),
        }
        .project(vec![col("age").add(lit(1.5f64)).alias("x")]);
        let analyzed = a.analyze(plan).unwrap();
        let mut saw_cast = false;
        analyzed.for_each(&mut |p| {
            for e in p.expressions() {
                e.for_each_node(&mut |e| {
                    if matches!(e, Expr::Cast { .. }) {
                        saw_cast = true;
                    }
                });
            }
        });
        assert!(saw_cast);
        assert_eq!(analyzed.schema().field(0).dtype, DataType::Double);
    }

    #[test]
    fn aggregate_validation_catches_ungrouped_column() {
        let (a, _) = analyzer();
        // SELECT name, count(*) FROM users GROUP BY age — name is invalid.
        let plan = LogicalPlan::UnresolvedRelation {
            name: "users".into(),
        }
        .aggregate(vec![col("age")], vec![col("name"), count_star().alias("n")]);
        let err = a.analyze(plan).unwrap_err().to_string();
        assert!(err.contains("GROUP BY"), "{err}");
    }

    #[test]
    fn valid_aggregate_passes() {
        let (a, _) = analyzer();
        let plan = LogicalPlan::UnresolvedRelation {
            name: "users".into(),
        }
        .aggregate(
            vec![col("name")],
            vec![
                col("name"),
                count(col("age")).alias("c"),
                sum(col("age")).alias("s"),
            ],
        );
        let analyzed = a.analyze(plan).unwrap();
        assert_eq!(analyzed.schema().len(), 3);
        // SUM over INT yields LONG.
        assert_eq!(analyzed.schema().field(2).dtype, DataType::Long);
    }

    #[test]
    fn count_star_resolves() {
        let (a, _) = analyzer();
        let plan = LogicalPlan::UnresolvedRelation {
            name: "users".into(),
        }
        .aggregate(
            vec![],
            vec![Expr::UnresolvedFunction {
                name: "count".into(),
                args: vec![Expr::Wildcard { qualifier: None }],
                distinct: false,
            }],
        );
        let analyzed = a.analyze(plan).unwrap();
        assert_eq!(analyzed.schema().field(0).dtype, DataType::Long);
    }

    #[test]
    fn udf_resolution() {
        let catalog = Arc::new(SimpleCatalog::default());
        catalog.register("users", users_table());
        let functions = Arc::new(FunctionRegistry::default());
        functions.register(crate::expr::UdfImpl {
            name: "shout".into(),
            return_type: DataType::String,
            func: Box::new(|args| Ok(Value::str(format!("{}!", args[0].as_str().unwrap_or(""))))),
        });
        let a = Analyzer::new(catalog, functions);
        let plan = LogicalPlan::UnresolvedRelation {
            name: "users".into(),
        }
        .project(vec![Expr::UnresolvedFunction {
            name: "shout".into(),
            args: vec![col("name")],
            distinct: false,
        }]);
        let analyzed = a.analyze(plan).unwrap();
        assert_eq!(analyzed.schema().field(0).dtype, DataType::String);
    }

    #[test]
    fn undefined_function_errors() {
        let (a, _) = analyzer();
        let plan = LogicalPlan::UnresolvedRelation {
            name: "users".into(),
        }
        .project(vec![Expr::UnresolvedFunction {
            name: "nope".into(),
            args: vec![],
            distinct: false,
        }]);
        let err = a.analyze(plan).unwrap_err().to_string();
        assert!(err.contains("nope"));
    }

    #[test]
    fn filter_must_be_boolean() {
        let (a, _) = analyzer();
        let plan = LogicalPlan::UnresolvedRelation {
            name: "users".into(),
        }
        .filter(col("age").add(lit(1)));
        let err = a.analyze(plan).unwrap_err().to_string();
        assert!(err.contains("BOOLEAN"), "{err}");
    }

    #[test]
    fn order_by_an_unselected_column_sorts_below_a_narrowing_projection() {
        let (a, _) = analyzer();
        let users = || LogicalPlan::UnresolvedRelation {
            name: "users".into(),
        };
        let plan = (users().subquery_alias("u"))
            .project(vec![col("name")])
            .sort(vec![col("age").add(lit(1)).desc(), col("u.age").asc()])
            .limit(1);
        let analyzed = a.analyze(plan).unwrap();
        assert!(analyzed.is_resolved());
        let names: Vec<_> = analyzed.output().iter().map(|c| c.name.clone()).collect();
        assert_eq!(names, vec![Arc::from("name")]);
        // Limit, then the projection that drops `age` again, then the sort.
        let LogicalPlan::Limit { input, .. } = &analyzed else {
            panic!("{analyzed}");
        };
        let LogicalPlan::Project { input, .. } = input.as_ref() else {
            panic!("{analyzed}");
        };
        assert!(
            matches!(input.as_ref(), LogicalPlan::Sort { .. }),
            "{analyzed}"
        );

        // Under DISTINCT the dropped column has no value per row.
        let plan = (users().project(vec![col("name")]).distinct()).sort(vec![col("age").desc()]);
        let err = a.analyze(plan).unwrap_err();
        assert!(
            matches!(&err, CatalystError::Analysis(m) if m.contains("age")),
            "{err}"
        );
    }

    #[test]
    fn qualified_references_through_alias() {
        let (a, _) = analyzer();
        let plan = LogicalPlan::UnresolvedRelation {
            name: "users".into(),
        }
        .subquery_alias("u")
        .filter(col("u.age").gt(lit(18)))
        .project(vec![col("u.name")]);
        let analyzed = a.analyze(plan).unwrap();
        assert!(analyzed.is_resolved());
    }

    #[test]
    fn struct_field_access_resolves_dotted_path() {
        use crate::types::StructField;
        let catalog = Arc::new(SimpleCatalog::default());
        let loc_type = DataType::struct_type(vec![
            StructField::new("lat", DataType::Double, false),
            StructField::new("long", DataType::Double, false),
        ]);
        catalog.register(
            "tweets",
            LogicalPlan::LocalRelation {
                output: vec![ColumnRef::new("loc", loc_type, true)],
                rows: Arc::new(vec![]),
            },
        );
        let a = Analyzer::new(catalog, Arc::new(FunctionRegistry::default()));
        let plan = LogicalPlan::UnresolvedRelation {
            name: "tweets".into(),
        }
        .project(vec![col("loc.lat")]);
        let analyzed = a.analyze(plan).unwrap();
        assert_eq!(analyzed.schema().field(0).dtype, DataType::Double);
    }
}
