//! Plan-level optimization rules: predicate pushdown, projection pruning,
//! filter/projection collapsing, limit pushdown.

use crate::expr::{BinaryOperator, ColumnRef, Expr, ExprId};
use crate::plan::{JoinType, LogicalPlan};
use crate::rules::Rule;
use crate::tree::{Transformed, TreeNode};
use std::collections::HashMap;
use std::sync::Arc;

/// Split a predicate on AND into conjuncts.
pub fn split_conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::BinaryOp {
            left,
            op: BinaryOperator::And,
            right,
        } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// AND together a list of conjuncts (None when empty).
pub fn conjunction(mut conjuncts: Vec<Expr>) -> Option<Expr> {
    let first = if conjuncts.is_empty() {
        return None;
    } else {
        conjuncts.remove(0)
    };
    Some(conjuncts.into_iter().fold(first, |acc, c| acc.and(c)))
}

/// True when every column `e` references appears in `attrs`.
fn references_subset(e: &Expr, attrs: &[ColumnRef]) -> bool {
    e.references()
        .iter()
        .all(|r| attrs.iter().any(|a| a.id == r.id))
}

/// Replace `Column(id)` with `map[id]` throughout an expression.
fn substitute(e: Expr, map: &HashMap<ExprId, Expr>) -> Transformed<Expr> {
    e.transform_up(&mut |e| match e {
        Expr::Column(c) => match map.get(&c.id) {
            Some(repl) => Transformed::yes(repl.clone()),
            None => Transformed::no(Expr::Column(c)),
        },
        other => Transformed::no(other),
    })
}

/// Alias-substitution map of a projection: output attribute id → the
/// *named* expression that computes it. Keeping the `Alias` wrapper (with
/// its id) is essential: a collapsed projection item must still produce
/// the same output attribute.
fn projection_map(exprs: &[Expr]) -> Option<HashMap<ExprId, Expr>> {
    let mut map = HashMap::new();
    for e in exprs {
        match e {
            Expr::Column(c) => {
                map.insert(c.id, e.clone());
            }
            Expr::Alias { id, .. } => {
                map.insert(*id, e.clone());
            }
            _ => return None, // unnamed exprs: analysis should have aliased
        }
    }
    Some(map)
}

/// Remove `SubqueryAlias` nodes once analysis is done — qualifiers only
/// matter for name resolution, and attribute ids are stable, so aliases
/// just obstruct pattern-matching rules (Spark's
/// `EliminateSubqueryAliases`).
pub struct EliminateSubqueryAliases;

impl Rule<LogicalPlan> for EliminateSubqueryAliases {
    fn name(&self) -> &str {
        "EliminateSubqueryAliases"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_up(&mut |p| match p {
            LogicalPlan::SubqueryAlias { input, .. } => Transformed::yes((*input).clone()),
            other => Transformed::no(other),
        })
    }
}

/// Merge adjacent Filters into one conjunction.
pub struct CombineFilters;

impl Rule<LogicalPlan> for CombineFilters {
    fn name(&self) -> &str {
        "CombineFilters"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_up(&mut |p| match p {
            LogicalPlan::Filter { input, predicate } => match &*input {
                LogicalPlan::Filter {
                    input: inner,
                    predicate: inner_pred,
                } => Transformed::yes(LogicalPlan::Filter {
                    input: inner.clone(),
                    predicate: inner_pred.clone().and(predicate),
                }),
                _ => Transformed::no(LogicalPlan::Filter { input, predicate }),
            },
            other => Transformed::no(other),
        })
    }
}

/// Merge adjacent Projects, inlining aliases.
pub struct CollapseProjects;

impl Rule<LogicalPlan> for CollapseProjects {
    fn name(&self) -> &str {
        "CollapseProjects"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_up(&mut |p| match p {
            LogicalPlan::Project { input, exprs } => match &*input {
                LogicalPlan::Project {
                    input: inner,
                    exprs: inner_exprs,
                } => match projection_map(inner_exprs) {
                    Some(map) => {
                        let merged: Vec<Expr> = exprs
                            .iter()
                            .map(|e| substitute(e.clone(), &map).data)
                            .collect();
                        Transformed::yes(LogicalPlan::Project {
                            input: inner.clone(),
                            exprs: merged,
                        })
                    }
                    None => Transformed::no(LogicalPlan::Project { input, exprs }),
                },
                _ => Transformed::no(LogicalPlan::Project { input, exprs }),
            },
            other => Transformed::no(other),
        })
    }
}

/// Predicate pushdown (§4.3.2): move filters toward the data.
pub struct PushDownPredicate;

impl Rule<LogicalPlan> for PushDownPredicate {
    fn name(&self) -> &str {
        "PushDownPredicate"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_up(&mut |p| {
            let LogicalPlan::Filter { input, predicate } = p else {
                return Transformed::no(p);
            };
            match (*input).clone() {
                // Below a projection: substitute aliases, move under.
                LogicalPlan::Project {
                    input: child,
                    exprs,
                } => {
                    // Don't push through aggregate-producing projections
                    // (can't happen post-analysis, but be safe) or UDFs in
                    // substituted positions.
                    match projection_map(&exprs) {
                        Some(map) => {
                            let new_pred = substitute(predicate, &map).data;
                            Transformed::yes(LogicalPlan::Project {
                                input: Arc::new(LogicalPlan::Filter {
                                    input: child,
                                    predicate: new_pred,
                                }),
                                exprs,
                            })
                        }
                        None => Transformed::no(LogicalPlan::Filter {
                            input: Arc::new(LogicalPlan::Project {
                                input: child,
                                exprs,
                            }),
                            predicate,
                        }),
                    }
                }
                // Below an alias: ids are stable, just swap.
                LogicalPlan::SubqueryAlias {
                    input: child,
                    alias,
                } => Transformed::yes(LogicalPlan::SubqueryAlias {
                    input: Arc::new(LogicalPlan::Filter {
                        input: child,
                        predicate,
                    }),
                    alias,
                }),
                // Below a sort (order unaffected by filtering).
                LogicalPlan::Sort {
                    input: child,
                    orders,
                } => Transformed::yes(LogicalPlan::Sort {
                    input: Arc::new(LogicalPlan::Filter {
                        input: child,
                        predicate,
                    }),
                    orders,
                }),
                // Into both sides of a union.
                LogicalPlan::Union { inputs } => {
                    // Union inputs share the first input's output ids only
                    // if built from the same plan; remap by position.
                    let first_out = inputs.first().map(|i| i.output()).unwrap_or_default();
                    let pushed: Vec<Arc<LogicalPlan>> = inputs
                        .iter()
                        .map(|i| {
                            let out = i.output();
                            let map: HashMap<ExprId, Expr> = first_out
                                .iter()
                                .zip(out.iter())
                                .map(|(f, o)| (f.id, Expr::Column(o.clone())))
                                .collect();
                            let pred = substitute(predicate.clone(), &map).data;
                            Arc::new(LogicalPlan::Filter {
                                input: i.clone(),
                                predicate: pred,
                            })
                        })
                        .collect();
                    Transformed::yes(LogicalPlan::Union { inputs: pushed })
                }
                // Split across a join.
                LogicalPlan::Join {
                    left,
                    right,
                    join_type,
                    condition,
                } => {
                    let left_out = left.output();
                    let right_out = right.output();
                    let mut to_left = Vec::new();
                    let mut to_right = Vec::new();
                    let mut kept = Vec::new();
                    for c in split_conjuncts(&predicate) {
                        // Pushing below an outer join's preserved side is
                        // fine; pushing into the null-producing side is
                        // not. Inner/cross joins accept both.
                        let can_left = matches!(
                            join_type,
                            JoinType::Inner | JoinType::Cross | JoinType::Left
                        );
                        let can_right = matches!(
                            join_type,
                            JoinType::Inner | JoinType::Cross | JoinType::Right
                        );
                        if can_left && references_subset(&c, &left_out) {
                            to_left.push(c);
                        } else if can_right && references_subset(&c, &right_out) {
                            to_right.push(c);
                        } else {
                            kept.push(c);
                        }
                    }
                    // For inner/cross joins, conjuncts spanning both sides
                    // become part of the join condition (enabling equi-join
                    // detection at physical planning); for outer joins they
                    // must stay above.
                    let absorb_into_condition =
                        matches!(join_type, JoinType::Inner | JoinType::Cross);
                    let kept_in_condition = absorb_into_condition && !kept.is_empty();
                    if to_left.is_empty() && to_right.is_empty() && !kept_in_condition {
                        return Transformed::no(LogicalPlan::Filter {
                            input: Arc::new(LogicalPlan::Join {
                                left,
                                right,
                                join_type,
                                condition,
                            }),
                            predicate,
                        });
                    }
                    let new_left = match conjunction(to_left) {
                        Some(p) => Arc::new(LogicalPlan::Filter {
                            input: left,
                            predicate: p,
                        }),
                        None => left,
                    };
                    let new_right = match conjunction(to_right) {
                        Some(p) => Arc::new(LogicalPlan::Filter {
                            input: right,
                            predicate: p,
                        }),
                        None => right,
                    };
                    let (condition, kept, join_type) = if kept_in_condition {
                        let mut all = condition.map(|c| split_conjuncts(&c)).unwrap_or_default();
                        all.extend(kept);
                        (conjunction(all), vec![], JoinType::Inner)
                    } else {
                        (condition, kept, join_type)
                    };
                    let join = LogicalPlan::Join {
                        left: new_left,
                        right: new_right,
                        join_type,
                        condition,
                    };
                    match conjunction(kept) {
                        Some(p) => Transformed::yes(LogicalPlan::Filter {
                            input: Arc::new(join),
                            predicate: p,
                        }),
                        None => Transformed::yes(join),
                    }
                }
                // Below an aggregate, for conjuncts over grouping columns.
                LogicalPlan::Aggregate {
                    input: child,
                    groupings,
                    aggregates,
                } => {
                    let agg_out = LogicalPlan::Aggregate {
                        input: child.clone(),
                        groupings: groupings.clone(),
                        aggregates: aggregates.clone(),
                    };
                    // Output attr id → grouping expression it names.
                    let mut group_map: HashMap<ExprId, Expr> = HashMap::new();
                    for a in &aggregates {
                        match a {
                            Expr::Column(c) if groupings.contains(a) => {
                                group_map.insert(c.id, a.clone());
                            }
                            Expr::Alias {
                                child: inner, id, ..
                            } if groupings.contains(inner) => {
                                group_map.insert(*id, (**inner).clone());
                            }
                            _ => {}
                        }
                    }
                    let mut pushable = Vec::new();
                    let mut kept = Vec::new();
                    for c in split_conjuncts(&predicate) {
                        let refs = c.references();
                        if !c.contains_aggregate()
                            && !refs.is_empty()
                            && refs.iter().all(|r| group_map.contains_key(&r.id))
                        {
                            pushable.push(substitute(c, &group_map).data);
                        } else {
                            kept.push(c);
                        }
                    }
                    if pushable.is_empty() {
                        return Transformed::no(LogicalPlan::Filter {
                            input: Arc::new(agg_out),
                            predicate,
                        });
                    }
                    let filtered_child = Arc::new(LogicalPlan::Filter {
                        input: child,
                        predicate: conjunction(pushable).unwrap(),
                    });
                    let new_agg = LogicalPlan::Aggregate {
                        input: filtered_child,
                        groupings,
                        aggregates,
                    };
                    match conjunction(kept) {
                        Some(p) => Transformed::yes(LogicalPlan::Filter {
                            input: Arc::new(new_agg),
                            predicate: p,
                        }),
                        None => Transformed::yes(new_agg),
                    }
                }
                other => Transformed::no(LogicalPlan::Filter {
                    input: Arc::new(other),
                    predicate,
                }),
            }
        })
    }
}

/// Projection pruning (§4.3.2): narrow join, window and aggregate inputs
/// to the columns actually used, shrinking shuffles.
pub struct ColumnPruning;

impl ColumnPruning {
    fn prune_side(side: Arc<LogicalPlan>, required: &[ColumnRef]) -> (Arc<LogicalPlan>, bool) {
        let out = side.output();
        let mut keep: Vec<ColumnRef> = out
            .iter()
            .filter(|c| required.iter().any(|r| r.id == c.id))
            .cloned()
            .collect();
        // Nothing required (e.g. COUNT(*)): keep the narrowest column so
        // downstream scans still decode as little as possible.
        if keep.is_empty() {
            match out.iter().min_by_key(|c| c.dtype.approx_value_bytes()) {
                Some(cheapest) => keep.push(cheapest.clone()),
                None => return (side, false),
            }
        }
        if keep.len() == out.len() {
            return (side, false);
        }
        let exprs = keep.into_iter().map(Expr::Column).collect();
        (Arc::new(LogicalPlan::Project { input: side, exprs }), true)
    }
}

impl Rule<LogicalPlan> for ColumnPruning {
    fn name(&self) -> &str {
        "ColumnPruning"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_down(&mut |p| match p {
            // Project over Join: push the required set into both sides.
            LogicalPlan::Project { input, exprs } => match (*input).clone() {
                LogicalPlan::Join {
                    left,
                    right,
                    join_type,
                    condition,
                } => {
                    let mut required: Vec<ColumnRef> =
                        exprs.iter().flat_map(|e| e.references()).collect();
                    if let Some(c) = &condition {
                        required.extend(c.references());
                    }
                    let (new_left, lc) = Self::prune_side(left, &required);
                    let (new_right, rc) = Self::prune_side(right, &required);
                    let node = LogicalPlan::Project {
                        input: Arc::new(LogicalPlan::Join {
                            left: new_left,
                            right: new_right,
                            join_type,
                            condition,
                        }),
                        exprs,
                    };
                    if lc || rc {
                        Transformed::yes(node)
                    } else {
                        Transformed::no(node)
                    }
                }
                // Project over Window: the window passes its input
                // through, so that input needs what the projection reads
                // of it plus the partition, order and argument columns.
                LogicalPlan::Window {
                    input: child,
                    window_exprs,
                    partition_by,
                    order_by,
                } => {
                    let required: Vec<ColumnRef> = exprs
                        .iter()
                        .chain(&window_exprs)
                        .chain(&partition_by)
                        .chain(order_by.iter().map(|o| &o.expr))
                        .flat_map(|e| e.references())
                        .collect();
                    let (new_child, changed) = Self::prune_side(child, &required);
                    let node = LogicalPlan::Project {
                        input: Arc::new(LogicalPlan::Window {
                            input: new_child,
                            window_exprs,
                            partition_by,
                            order_by,
                        }),
                        exprs,
                    };
                    Transformed::no(node).or_changed(changed)
                }
                other => Transformed::no(LogicalPlan::Project {
                    input: Arc::new(other),
                    exprs,
                }),
            },
            // Aggregate: its input only needs grouping/aggregate refs.
            LogicalPlan::Aggregate {
                input,
                groupings,
                aggregates,
            } => {
                let required: Vec<ColumnRef> = groupings
                    .iter()
                    .chain(aggregates.iter())
                    .flat_map(|e| e.references())
                    .collect();
                let (new_input, ch) = Self::prune_side(input, &required);
                let node = LogicalPlan::Aggregate {
                    input: new_input,
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
        })
    }
}

/// `Limit(Limit(x))` → single limit with the smaller bound.
pub struct CombineLimits;

impl Rule<LogicalPlan> for CombineLimits {
    fn name(&self) -> &str {
        "CombineLimits"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_up(&mut |p| match p {
            LogicalPlan::Limit { input, n } => match &*input {
                LogicalPlan::Limit { input: inner, n: m } => Transformed::yes(LogicalPlan::Limit {
                    input: inner.clone(),
                    n: n.min(*m),
                }),
                _ => Transformed::no(LogicalPlan::Limit { input, n }),
            },
            other => Transformed::no(other),
        })
    }
}

/// Push limits through projections and into union branches.
pub struct PushDownLimit;

impl Rule<LogicalPlan> for PushDownLimit {
    fn name(&self) -> &str {
        "PushDownLimit"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_up(&mut |p| match p {
            LogicalPlan::Limit { input, n } => match (*input).clone() {
                LogicalPlan::Project {
                    input: child,
                    exprs,
                } => Transformed::yes(LogicalPlan::Project {
                    input: Arc::new(LogicalPlan::Limit { input: child, n }),
                    exprs,
                }),
                LogicalPlan::Union { inputs } => {
                    // Cap each branch, keep the outer limit.
                    let already_capped = inputs
                        .iter()
                        .all(|i| matches!(&**i, LogicalPlan::Limit { n: m, .. } if *m <= n));
                    if already_capped {
                        return Transformed::no(LogicalPlan::Limit {
                            input: Arc::new(LogicalPlan::Union { inputs }),
                            n,
                        });
                    }
                    let capped: Vec<Arc<LogicalPlan>> = inputs
                        .into_iter()
                        .map(|i| Arc::new(LogicalPlan::Limit { input: i, n }))
                        .collect();
                    Transformed::yes(LogicalPlan::Limit {
                        input: Arc::new(LogicalPlan::Union { inputs: capped }),
                        n,
                    })
                }
                other => Transformed::no(LogicalPlan::Limit {
                    input: Arc::new(other),
                    n,
                }),
            },
            other => Transformed::no(other),
        })
    }
}
