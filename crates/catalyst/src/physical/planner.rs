//! Physical planning (§4.3.3): strategies turn the optimized logical plan
//! into physical operators, using the cost model to select join
//! algorithms and pushing projections/filters into data sources.

use super::plan::{BuildSide, Partitioning, PhysicalPlan};
use super::stats;
use crate::error::{CatalystError, Result};
use crate::expr::{BinaryOperator, ColumnRef, Expr, ScalarFunc};
use crate::optimizer::{conjunction, split_conjuncts};
use crate::plan::{JoinType, LogicalPlan};
use crate::source::{BaseRelation, Filter, ScanCapability};
use crate::value::Value;
use std::sync::Arc;

/// Planner configuration (the ablation switches live here).
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Push filters into capable sources?
    pub pushdown_enabled: bool,
    /// Prune columns at the source?
    pub column_pruning_enabled: bool,
    /// Broadcast-join threshold in estimated bytes.
    pub broadcast_threshold: u64,
    /// Cost-based build-side selection for shuffled hash joins: build the
    /// smaller estimated side. When off (the reference configuration),
    /// shuffled joins always build the right side.
    pub cost_based_build_side: bool,
    /// Reducers per exchange (`spark.sql.shuffle.partitions`).
    pub shuffle_partitions: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            pushdown_enabled: true,
            column_pruning_enabled: true,
            broadcast_threshold: 10 * 1024 * 1024,
            cost_based_build_side: true,
            shuffle_partitions: 8,
        }
    }
}

/// A planning strategy: maps a logical node it recognizes to a physical
/// plan (recursively planning children through the planner), or passes.
///
/// This is the extension point the §7.2 genomics range join uses: a user
/// strategy registered ahead of the defaults can claim `Join` nodes whose
/// shape it recognizes and emit a custom [`super::plan::ExtensionExec`].
/// A strategy plans its children with [`Planner::plan_child`]; exchanges
/// are the planner's business, added once over the whole tree.
pub trait Strategy: Send + Sync {
    /// Strategy name.
    fn name(&self) -> &str;
    /// Try to plan this node.
    fn apply(&self, plan: &LogicalPlan, planner: &Planner) -> Result<Option<PhysicalPlan>>;
}

/// The physical planner.
pub struct Planner {
    strategies: Vec<Arc<dyn Strategy>>,
    /// Configuration.
    pub config: PlannerConfig,
}

impl Planner {
    /// Planner with the default strategies.
    pub fn new(config: PlannerConfig) -> Self {
        Planner {
            strategies: vec![
                Arc::new(SpecialLimits),
                Arc::new(Aggregation),
                Arc::new(JoinSelection),
                Arc::new(BasicOperators),
            ],
            config,
        }
    }

    /// Register a user strategy ahead of the defaults.
    pub fn add_strategy(&mut self, strategy: Arc<dyn Strategy>) {
        self.strategies.insert(0, strategy);
    }

    /// Plan a query: the strategies pick operators, then
    /// [`ensure_requirements`] puts the exchanges they need under them.
    pub fn plan(&self, logical: &LogicalPlan) -> Result<PhysicalPlan> {
        let operators = self.plan_child(logical)?;
        Ok(ensure_requirements(
            &operators,
            self.config.shuffle_partitions,
        ))
    }

    /// Plan a logical subtree into operators, with no exchanges: what a
    /// strategy calls for its children.
    pub fn plan_child(&self, logical: &LogicalPlan) -> Result<PhysicalPlan> {
        for s in &self.strategies {
            if let Some(p) = s.apply(logical, self)? {
                return Ok(p);
            }
        }
        Err(CatalystError::Plan(format!(
            "no strategy could plan node: {}",
            logical.node_description()
        )))
    }
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new(PlannerConfig::default())
    }
}

/// Put an [`PhysicalPlan::Exchange`] under every operator that needs its
/// input co-located, with `partitions` reducers: a `Hash` exchange under
/// each side of a shuffled hash join (on that side's keys) and under a
/// grouped aggregate (on its groupings), `Hash` on the partition keys
/// under a window (`Single` when it has none), and `Range` on the sort
/// keys under a sort. Broadcast and nested-loop joins, global aggregates,
/// top-N, limits and unions need none.
///
/// Every requirement is satisfied by an exchange of its own: the
/// operators route records with different hash functions, so no child's
/// distribution can stand in for another's.
pub fn ensure_requirements(plan: &PhysicalPlan, partitions: usize) -> PhysicalPlan {
    let children = plan.children();
    if children.is_empty() {
        return plan.clone();
    }
    let partitions = partitions.max(1);
    let hash = |keys: &[Expr]| Partitioning::Hash {
        keys: keys.to_vec(),
        partitions,
    };
    let required = match plan {
        PhysicalPlan::ShuffledHashJoin {
            left_keys,
            right_keys,
            ..
        } => vec![Some(hash(left_keys)), Some(hash(right_keys))],
        PhysicalPlan::HashAggregate { groupings, .. } if !groupings.is_empty() => {
            vec![Some(hash(groupings))]
        }
        PhysicalPlan::Window { partition_by, .. } if partition_by.is_empty() => {
            vec![Some(Partitioning::Single)]
        }
        PhysicalPlan::Window { partition_by, .. } => vec![Some(hash(partition_by))],
        PhysicalPlan::Sort { orders, .. } => vec![Some(Partitioning::Range {
            orders: orders.clone(),
            partitions,
        })],
        _ => vec![None; children.len()],
    };
    let children = (children.iter().zip(required))
        .map(|(child, partitioning)| {
            let input = Arc::new(ensure_requirements(child, partitions));
            match partitioning {
                Some(partitioning) => Arc::new(PhysicalPlan::Exchange {
                    input,
                    partitioning,
                }),
                None => input,
            }
        })
        .collect();
    plan.with_children(children)
}

/// `Limit(Sort(x))` → `TakeOrdered` (top-k without a global sort); also
/// looks through an intervening `Project`.
struct SpecialLimits;

impl Strategy for SpecialLimits {
    fn name(&self) -> &str {
        "SpecialLimits"
    }

    fn apply(&self, plan: &LogicalPlan, planner: &Planner) -> Result<Option<PhysicalPlan>> {
        let LogicalPlan::Limit { input, n } = plan else {
            return Ok(None);
        };
        match &**input {
            LogicalPlan::Sort {
                input: sorted,
                orders,
            } => Ok(Some(PhysicalPlan::TakeOrdered {
                input: Arc::new(planner.plan_child(sorted)?),
                orders: orders.clone(),
                n: *n,
            })),
            LogicalPlan::Project {
                input: proj_in,
                exprs,
            } => match &**proj_in {
                LogicalPlan::Sort {
                    input: sorted,
                    orders,
                } => Ok(Some(PhysicalPlan::Project {
                    input: Arc::new(PhysicalPlan::TakeOrdered {
                        input: Arc::new(planner.plan_child(sorted)?),
                        orders: orders.clone(),
                        n: *n,
                    }),
                    exprs: exprs.clone(),
                })),
                _ => Ok(None),
            },
            _ => Ok(None),
        }
    }
}

/// Aggregates become hash aggregation (the backend runs partial
/// aggregation before the shuffle, final after).
struct Aggregation;

impl Strategy for Aggregation {
    fn name(&self) -> &str {
        "Aggregation"
    }

    fn apply(&self, plan: &LogicalPlan, planner: &Planner) -> Result<Option<PhysicalPlan>> {
        match plan {
            LogicalPlan::Aggregate {
                input,
                groupings,
                aggregates,
            } => Ok(Some(PhysicalPlan::HashAggregate {
                input: Arc::new(planner.plan_child(input)?),
                groupings: groupings.clone(),
                output_exprs: aggregates.clone(),
            })),
            LogicalPlan::Distinct { input } => {
                let cols: Vec<Expr> = input.output().into_iter().map(Expr::Column).collect();
                Ok(Some(PhysicalPlan::HashAggregate {
                    input: Arc::new(planner.plan_child(input)?),
                    groupings: cols.clone(),
                    output_exprs: cols,
                }))
            }
            _ => Ok(None),
        }
    }
}

/// Cost-based join selection: broadcast hash join when one side's
/// estimated size is under the threshold, otherwise shuffled hash join;
/// nested-loop for non-equi conditions (§4.3.3).
struct JoinSelection;

/// Split a join condition into equi-key pairs and a residual.
pub fn extract_equi_keys(
    condition: &Expr,
    left_out: &[ColumnRef],
    right_out: &[ColumnRef],
) -> (Vec<(Expr, Expr)>, Vec<Expr>) {
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    let side_of = |e: &Expr| -> Option<BuildSide> {
        let refs = e.references();
        if refs.is_empty() {
            return None;
        }
        if refs.iter().all(|r| left_out.iter().any(|a| a.id == r.id)) {
            Some(BuildSide::Left)
        } else if refs.iter().all(|r| right_out.iter().any(|a| a.id == r.id)) {
            Some(BuildSide::Right)
        } else {
            None
        }
    };
    for c in split_conjuncts(condition) {
        if let Expr::BinaryOp {
            left,
            op: BinaryOperator::Eq,
            right,
        } = &c
        {
            match (side_of(left), side_of(right)) {
                (Some(BuildSide::Left), Some(BuildSide::Right)) => {
                    keys.push(((**left).clone(), (**right).clone()));
                    continue;
                }
                (Some(BuildSide::Right), Some(BuildSide::Left)) => {
                    keys.push(((**right).clone(), (**left).clone()));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(c);
    }
    (keys, residual)
}

impl Strategy for JoinSelection {
    fn name(&self) -> &str {
        "JoinSelection"
    }

    fn apply(&self, plan: &LogicalPlan, planner: &Planner) -> Result<Option<PhysicalPlan>> {
        let LogicalPlan::Join {
            left,
            right,
            join_type,
            condition,
        } = plan
        else {
            return Ok(None);
        };
        let left_phys = Arc::new(planner.plan_child(left)?);
        let right_phys = Arc::new(planner.plan_child(right)?);

        let (keys, residual) = match condition {
            Some(c) => extract_equi_keys(c, &left.output(), &right.output()),
            None => (vec![], vec![]),
        };

        if keys.is_empty() {
            // A nested loop streams the left side against the collected
            // right, so it can pad unmatched left rows and nothing else.
            if matches!(join_type, JoinType::Right | JoinType::Full) {
                return Err(CatalystError::Plan(format!(
                    "non-equi {} joins are not supported; rewrite with an equality condition",
                    join_type.keyword()
                )));
            }
            return Ok(Some(PhysicalPlan::NestedLoopJoin {
                left: left_phys,
                right: right_phys,
                condition: condition.clone(),
                join_type: *join_type,
            }));
        }

        let (left_keys, right_keys): (Vec<Expr>, Vec<Expr>) = keys.into_iter().unzip();
        let residual = conjunction(residual);

        // Cost-based choice (the only cost-based step; all else is
        // rule-based, per §4.3.3). A side with unknown statistics must be
        // treated as arbitrarily large: it never qualifies for broadcast
        // here, no matter what scaling the operators above it applied —
        // adaptive execution may still demote the join later, from
        // *measured* sizes.
        let left_stats = stats::estimate(left);
        let right_stats = stats::estimate(right);
        let (left_size, right_size) = (left_stats.size_in_bytes, right_stats.size_in_bytes);
        let threshold = planner.config.broadcast_threshold;
        let left_fits = !left_stats.is_unknown() && left_size <= threshold;
        let right_fits = !right_stats.is_unknown() && right_size <= threshold;
        // A broadcast join must not need to emit unmatched *build* rows:
        // the build table is replicated per stream partition, so those
        // rows would duplicate.
        let can_build_right = matches!(join_type, JoinType::Inner | JoinType::Left);
        let can_build_left = matches!(join_type, JoinType::Inner | JoinType::Right);

        // Prefer building the smaller side when both qualify.
        let prefer_left =
            can_build_left && left_fits && (left_size < right_size || !can_build_right);
        let plan = if prefer_left {
            PhysicalPlan::BroadcastHashJoin {
                left: left_phys,
                right: right_phys,
                left_keys,
                right_keys,
                join_type: *join_type,
                build_side: BuildSide::Left,
                residual,
            }
        } else if right_fits && can_build_right {
            PhysicalPlan::BroadcastHashJoin {
                left: left_phys,
                right: right_phys,
                left_keys,
                right_keys,
                join_type: *join_type,
                build_side: BuildSide::Right,
                residual,
            }
        } else if left_fits && can_build_left {
            PhysicalPlan::BroadcastHashJoin {
                left: left_phys,
                right: right_phys,
                left_keys,
                right_keys,
                join_type: *join_type,
                build_side: BuildSide::Left,
                residual,
            }
        } else {
            // Build-probe ordering (DataFusion's hash-build-probe-order
            // rule): both sides of a shuffled join are co-partitioned, so
            // either side may be built for any join type — build the
            // smaller estimated side. A side with unknown statistics is
            // arbitrarily large and never preferred.
            let build_side = if planner.config.cost_based_build_side
                && !left_stats.is_unknown()
                && (right_stats.is_unknown() || left_size < right_size)
            {
                BuildSide::Left
            } else {
                BuildSide::Right
            };
            PhysicalPlan::ShuffledHashJoin {
                left: left_phys,
                right: right_phys,
                left_keys,
                right_keys,
                join_type: *join_type,
                build_side,
                residual,
            }
        };
        Ok(Some(plan))
    }
}

/// Everything else, including the scan pipeline that pushes projections
/// and filters into data sources (§4.4.1).
struct BasicOperators;

impl Strategy for BasicOperators {
    fn name(&self) -> &str {
        "BasicOperators"
    }

    fn apply(&self, plan: &LogicalPlan, planner: &Planner) -> Result<Option<PhysicalPlan>> {
        let out = match plan {
            // Scan pipelines: recognize Project/Filter directly over a
            // Scan so pruning and pushdown reach the source.
            LogicalPlan::Scan {
                relation, output, ..
            } => plan_scan(planner, relation, output, None, None)?,
            LogicalPlan::Filter { input, predicate } => match &**input {
                LogicalPlan::Scan {
                    relation, output, ..
                } => plan_scan(planner, relation, output, None, Some(predicate))?,
                _ => PhysicalPlan::Filter {
                    input: Arc::new(planner.plan_child(input)?),
                    predicate: predicate.clone(),
                },
            },
            LogicalPlan::Project { input, exprs } => match &**input {
                LogicalPlan::Scan {
                    relation, output, ..
                } => plan_scan(planner, relation, output, Some(exprs), None)?,
                LogicalPlan::Filter {
                    input: finput,
                    predicate,
                } => match &**finput {
                    LogicalPlan::Scan {
                        relation, output, ..
                    } => plan_scan(planner, relation, output, Some(exprs), Some(predicate))?,
                    _ => PhysicalPlan::Project {
                        input: Arc::new(planner.plan_child(input)?),
                        exprs: exprs.clone(),
                    },
                },
                _ => PhysicalPlan::Project {
                    input: Arc::new(planner.plan_child(input)?),
                    exprs: exprs.clone(),
                },
            },
            LogicalPlan::External { data, output } => PhysicalPlan::ExternalScan {
                data: data.clone(),
                output: output.clone(),
            },
            LogicalPlan::LocalRelation { output, rows } => PhysicalPlan::LocalData {
                rows: rows.clone(),
                output: output.clone(),
            },
            LogicalPlan::Sort { input, orders } => PhysicalPlan::Sort {
                input: Arc::new(planner.plan_child(input)?),
                orders: orders.clone(),
            },
            LogicalPlan::Window {
                input,
                window_exprs,
                partition_by,
                order_by,
            } => PhysicalPlan::Window {
                input: Arc::new(planner.plan_child(input)?),
                window_exprs: window_exprs.clone(),
                partition_by: partition_by.clone(),
                order_by: order_by.clone(),
            },
            LogicalPlan::Limit { input, n } => PhysicalPlan::Limit {
                input: Arc::new(planner.plan_child(input)?),
                n: *n,
            },
            LogicalPlan::Union { inputs } => {
                let mut phys = Vec::with_capacity(inputs.len());
                for i in inputs {
                    phys.push(Arc::new(planner.plan_child(i)?));
                }
                PhysicalPlan::Union { inputs: phys }
            }
            LogicalPlan::SubqueryAlias { input, .. } => planner.plan_child(input)?,
            LogicalPlan::Sample {
                input,
                fraction,
                seed,
            } => PhysicalPlan::Sample {
                input: Arc::new(planner.plan_child(input)?),
                fraction: *fraction,
                seed: *seed,
            },
            LogicalPlan::UnresolvedRelation { name } => {
                return Err(CatalystError::Plan(format!(
                    "cannot plan unresolved relation '{name}' — run analysis first"
                )))
            }
            _ => return Ok(None),
        };
        Ok(Some(out))
    }
}

/// Plan a scan pipeline: prune columns and push filters per the source's
/// capability tier, keeping a residual filter when pushdown is advisory.
fn plan_scan(
    planner: &Planner,
    relation: &Arc<dyn BaseRelation>,
    scan_output: &[ColumnRef],
    project: Option<&Vec<Expr>>,
    predicate: Option<&Expr>,
) -> Result<PhysicalPlan> {
    let capability = relation.capability();

    // Required columns: referenced by projection and predicate, or all.
    let required: Vec<ColumnRef> = match project {
        Some(exprs) => {
            let mut req: Vec<ColumnRef> = Vec::new();
            for e in exprs.iter().chain(predicate) {
                for r in e.references() {
                    if !req.iter().any(|c: &ColumnRef| c.id == r.id) {
                        req.push(r);
                    }
                }
            }
            // Preserve relation column order.
            scan_output
                .iter()
                .filter(|c| req.iter().any(|r| r.id == c.id))
                .cloned()
                .collect()
        }
        None => scan_output.to_vec(),
    };

    let prune = planner.config.column_pruning_enabled
        && capability != ScanCapability::TableScan
        && required.len() < scan_output.len()
        && !required.is_empty();
    let (projection, output) = if prune {
        let indices: Vec<usize> = required
            .iter()
            .map(|c| scan_output.iter().position(|s| s.id == c.id).expect("col"))
            .collect();
        (Some(indices), required)
    } else {
        (None, scan_output.to_vec())
    };

    // Filter pushdown.
    let mut pushed: Vec<Filter> = Vec::new();
    let mut residual_conjuncts: Vec<Expr> = Vec::new();
    if let Some(pred) = predicate {
        let can_push = planner.config.pushdown_enabled
            && matches!(
                capability,
                ScanCapability::PrunedFilteredScan | ScanCapability::CatalystScan
            );
        let conjuncts = split_conjuncts(pred);
        if can_push {
            let mut convertible: Vec<(Filter, Expr)> = Vec::new();
            for c in &conjuncts {
                match expr_to_filter(c) {
                    Some(f) => convertible.push((f, c.clone())),
                    None => residual_conjuncts.push(c.clone()),
                }
            }
            let filters: Vec<Filter> = convertible.iter().map(|(f, _)| f.clone()).collect();
            let handled = relation.handled_filters(&filters);
            for (i, (f, e)) in convertible.into_iter().enumerate() {
                pushed.push(f);
                // Advisory filters are re-checked above the scan.
                if !handled.get(i).copied().unwrap_or(false) {
                    residual_conjuncts.push(e);
                }
            }
        } else {
            residual_conjuncts = conjuncts;
        }
    }

    let scan = PhysicalPlan::Scan {
        relation: relation.clone(),
        projection,
        pushed_filters: pushed,
        residual: conjunction(residual_conjuncts),
        output: output.clone(),
    };

    // Wrap the projection expressions unless they are exactly the pruned
    // output columns in order.
    match project {
        Some(exprs) => {
            let identity = exprs.len() == output.len()
                && exprs.iter().zip(output.iter()).all(|(e, c)| match e {
                    Expr::Column(ec) => ec.id == c.id,
                    _ => false,
                });
            if identity {
                Ok(scan)
            } else {
                Ok(PhysicalPlan::Project {
                    input: Arc::new(scan),
                    exprs: exprs.clone(),
                })
            }
        }
        None => Ok(scan),
    }
}

/// Convert a conjunct to the sources' advisory [`Filter`] language, if it
/// fits (§4.4.1 footnote 7).
pub fn expr_to_filter(e: &Expr) -> Option<Filter> {
    fn column_name(e: &Expr) -> Option<String> {
        match e {
            Expr::Column(c) => Some(c.name.to_string()),
            // Numeric casts inserted by coercion don't change comparison
            // semantics for source-side filtering (values compare
            // cross-type).
            Expr::Cast { expr, dtype } if dtype.is_numeric() => match &**expr {
                Expr::Column(c) if c.dtype.is_numeric() => Some(c.name.to_string()),
                _ => None,
            },
            _ => None,
        }
    }
    fn literal(e: &Expr) -> Option<Value> {
        match e {
            Expr::Literal(v) if !v.is_null() => Some(v.clone()),
            _ => None,
        }
    }
    match e {
        Expr::BinaryOp { left, op, right } if op.is_comparison() => {
            let (name, value, op) = match (column_name(left), literal(right)) {
                (Some(n), Some(v)) => (n, v, *op),
                _ => match (column_name(right), literal(left)) {
                    // Flip: 5 < col ⇔ col > 5.
                    (Some(n), Some(v)) => {
                        let flipped = match op {
                            BinaryOperator::Lt => BinaryOperator::Gt,
                            BinaryOperator::LtEq => BinaryOperator::GtEq,
                            BinaryOperator::Gt => BinaryOperator::Lt,
                            BinaryOperator::GtEq => BinaryOperator::LtEq,
                            other => *other,
                        };
                        (n, v, flipped)
                    }
                    _ => return None,
                },
            };
            Some(match op {
                BinaryOperator::Eq => Filter::Eq(name, value),
                BinaryOperator::Gt => Filter::Gt(name, value),
                BinaryOperator::GtEq => Filter::GtEq(name, value),
                BinaryOperator::Lt => Filter::Lt(name, value),
                BinaryOperator::LtEq => Filter::LtEq(name, value),
                _ => return None, // NotEq is not in the advisory language
            })
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            let name = column_name(expr)?;
            let values: Option<Vec<Value>> = list.iter().map(literal).collect();
            Some(Filter::In(name, values?))
        }
        Expr::IsNotNull(inner) => Some(Filter::IsNotNull(column_name(inner)?)),
        Expr::IsNull(inner) => Some(Filter::IsNull(column_name(inner)?)),
        Expr::ScalarFn {
            func: ScalarFunc::StartsWith,
            args,
        } if args.len() == 2 => {
            let name = column_name(&args[0])?;
            match literal(&args[1])? {
                Value::Str(s) => Some(Filter::StringStartsWith(name, s.to_string())),
                _ => None,
            }
        }
        Expr::ScalarFn {
            func: ScalarFunc::Contains,
            args,
        } if args.len() == 2 => {
            let name = column_name(&args[0])?;
            match literal(&args[1])? {
                Value::Str(s) => Some(Filter::StringContains(name, s.to_string())),
                _ => None,
            }
        }
        _ => None,
    }
}
