//! Adaptive query execution: re-planning from runtime statistics.
//!
//! The cost-based physical planner (§4.3.3 of the Spark SQL paper) picks
//! join strategies from *static* [`crate::physical::Statistics`] guesses,
//! and every exchange runs with a fixed `shuffle_partitions` reducer
//! count. Both are blind to actual data sizes. This module closes the
//! loop the way Spark's Adaptive Query Execution later did: execution
//! proceeds stage by stage — each exchange's map output is materialized
//! first, its real per-bucket byte sizes observed, and the remainder of
//! the plan decided against those *measured* [`RuntimeStatistics`].
//!
//! Three adaptive rules ship here (see [`rules`]):
//! - **partition coalescing** — merge small post-shuffle partitions up to
//!   a target bytes-per-partition;
//! - **dynamic join demotion** — replace a planned shuffled hash join
//!   with a broadcast join when the build side's measured size lands
//!   under the broadcast threshold;
//! - **skew splitting** — split a reducer partition that dwarfs the
//!   median into map-range sub-partitions, replicating the other side.
//!
//! The module is pure: it computes decisions ([`AdaptivePlanChange`]) and
//! plan rewrites from observed sizes but performs no execution itself.
//! The stage driver lives in core's `execution.rs`, which materializes
//! exchanges through the engine's `MaterializedShuffle` and consults
//! these rules before lowering the rest of the plan. Every adopted
//! rewrite must first pass [`crate::validation::PlanValidator`]; a
//! rejected rewrite falls back to the original plan and the query still
//! runs.

pub mod rules;

use crate::physical::metrics::{child_ids, subtree_size};
use crate::physical::PhysicalPlan;
use std::fmt;
use std::sync::Arc;

/// Tuning knobs for the adaptive rules, mirrored from core's `SqlConf`.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Desired bytes per post-shuffle partition when coalescing.
    pub target_partition_bytes: u64,
    /// A reduce partition is skewed when it exceeds this factor times the
    /// median partition size (and the coalescing target).
    pub skew_factor: f64,
    /// Measured build-side bytes at or under this demote a shuffled hash
    /// join to a broadcast join.
    pub broadcast_threshold: u64,
}

/// Observed statistics of one materialized exchange.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStatistics {
    /// Measured bytes per reduce partition (summed over map outputs).
    pub reduce_bytes: Vec<u64>,
    /// Records written per reduce partition are not tracked per bucket;
    /// total rows across the exchange.
    pub total_rows: u64,
}

impl RuntimeStatistics {
    /// Fold `[map][reduce]` byte sizes into per-reducer totals.
    pub fn from_map_output_sizes(sizes: &[Vec<u64>], num_reduce: usize) -> Self {
        let mut reduce_bytes = vec![0u64; num_reduce];
        for per_map in sizes {
            for (r, b) in per_map.iter().enumerate() {
                reduce_bytes[r] += b;
            }
        }
        RuntimeStatistics {
            reduce_bytes,
            total_rows: 0,
        }
    }

    /// Total measured bytes across the exchange.
    pub fn total_bytes(&self) -> u64 {
        self.reduce_bytes.iter().sum()
    }
}

/// Which adaptive rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveRule {
    /// Merged small post-shuffle partitions.
    CoalescePartitions,
    /// Replaced a shuffled hash join with a broadcast join.
    BroadcastDemotion,
    /// Split a skewed reduce partition into map-range sub-partitions.
    SkewSplit,
}

impl AdaptiveRule {
    /// Stable kebab-case name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            AdaptiveRule::CoalescePartitions => "coalesce-partitions",
            AdaptiveRule::BroadcastDemotion => "broadcast-demotion",
            AdaptiveRule::SkewSplit => "skew-split",
        }
    }
}

impl fmt::Display for AdaptiveRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One adaptive decision, recorded against the pre-order node id of the
/// operator whose exchange it rewired. Rendered by `explain_analyze`.
#[derive(Clone)]
pub struct AdaptivePlanChange {
    /// Pre-order node id in the initial physical plan.
    pub node_id: usize,
    /// The rule that fired.
    pub rule: AdaptiveRule,
    /// Human-readable summary with the observed numbers.
    pub description: String,
    /// For rules that change the plan tree (demotion), the node that
    /// replaces `node_id` in the final plan.
    pub replacement: Option<PhysicalPlan>,
}

impl fmt::Display for AdaptivePlanChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AdaptivePlanChange[node {}] {}: {}",
            self.node_id, self.rule, self.description
        )
    }
}

impl fmt::Debug for AdaptivePlanChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Pre-order node ids of the operators that induce an exchange — the
/// stage boundaries adaptive execution breaks the plan at. Sort and
/// aggregate exchanges are listed too even though only joins re-plan
/// today.
pub fn exchange_operators(plan: &PhysicalPlan) -> Vec<(usize, String)> {
    fn walk(plan: &PhysicalPlan, id: usize, out: &mut Vec<(usize, String)>) {
        match plan {
            PhysicalPlan::ShuffledHashJoin { .. } | PhysicalPlan::Sort { .. } => {
                out.push((id, plan.node_description()));
            }
            PhysicalPlan::HashAggregate { groupings, .. } if !groupings.is_empty() => {
                out.push((id, plan.node_description()));
            }
            _ => {}
        }
        for (child, cid) in plan.children().iter().zip(child_ids(plan, id)) {
            walk(child, cid, out);
        }
    }
    let mut out = Vec::new();
    walk(plan, 0, &mut out);
    out
}

/// Rebuild `plan` with `children` substituted in order. Panics if the
/// arity does not match — callers only pass children obtained from
/// [`PhysicalPlan::children`] on the same node.
fn with_children(plan: &PhysicalPlan, mut children: Vec<Arc<PhysicalPlan>>) -> PhysicalPlan {
    assert_eq!(
        children.len(),
        plan.children().len(),
        "with_children arity mismatch"
    );
    let mut next = || children.remove(0);
    match plan {
        PhysicalPlan::Scan { .. }
        | PhysicalPlan::ExternalScan { .. }
        | PhysicalPlan::LocalData { .. } => plan.clone(),
        PhysicalPlan::Project { exprs, .. } => PhysicalPlan::Project {
            input: next(),
            exprs: exprs.clone(),
        },
        PhysicalPlan::Filter { predicate, .. } => PhysicalPlan::Filter {
            input: next(),
            predicate: predicate.clone(),
        },
        PhysicalPlan::HashAggregate {
            groupings,
            output_exprs,
            ..
        } => PhysicalPlan::HashAggregate {
            input: next(),
            groupings: groupings.clone(),
            output_exprs: output_exprs.clone(),
        },
        PhysicalPlan::Sort { orders, .. } => PhysicalPlan::Sort {
            input: next(),
            orders: orders.clone(),
        },
        PhysicalPlan::Window {
            window_exprs,
            partition_by,
            order_by,
            ..
        } => PhysicalPlan::Window {
            input: next(),
            window_exprs: window_exprs.clone(),
            partition_by: partition_by.clone(),
            order_by: order_by.clone(),
        },
        PhysicalPlan::TakeOrdered { orders, n, .. } => PhysicalPlan::TakeOrdered {
            input: next(),
            orders: orders.clone(),
            n: *n,
        },
        PhysicalPlan::Limit { n, .. } => PhysicalPlan::Limit {
            input: next(),
            n: *n,
        },
        PhysicalPlan::BroadcastHashJoin {
            left_keys,
            right_keys,
            join_type,
            build_side,
            residual,
            ..
        } => PhysicalPlan::BroadcastHashJoin {
            left: next(),
            right: next(),
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            join_type: *join_type,
            build_side: *build_side,
            residual: residual.clone(),
        },
        PhysicalPlan::ShuffledHashJoin {
            left_keys,
            right_keys,
            join_type,
            build_side,
            residual,
            ..
        } => PhysicalPlan::ShuffledHashJoin {
            left: next(),
            right: next(),
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            join_type: *join_type,
            build_side: *build_side,
            residual: residual.clone(),
        },
        PhysicalPlan::NestedLoopJoin {
            condition,
            join_type,
            ..
        } => PhysicalPlan::NestedLoopJoin {
            left: next(),
            right: next(),
            condition: condition.clone(),
            join_type: *join_type,
        },
        PhysicalPlan::Union { .. } => PhysicalPlan::Union {
            inputs: std::mem::take(&mut children),
        },
        PhysicalPlan::Sample { fraction, seed, .. } => PhysicalPlan::Sample {
            input: next(),
            fraction: *fraction,
            seed: *seed,
        },
        PhysicalPlan::Extension { exec, .. } => PhysicalPlan::Extension {
            exec: exec.clone(),
            children: std::mem::take(&mut children),
        },
    }
}

/// Substitute the node at pre-order id `target` with `replacement`,
/// returning the rebuilt tree. Ids are the same pre-order numbering used
/// by [`crate::physical::PlanMetrics`], so a demoted join keeps its
/// metrics slot (the replacement has the same subtree shape).
pub fn substitute_node(
    plan: &PhysicalPlan,
    target: usize,
    replacement: &PhysicalPlan,
) -> PhysicalPlan {
    fn walk(
        plan: &PhysicalPlan,
        id: usize,
        target: usize,
        replacement: &PhysicalPlan,
    ) -> PhysicalPlan {
        if id == target {
            return replacement.clone();
        }
        let subtree_end = id + subtree_size(plan);
        if target <= id || target >= subtree_end {
            return plan.clone();
        }
        let children = plan.children();
        let ids = child_ids(plan, id);
        let rebuilt: Vec<Arc<PhysicalPlan>> = children
            .iter()
            .zip(ids)
            .map(|(c, cid)| Arc::new(walk(c, cid, target, replacement)))
            .collect();
        with_children(plan, rebuilt)
    }
    walk(plan, 0, target, replacement)
}

/// The executed plan: the initial plan with every tree-changing adaptive
/// rewrite applied. Coalescing and skew splitting do not alter the tree
/// (they rewire exchange reads), so they appear only as change events.
pub fn final_plan(initial: &PhysicalPlan, changes: &[AdaptivePlanChange]) -> PhysicalPlan {
    let mut plan = initial.clone();
    for change in changes {
        if let Some(replacement) = &change.replacement {
            plan = substitute_node(&plan, change.node_id, replacement);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builders::{col, lit};
    use crate::expr::{ColumnRef, Expr};
    use crate::physical::BuildSide;
    use crate::plan::JoinType;
    use crate::row::Row;
    use crate::types::DataType;
    use crate::value::Value;

    fn local(name: &str) -> PhysicalPlan {
        PhysicalPlan::LocalData {
            rows: Arc::new(vec![Row::new(vec![Value::Long(1)])]),
            output: vec![ColumnRef::new(name, DataType::Long, false)],
        }
    }

    fn shj() -> PhysicalPlan {
        let left = local("a");
        let right = local("b");
        let lk = vec![Expr::Column(left.output()[0].clone())];
        let rk = vec![Expr::Column(right.output()[0].clone())];
        PhysicalPlan::ShuffledHashJoin {
            left: Arc::new(left),
            right: Arc::new(right),
            left_keys: lk,
            right_keys: rk,
            join_type: JoinType::Inner,
            build_side: BuildSide::Right,
            residual: None,
        }
    }

    #[test]
    fn substitute_replaces_by_preorder_id() {
        let join = shj();
        let filter = PhysicalPlan::Filter {
            input: Arc::new(join.clone()),
            predicate: col("a").gt(lit(0i64)),
        };
        // Pre-order: 0=Filter, 1=SHJ, 2=left, 3=right.
        let demoted = rules::broadcast_candidate(&join, BuildSide::Right).expect("candidate");
        let rebuilt = substitute_node(&filter, 1, &demoted);
        match &rebuilt {
            PhysicalPlan::Filter { input, .. } => {
                assert!(matches!(**input, PhysicalPlan::BroadcastHashJoin { .. }));
            }
            other => panic!("unexpected shape: {other}"),
        }
        // Subtree shape (and thus metric ids) unchanged.
        assert_eq!(subtree_size(&filter), subtree_size(&rebuilt));
        // Untouched target: identical tree back.
        let same = substitute_node(&filter, 2, &local("a"));
        assert_eq!(subtree_size(&same), subtree_size(&filter));
    }

    #[test]
    fn final_plan_applies_only_tree_changes() {
        let join = shj();
        let demoted = rules::broadcast_candidate(&join, BuildSide::Right).expect("candidate");
        let changes = vec![
            AdaptivePlanChange {
                node_id: 0,
                rule: AdaptiveRule::CoalescePartitions,
                description: "8 -> 2 partitions".into(),
                replacement: None,
            },
            AdaptivePlanChange {
                node_id: 0,
                rule: AdaptiveRule::BroadcastDemotion,
                description: "demoted".into(),
                replacement: Some(demoted),
            },
        ];
        let fin = final_plan(&join, &changes);
        assert!(matches!(fin, PhysicalPlan::BroadcastHashJoin { .. }));
    }

    #[test]
    fn exchange_operators_lists_stage_boundaries() {
        let join = shj();
        let ops = exchange_operators(&join);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, 0);
        assert!(ops[0].1.contains("ShuffledHashJoin"));
    }

    #[test]
    fn runtime_statistics_fold_map_outputs() {
        let sizes = vec![vec![10, 0, 5], vec![2, 8, 5]];
        let rs = RuntimeStatistics::from_map_output_sizes(&sizes, 3);
        assert_eq!(rs.reduce_bytes, vec![12, 8, 10]);
        assert_eq!(rs.total_bytes(), 30);
    }
}
