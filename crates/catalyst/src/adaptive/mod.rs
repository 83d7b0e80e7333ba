//! Adaptive query execution: re-planning from runtime statistics.
//!
//! The cost-based physical planner (§4.3.3 of the Spark SQL paper) picks
//! join strategies from *static* [`crate::physical::Statistics`] guesses,
//! and every exchange runs with a fixed `shuffle_partitions` reducer
//! count. Both are blind to actual data sizes. This module closes the
//! loop the way Spark's Adaptive Query Execution later did: execution
//! proceeds stage by stage — each exchange's map output is materialized
//! first, its real per-bucket byte sizes observed, and the remainder of
//! the plan decided against those *measured* sizes.
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
//! The stage driver is core's `exchange.rs`: it runs the map stages of
//! the pair of `Exchange` nodes under a shuffled join, reads the measured
//! sizes off each engine `ShuffleDependency` and consults these rules
//! before the join reads them. Every adopted
//! rewrite must first pass [`crate::validation::PlanValidator`]; a
//! rejected rewrite falls back to the original plan and the query still
//! runs.

pub mod rules;

use crate::physical::metrics::{child_ids, subtree_size};
use crate::physical::PhysicalPlan;
use std::fmt;
use std::sync::Arc;

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

/// Substitute the node at pre-order id `target` with `replacement`,
/// returning the rebuilt tree. Ids are the same pre-order numbering used
/// by [`crate::physical::PlanMetrics`], so a demoted join keeps its
/// metrics slot; its subtree loses the two exchanges the broadcast join
/// no longer reads through, which
/// [`crate::physical::metrics::render_executed`] steps over.
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
        plan.with_children(rebuilt)
    }
    walk(plan, 0, target, replacement)
}

/// The executed plan: the initial plan with every tree-changing adaptive
/// rewrite applied. Coalescing and skew splitting do not alter the tree
/// (they rewire exchange reads), so they appear only as change events.
///
/// A replacement drops nodes from its subtree, which renumbers every node
/// after it, so rewrites apply from the last pre-order id to the first.
pub fn final_plan(initial: &PhysicalPlan, changes: &[AdaptivePlanChange]) -> PhysicalPlan {
    let mut rewrites: Vec<(usize, &PhysicalPlan)> = (changes.iter())
        .filter_map(|c| Some((c.node_id, c.replacement.as_ref()?)))
        .collect();
    rewrites.sort_by_key(|&(id, _)| std::cmp::Reverse(id));
    let mut plan = initial.clone();
    for (id, replacement) in rewrites {
        plan = substitute_node(&plan, id, replacement);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builders::{col, lit};
    use crate::expr::{ColumnRef, Expr};
    use crate::physical::{ensure_requirements, BuildSide};
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
        let join = PhysicalPlan::ShuffledHashJoin {
            left: Arc::new(left),
            right: Arc::new(right),
            left_keys: lk,
            right_keys: rk,
            join_type: JoinType::Inner,
            build_side: BuildSide::Right,
            residual: None,
        };
        ensure_requirements(&join, 4)
    }

    #[test]
    fn substitute_replaces_by_preorder_id() {
        let join = shj();
        let filter = PhysicalPlan::Filter {
            input: Arc::new(join.clone()),
            predicate: col("a").gt(lit(0i64)),
        };
        // Pre-order: 0=Filter, 1=SHJ, 2=Exchange, 3=left, 4=Exchange,
        // 5=right.
        let demoted = rules::broadcast_candidate(&join, BuildSide::Right).expect("candidate");
        let rebuilt = substitute_node(&filter, 1, &demoted);
        match &rebuilt {
            PhysicalPlan::Filter { input, .. } => {
                assert!(matches!(**input, PhysicalPlan::BroadcastHashJoin { .. }));
            }
            other => panic!("unexpected shape: {other}"),
        }
        // The broadcast join reads its inputs without the two exchanges.
        assert_eq!(subtree_size(&rebuilt), subtree_size(&filter) - 2);
        // Untouched target: identical tree back.
        let same = substitute_node(&filter, 3, &local("a"));
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
    fn final_plan_demotes_sibling_joins_in_either_decision_order() {
        // Pre-order: 0=Union, 1=SHJ (ids 1..=5), 6=SHJ (ids 6..=10).
        let union = PhysicalPlan::Union {
            inputs: vec![Arc::new(shj()), Arc::new(shj())],
        };
        let demoted = rules::broadcast_candidate(&shj(), BuildSide::Right).expect("candidate");
        let change = |node_id| AdaptivePlanChange {
            node_id,
            rule: AdaptiveRule::BroadcastDemotion,
            description: "demoted".into(),
            replacement: Some(demoted.clone()),
        };
        for changes in [vec![change(1), change(6)], vec![change(6), change(1)]] {
            let fin = final_plan(&union, &changes);
            let joins = fin.children();
            assert!(
                (joins.iter()).all(|j| matches!(**j, PhysicalPlan::BroadcastHashJoin { .. })),
                "{fin}"
            );
            assert_eq!(subtree_size(&fin), subtree_size(&union) - 4);
        }
    }
}
