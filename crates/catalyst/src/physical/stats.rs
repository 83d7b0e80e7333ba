//! The cost model (§4.3.3): sizes estimated recursively for a whole tree.
//!
//! Footnote 5 of the paper: "table sizes are estimated if the table is
//! cached in memory or comes from an external file, or if it is the
//! result of a subquery with a LIMIT". Those are exactly the cases with
//! tight estimates here; everything else degrades gracefully with
//! heuristic selectivities.
//!
//! Unknown-ness is tracked explicitly: an operator over an unknown-stats
//! child stays unknown instead of scaling a sentinel toward zero, so the
//! planner can never talk itself into broadcasting an arbitrarily large
//! unknown-size relation. The only deliberate "unknown killers" are the
//! footnote-5 cases — LIMIT bounds the size regardless of the input, and
//! a global (no-groupings) aggregate produces exactly one row.

use crate::physical::metrics::PlanMetrics;
use crate::physical::PhysicalPlan;
use crate::plan::LogicalPlan;

/// Estimated properties of a (sub)plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Statistics {
    /// Estimated output size in bytes.
    pub size_in_bytes: u64,
    /// Estimated row count, when derivable.
    pub row_count: Option<u64>,
}

/// Sentinel size for relations with no estimate. Anything at or above
/// [`UNKNOWN_FLOOR`] is treated as unknown; the gap keeps older callers
/// doing arithmetic near the sentinel on the safe side.
const UNKNOWN_SIZE: u64 = u64::MAX / 4;

/// Threshold above which a size is considered unknown.
const UNKNOWN_FLOOR: u64 = u64::MAX / 8;

impl Statistics {
    /// A completely unknown relation: assume huge so we never broadcast
    /// something unbounded.
    pub fn unknown() -> Self {
        Statistics {
            size_in_bytes: UNKNOWN_SIZE,
            row_count: None,
        }
    }

    /// True when this estimate carries no real size information. The
    /// planner must treat such relations as arbitrarily large — never
    /// broadcast them, never prefer them as a build side.
    pub fn is_unknown(&self) -> bool {
        self.size_in_bytes >= UNKNOWN_FLOOR
    }

    /// Scale size and rows by a selectivity, preserving unknown-ness.
    fn scaled(&self, f: f64) -> Statistics {
        if self.is_unknown() {
            return Statistics::unknown();
        }
        Statistics {
            size_in_bytes: ((self.size_in_bytes as f64 * f) as u64).max(1),
            row_count: self.row_count.map(|r| ((r as f64 * f) as u64).max(1)),
        }
    }
}

/// Default selectivity assumed for a filter.
pub const FILTER_SELECTIVITY: f64 = 0.5;

/// Default group-count ratio assumed for an aggregate.
pub const AGGREGATE_RATIO: f64 = 0.2;

/// Estimate statistics bottom-up.
pub fn estimate(plan: &LogicalPlan) -> Statistics {
    match plan {
        LogicalPlan::UnresolvedRelation { .. } => Statistics::unknown(),
        LogicalPlan::Scan { relation, .. } => match relation.size_in_bytes() {
            Some(b) => Statistics {
                size_in_bytes: b,
                row_count: relation.row_count(),
            },
            None => Statistics::unknown(),
        },
        LogicalPlan::External { data, .. } => match data.size_in_bytes() {
            Some(b) => Statistics {
                size_in_bytes: b,
                row_count: None,
            },
            None => Statistics::unknown(),
        },
        LogicalPlan::LocalRelation { rows, .. } => {
            let bytes = plan.schema().approx_row_bytes() * rows.len() as u64;
            Statistics {
                size_in_bytes: bytes.max(1),
                row_count: Some(rows.len() as u64),
            }
        }
        LogicalPlan::Filter { input, .. } => estimate(input).scaled(FILTER_SELECTIVITY),
        LogicalPlan::Project { input, .. } => {
            let s = estimate(input);
            let in_width = input.schema().approx_row_bytes();
            let out_width = plan.schema().approx_row_bytes();
            let ratio = (out_width as f64 / in_width.max(1) as f64).min(1.0);
            let scaled = s.scaled(ratio);
            // Projection never changes the row count.
            Statistics {
                size_in_bytes: scaled.size_in_bytes,
                row_count: s.row_count,
            }
        }
        LogicalPlan::Join { left, right, .. } => {
            let l = estimate(left);
            let r = estimate(right);
            if l.is_unknown() || r.is_unknown() {
                // FK-style output tracks the bigger input, and an unknown
                // input means an unknown (arbitrarily large) output.
                return Statistics::unknown();
            }
            // Assume FK-style join: output about the size of the bigger
            // input.
            Statistics {
                size_in_bytes: l.size_in_bytes.max(r.size_in_bytes),
                row_count: match (l.row_count, r.row_count) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    _ => None,
                },
            }
        }
        LogicalPlan::Aggregate {
            input, groupings, ..
        } => {
            if groupings.is_empty() {
                // Footnote-5-style unknown killer: a global aggregate is
                // one row no matter how large (or unknown) the input.
                Statistics {
                    size_in_bytes: plan.schema().approx_row_bytes(),
                    row_count: Some(1),
                }
            } else {
                estimate(input).scaled(AGGREGATE_RATIO)
            }
        }
        LogicalPlan::Sort { input, .. } | LogicalPlan::SubqueryAlias { input, .. } => {
            estimate(input)
        }
        LogicalPlan::Window { input, .. } => {
            // Row count is preserved; the appended window columns widen
            // each row.
            let s = estimate(input);
            if s.is_unknown() {
                return Statistics::unknown();
            }
            let in_width = input.schema().approx_row_bytes();
            let out_width = plan.schema().approx_row_bytes();
            let ratio = (out_width as f64 / in_width.max(1) as f64).max(1.0);
            Statistics {
                size_in_bytes: ((s.size_in_bytes as f64 * ratio) as u64).max(1),
                row_count: s.row_count,
            }
        }
        LogicalPlan::Distinct { input } => estimate(input).scaled(0.5),
        LogicalPlan::Limit { input, n } => {
            // Footnote 5: LIMIT makes the size known.
            let s = estimate(input);
            let width = plan.schema().approx_row_bytes();
            let capped_rows = match s.row_count {
                Some(r) => r.min(*n as u64),
                None => *n as u64,
            };
            Statistics {
                size_in_bytes: (capped_rows * width).min(s.size_in_bytes).max(1),
                row_count: Some(capped_rows),
            }
        }
        LogicalPlan::Union { inputs } => {
            let mut size = 0u64;
            let mut rows = Some(0u64);
            let mut any_unknown = false;
            for i in inputs {
                let s = estimate(i);
                any_unknown |= s.is_unknown();
                size = size.saturating_add(s.size_in_bytes);
                rows = match (rows, s.row_count) {
                    (Some(a), Some(b)) => Some(a + b),
                    _ => None,
                };
            }
            if any_unknown {
                return Statistics::unknown();
            }
            Statistics {
                size_in_bytes: size,
                row_count: rows,
            }
        }
        LogicalPlan::Sample {
            input, fraction, ..
        } => estimate(input).scaled(*fraction),
    }
}

/// Estimated output rows of one physical operator, bottom-up. `None`
/// where no estimate is derivable (external data, extension operators,
/// sources without statistics) — unknown-ness propagates upward except
/// through the footnote-5 killers (LIMIT, global aggregates).
pub fn estimate_physical_rows(plan: &PhysicalPlan) -> Option<u64> {
    let scaled = |rows: Option<u64>, f: f64| rows.map(|r| ((r as f64 * f) as u64).max(1));
    match plan {
        PhysicalPlan::Scan {
            relation,
            pushed_filters,
            residual,
            ..
        } => {
            let filters = pushed_filters.len() + usize::from(residual.is_some());
            scaled(
                relation.row_count(),
                FILTER_SELECTIVITY.powi(filters as i32),
            )
        }
        PhysicalPlan::ExternalScan { .. } | PhysicalPlan::Extension { .. } => None,
        PhysicalPlan::LocalData { rows, .. } => Some(rows.len() as u64),
        PhysicalPlan::Filter { input, .. } => {
            scaled(estimate_physical_rows(input), FILTER_SELECTIVITY)
        }
        PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Exchange { input, .. } => estimate_physical_rows(input),
        PhysicalPlan::Window { input, .. } => estimate_physical_rows(input),
        PhysicalPlan::HashAggregate {
            input, groupings, ..
        } => {
            if groupings.is_empty() {
                Some(1)
            } else {
                scaled(estimate_physical_rows(input), AGGREGATE_RATIO)
            }
        }
        PhysicalPlan::TakeOrdered { input, n, .. } | PhysicalPlan::Limit { input, n } => {
            Some(match estimate_physical_rows(input) {
                Some(r) => r.min(*n as u64),
                None => *n as u64,
            })
        }
        PhysicalPlan::BroadcastHashJoin { left, right, .. }
        | PhysicalPlan::ShuffledHashJoin { left, right, .. } => {
            // FK-style: output tracks the bigger input.
            Some(estimate_physical_rows(left)?.max(estimate_physical_rows(right)?))
        }
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            condition,
            ..
        } => {
            let product =
                estimate_physical_rows(left)?.saturating_mul(estimate_physical_rows(right)?);
            match condition {
                Some(_) => scaled(Some(product), FILTER_SELECTIVITY),
                None => Some(product),
            }
        }
        PhysicalPlan::Union { inputs } => inputs
            .iter()
            .map(|i| estimate_physical_rows(i))
            .try_fold(0u64, |acc, r| r.map(|r| acc.saturating_add(r))),
        PhysicalPlan::Sample {
            input, fraction, ..
        } => scaled(estimate_physical_rows(input), *fraction),
    }
}

/// Stamp every operator's estimated output rows into its metrics slot as
/// an `est_rows` extra, so `EXPLAIN ANALYZE` renders estimated next to
/// actual rows per operator. Nodes with no derivable estimate are left
/// unstamped, and so are exchanges, whose lines show shuffle records.
pub fn annotate_row_estimates(plan: &PhysicalPlan, metrics: &PlanMetrics) {
    fn walk(plan: &PhysicalPlan, id: usize, metrics: &PlanMetrics) -> usize {
        let estimate = match plan {
            PhysicalPlan::Exchange { .. } => None,
            _ => estimate_physical_rows(plan),
        };
        if let Some(rows) = estimate {
            metrics.node(id).set_extra("est_rows", rows);
        }
        let mut next = id + 1;
        for child in plan.children() {
            next = walk(&child, next, metrics);
        }
        next
    }
    walk(plan, 0, metrics);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builders::{col, lit};
    use crate::expr::ColumnRef;
    use crate::plan::JoinType;
    use crate::row::Row;
    use crate::types::DataType;
    use crate::value::Value;
    use std::sync::Arc;

    fn local(n: usize) -> LogicalPlan {
        LogicalPlan::LocalRelation {
            output: vec![ColumnRef::new("x", DataType::Long, false)],
            rows: Arc::new(
                (0..n)
                    .map(|i| Row::new(vec![Value::Long(i as i64)]))
                    .collect(),
            ),
        }
    }

    fn unknown_rel() -> LogicalPlan {
        LogicalPlan::UnresolvedRelation { name: "t".into() }
    }

    #[test]
    fn local_relation_size_is_exact() {
        let s = estimate(&local(100));
        assert_eq!(s.row_count, Some(100));
        assert_eq!(s.size_in_bytes, 800);
        assert!(!s.is_unknown());
    }

    #[test]
    fn limit_bounds_the_estimate() {
        let plan = local(1_000_000).limit(10);
        let s = estimate(&plan);
        assert_eq!(s.row_count, Some(10));
        assert!(s.size_in_bytes <= 100);
    }

    #[test]
    fn filter_halves_the_estimate() {
        let base = estimate(&local(100)).size_in_bytes;
        let filtered = estimate(&local(100).filter(col("x").gt(lit(0i64))));
        assert_eq!(filtered.size_in_bytes, base / 2);
    }

    #[test]
    fn unknown_stays_huge() {
        let s = estimate(&unknown_rel());
        assert!(s.is_unknown());
        let filtered = estimate(&unknown_rel().filter(lit(true)));
        assert!(filtered.is_unknown(), "filters must not shrink unknowns");
    }

    #[test]
    fn unknown_survives_deep_operator_stacks() {
        // Filter over Distinct over Sample over grouped Aggregate over an
        // unknown relation: every scaling step must preserve unknown-ness
        // (a chain of x0.5 steps on a sentinel would otherwise "shrink"
        // the relation under any broadcast threshold).
        let plan = unknown_rel()
            .aggregate(vec![col("x")], vec![col("x")])
            .distinct()
            .sample(0.01, 42)
            .filter(lit(true));
        assert!(estimate(&plan).is_unknown());
    }

    #[test]
    fn join_with_unknown_side_is_unknown() {
        let plan = LogicalPlan::Join {
            left: Arc::new(local(10)),
            right: Arc::new(unknown_rel()),
            join_type: JoinType::Inner,
            condition: None,
        };
        assert!(estimate(&plan).is_unknown());
    }

    #[test]
    fn union_with_unknown_input_is_unknown() {
        let plan = LogicalPlan::Union {
            inputs: vec![Arc::new(local(10)), Arc::new(unknown_rel())],
        };
        assert!(estimate(&plan).is_unknown());
    }

    #[test]
    fn footnote5_unknown_killers_still_apply() {
        // LIMIT over unknown: size becomes known and bounded.
        let limited = estimate(&unknown_rel().limit(10));
        assert!(!limited.is_unknown());
        assert_eq!(limited.row_count, Some(10));
        // Global aggregate over unknown: exactly one row.
        let global = estimate(&unknown_rel().aggregate(vec![], vec![]));
        assert!(!global.is_unknown());
        assert_eq!(global.row_count, Some(1));
    }

    #[test]
    fn global_aggregate_is_one_row() {
        let plan = local(1000).aggregate(vec![], vec![]);
        assert_eq!(estimate(&plan).row_count, Some(1));
    }
}
