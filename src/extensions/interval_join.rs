//! The §7.2 genomics range join, reproduced as a Catalyst extension.
//!
//! "Researchers in the ADAM project were able to build a special planning
//! rule into a version of Spark SQL" so that overlap joins
//!
//! ```sql
//! SELECT * FROM a JOIN b
//! WHERE a.start < a.end AND b.start < b.end
//!   AND a.start < b.start AND b.start < a.end
//! ```
//!
//! run with an interval tree instead of a nested-loop join. Here the rule
//! is [`IntervalJoinStrategy`], registered through
//! `SQLContext::add_strategy`; it recognizes the `lo < k AND k < hi`
//! pattern left above a cross join after predicate pushdown, and plans an
//! [`IntervalJoinExec`] that builds an interval tree over one side and
//! probes it with the other. "The changes required were approximately 100
//! lines of code" — this file's strategy + operator are about that, plus
//! the reusable interval tree.

use catalyst::error::Result;
use catalyst::expr::{BinaryOperator, ColumnRef, Expr};
use catalyst::interpreter::{self, bind_references};
use catalyst::optimizer::{conjunction, split_conjuncts};
use catalyst::physical::{ExtensionExec, PhysicalPlan, Planner, Strategy};
use catalyst::plan::{JoinType, LogicalPlan};
use catalyst::row::Row;
use std::sync::Arc;

// ---- interval tree ----

/// A static centered interval tree over half-open-ish intervals with
/// *strict* overlap semantics: a query point `k` matches interval
/// `(lo, hi)` when `lo < k && k < hi`.
pub struct IntervalTree<T> {
    root: Option<Box<Node<T>>>,
    len: usize,
}

struct Node<T> {
    center: f64,
    /// Intervals overlapping `center`, sorted ascending by lo.
    by_lo: Vec<(f64, f64, T)>,
    /// Same intervals sorted descending by hi.
    by_hi: Vec<(f64, f64, T)>,
    left: Option<Box<Node<T>>>,
    right: Option<Box<Node<T>>>,
}

impl<T: Clone> IntervalTree<T> {
    /// Build from `(lo, hi, payload)` triples; empty or inverted
    /// intervals are kept (they simply never match).
    pub fn build(intervals: Vec<(f64, f64, T)>) -> Self {
        let len = intervals.len();
        IntervalTree {
            root: Self::build_node(intervals),
            len,
        }
    }

    /// Number of intervals stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn build_node(intervals: Vec<(f64, f64, T)>) -> Option<Box<Node<T>>> {
        if intervals.is_empty() {
            return None;
        }
        // Median of endpoints as the center.
        let mut endpoints: Vec<f64> = intervals.iter().flat_map(|&(lo, hi, _)| [lo, hi]).collect();
        endpoints.sort_by(f64::total_cmp);
        let center = endpoints[endpoints.len() / 2];

        let mut here = Vec::new();
        let mut left = Vec::new();
        let mut right = Vec::new();
        for iv in intervals {
            if iv.1 < center {
                left.push(iv);
            } else if iv.0 > center {
                right.push(iv);
            } else {
                here.push(iv);
            }
        }
        // Degenerate split guard: if everything landed on one side pile,
        // keep it here to guarantee progress.
        if here.is_empty() && (left.is_empty() || right.is_empty()) {
            here = if left.is_empty() {
                std::mem::take(&mut right)
            } else {
                std::mem::take(&mut left)
            };
        }
        let mut by_lo = here.clone();
        by_lo.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut by_hi = here;
        by_hi.sort_by(|a, b| b.1.total_cmp(&a.1));
        Some(Box::new(Node {
            center,
            by_lo,
            by_hi,
            left: Self::build_node(left),
            right: Self::build_node(right),
        }))
    }

    /// All payloads whose interval strictly contains `k`.
    pub fn query(&self, k: f64) -> Vec<&T> {
        let mut out = Vec::new();
        let mut node = self.root.as_deref();
        while let Some(n) = node {
            if k < n.center {
                // Only intervals starting before k can match.
                for (lo, hi, t) in &n.by_lo {
                    if *lo >= k {
                        break;
                    }
                    if k < *hi {
                        out.push(t);
                    }
                }
                node = n.left.as_deref();
            } else {
                // k >= center: only intervals ending after k can match.
                for (lo, hi, t) in &n.by_hi {
                    if *hi <= k {
                        break;
                    }
                    if *lo < k {
                        out.push(t);
                    }
                }
                node = n.right.as_deref();
            }
        }
        out
    }
}

// ---- the physical operator ----

/// Interval join: builds an [`IntervalTree`] over the interval side and
/// probes it with the point side's key.
pub struct IntervalJoinExec {
    /// Combined output (left ++ right).
    output: Vec<ColumnRef>,
    /// True when the *left* child provides the (lo, hi) interval.
    interval_is_left: bool,
    /// Bound (lo, hi) expressions over the interval side.
    lo: Expr,
    hi: Expr,
    /// Bound key expression over the point side.
    key: Expr,
    /// Residual conjuncts bound over the joined row.
    residual: Option<Expr>,
}

impl ExtensionExec for IntervalJoinExec {
    fn name(&self) -> String {
        format!(
            "IntervalJoin [{} side builds tree]",
            if self.interval_is_left {
                "left"
            } else {
                "right"
            }
        )
    }

    fn output(&self) -> Vec<ColumnRef> {
        self.output.clone()
    }

    fn execute(&self, mut children: Vec<Vec<Vec<Row>>>) -> Result<Vec<Vec<Row>>> {
        let right_parts = children.pop().expect("right child");
        let left_parts = children.pop().expect("left child");
        let (interval_parts, point_parts) = if self.interval_is_left {
            (left_parts, right_parts)
        } else {
            (right_parts, left_parts)
        };

        // Build the tree over all interval-side rows.
        let mut triples = Vec::new();
        for part in &interval_parts {
            for row in part {
                let lo = interpreter::eval(&self.lo, row)?;
                let hi = interpreter::eval(&self.hi, row)?;
                if let (Some(lo), Some(hi)) = (lo.as_f64(), hi.as_f64()) {
                    triples.push((lo, hi, row.clone()));
                }
            }
        }
        let tree = IntervalTree::build(triples);

        // Probe with the point side, preserving its partitioning.
        let mut out = Vec::with_capacity(point_parts.len());
        for part in point_parts {
            let mut rows = Vec::new();
            for prow in part {
                let key = interpreter::eval(&self.key, &prow)?;
                let Some(k) = key.as_f64() else { continue };
                for irow in tree.query(k) {
                    let joined = if self.interval_is_left {
                        irow.concat(&prow)
                    } else {
                        prow.concat(irow)
                    };
                    let keep = match &self.residual {
                        Some(r) => interpreter::eval_predicate(r, &joined)?,
                        None => true,
                    };
                    if keep {
                        rows.push(joined);
                    }
                }
            }
            out.push(rows);
        }
        Ok(out)
    }
}

// ---- the planning strategy ----

/// Recognizes `Filter(lo < k AND k < hi …)` over an inner/cross join and
/// plans an [`IntervalJoinExec`]. Register with
/// `SQLContext::add_strategy(Arc::new(IntervalJoinStrategy))`.
pub struct IntervalJoinStrategy;

/// Normalized strict less-than: returns (smaller, larger).
fn as_lt(e: &Expr) -> Option<(Expr, Expr)> {
    match e {
        Expr::BinaryOp {
            left,
            op: BinaryOperator::Lt,
            right,
        } => Some(((**left).clone(), (**right).clone())),
        Expr::BinaryOp {
            left,
            op: BinaryOperator::Gt,
            right,
        } => Some(((**right).clone(), (**left).clone())),
        _ => None,
    }
}

fn side_of(e: &Expr, left: &[ColumnRef], right: &[ColumnRef]) -> Option<bool> {
    let refs = e.references();
    if refs.is_empty() {
        return None;
    }
    if refs.iter().all(|r| left.iter().any(|a| a.id == r.id)) {
        Some(true)
    } else if refs.iter().all(|r| right.iter().any(|a| a.id == r.id)) {
        Some(false)
    } else {
        None
    }
}

impl Strategy for IntervalJoinStrategy {
    fn name(&self) -> &str {
        "IntervalJoin"
    }

    fn apply(&self, plan: &LogicalPlan, planner: &Planner) -> Result<Option<PhysicalPlan>> {
        // Match an inner/cross Join carrying range conjuncts — either in
        // its condition (where the optimizer's pushdown places them) or in
        // a Filter directly above it.
        let (join, extra_conjuncts) = match plan {
            LogicalPlan::Filter { input, predicate } => {
                ((**input).clone(), split_conjuncts(predicate))
            }
            join @ LogicalPlan::Join { .. } => (join.clone(), vec![]),
            _ => return Ok(None),
        };
        let LogicalPlan::Join {
            left,
            right,
            join_type,
            condition,
        } = &join
        else {
            return Ok(None);
        };
        if !matches!(join_type, JoinType::Inner | JoinType::Cross) {
            return Ok(None);
        }
        let left_out = left.output();
        let right_out = right.output();

        let mut conjuncts = extra_conjuncts;
        if let Some(c) = condition {
            conjuncts.extend(split_conjuncts(c));
        }

        // Find i != j with conjunct_i = (lo < k), conjunct_j = (k < hi),
        // where lo/hi live on one side and k on the other.
        for i in 0..conjuncts.len() {
            let Some((lo, k1)) = as_lt(&conjuncts[i]) else {
                continue;
            };
            for j in 0..conjuncts.len() {
                if i == j {
                    continue;
                }
                let Some((k2, hi)) = as_lt(&conjuncts[j]) else {
                    continue;
                };
                if k1 != k2 {
                    continue;
                }
                let (Some(lo_side), Some(k_side), Some(hi_side)) = (
                    side_of(&lo, &left_out, &right_out),
                    side_of(&k1, &left_out, &right_out),
                    side_of(&hi, &left_out, &right_out),
                ) else {
                    continue;
                };
                if lo_side != hi_side || lo_side == k_side {
                    continue;
                }
                let interval_is_left = lo_side;
                let (interval_out, point_out) = if interval_is_left {
                    (&left_out, &right_out)
                } else {
                    (&right_out, &left_out)
                };

                // Remaining conjuncts become a residual over the joined row.
                let mut joined_out = left_out.clone();
                joined_out.extend(right_out.clone());
                let residual: Vec<Expr> = conjuncts
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| *idx != i && *idx != j)
                    .map(|(_, c)| c.clone())
                    .collect();
                let residual = match conjunction(residual) {
                    Some(r) => Some(bind_references(r, &joined_out)?),
                    None => None,
                };

                let exec = IntervalJoinExec {
                    output: joined_out,
                    interval_is_left,
                    lo: bind_references(lo, interval_out)?,
                    hi: bind_references(hi, interval_out)?,
                    key: bind_references(k1, point_out)?,
                    residual,
                };
                return Ok(Some(PhysicalPlan::Extension {
                    exec: Arc::new(exec),
                    children: vec![
                        Arc::new(planner.plan_child(left)?),
                        Arc::new(planner.plan_child(right)?),
                    ],
                }));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_finds_strictly_containing_intervals() {
        let tree = IntervalTree::build(vec![
            (0.0, 10.0, "a"),
            (5.0, 15.0, "b"),
            (20.0, 30.0, "c"),
            (7.0, 7.5, "d"),
        ]);
        let mut hits: Vec<&str> = tree.query(7.2).into_iter().copied().collect();
        hits.sort();
        assert_eq!(hits, vec!["a", "b", "d"]);
        assert!(
            tree.query(10.0).iter().all(|t| **t != "a"),
            "hi bound is strict"
        );
        assert!(tree.query(0.0).is_empty(), "lo bound is strict");
        assert_eq!(tree.query(25.0), vec![&"c"]);
        assert!(tree.query(100.0).is_empty());
    }

    #[test]
    fn tree_matches_brute_force_on_many_intervals() {
        let mut intervals = Vec::new();
        let mut state = 123456789u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64
        };
        for i in 0..500 {
            let lo = rnd();
            let hi = lo + rnd() / 10.0 + 1.0;
            intervals.push((lo, hi, i));
        }
        let tree = IntervalTree::build(intervals.clone());
        for probe in (0..1000).step_by(37) {
            let k = probe as f64 + 0.5;
            let mut got: Vec<i32> = tree.query(k).into_iter().copied().collect();
            got.sort_unstable();
            let mut want: Vec<i32> = intervals
                .iter()
                .filter(|(lo, hi, _)| *lo < k && k < *hi)
                .map(|(_, _, i)| *i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "probe {k}");
        }
    }

    #[test]
    fn empty_tree() {
        let tree: IntervalTree<u32> = IntervalTree::build(vec![]);
        assert!(tree.is_empty());
        assert!(tree.query(1.0).is_empty());
    }
}
