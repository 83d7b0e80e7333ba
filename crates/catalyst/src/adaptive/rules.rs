//! The three adaptive rules, as pure functions over measured sizes.
//!
//! Each function computes a *decision* — which reduce buckets to merge,
//! which to split, whether a join may be demoted — from observed byte
//! sizes. The stage driver in core's `exchange.rs` turns those decisions
//! into engine `ShuffleReadSpec` windows and (for demotion) a candidate
//! plan that must clear [`crate::validation::PlanValidator`] before it is
//! adopted.

use crate::physical::{BuildSide, PhysicalPlan};
use crate::plan::JoinType;
use std::ops::Range;
use std::sync::Arc;

/// Greedily merge contiguous reduce partitions until adding the next one
/// would push a group past `target` bytes. Every partition lands in
/// exactly one range; a partition already at or above the target gets a
/// range of its own. `sizes.len() == 0` yields no ranges.
pub fn coalesce_partitions(sizes: &[u64], target: u64) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &s) in sizes.iter().enumerate() {
        if i > start && acc + s > target {
            out.push(start..i);
            start = i;
            acc = 0;
        }
        acc += s;
    }
    if start < sizes.len() {
        out.push(start..sizes.len());
    }
    out
}

/// Median of `sizes` (lower median for even lengths); 0 when empty.
pub fn median(sizes: &[u64]) -> u64 {
    if sizes.is_empty() {
        return 0;
    }
    let mut sorted = sizes.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) / 2]
}

/// True when one reduce partition dwarfs the others: its size exceeds
/// `factor` × the median *and* the coalescing target (so uniformly tiny
/// shuffles are never "skewed").
pub fn is_skewed(size: u64, median_size: u64, factor: f64, target: u64) -> bool {
    size > target && (size as f64) > factor * median_size as f64
}

/// Split one skewed reduce partition by its per-map contributions:
/// greedily group map outputs into ranges of at most `target` bytes.
/// Returns a single full range when no useful split exists — all the
/// bytes come from fewer than two of the resulting groups, so extra
/// sub-tasks would not spread the work.
pub fn split_map_ranges(map_sizes: &[u64], target: u64) -> Vec<Range<usize>> {
    let ranges = coalesce_partitions(map_sizes, target);
    let loaded = ranges
        .iter()
        .filter(|r| map_sizes[r.start..r.end].iter().any(|&s| s > 0))
        .count();
    if loaded < 2 {
        return std::iter::once(0..map_sizes.len()).collect();
    }
    ranges
}

/// Legality of demoting a shuffled hash join to a broadcast join with
/// `build` as the built/broadcast side — the same table the static
/// planner and the `BuildSideLegal` invariant use: the null-producing
/// side must be streamed.
pub fn can_demote(join_type: JoinType, build: BuildSide) -> bool {
    match build {
        BuildSide::Right => matches!(join_type, JoinType::Inner | JoinType::Left),
        BuildSide::Left => matches!(join_type, JoinType::Inner | JoinType::Right),
    }
}

/// Legality of splitting one *side* of a shuffled join by map ranges.
/// The split side's rows each land in exactly one sub-partition while the
/// other side is replicated, so the replicated side must not drive
/// unmatched-row emission: splitting the left is legal for Inner/Left
/// joins, splitting the right for Inner/Right. Full joins never split.
pub fn can_split_side(join_type: JoinType, side: BuildSide) -> bool {
    match side {
        BuildSide::Left => matches!(join_type, JoinType::Inner | JoinType::Left),
        BuildSide::Right => matches!(join_type, JoinType::Inner | JoinType::Right),
    }
}

/// The candidate plan for demoting `shj` (a `ShuffledHashJoin`) to a
/// broadcast join building `build`, reading the inputs of the join's two
/// exchanges directly. `None` when the node is not a shuffled hash join
/// or the demotion is illegal for its join type.
pub fn broadcast_candidate(shj: &PhysicalPlan, build: BuildSide) -> Option<PhysicalPlan> {
    match shj {
        PhysicalPlan::ShuffledHashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            residual,
            ..
        } if can_demote(*join_type, build) => Some(PhysicalPlan::BroadcastHashJoin {
            left: below_exchange(left),
            right: below_exchange(right),
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            join_type: *join_type,
            build_side: build,
            residual: residual.clone(),
        }),
        _ => None,
    }
}

/// The input of `plan` when it is an exchange, else `plan` itself.
fn below_exchange(plan: &Arc<PhysicalPlan>) -> Arc<PhysicalPlan> {
    match &**plan {
        PhysicalPlan::Exchange { input, .. } => input.clone(),
        _ => plan.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_merges_up_to_target() {
        // 10+10+10 fits in 30; 50 stands alone; 5+5 merge.
        assert_eq!(
            coalesce_partitions(&[10, 10, 10, 50, 5, 5], 30),
            vec![0..3, 3..4, 4..6]
        );
        // Everything tiny -> one range.
        assert_eq!(coalesce_partitions(&[1, 1, 1, 1], 100), vec![0..4]);
        // Everything oversized -> one range each.
        assert_eq!(coalesce_partitions(&[40, 40], 30), vec![0..1, 1..2]);
        assert!(coalesce_partitions(&[], 30).is_empty());
    }

    #[test]
    fn coalesce_covers_every_partition_once() {
        let sizes: Vec<u64> = (0..23).map(|i| (i * 7919) % 97).collect();
        let ranges = coalesce_partitions(&sizes, 100);
        let mut covered = vec![0u32; sizes.len()];
        for r in &ranges {
            for i in r.clone() {
                covered[i] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "{ranges:?}");
    }

    #[test]
    fn skew_needs_both_median_factor_and_target() {
        let skewed = |sizes: &[u64], factor, target| -> Vec<usize> {
            let med = median(sizes);
            (0..sizes.len())
                .filter(|&i| is_skewed(sizes[i], med, factor, target))
                .collect()
        };
        let sizes = [10, 10, 10, 10, 400];
        assert_eq!(median(&sizes), 10);
        assert_eq!(skewed(&sizes, 4.0, 50), vec![4]);
        // Below the absolute floor: not skewed even at 40x the median.
        assert!(skewed(&sizes, 4.0, 1000).is_empty());
        // Uniform: nothing exceeds factor x median.
        assert_eq!(median(&[100, 100, 100]), 100);
        assert!(skewed(&[100, 100, 100], 4.0, 50).is_empty());
        assert_eq!(median(&[]), 0);
        assert!(skewed(&[], 4.0, 50).is_empty());
    }

    #[test]
    fn split_map_ranges_degenerates_to_full_range() {
        // One dominant map: no useful split.
        assert_eq!(split_map_ranges(&[0, 500, 0], 100), vec![0..3]);
        // Even spread splits.
        assert_eq!(
            split_map_ranges(&[60, 60, 60, 60], 100),
            vec![0..1, 1..2, 2..3, 3..4]
        );
    }

    #[test]
    fn demotion_and_split_legality_tables() {
        use BuildSide as B;
        use JoinType as J;
        assert!(can_demote(J::Inner, B::Right) && can_demote(J::Left, B::Right));
        assert!(!can_demote(J::Right, B::Right) && !can_demote(J::Full, B::Right));
        assert!(can_demote(J::Inner, B::Left) && can_demote(J::Right, B::Left));
        assert!(!can_demote(J::Left, B::Left) && !can_demote(J::Full, B::Left));

        assert!(can_split_side(J::Inner, B::Left) && can_split_side(J::Left, B::Left));
        assert!(!can_split_side(J::Right, B::Left) && !can_split_side(J::Full, B::Left));
        assert!(can_split_side(J::Inner, B::Right) && can_split_side(J::Right, B::Right));
        assert!(!can_split_side(J::Left, B::Right) && !can_split_side(J::Full, B::Right));
    }
}
