//! Per-operator execution metrics ("SQL metrics").
//!
//! A [`PlanMetrics`] registry is created from a physical plan before
//! execution: one [`OperatorMetrics`] slot per node, addressed by the
//! node's *pre-order index* in the plan tree (root = 0, then each child
//! subtree in order). Executors bump the hot counters — output rows and
//! elapsed nanoseconds — through relaxed atomics, so instrumentation adds
//! no locking to row processing; colder facts (broadcast build sizes,
//! shuffle attribution) go through a small mutex-guarded side table.
//!
//! The registry is plan-shaped data only; nothing here executes. The
//! `spark-sql` crate threads a registry through lowering, and
//! `EXPLAIN ANALYZE` renders the tree back with actuals attached.

use crate::physical::PhysicalPlan;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Metrics for one physical operator.
///
/// `output_rows` and `elapsed_ns` are cumulative across partitions and
/// across re-executions of the same plan. `elapsed_ns` measures the time
/// spent producing this operator's output rows; because operators in one
/// stage are pipelined, it *includes* time spent in upstream operators of
/// the same stage pulling input (like Spark's per-operator timing).
#[derive(Debug, Default)]
pub struct OperatorMetrics {
    output_rows: AtomicU64,
    elapsed_ns: AtomicU64,
    /// Named side metrics (build sizes, shuffle volume, …).
    extras: Mutex<BTreeMap<String, u64>>,
    /// Engine shuffle ids an `Exchange` node minted.
    shuffle_ids: Mutex<Vec<usize>>,
}

impl OperatorMetrics {
    /// Add produced rows.
    #[inline]
    pub fn add_rows(&self, n: u64) {
        self.output_rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Add elapsed wall time in nanoseconds.
    #[inline]
    pub fn add_elapsed_ns(&self, ns: u64) {
        self.elapsed_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total rows this operator produced.
    pub fn output_rows(&self) -> u64 {
        self.output_rows.load(Ordering::Relaxed)
    }

    /// Total time spent producing output, summed over partitions.
    pub fn elapsed_ns(&self) -> u64 {
        self.elapsed_ns.load(Ordering::Relaxed)
    }

    /// Add `n` to a named side metric (created at 0 if absent).
    pub fn add_extra(&self, name: &str, n: u64) {
        *self
            .extras
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert(0) += n;
    }

    /// Raise a named side metric to `value` if it is below it.
    pub fn max_extra(&self, name: &str, value: u64) {
        let mut extras = self.extras.lock().unwrap();
        let slot = extras.entry(name.to_string()).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Overwrite a named side metric.
    pub fn set_extra(&self, name: &str, value: u64) {
        self.extras.lock().unwrap().insert(name.to_string(), value);
    }

    /// Snapshot of the named side metrics.
    pub fn extras(&self) -> BTreeMap<String, u64> {
        self.extras.lock().unwrap().clone()
    }

    /// Record that this exchange minted engine shuffle `id`.
    pub fn add_shuffle_id(&self, id: usize) {
        self.shuffle_ids.lock().unwrap().push(id);
    }

    /// Shuffle ids this exchange minted.
    pub fn shuffle_ids(&self) -> Vec<usize> {
        self.shuffle_ids.lock().unwrap().clone()
    }
}

/// Registry of [`OperatorMetrics`], one per physical plan node, indexed
/// by pre-order position.
#[derive(Debug)]
pub struct PlanMetrics {
    nodes: Vec<Arc<OperatorMetrics>>,
}

impl PlanMetrics {
    /// Allocate one metrics slot per node of `plan`.
    pub fn for_plan(plan: &PhysicalPlan) -> Arc<PlanMetrics> {
        let n = subtree_size(plan);
        Arc::new(PlanMetrics {
            nodes: (0..n)
                .map(|_| Arc::new(OperatorMetrics::default()))
                .collect(),
        })
    }

    /// Number of operators covered.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the plan had no nodes (never happens for valid plans).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The metrics slot for pre-order node `id`.
    ///
    /// # Panics
    /// If `id` is out of range for the plan this registry was built from.
    pub fn node(&self, id: usize) -> Arc<OperatorMetrics> {
        self.nodes[id].clone()
    }
}

/// Number of nodes in the plan tree (the node itself plus descendants).
pub fn subtree_size(plan: &PhysicalPlan) -> usize {
    1 + plan
        .children()
        .iter()
        .map(|c| subtree_size(c))
        .sum::<usize>()
}

/// Pre-order ids of `plan`'s direct children, given the plan's own id.
pub fn child_ids(plan: &PhysicalPlan, id: usize) -> Vec<usize> {
    let mut next = id + 1;
    plan.children()
        .iter()
        .map(|c| {
            let this = next;
            next += subtree_size(c);
            this
        })
        .collect()
}

/// Render `plan` with actual row counts, times, and side metrics from
/// `metrics` attached to every node — the body of `EXPLAIN ANALYZE`.
pub fn render_annotated(plan: &PhysicalPlan, metrics: &PlanMetrics) -> String {
    render_executed(plan, plan, metrics)
}

/// Render `executed`, the plan adaptive execution ran in place of
/// `initial` (whose pre-order ids `metrics` is shaped after), with each
/// line carrying the metrics of the node it shows. A demoted join reads
/// its inputs without the exchanges `initial` has under it; those
/// exchanges are stepped over.
pub fn render_executed(
    initial: &PhysicalPlan,
    executed: &PhysicalPlan,
    metrics: &PlanMetrics,
) -> String {
    let mut out = String::new();
    render_node(executed, initial, 0, 0, metrics, &mut out);
    out
}

fn render_node(
    plan: &PhysicalPlan,
    initial: &PhysicalPlan,
    id: usize,
    indent: usize,
    metrics: &PlanMetrics,
    out: &mut String,
) {
    for _ in 0..indent {
        out.push_str("  ");
    }
    let m = metrics.node(id);
    let _ = write!(
        out,
        "{} (rows={}, time={})",
        plan.node_description(),
        m.output_rows(),
        format_ns(m.elapsed_ns()),
    );
    for (k, v) in m.extras() {
        let _ = write!(out, " [{k}={v}]");
    }
    out.push('\n');
    let initial_children = initial.children().into_iter().zip(child_ids(initial, id));
    for (child, (mut ichild, mut cid)) in plan.children().iter().zip(initial_children) {
        if let (PhysicalPlan::Exchange { input, .. }, false) =
            (&*ichild, matches!(**child, PhysicalPlan::Exchange { .. }))
        {
            (ichild, cid) = (input.clone(), cid + 1);
        }
        render_node(child, &ichild, cid, indent + 1, metrics, out);
    }
}

/// Human-readable duration: nanoseconds up to seconds.
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ColumnRef;
    use crate::row::Row;
    use crate::types::DataType;
    use crate::value::Value;

    fn leaf(name: &str) -> Arc<PhysicalPlan> {
        Arc::new(PhysicalPlan::LocalData {
            rows: Arc::new(vec![Row::new(vec![Value::Long(1)])]),
            output: vec![ColumnRef::new(name, DataType::Long, false)],
        })
    }

    fn limit(input: Arc<PhysicalPlan>, n: usize) -> Arc<PhysicalPlan> {
        Arc::new(PhysicalPlan::Limit { input, n })
    }

    #[test]
    fn preorder_ids_cover_tree() {
        // Union(Limit(leaf), leaf): ids 0=union 1=limit 2=leaf 3=leaf.
        let plan = PhysicalPlan::Union {
            inputs: vec![limit(leaf("a"), 1), leaf("b")],
        };
        assert_eq!(subtree_size(&plan), 4);
        assert_eq!(child_ids(&plan, 0), vec![1, 3]);
        let limit_node = &plan.children()[0];
        assert_eq!(child_ids(limit_node, 1), vec![2]);
    }

    #[test]
    fn counters_accumulate() {
        let m = OperatorMetrics::default();
        m.add_rows(10);
        m.add_rows(5);
        m.add_elapsed_ns(1_500);
        assert_eq!(m.output_rows(), 15);
        assert_eq!(m.elapsed_ns(), 1_500);
        m.add_extra("build_rows", 3);
        m.add_extra("build_rows", 4);
        assert_eq!(m.extras().get("build_rows"), Some(&7));
    }

    #[test]
    fn annotated_render_includes_actuals() {
        let plan = PhysicalPlan::Limit {
            input: leaf("a"),
            n: 7,
        };
        let pm = PlanMetrics::for_plan(&plan);
        pm.node(0).add_rows(7);
        pm.node(1).add_rows(100);
        pm.node(1).add_elapsed_ns(2_000_000);
        pm.node(1).add_extra("shuffle_bytes_written", 64);
        let text = render_annotated(&plan, &pm);
        assert!(text.contains("Limit 7 (rows=7"), "{text}");
        assert!(text.contains("rows=100"), "{text}");
        assert!(text.contains("time=2.000ms"), "{text}");
        assert!(text.contains("[shuffle_bytes_written=64]"), "{text}");
    }

    #[test]
    fn executed_render_steps_over_the_exchanges_a_demotion_dropped() {
        use crate::adaptive::rules::broadcast_candidate;
        use crate::expr::Expr;
        use crate::physical::{ensure_requirements, BuildSide};
        use crate::plan::JoinType;
        let (a, b) = (leaf("a"), leaf("b"));
        let keys = |p: &PhysicalPlan| vec![Expr::Column(p.output()[0].clone())];
        let join = PhysicalPlan::ShuffledHashJoin {
            left_keys: keys(&a),
            right_keys: keys(&b),
            left: a,
            right: b,
            join_type: JoinType::Inner,
            build_side: BuildSide::Right,
            residual: None,
        };
        // Pre-order: 0=SHJ, 1=Exchange, 2=a, 3=Exchange, 4=b.
        let initial = ensure_requirements(&join, 2);
        let executed = broadcast_candidate(&initial, BuildSide::Right).unwrap();
        let pm = PlanMetrics::for_plan(&initial);
        for (id, rows) in [(0, 10), (2, 20), (4, 40)] {
            pm.node(id).add_rows(rows);
        }
        let text = render_executed(&initial, &executed, &pm);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].starts_with("BroadcastHashJoin") && lines[0].contains("rows=10"));
        assert!(
            lines[1].contains("rows=20") && lines[2].contains("rows=40"),
            "{text}"
        );
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(950), "950ns");
        assert_eq!(format_ns(2_500), "2.5us");
        assert_eq!(format_ns(2_500_000), "2.500ms");
        assert_eq!(format_ns(2_500_000_000), "2.500s");
    }
}
