//! Physical operators: the plan shape handed to the execution backend.
//!
//! Physical plans are *data* — execution lives in the `spark-sql` crate,
//! which lowers each node onto engine RDD transformations. Keeping them
//! here lets planning strategies (including user extensions like the §7.2
//! interval join) be defined purely against Catalyst.

use crate::error::Result;
use crate::expr::{ColumnRef, Expr, SortOrder};
use crate::plan::JoinType;
use crate::row::Row;
use crate::schema::{Schema, SchemaRef};
use crate::source::{BaseRelation, ExternalData, Filter};
use std::fmt;
use std::sync::Arc;

/// Which side a hash join builds its table from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSide {
    /// Build from the left child, stream the right.
    Left,
    /// Build from the right child, stream the left.
    Right,
}

/// How an [`PhysicalPlan::Exchange`] distributes its input's records over
/// reducers.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitioning {
    /// Records with equal keys meet in one of `partitions` reducers.
    Hash {
        /// Keys, bound to the exchange's input.
        keys: Vec<Expr>,
        /// Reducer count.
        partitions: usize,
    },
    /// Reducer `i` holds only keys ordered before reducer `i + 1`'s, on
    /// boundaries sampled from the input.
    Range {
        /// The ordering.
        orders: Vec<SortOrder>,
        /// Reducer count.
        partitions: usize,
    },
    /// Everything in one partition.
    Single,
}

impl fmt::Display for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Partitioning::Hash { keys, partitions } => {
                write!(f, "hashpartitioning({}, {partitions})", fmt_exprs(keys))
            }
            Partitioning::Range { orders, partitions } => {
                write!(f, "rangepartitioning({}, {partitions})", fmt_orders(orders))
            }
            Partitioning::Single => f.write_str("singlepartition"),
        }
    }
}

/// A user-defined physical operator (extension point; used by the
/// genomics interval join of §7.2).
pub trait ExtensionExec: Send + Sync {
    /// Operator name for EXPLAIN.
    fn name(&self) -> String;
    /// Output attributes.
    fn output(&self) -> Vec<ColumnRef>;
    /// Execute over fully materialized child partitions, producing output
    /// partitions.
    fn execute(&self, children: Vec<Vec<Vec<Row>>>) -> Result<Vec<Vec<Row>>>;
}

/// A physical plan node.
#[derive(Clone)]
pub enum PhysicalPlan {
    /// Data source scan with pushed-down projection and filters.
    Scan {
        /// The relation.
        relation: Arc<dyn BaseRelation>,
        /// Column indices to read (into the relation's schema), if pruned.
        projection: Option<Vec<usize>>,
        /// Advisory filters pushed to the source.
        pushed_filters: Vec<Filter>,
        /// Predicate re-applied above the scan (filters the source may
        /// not fully evaluate). `None` when everything pushed is exact.
        residual: Option<Expr>,
        /// Output attributes (post-projection).
        output: Vec<ColumnRef>,
    },
    /// Scan of host-program data (RDD-backed DataFrames, §3.5).
    ExternalScan {
        /// Opaque data handle.
        data: Arc<dyn ExternalData>,
        /// Output attributes.
        output: Vec<ColumnRef>,
    },
    /// Literal rows.
    LocalData {
        /// The rows.
        rows: Arc<Vec<Row>>,
        /// Output attributes.
        output: Vec<ColumnRef>,
    },
    /// Compiled per-row projection.
    Project {
        /// Child.
        input: Arc<PhysicalPlan>,
        /// Projection expressions (resolved; bound at execution).
        exprs: Vec<Expr>,
    },
    /// Compiled per-row filter.
    Filter {
        /// Child.
        input: Arc<PhysicalPlan>,
        /// Predicate.
        predicate: Expr,
    },
    /// Hash aggregation (the backend performs map-side partial
    /// aggregation followed by a shuffle and final merge).
    HashAggregate {
        /// Child.
        input: Arc<PhysicalPlan>,
        /// Grouping expressions.
        groupings: Vec<Expr>,
        /// Output expressions (may nest aggregate calls, e.g. the
        /// `MakeDecimal(Sum(…))` produced by `DecimalAggregates`).
        output_exprs: Vec<Expr>,
    },
    /// Global sort via range-partitioned shuffle.
    Sort {
        /// Child.
        input: Arc<PhysicalPlan>,
        /// Sort keys.
        orders: Vec<SortOrder>,
    },
    /// Window-function evaluation over hash-partitioned, sorted
    /// partitions (the backend shuffles on the partition keys, sorts each
    /// partition by partition + order keys, then walks frames).
    Window {
        /// Child.
        input: Arc<PhysicalPlan>,
        /// Aliased window-function expressions; each appends one output
        /// column after the input columns.
        window_exprs: Vec<Expr>,
        /// Partitioning keys (empty = one global partition).
        partition_by: Vec<Expr>,
        /// Intra-partition ordering.
        order_by: Vec<SortOrder>,
    },
    /// Sort + Limit fused into a top-k selection (avoids a global sort).
    TakeOrdered {
        /// Child.
        input: Arc<PhysicalPlan>,
        /// Sort keys.
        orders: Vec<SortOrder>,
        /// How many rows to keep.
        n: usize,
    },
    /// Row-count limit.
    Limit {
        /// Child.
        input: Arc<PhysicalPlan>,
        /// Max rows.
        n: usize,
    },
    /// Hash join where the build side is broadcast to every partition of
    /// the stream side (chosen by the cost model for small tables).
    BroadcastHashJoin {
        /// Left child.
        left: Arc<PhysicalPlan>,
        /// Right child.
        right: Arc<PhysicalPlan>,
        /// Equi-join keys from the left side.
        left_keys: Vec<Expr>,
        /// Equi-join keys from the right side.
        right_keys: Vec<Expr>,
        /// Join flavor.
        join_type: JoinType,
        /// Which side is built/broadcast.
        build_side: BuildSide,
        /// Non-equi residual condition applied to joined rows.
        residual: Option<Expr>,
    },
    /// Hash join with both sides shuffled on the join keys.
    ShuffledHashJoin {
        /// Left child.
        left: Arc<PhysicalPlan>,
        /// Right child.
        right: Arc<PhysicalPlan>,
        /// Equi-join keys from the left side.
        left_keys: Vec<Expr>,
        /// Equi-join keys from the right side.
        right_keys: Vec<Expr>,
        /// Join flavor.
        join_type: JoinType,
        /// Which side the hash table is built from. Both sides are
        /// co-partitioned, so either side is legal for any join type;
        /// the cost model picks the smaller estimated side.
        build_side: BuildSide,
        /// Non-equi residual condition.
        residual: Option<Expr>,
    },
    /// Fallback join for non-equi conditions.
    NestedLoopJoin {
        /// Left child.
        left: Arc<PhysicalPlan>,
        /// Right child.
        right: Arc<PhysicalPlan>,
        /// Join condition (None = cross join).
        condition: Option<Expr>,
        /// Join flavor.
        join_type: JoinType,
    },
    /// Concatenation.
    Union {
        /// Children.
        inputs: Vec<Arc<PhysicalPlan>>,
    },
    /// Redistribute the input's records by `partitioning`: a shuffle, or
    /// for [`Partitioning::Single`] a coalesce into one partition. The
    /// planner's `ensure_requirements` pass puts one under every operator
    /// that needs its input co-located, and nowhere else.
    Exchange {
        /// Child.
        input: Arc<PhysicalPlan>,
        /// Where each record goes.
        partitioning: Partitioning,
    },
    /// Bernoulli sample.
    Sample {
        /// Child.
        input: Arc<PhysicalPlan>,
        /// Fraction kept.
        fraction: f64,
        /// Seed.
        seed: u64,
    },
    /// User-defined operator.
    Extension {
        /// The implementation.
        exec: Arc<dyn ExtensionExec>,
        /// Children.
        children: Vec<Arc<PhysicalPlan>>,
    },
}

impl PhysicalPlan {
    /// Output attributes.
    pub fn output(&self) -> Vec<ColumnRef> {
        match self {
            PhysicalPlan::Scan { output, .. }
            | PhysicalPlan::ExternalScan { output, .. }
            | PhysicalPlan::LocalData { output, .. } => output.clone(),
            PhysicalPlan::Project { exprs, .. } => {
                exprs.iter().filter_map(|e| e.to_attribute().ok()).collect()
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::TakeOrdered { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Exchange { input, .. }
            | PhysicalPlan::Sample { input, .. } => input.output(),
            PhysicalPlan::HashAggregate { output_exprs, .. } => output_exprs
                .iter()
                .filter_map(|e| e.to_attribute().ok())
                .collect(),
            PhysicalPlan::Window {
                input,
                window_exprs,
                ..
            } => {
                let mut out = input.output();
                out.extend(window_exprs.iter().filter_map(|e| e.to_attribute().ok()));
                out
            }
            PhysicalPlan::BroadcastHashJoin {
                left,
                right,
                join_type,
                ..
            }
            | PhysicalPlan::ShuffledHashJoin {
                left,
                right,
                join_type,
                ..
            } => join_output(left, right, *join_type),
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                join_type,
                ..
            } => join_output(left, right, *join_type),
            PhysicalPlan::Union { inputs } => {
                inputs.first().map(|i| i.output()).unwrap_or_default()
            }
            PhysicalPlan::Extension { exec, .. } => exec.output(),
        }
    }

    /// Schema of the output.
    pub fn schema(&self) -> SchemaRef {
        Arc::new(
            self.output()
                .into_iter()
                .map(|c| crate::types::StructField::new(c.name, c.dtype, c.nullable))
                .collect::<Schema>(),
        )
    }

    /// Direct children.
    pub fn children(&self) -> Vec<Arc<PhysicalPlan>> {
        match self {
            PhysicalPlan::Scan { .. }
            | PhysicalPlan::ExternalScan { .. }
            | PhysicalPlan::LocalData { .. } => vec![],
            PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Window { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::TakeOrdered { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Exchange { input, .. }
            | PhysicalPlan::Sample { input, .. } => vec![input.clone()],
            PhysicalPlan::BroadcastHashJoin { left, right, .. }
            | PhysicalPlan::ShuffledHashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                vec![left.clone(), right.clone()]
            }
            PhysicalPlan::Union { inputs } => inputs.clone(),
            PhysicalPlan::Extension { children, .. } => children.clone(),
        }
    }

    /// One-line description for EXPLAIN.
    pub fn node_description(&self) -> String {
        match self {
            PhysicalPlan::Scan {
                relation,
                projection,
                pushed_filters,
                residual,
                ..
            } => {
                let mut s = format!("Scan {}", relation.name());
                if let Some(p) = projection {
                    let schema = relation.schema();
                    let cols: Vec<&str> =
                        p.iter().map(|&i| schema.field(i).name.as_ref()).collect();
                    s.push_str(&format!(" [columns: {}]", cols.join(", ")));
                }
                if !pushed_filters.is_empty() {
                    s.push_str(&format!(" [pushed: {pushed_filters:?}]"));
                }
                if let Some(r) = residual {
                    s.push_str(&format!(" [residual: {r}]"));
                }
                s
            }
            PhysicalPlan::ExternalScan { data, .. } => format!("ExternalScan {}", data.name()),
            PhysicalPlan::LocalData { rows, .. } => format!("LocalData ({} rows)", rows.len()),
            PhysicalPlan::Project { exprs, .. } => {
                let es: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                format!("Project [{}]", es.join(", "))
            }
            PhysicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            PhysicalPlan::HashAggregate {
                groupings,
                output_exprs,
                ..
            } => {
                let gs: Vec<String> = groupings.iter().map(|e| e.to_string()).collect();
                let os: Vec<String> = output_exprs.iter().map(|e| e.to_string()).collect();
                format!("HashAggregate [{}] [{}]", gs.join(", "), os.join(", "))
            }
            PhysicalPlan::Sort { orders, .. } => format!("Sort [{}]", fmt_orders(orders)),
            PhysicalPlan::Window {
                window_exprs,
                partition_by,
                order_by,
                ..
            } => {
                format!(
                    "Window [{}] partition=[{}] order=[{}]",
                    fmt_exprs(window_exprs),
                    fmt_exprs(partition_by),
                    fmt_orders(order_by)
                )
            }
            PhysicalPlan::TakeOrdered { orders, n, .. } => {
                format!("TakeOrdered {n} [{}]", fmt_orders(orders))
            }
            PhysicalPlan::Limit { n, .. } => format!("Limit {n}"),
            PhysicalPlan::BroadcastHashJoin {
                join_type,
                build_side,
                left_keys,
                right_keys,
                ..
            } => {
                format!(
                    "BroadcastHashJoin {} build={build_side:?} keys=({} = {})",
                    join_type.keyword(),
                    fmt_exprs(left_keys),
                    fmt_exprs(right_keys)
                )
            }
            PhysicalPlan::ShuffledHashJoin {
                join_type,
                build_side,
                left_keys,
                right_keys,
                ..
            } => {
                format!(
                    "ShuffledHashJoin {} build={build_side:?} keys=({} = {})",
                    join_type.keyword(),
                    fmt_exprs(left_keys),
                    fmt_exprs(right_keys)
                )
            }
            PhysicalPlan::NestedLoopJoin {
                join_type,
                condition,
                ..
            } => match condition {
                Some(c) => format!("NestedLoopJoin {} ON {c}", join_type.keyword()),
                None => format!("CartesianProduct {}", join_type.keyword()),
            },
            PhysicalPlan::Union { inputs } => format!("Union ({} inputs)", inputs.len()),
            PhysicalPlan::Exchange { partitioning, .. } => format!("Exchange {partitioning}"),
            PhysicalPlan::Sample { fraction, .. } => format!("Sample {fraction}"),
            PhysicalPlan::Extension { exec, .. } => exec.name(),
        }
    }

    /// This node with `children` substituted in order. Panics if the
    /// arity does not match — callers only pass as many children as
    /// [`PhysicalPlan::children`] returns for the same node.
    pub fn with_children(&self, mut children: Vec<Arc<PhysicalPlan>>) -> PhysicalPlan {
        assert_eq!(
            children.len(),
            self.children().len(),
            "with_children arity mismatch"
        );
        let mut next = || children.remove(0);
        match self {
            PhysicalPlan::Scan { .. }
            | PhysicalPlan::ExternalScan { .. }
            | PhysicalPlan::LocalData { .. } => self.clone(),
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
            PhysicalPlan::Exchange { partitioning, .. } => PhysicalPlan::Exchange {
                input: next(),
                partitioning: partitioning.clone(),
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

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        for _ in 0..indent {
            write!(f, "  ")?;
        }
        writeln!(f, "{}", self.node_description())?;
        for c in self.children() {
            c.fmt_indent(f, indent + 1)?;
        }
        Ok(())
    }
}

fn join_output(left: &PhysicalPlan, right: &PhysicalPlan, join_type: JoinType) -> Vec<ColumnRef> {
    let mut out = left.output();
    let mut r = right.output();
    match join_type {
        JoinType::Left => r.iter_mut().for_each(|c| c.nullable = true),
        JoinType::Right => out.iter_mut().for_each(|c| c.nullable = true),
        JoinType::Full => {
            out.iter_mut().for_each(|c| c.nullable = true);
            r.iter_mut().for_each(|c| c.nullable = true);
        }
        _ => {}
    }
    out.extend(r);
    out
}

fn fmt_orders(orders: &[SortOrder]) -> String {
    orders
        .iter()
        .map(|o| format!("{} {}", o.expr, if o.ascending { "ASC" } else { "DESC" }))
        .collect::<Vec<_>>()
        .join(", ")
}

fn fmt_exprs(exprs: &[Expr]) -> String {
    exprs
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

impl fmt::Debug for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}
