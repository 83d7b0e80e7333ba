//! Joins: broadcast hash, shuffled hash (static or adaptive reads), and
//! nested loop.
//!
//! Every equi-join binds its site once ([`JoinSite::bind`]). The two
//! shuffled forms differ only in how each side's shuffle is read — plain
//! `partition_by`, or materialized stages re-planned from measured sizes —
//! and share one tail: [`hash_join_partition`], which builds the side the
//! planner chose under a memory reservation and goes grace (both sides
//! re-partitioned to disk, sub-partitions joined recursively) only when a
//! grow is denied.

use crate::execution::{
    bind_all, engine_err, execute_node, note_eager_ns, predicate, value_fn, ExecContext, PredFn,
    ValueFn,
};
use crate::spill::{SideLayout, SpillBuckets, SpillCtx, MAX_DEPTH};
use catalyst::adaptive::{rules as adaptive_rules, AdaptivePlanChange, AdaptiveRule};
use catalyst::error::Result;
use catalyst::expr::Expr;
use catalyst::physical::metrics::subtree_size;
use catalyst::physical::{BuildSide, PhysicalPlan};
use catalyst::plan::JoinType;
use catalyst::row::Row;
use catalyst::types::DataType;
use catalyst::validation::PlanValidator;
use catalyst::value::Value;
use engine::shuffle::SizeFn;
use engine::{BoxIter, HashPartitioner, MaterializedShuffle, PairRdd, RddRef, ShuffleReadSpec};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A shuffled join input: rows keyed by their join key, `None` = NULL key.
type Keyed = (Option<Row>, Row);

/// Null-safe key evaluation: returns None when any key is NULL (SQL
/// equi-join semantics: NULL joins nothing).
fn join_key(fns: &[ValueFn], row: &Row) -> Option<Row> {
    let mut values = Vec::with_capacity(fns.len());
    for f in fns {
        let v = f(row);
        if v.is_null() {
            return None;
        }
        values.push(v);
    }
    Some(Row::new(values))
}

/// Key a join side for its shuffle. NULL keys keep a sentinel so outer
/// rows survive it (they can never match — `Option<Row>` keys, None = NULL).
fn keyed(child: &RddRef<Row>, keys: &[ValueFn]) -> RddRef<Keyed> {
    let keys = keys.to_vec();
    child.map(move |row| (join_key(&keys, &row), row))
}

/// Approximate bytes of a keyed pair: what a shuffle measures and a build
/// table reserves.
fn pair_bytes(k: &Option<Row>, row: &Row) -> u64 {
    row.approx_bytes() + k.as_ref().map_or(8, Row::approx_bytes)
}

/// One side's spill layout and column count.
struct SideSpec {
    layout: SideLayout,
    width: usize,
}

/// What every partition of one join node shares: join semantics, the
/// residual filter, and the shape of each side.
struct JoinSpec {
    join_type: JoinType,
    /// Non-equi residual predicate over the joined row, if any.
    residual_pred: Option<PredFn>,
    left: SideSpec,
    right: SideSpec,
}

impl JoinSpec {
    /// The left (`true`) or right side.
    fn side(&self, left: bool) -> &SideSpec {
        if left {
            &self.left
        } else {
            &self.right
        }
    }

    /// One side's share of an outer row that found no partner.
    fn nulls(&self, left: bool) -> Row {
        Row::new(vec![Value::Null; self.side(left).width])
    }

    /// Does `joined` pass the residual predicate (if there is one)?
    fn keeps(&self, joined: &Row) -> bool {
        self.residual_pred.as_ref().is_none_or(|p| p(joined))
    }
}

/// A build-side row joined with a probe-side row: always `left ++ right`.
fn join_rows(build_left: bool, brow: &Row, prow: &Row) -> Row {
    if build_left {
        brow.concat(prow)
    } else {
        prow.concat(brow)
    }
}

/// One input of an equi-join: its subtree, pre-order id, and key
/// evaluators.
struct JoinSide<'a> {
    plan: &'a Arc<PhysicalPlan>,
    id: usize,
    keys: Vec<ValueFn>,
}

/// One equi-join node bound for execution, whichever lowering it takes.
struct JoinSite<'a> {
    /// The join node itself, and its pre-order id for metric attribution.
    plan: &'a PhysicalPlan,
    id: usize,
    build_side: BuildSide,
    left: JoinSide<'a>,
    right: JoinSide<'a>,
    spec: Arc<JoinSpec>,
}

impl<'a> JoinSite<'a> {
    /// Bind keys and residual and lay out both sides, once.
    fn bind(plan: &'a PhysicalPlan, id: usize, ctx: &ExecContext) -> Result<JoinSite<'a>> {
        let (PhysicalPlan::BroadcastHashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            build_side,
            residual,
        }
        | PhysicalPlan::ShuffledHashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            build_side,
            residual,
        }) = plan
        else {
            unreachable!("only hash joins bind a JoinSite");
        };
        let side = |plan: &'a Arc<PhysicalPlan>, id, keys: &[Expr]| {
            let attrs = plan.output();
            let key_dtypes = keys
                .iter()
                .map(|e| e.data_type().unwrap_or(DataType::String))
                .collect();
            let layout =
                SideLayout::new(key_dtypes, attrs.iter().map(|c| c.dtype.clone()).collect());
            let keys = bind_all(keys, &attrs)?
                .into_iter()
                .map(|e| value_fn(e, ctx))
                .collect();
            let width = attrs.len();
            Ok((JoinSide { plan, id, keys }, SideSpec { layout, width }))
        };
        let (left, left_spec) = side(left, id + 1, left_keys)?;
        let (right, right_spec) = side(right, id + 1 + subtree_size(left.plan), right_keys)?;
        // Residual predicates bind against the join node's own output.
        let residual_pred = match residual {
            Some(r) => Some(predicate(r, &plan.output(), ctx)?),
            None => None,
        };
        Ok(JoinSite {
            plan,
            id,
            build_side: *build_side,
            left,
            right,
            spec: Arc::new(JoinSpec {
                join_type: *join_type,
                residual_pred,
                left: left_spec,
                right: right_spec,
            }),
        })
    }
}

/// Lower a `BroadcastHashJoin` or `ShuffledHashJoin` node (pre-order id
/// `id`).
pub(crate) fn execute_equi_join(
    plan: &PhysicalPlan,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let site = JoinSite::bind(plan, id, ctx)?;
    if matches!(plan, PhysicalPlan::BroadcastHashJoin { .. }) {
        execute_broadcast_join(&site, ctx)
    } else {
        execute_shuffled_join(&site, ctx)
    }
}

fn execute_broadcast_join(site: &JoinSite, ctx: &ExecContext) -> Result<RddRef<Row>> {
    let build_is_left = site.build_side == BuildSide::Left;
    let (build, stream) = if build_is_left {
        (&site.left, &site.right)
    } else {
        (&site.right, &site.left)
    };

    // Build and broadcast the hash table (a separate job, like Spark's
    // broadcast exchange).
    let build_rdd = execute_node(build.plan, build.id, ctx)?;
    let eager_start = Instant::now();
    let build_rows = build_rdd.try_collect().map_err(engine_err)?;
    let pairs = build_rows
        .into_iter()
        .map(|row| (join_key(&build.keys, &row), row))
        .collect();
    let table = broadcast_build_table(pairs, site.id, ctx);
    note_eager_ns(ctx, site.id, eager_start);

    // Stream-side probe. The stream side is the outer-preserved side (the
    // planner guarantees this).
    let stream_rdd = execute_node(stream.plan, stream.id, ctx)?;
    Ok(broadcast_probe(
        stream_rdd,
        table,
        stream.keys.clone(),
        site.spec.clone(),
        build_is_left,
    ))
}

/// Build, broadcast, and meter a join hash table from keyed build rows
/// (NULL keys join nothing and are dropped).
fn broadcast_build_table(
    pairs: Vec<(Option<Row>, Row)>,
    id: usize,
    ctx: &ExecContext,
) -> Arc<HashMap<Row, Vec<Row>>> {
    let mut table: HashMap<Row, Vec<Row>> = HashMap::new();
    let mut bytes = 0u64;
    let mut build_count = 0u64;
    for (k, row) in pairs {
        if let Some(k) = k {
            bytes += row.approx_bytes();
            build_count += 1;
            table.entry(k).or_default().push(row);
        }
    }
    let broadcast = ctx.sc.broadcast(table, bytes as usize);
    let table = broadcast.value_arc();
    if let Some(pm) = &ctx.metrics {
        let node = pm.node(id);
        node.add_extra("build_rows", build_count);
        node.add_extra("build_bytes", bytes);
    }
    table
}

/// Probe a broadcast hash table with the stream side.
fn broadcast_probe(
    stream: RddRef<Row>,
    table: Arc<HashMap<Row, Vec<Row>>>,
    stream_keys: Vec<ValueFn>,
    spec: Arc<JoinSpec>,
    build_is_left: bool,
) -> RddRef<Row> {
    let preserve_unmatched = matches!(
        (spec.join_type, build_is_left),
        (JoinType::Left, false) | (JoinType::Right, true)
    );
    stream.flat_map(move |srow| {
        let mut out = Vec::new();
        let matches = join_key(&stream_keys, &srow).and_then(|key| table.get(&key));
        for brow in matches.into_iter().flatten() {
            let joined = join_rows(build_is_left, brow, &srow);
            if spec.keeps(&joined) {
                out.push(joined);
            }
        }
        if out.is_empty() && preserve_unmatched {
            out.push(join_rows(build_is_left, &spec.nulls(build_is_left), &srow));
        }
        out
    })
}

/// Lower a `ShuffledHashJoin`: co-partition both sides on the join key —
/// in production stage by stage from measured sizes (adaptive execution),
/// which may answer with a demoted broadcast join instead; statically in
/// the reference — and hash-join each pair of partitions.
fn execute_shuffled_join(site: &JoinSite, ctx: &ExecContext) -> Result<RddRef<Row>> {
    let partitions = ctx.conf.shuffle_partitions.max(1);
    let lchild = execute_node(site.left.plan, site.left.id, ctx)?;
    let rchild = execute_node(site.right.plan, site.right.id, ctx)?;
    let (lread, rread) = if ctx.conf.reference {
        // The static plan: what the adaptive one is differentially
        // tested against.
        let partitioner = || Arc::new(HashPartitioner::new(partitions));
        (
            keyed(&lchild, &site.left.keys).partition_by(partitioner()),
            keyed(&rchild, &site.right.keys).partition_by(partitioner()),
        )
    } else {
        match adaptive_reads(site, &lchild, &rchild, partitions, ctx)? {
            Adapted::Broadcast(joined) => return Ok(joined),
            Adapted::Reads(lread, rread) => (lread, rread),
        }
    };
    let (spec, build_side) = (site.spec.clone(), site.build_side);
    let sctx = ctx.spill_ctx(site.id);
    Ok(lread.zip_partitions(&rread, move |lit, rit| {
        Box::new(hash_join_partition(lit, rit, &spec, build_side, &sctx, 0).into_iter())
    }))
}

/// Hash-join one co-partitioned pair of keyed row streams under the
/// pool's budget: build a table from `build_side` under a reservation,
/// probe with the other, emit unmatched rows per the join type. Both
/// streams hold the same key range, so either side is a legal build side
/// for every join type — unmatched-row emission depends only on the join
/// type, never on which side was built. The cost model picks the smaller
/// side; joined rows are always `left ++ right`.
///
/// If the build side outgrows its share, the join goes grace: **both**
/// sides re-partition to disk by a depth-salted key hash and each
/// sub-partition joins recursively, building the same side.
fn hash_join_partition(
    lit: BoxIter<Keyed>,
    rit: BoxIter<Keyed>,
    spec: &JoinSpec,
    build_side: BuildSide,
    ctx: &SpillCtx,
    depth: usize,
) -> Vec<Row> {
    let build_left = build_side == BuildSide::Left;
    let (mut bit, pit) = if build_left { (lit, rit) } else { (rit, lit) };
    let mut reservation = ctx.pool.register();
    let mut table: HashMap<Row, Vec<(Row, bool)>> = HashMap::new();
    // Build rows with NULL keys can never match; they only matter when the
    // build side is outer-preserved.
    let mut null_key_build: Vec<Row> = Vec::new();
    let reserve = depth < MAX_DEPTH;
    let mut overflow: Option<Keyed> = None;
    for (k, row) in bit.by_ref() {
        if reserve && !reservation.try_grow(pair_bytes(&k, &row)) {
            overflow = Some((k, row));
            break;
        }
        match k {
            Some(k) => table.entry(k).or_default().push((row, false)),
            None => null_key_build.push(row),
        }
    }

    if let Some(first) = overflow {
        // Everything buffered so far, plus the rest of both streams,
        // re-partitions to disk.
        let mut bbuckets = SpillBuckets::new(spec.side(build_left).layout.clone(), depth);
        for (k, rows) in table.drain() {
            for (row, _) in rows {
                bbuckets.push(ctx, &Some(k.clone()), &row);
            }
        }
        for row in null_key_build.drain(..) {
            bbuckets.push(ctx, &None, &row);
        }
        reservation.free();
        for (k, row) in std::iter::once(first).chain(bit) {
            bbuckets.push(ctx, &k, &row);
        }
        let mut pbuckets = SpillBuckets::new(spec.side(!build_left).layout.clone(), depth);
        for (k, row) in pit {
            pbuckets.push(ctx, &k, &row);
        }
        let mut out = Vec::new();
        for (bsub, psub) in bbuckets.finish(ctx).into_iter().zip(pbuckets.finish(ctx)) {
            let (lsub, rsub) = if build_left {
                (bsub, psub)
            } else {
                (psub, bsub)
            };
            out.extend(hash_join_partition(
                lsub,
                rsub,
                spec,
                build_side,
                ctx,
                depth + 1,
            ));
        }
        return out;
    }

    let left_preserved = matches!(spec.join_type, JoinType::Left | JoinType::Full);
    let right_preserved = matches!(spec.join_type, JoinType::Right | JoinType::Full);
    let (build_preserved, probe_preserved) = if build_left {
        (left_preserved, right_preserved)
    } else {
        (right_preserved, left_preserved)
    };
    let mut out: Vec<Row> = Vec::new();
    for (k, prow) in pit {
        let mut matched = false;
        for (brow, bmatched) in k.and_then(|k| table.get_mut(&k)).into_iter().flatten() {
            let joined = join_rows(build_left, brow, &prow);
            if spec.keeps(&joined) {
                *bmatched = true;
                matched = true;
                out.push(joined);
            }
        }
        if !matched && probe_preserved {
            out.push(join_rows(build_left, &spec.nulls(build_left), &prow));
        }
    }
    if build_preserved {
        let nulls = spec.nulls(!build_left);
        let unmatched = table.values().flatten().filter(|(_, matched)| !matched);
        for brow in unmatched.map(|(brow, _)| brow).chain(&null_key_build) {
            out.push(join_rows(build_left, brow, &nulls));
        }
    }
    out
}

// ---- adaptive (stage-by-stage) execution ----

/// Materialize one join side's shuffle map stage: key the lowered child,
/// hash-partition it, run the map tasks, measure the output.
fn materialize_join_side(
    child: &RddRef<Row>,
    keys: &[ValueFn],
    partitions: usize,
) -> Result<MaterializedShuffle<Option<Row>, Row, Row>> {
    let size_fn: SizeFn<Option<Row>, Row> = Arc::new(pair_bytes);
    MaterializedShuffle::create(
        &keyed(child, keys),
        Arc::new(HashPartitioner::new(partitions)),
        None,
        false,
        Some(size_fn),
    )
    .map_err(engine_err)
}

/// What stage-by-stage execution made of a shuffled join.
enum Adapted {
    /// A legal build side measured under the broadcast threshold: the
    /// whole join, re-planned as a broadcast join.
    Broadcast(RddRef<Row>),
    /// Both sides' materialized shuffles, read as co-partitioned streams
    /// (coalesced and skew-split).
    Reads(RddRef<Keyed>, RddRef<Keyed>),
}

/// The adaptive step of a shuffled join: materialize the candidate build
/// side's shuffle first, and decide the rest of the plan from its
/// *measured* size.
///
/// 1. **Dynamic demotion** — when a legal build side's measured bytes land
///    at or under `broadcast_threshold`, re-plan as a broadcast join (the
///    other side is then never shuffled at all). The candidate plan must
///    pass [`PlanValidator`]; a rejected rewrite falls back to the
///    shuffled plan instead of failing the query.
/// 2. **Partition coalescing** — otherwise both sides materialize and
///    small neighboring reduce partitions merge up to
///    `adaptive_target_partition_bytes` per task.
/// 3. **Skew splitting** — an un-coalesced reduce partition exceeding
///    `adaptive_skew_factor` × the median splits into map-range
///    sub-partitions on the legal side, replicating the other side's
///    bucket against each.
fn adaptive_reads(
    site: &JoinSite,
    lchild: &RddRef<Row>,
    rchild: &RddRef<Row>,
    partitions: usize,
    ctx: &ExecContext,
) -> Result<Adapted> {
    let (id, join_type) = (site.id, site.spec.join_type);
    let threshold = ctx.conf.broadcast_threshold;
    let target = ctx.conf.adaptive_target_partition_bytes.max(1);
    let factor = ctx.conf.adaptive_skew_factor;

    let mut lmat: Option<MaterializedShuffle<Option<Row>, Row, Row>> = None;
    let mut rmat: Option<MaterializedShuffle<Option<Row>, Row, Row>> = None;

    // Try demotion: materialize a legal build side and compare its
    // measured bytes with the broadcast threshold. Building right is
    // preferred (it streams the usual outer-preserved left side).
    for build in [BuildSide::Right, BuildSide::Left] {
        if !adaptive_rules::can_demote(join_type, build) {
            continue;
        }
        let (mat_slot, child, keys) = match build {
            BuildSide::Right => (&mut rmat, rchild, &site.right.keys),
            BuildSide::Left => (&mut lmat, lchild, &site.left.keys),
        };
        if mat_slot.is_none() {
            *mat_slot = Some(materialize_join_side(child, keys, partitions)?);
        }
        let mat = mat_slot.as_ref().unwrap();
        let measured = mat.total_bytes();
        if measured > threshold {
            continue;
        }
        let Some(candidate) = adaptive_rules::broadcast_candidate(site.plan, build) else {
            continue;
        };
        // The rewrite must uphold the same invariants the static planner's
        // output does; a rejected candidate falls back to the shuffled plan.
        if !PlanValidator::new().check_physical(&candidate).is_empty() {
            continue;
        }
        ctx.adaptive.record(AdaptivePlanChange {
            node_id: id,
            rule: AdaptiveRule::BroadcastDemotion,
            description: format!(
                "build {:?} measured {measured} B <= broadcast threshold {threshold} B; \
                 ShuffledHashJoin -> BroadcastHashJoin",
                build
            ),
            replacement: Some(candidate),
        });
        let eager_start = Instant::now();
        let pairs = mat.read_all().try_collect().map_err(engine_err)?;
        let table = broadcast_build_table(pairs, id, ctx);
        note_eager_ns(ctx, id, eager_start);
        let build_is_left = build == BuildSide::Left;
        let (stream, stream_keys) = if build_is_left {
            (rchild, &site.right.keys)
        } else {
            (lchild, &site.left.keys)
        };
        return Ok(Adapted::Broadcast(broadcast_probe(
            stream.clone(),
            table,
            stream_keys.clone(),
            site.spec.clone(),
            build_is_left,
        )));
    }

    // Shuffled fallback: materialize whichever sides the demotion probe
    // did not, then plan the reduce reads from the measured sizes.
    let lmat = match lmat {
        Some(m) => m,
        None => materialize_join_side(lchild, &site.left.keys, partitions)?,
    };
    let rmat = match rmat {
        Some(m) => m,
        None => materialize_join_side(rchild, &site.right.keys, partitions)?,
    };
    let lsizes = lmat.reduce_sizes();
    let rsizes = rmat.reduce_sizes();
    let totals: Vec<u64> = lsizes.iter().zip(&rsizes).map(|(a, b)| a + b).collect();
    let ranges = adaptive_rules::coalesce_partitions(&totals, target);
    let lmed = adaptive_rules::median(&lsizes);
    let rmed = adaptive_rules::median(&rsizes);

    let mut lspecs: Vec<ShuffleReadSpec> = Vec::new();
    let mut rspecs: Vec<ShuffleReadSpec> = Vec::new();
    let mut skew_splits = 0usize;
    for range in &ranges {
        // Only a partition too big to coalesce with a neighbor can be
        // skewed; multi-reducer ranges are by construction under target.
        if range.len() == 1 {
            let r = range.start;
            // Split the side that is both skewed and legal to split (its
            // rows land in exactly one sub-partition; the other side's
            // bucket is replicated, so it must not drive unmatched rows).
            let split_left = adaptive_rules::can_split_side(join_type, BuildSide::Left)
                && adaptive_rules::is_skewed(lsizes[r], lmed, factor, target);
            let split_right = !split_left
                && adaptive_rules::can_split_side(join_type, BuildSide::Right)
                && adaptive_rules::is_skewed(rsizes[r], rmed, factor, target);
            let map_ranges = if split_left {
                adaptive_rules::split_map_ranges(&lmat.map_sizes_for(r), target)
            } else if split_right {
                adaptive_rules::split_map_ranges(&rmat.map_sizes_for(r), target)
            } else {
                vec![]
            };
            if map_ranges.len() > 1 {
                skew_splits += map_ranges.len();
                for mr in map_ranges {
                    if split_left {
                        lspecs.push(ShuffleReadSpec::map_range(r, mr.start, mr.end));
                        rspecs.push(ShuffleReadSpec::reducers(r, r + 1, rmat.num_maps()));
                    } else {
                        lspecs.push(ShuffleReadSpec::reducers(r, r + 1, lmat.num_maps()));
                        rspecs.push(ShuffleReadSpec::map_range(r, mr.start, mr.end));
                    }
                }
                continue;
            }
        }
        lspecs.push(ShuffleReadSpec::reducers(
            range.start,
            range.end,
            lmat.num_maps(),
        ));
        rspecs.push(ShuffleReadSpec::reducers(
            range.start,
            range.end,
            rmat.num_maps(),
        ));
    }

    if ranges.len() != partitions {
        ctx.adaptive.record(AdaptivePlanChange {
            node_id: id,
            rule: AdaptiveRule::CoalescePartitions,
            description: format!(
                "{partitions} -> {} post-shuffle partitions (target {target} B, measured {} B)",
                ranges.len(),
                totals.iter().sum::<u64>(),
            ),
            replacement: None,
        });
    }
    if skew_splits > 0 {
        ctx.adaptive.record(AdaptivePlanChange {
            node_id: id,
            rule: AdaptiveRule::SkewSplit,
            description: format!(
                "split skewed reduce partition(s) into {skew_splits} map-range sub-partitions \
                 (factor {factor}, median {lmed}/{rmed} B)",
            ),
            replacement: None,
        });
    }
    if let Some(pm) = &ctx.metrics {
        let node = pm.node(id);
        node.set_extra("adaptive_partitions", lspecs.len() as u64);
        node.set_extra("adaptive_skew_splits", skew_splits as u64);
    }

    Ok(Adapted::Reads(lmat.read(lspecs), rmat.read(rspecs)))
}

/// Lower a `NestedLoopJoin` (inner, cross, or left outer — the planner
/// refuses the rest): collect the right side, stream the left against it.
pub(crate) fn execute_nested_loop_join(
    left: &Arc<PhysicalPlan>,
    right: &Arc<PhysicalPlan>,
    condition: &Option<Expr>,
    join_type: JoinType,
    join_plan: &PhysicalPlan,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let cond: Option<PredFn> = match condition {
        Some(c) => Some(predicate(c, &join_plan.output(), ctx)?),
        None => None,
    };
    let left_id = id + 1;
    let right_id = left_id + subtree_size(left);
    let right_width = right.output().len();
    let eager_start = Instant::now();
    let right_rows = Arc::new(
        execute_node(right, right_id, ctx)?
            .try_collect()
            .map_err(engine_err)?,
    );
    note_eager_ns(ctx, id, eager_start);
    let stream = execute_node(left, left_id, ctx)?;
    Ok(stream.flat_map(move |lrow| {
        let mut out = Vec::new();
        for rrow in right_rows.iter() {
            let joined = lrow.concat(rrow);
            if cond.as_ref().is_none_or(|p| p(&joined)) {
                out.push(joined);
            }
        }
        if out.is_empty() && join_type == JoinType::Left {
            out.push(lrow.concat(&Row::new(vec![Value::Null; right_width])));
        }
        out
    }))
}
