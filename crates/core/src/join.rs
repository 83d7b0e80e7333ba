//! Joins: broadcast hash, shuffled hash (static or adaptive reads), and
//! nested loop.
//!
//! Every equi-join binds its site once ([`JoinSite::bind`]). In
//! production a broadcast join — planned, or demoted by stage-by-stage
//! execution — runs over batches: a [`BuildTable`] of the build side's
//! lanes and chains, keyed by the [`BatchGroups`] interner GROUP BY uses,
//! probed a key column at a time by [`Probe`]. The two shuffled forms
//! differ only in how each side's shuffle is read — plain
//! `partition_by`, or materialized stages re-planned from measured sizes
//! — and share one tail with the reference's broadcast join:
//! [`hash_join_partition`], which builds the side the planner chose
//! under a memory reservation and goes grace (both sides re-partitioned
//! to disk, sub-partitions joined recursively) only when a grow is
//! denied.

use crate::execution::{
    bind_all, engine_err, execute_node, lower_node, note_eager_ns, predicate, value_fn,
    ExecContext, Lowered, PredFn, ValueFn,
};
use crate::spill::{SideLayout, SpillBuckets, SpillCtx, MAX_DEPTH};
use catalyst::adaptive::{rules as adaptive_rules, AdaptivePlanChange, AdaptiveRule};
use catalyst::error::Result;
use catalyst::expr::Expr;
use catalyst::interpreter::bind_references;
use catalyst::physical::metrics::{subtree_size, OperatorMetrics};
use catalyst::physical::{BuildSide, PhysicalPlan};
use catalyst::plan::JoinType;
use catalyst::row::Row;
use catalyst::types::DataType;
use catalyst::validation::PlanValidator;
use catalyst::value::Value;
use catalyst::vectorized::{self, BatchGroups, ColumnVector, RowBatch, NULL_LANE};
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

/// Key a join side's rows. NULL keys keep a sentinel so outer rows
/// survive it (they can never match — `Option<Row>` keys, None = NULL).
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

/// What every partition of one row-at-a-time join shares: join
/// semantics, the residual filter, and the shape of each side.
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
/// expressions bound to its output.
struct JoinSide<'a> {
    plan: &'a Arc<PhysicalPlan>,
    id: usize,
    keys: Vec<Expr>,
}

impl JoinSide<'_> {
    /// Row-at-a-time key evaluators.
    fn key_fns(&self) -> Vec<ValueFn> {
        self.keys.iter().cloned().map(value_fn).collect()
    }
}

/// One equi-join node bound for execution, whichever lowering it takes.
struct JoinSite<'a> {
    /// The join node itself, and its pre-order id for metric attribution.
    plan: &'a PhysicalPlan,
    id: usize,
    join_type: JoinType,
    build_side: BuildSide,
    left: JoinSide<'a>,
    right: JoinSide<'a>,
    /// Non-equi residual predicate over `left ++ right`, unbound.
    residual: &'a Option<Expr>,
}

impl<'a> JoinSite<'a> {
    /// Bind both sides' keys, once.
    fn bind(plan: &'a PhysicalPlan, id: usize) -> Result<JoinSite<'a>> {
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
        let side = |plan: &'a Arc<PhysicalPlan>, id, keys: &[Expr]| -> Result<JoinSide<'a>> {
            let keys = bind_all(keys, &plan.output())?;
            Ok(JoinSide { plan, id, keys })
        };
        Ok(JoinSite {
            plan,
            id,
            join_type: *join_type,
            build_side: *build_side,
            left: side(left, id + 1, left_keys)?,
            right: side(right, id + 1 + subtree_size(left), right_keys)?,
            residual,
        })
    }

    /// `(build, stream)` when the left side (`true`) or the right builds.
    fn sides(&self, build_left: bool) -> (&JoinSide<'a>, &JoinSide<'a>) {
        if build_left {
            (&self.left, &self.right)
        } else {
            (&self.right, &self.left)
        }
    }

    /// What a row-at-a-time join of this node shares across partitions.
    fn row_spec(&self) -> Result<Arc<JoinSpec>> {
        // Residual predicates bind against the join node's own output.
        let residual_pred = match self.residual {
            Some(r) => Some(predicate(r, &self.plan.output())?),
            None => None,
        };
        let side = |s: &JoinSide| {
            let attrs = s.plan.output();
            let keys = (s.keys.iter()).map(|e| e.data_type().unwrap_or(DataType::String));
            let layout = SideLayout::new(
                keys.collect(),
                attrs.iter().map(|c| c.dtype.clone()).collect(),
            );
            SideSpec {
                layout,
                width: attrs.len(),
            }
        };
        Ok(Arc::new(JoinSpec {
            join_type: self.join_type,
            residual_pred,
            left: side(&self.left),
            right: side(&self.right),
        }))
    }

    /// Build and broadcast the table of the build side's `batches`.
    fn broadcast(
        &self,
        build_left: bool,
        batches: &[RowBatch],
        ctx: &ExecContext,
    ) -> Result<Arc<BuildTable>> {
        let (build, probe) = self.sides(build_left);
        let n: usize = batches.iter().map(RowBatch::selected_count).sum();
        let columns: Vec<Arc<ColumnVector>> = (build.plan.output().iter().enumerate())
            .map(|(j, attr)| {
                let parts: Vec<Arc<ColumnVector>> = (batches.iter())
                    .map(|b| match b.selection() {
                        Some(sel) => Arc::new(b.column(j).gather(sel)),
                        None => b.column(j).clone(),
                    })
                    .collect();
                Arc::new(ColumnVector::concat(&attr.dtype, &parts))
            })
            .collect();
        // Rows with a NULL in any key column join nothing: no chain.
        let keys = RowBatch::new(columns.clone(), n);
        let keys = vectorized::eval_projection_batch(&build.keys, &keys)
            .expect("join key evaluation failed");
        let non_null = (0..n as u32)
            .filter(|&i| keys.columns().iter().all(|c| !c.is_null(i as usize)))
            .collect();
        let (mut groups, mut assigned) = (BatchGroups::new(), Vec::new());
        groups.assign(&keys.with_selection(non_null), &mut assigned);
        let (mut first, mut next) = (vec![NONE; groups.len()], vec![NONE; n]);
        for &(row, g) in assigned.iter().rev() {
            next[row as usize] = first[g as usize];
            first[g as usize] = row;
        }
        let bytes = columns.iter().map(|c| c.approx_bytes()).sum();
        ctx.mem.note_broadcast(bytes);
        let node = ctx.metrics.as_ref().map(|pm| pm.node(self.id));
        if let Some(node) = &node {
            node.add_extra("build_rows", n as u64);
            node.add_extra("build_bytes", bytes);
        }
        let residual = match self.residual {
            Some(r) => Some(bind_references(r.clone(), &self.plan.output())?),
            None => None,
        };
        let table = BuildTable {
            columns,
            groups,
            first,
            next,
            stream_keys: probe.keys.clone(),
            residual,
            build_left,
            // The planner streams the outer-preserved side.
            preserve: matches!(
                (self.join_type, build_left),
                (JoinType::Left, false) | (JoinType::Right, true)
            ),
            batch_size: ctx.conf.vectorize_batch_size.max(1),
            node,
        };
        Ok(ctx.sc.broadcast(table, bytes as usize).value_arc())
    }
}

/// Probe every stream batch against a broadcast `table`.
fn probe(stream: RddRef<RowBatch>, table: Arc<BuildTable>) -> RddRef<RowBatch> {
    stream.map_partitions(move |input| {
        Box::new(Probe {
            input,
            table: table.clone(),
            batch: RowBatch::new(Vec::new(), 0),
            heads: Vec::new(),
            pos: 0,
            matched: false,
            pairs: 0,
        })
    })
}

/// Lower a `BroadcastHashJoin` in production (pre-order id `id`): collect
/// and broadcast the build side's batches (a separate job, like Spark's
/// broadcast exchange), then probe the stream side batch by batch.
pub(crate) fn execute_broadcast_join(
    plan: &PhysicalPlan,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<RowBatch>> {
    let site = JoinSite::bind(plan, id)?;
    let build_left = site.build_side == BuildSide::Left;
    let (build, stream) = site.sides(build_left);
    let build_rdd = lower_node(build.plan, build.id, ctx)?.batches(build.plan, ctx);
    let eager_start = Instant::now();
    let batches = build_rdd.try_collect().map_err(engine_err)?;
    let table = site.broadcast(build_left, &batches, ctx)?;
    note_eager_ns(ctx, id, eager_start);
    let stream_rdd = lower_node(stream.plan, stream.id, ctx)?.batches(stream.plan, ctx);
    Ok(probe(stream_rdd, table))
}

/// "No build row": the end of a chain, or a null-extended lane.
const NONE: u32 = NULL_LANE;

/// What every probe task of one broadcast join shares: the build side's
/// selected lanes as one set of column vectors, its non-NULL keys
/// interned, per key a chain of build rows in arrival order, and how to
/// probe.
struct BuildTable {
    columns: Vec<Arc<ColumnVector>>,
    groups: BatchGroups,
    /// First build row of each key group.
    first: Vec<u32>,
    /// Next build row with the same key, per build row.
    next: Vec<u32>,
    /// Stream-side keys, bound to the stream side.
    stream_keys: Vec<Expr>,
    /// Residual predicate, bound to `left ++ right`.
    residual: Option<Expr>,
    build_left: bool,
    /// Whether a stream lane with no surviving match is null-extended.
    preserve: bool,
    /// Most key-matched pairs per output batch.
    batch_size: usize,
    node: Option<Arc<OperatorMetrics>>,
}

/// One stream partition probing a [`BuildTable`]: each stream batch
/// yields batches of at most `batch_size` key-matched pairs, resuming
/// mid-chain when one key matches more.
struct Probe {
    input: BoxIter<RowBatch>,
    table: Arc<BuildTable>,
    /// The stream batch being probed.
    batch: RowBatch,
    /// `(stream lane, next build row of its chain)` per selected lane.
    heads: Vec<(u32, u32)>,
    /// Next entry of `heads` to emit.
    pos: usize,
    /// Whether `heads[pos]` kept a match in an earlier output batch.
    matched: bool,
    pairs: u64,
}

impl Probe {
    /// Look up the keys of the next stream batch.
    fn start(&mut self, batch: RowBatch) {
        let keys = vectorized::eval_projection_batch(&self.table.stream_keys, &batch)
            .expect("join key evaluation failed");
        let mut found = Vec::new();
        self.table.groups.find(&keys, &mut found);
        let (mut found, first) = (found.into_iter().peekable(), &self.table.first);
        self.heads.clear();
        batch.for_each_selected(|i| {
            let group = found.next_if(|(lane, _)| *lane as usize == i);
            let head = group.map_or(NONE, |(_, g)| first[g as usize]);
            self.heads.push((i as u32, head));
        });
        (self.batch, self.pos, self.matched) = (batch, 0, false);
    }

    /// The `left ++ right` lanes of `(stream lane, build row)` pairs.
    fn gather(&self, stream: &[u32], build: &[u32]) -> RowBatch {
        let pick = |cols: &[Arc<ColumnVector>], idx: &[u32]| -> Vec<Arc<ColumnVector>> {
            cols.iter().map(|c| Arc::new(c.gather(idx))).collect()
        };
        let s = pick(self.batch.columns(), stream);
        let b = pick(&self.table.columns, build);
        let columns = if self.table.build_left {
            [b, s].concat()
        } else {
            [s, b].concat()
        };
        RowBatch::new(columns, stream.len())
    }

    /// The next output batch of the current stream batch. A preserved
    /// lane's chain ends in a null-extended lane, selected only when none
    /// of the lane's pairs passed the residual.
    fn chunk(&mut self) -> RowBatch {
        let table = self.table.clone();
        let (mut stream, mut build) = (Vec::new(), Vec::new());
        while self.pos < self.heads.len() && stream.len() < table.batch_size {
            let (lane, mut row) = self.heads[self.pos];
            while row != NONE && stream.len() < table.batch_size {
                stream.push(lane);
                build.push(row);
                row = table.next[row as usize];
                self.pairs += 1;
            }
            if row != NONE {
                self.heads[self.pos].1 = row; // resume here
                break;
            }
            if table.preserve {
                stream.push(lane);
                build.push(NONE);
            }
            self.pos += 1;
        }
        let candidates = self.gather(&stream, &build);
        let kept = match &table.residual {
            Some(r) => vectorized::filter_batch(r, &candidates).expect("predicate failed"),
            None => candidates,
        };
        if !table.preserve {
            return kept;
        }
        let mut passed = vec![kept.selection().is_none(); build.len()];
        for &c in kept.selection().unwrap_or_default() {
            passed[c as usize] = true;
        }
        let selection = (0..build.len() as u32).filter(|&c| match build[c as usize] {
            NONE => !std::mem::take(&mut self.matched),
            _ => {
                self.matched |= passed[c as usize];
                passed[c as usize]
            }
        });
        let selection = selection.collect();
        kept.with_selection(selection)
    }
}

impl Iterator for Probe {
    type Item = RowBatch;

    fn next(&mut self) -> Option<RowBatch> {
        loop {
            while self.pos == self.heads.len() {
                let batch = self.input.next()?;
                self.start(batch);
            }
            let out = self.chunk();
            if out.selected_count() > 0 {
                return Some(out);
            }
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        if let Some(node) = &self.table.node {
            node.add_extra("pairs", self.pairs);
        }
    }
}

/// Lower a `ShuffledHashJoin`, or the reference's `BroadcastHashJoin`
/// (pre-order id `id`), to rows: pair up keyed partitions of both sides
/// and hash-join each pair. A shuffled join co-partitions both sides on
/// the join key — in production stage by stage from measured sizes
/// (adaptive execution), which may answer with a demoted broadcast join
/// instead; statically in the reference.
pub(crate) fn execute_equi_join(
    plan: &PhysicalPlan,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let site = JoinSite::bind(plan, id)?;
    let (lread, rread) = if matches!(plan, PhysicalPlan::BroadcastHashJoin { .. }) {
        broadcast_reads(&site, ctx)?
    } else {
        let partitions = ctx.conf.shuffle_partitions.max(1);
        let lchild = lower_node(site.left.plan, site.left.id, ctx)?;
        let rchild = lower_node(site.right.plan, site.right.id, ctx)?;
        if ctx.conf.reference {
            // The static plan: what the adaptive one is differentially
            // tested against.
            let partitioner = || Arc::new(HashPartitioner::new(partitions));
            (
                keyed(&lchild.rows(), &site.left.key_fns()).partition_by(partitioner()),
                keyed(&rchild.rows(), &site.right.key_fns()).partition_by(partitioner()),
            )
        } else {
            match adaptive_reads(&site, &lchild, &rchild, partitions, ctx)? {
                Adapted::Broadcast(joined) => return Ok(joined),
                Adapted::Reads(lread, rread) => (lread, rread),
            }
        }
    };
    let (spec, build_side) = (site.row_spec()?, site.build_side);
    let sctx = ctx.spill_ctx(site.id);
    Ok(lread.zip_partitions(&rread, move |lit, rit| {
        Box::new(hash_join_partition(lit, rit, &spec, build_side, &sctx, 0).into_iter())
    }))
}

/// The reference's broadcast join, row at a time: every stream partition
/// meets all of the keyed build rows, collected once.
fn broadcast_reads(site: &JoinSite, ctx: &ExecContext) -> Result<(RddRef<Keyed>, RddRef<Keyed>)> {
    let build_left = site.build_side == BuildSide::Left;
    let (build, stream) = site.sides(build_left);
    let build_rdd = execute_node(build.plan, build.id, ctx)?;
    let eager_start = Instant::now();
    let keyed_build = keyed(&build_rdd, &build.key_fns());
    let rows = Arc::new(keyed_build.try_collect().map_err(engine_err)?);
    note_eager_ns(ctx, site.id, eager_start);
    let stream = keyed(
        &execute_node(stream.plan, stream.id, ctx)?,
        &stream.key_fns(),
    );
    let copies = ctx
        .sc
        .generate(stream.num_partitions(), move |_| -> BoxIter<Keyed> {
            Box::new(rows.as_ref().clone().into_iter())
        });
    Ok(if build_left {
        (copies, stream)
    } else {
        (stream, copies)
    })
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
    lchild: &Lowered,
    rchild: &Lowered,
    partitions: usize,
    ctx: &ExecContext,
) -> Result<Adapted> {
    let (id, join_type) = (site.id, site.join_type);
    let (lkeys, rkeys) = (site.left.key_fns(), site.right.key_fns());
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
            BuildSide::Right => (&mut rmat, rchild, &rkeys),
            BuildSide::Left => (&mut lmat, lchild, &lkeys),
        };
        if mat_slot.is_none() {
            *mat_slot = Some(materialize_join_side(&child.rows(), keys, partitions)?);
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
        // The same batch build and probe as a planned broadcast join.
        let eager_start = Instant::now();
        let pairs = mat.read_all().try_collect().map_err(engine_err)?;
        let rows: Vec<Row> = pairs.into_iter().map(|(_, row)| row).collect();
        let build_left = build == BuildSide::Left;
        let (build_side, stream_side) = site.sides(build_left);
        let dtypes: Vec<DataType> = (build_side.plan.output().iter())
            .map(|c| c.dtype.clone())
            .collect();
        let table = site.broadcast(build_left, &[RowBatch::from_rows(&dtypes, &rows)], ctx)?;
        note_eager_ns(ctx, id, eager_start);
        let stream = if build_left { rchild } else { lchild };
        let joined = probe(stream.batches(stream_side.plan, ctx), table);
        return Ok(Adapted::Broadcast(
            joined.flat_map(RowBatch::into_selected_rows),
        ));
    }

    // Shuffled fallback: materialize whichever sides the demotion probe
    // did not, then plan the reduce reads from the measured sizes.
    let lmat = match lmat {
        Some(m) => m,
        None => materialize_join_side(&lchild.rows(), &lkeys, partitions)?,
    };
    let rmat = match rmat {
        Some(m) => m,
        None => materialize_join_side(&rchild.rows(), &rkeys, partitions)?,
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
        Some(c) => Some(predicate(c, &join_plan.output())?),
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
