//! ORDER BY: the sort key and its one order, `Sort`, and `TakeOrdered`.
//!
//! `Sort` is one pipeline for every memory budget: evaluate each row's
//! key → range-partition on sampled boundaries (the `Exchange` under the
//! sort: the engine's count + sample + shuffle, as its own `sort_by_key`
//! runs) → [`spill::external_sort`] per partition. The budget only decides whether a partition's sort writes
//! runs to disk on the way; the rows and their order are the same.

use crate::exchange::Exchange;
use crate::execution::{bind_all, engine_err, execute_node, note_eager_ns, ExecContext};
use crate::spill;
use catalyst::error::Result;
use catalyst::expr::{ColumnRef, Expr, SortOrder};
use catalyst::interpreter;
use catalyst::physical::PhysicalPlan;
use catalyst::row::Row;
use catalyst::types::DataType;
use catalyst::value::Value;
use engine::RddRef;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

/// The one definition of key order: column by column under
/// [`Value::total_cmp`], reversed where the column's bit of
/// `descending_mask` is set, no further than the first difference. The
/// left key's columns are pulled lazily, so a caller that computes them
/// on demand pays only for the columns that decide.
fn key_order<V: Borrow<Value>, E>(
    left: impl Iterator<Item = std::result::Result<V, E>>,
    right: &[Value],
    descending_mask: u64,
) -> std::result::Result<Ordering, E> {
    for (i, (l, r)) in left.zip(right).enumerate() {
        let o = l?.borrow().total_cmp(r);
        if o != Ordering::Equal {
            return Ok(if descending_mask & (1 << i) != 0 {
                o.reverse()
            } else {
                o
            });
        }
    }
    Ok(Ordering::Equal)
}

/// Bit `i` set when `orders[i]` is descending.
pub(crate) fn descending_mask(orders: &[SortOrder]) -> u64 {
    let mut mask = 0u64;
    for (i, o) in orders.iter().enumerate() {
        if !o.ascending {
            mask |= 1 << i;
        }
    }
    mask
}

/// Sort key with per-column directions and a total order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SortKey {
    values: Vec<Value>,
    descending_mask: u64,
}

impl SortKey {
    pub(crate) fn new(values: Vec<Value>, descending_mask: u64) -> Self {
        SortKey {
            values,
            descending_mask,
        }
    }

    /// The key column values.
    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }

    /// The key column values (for flattening into a spillable row).
    pub(crate) fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Reservation size of the key columns.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.values.iter().map(Value::approx_bytes).sum()
    }
}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> Ordering {
        let columns = self.values.iter().map(Ok::<_, Infallible>);
        match key_order(columns, &other.values, self.descending_mask) {
            Ok(o) => o,
        }
    }
}

/// A sort's unit of work: a row under its key.
pub(crate) type KeyedRow = (SortKey, Row);

/// ORDER BY expressions bound to an input: the one evaluator of sort keys.
struct KeyEval {
    bound: Vec<Expr>,
    descending_mask: u64,
}

impl KeyEval {
    fn bind(orders: &[SortOrder], input: &[ColumnRef]) -> Result<KeyEval> {
        let exprs: Vec<Expr> = orders.iter().map(|o| o.expr.clone()).collect();
        Ok(KeyEval {
            bound: bind_all(&exprs, input)?,
            descending_mask: descending_mask(orders),
        })
    }

    /// Evaluate one row's key.
    fn key(&self, row: &Row) -> Result<SortKey> {
        let mut values = Vec::with_capacity(self.bound.len());
        for e in &self.bound {
            values.push(interpreter::eval(e, row)?);
        }
        Ok(SortKey::new(values, self.descending_mask))
    }

    /// How `row`'s key compares with `held`, evaluating it a column at a
    /// time and no further than the first difference: nothing is
    /// allocated to learn that a row does not make the top-N.
    fn cmp_row_with(&self, row: &Row, held: &SortKey) -> Result<Ordering> {
        let columns = self.bound.iter().map(|e| interpreter::eval(e, row));
        key_order(columns, &held.values, self.descending_mask)
    }
}

/// The first `n` rows of `rows` in key order, equal keys in arrival
/// order: what a stable sort of all of them followed by `truncate(n)`
/// returns, holding `n` rows instead of all. A max-heap keeps the `n`
/// best so far as `(key, arrival, row)` — arrivals are distinct, so that
/// order is the stable sort's — and a row whose key is not below the
/// worst of them is dropped without being stored.
fn top_n(rows: impl Iterator<Item = Row>, n: usize, keys: &KeyEval) -> Result<Vec<KeyedRow>> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut best: BinaryHeap<(SortKey, usize, Row)> = BinaryHeap::new();
    for (arrival, row) in rows.enumerate() {
        if best.len() == n {
            let mut worst = best.peek_mut().expect("n > 0 rows are held");
            // Arrivals only grow, so an equal key never displaces one held.
            if keys.cmp_row_with(&row, &worst.0)? == Ordering::Less {
                *worst = (keys.key(&row)?, arrival, row);
            }
        } else {
            best.push((keys.key(&row)?, arrival, row));
        }
    }
    let ranked = best.into_sorted_vec();
    Ok(ranked.into_iter().map(|(key, _, row)| (key, row)).collect())
}

/// Lower a `Sort` operator (pre-order id `id`).
pub(crate) fn execute_sort(
    input: &Arc<PhysicalPlan>,
    orders: &[SortOrder],
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let exchange = Exchange::at(input, id + 1)?;
    let child = execute_node(exchange.input, exchange.input_id, ctx)?;
    let keys = KeyEval::bind(orders, &input.output())?;
    let key_dtypes: Vec<DataType> = keys
        .bound
        .iter()
        .map(|e| e.data_type().unwrap_or(DataType::String))
        .collect();
    let layout = spill::SortLayout::new(
        key_dtypes,
        input.output().into_iter().map(|c| c.dtype),
        keys.descending_mask,
    );
    // An RDD closure has no error channel but its task: the scheduler
    // hands the failure to the caller as an error.
    let keyed = child.map(move |row| match keys.key(&row) {
        Ok(key) => (key, row),
        Err(e) => panic!("sort key failed: {e}"),
    });
    let partitioned = exchange.range(&keyed, ctx)?;
    let sctx = ctx.spill_ctx(id);
    Ok(partitioned
        .map_partitions(move |it| Box::new(spill::external_sort(it, &layout, &sctx).map(|p| p.1))))
}

/// Lower a `TakeOrdered` operator: per-partition top-`n`, then a
/// driver-side merge.
pub(crate) fn execute_take_ordered(
    input: &Arc<PhysicalPlan>,
    orders: &[SortOrder],
    n: usize,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let child = execute_node(input, id + 1, ctx)?;
    let eager_start = Instant::now();
    let keys = KeyEval::bind(orders, &input.output())?;
    let tops = child
        .run_job(move |_, it| top_n(it, n, &keys))
        .map_err(engine_err)?
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
    let mut all: Vec<KeyedRow> = tops.into_iter().flatten().collect();
    all.sort_by(|a, b| a.0.cmp(&b.0));
    all.truncate(n);
    note_eager_ns(ctx, id, eager_start);
    Ok(ctx
        .sc
        .parallelize(all.into_iter().map(|(_, r)| r).collect(), 1))
}
