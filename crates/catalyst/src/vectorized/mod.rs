//! Vectorized (batch-at-a-time) expression evaluation and operators.
//!
//! The row-at-a-time Volcano iterator pays a virtual call and a boxed
//! [`Value`](crate::value::Value) per column per row. This module
//! amortizes that overhead over whole batches: a [`RowBatch`] carries
//! typed column vectors ([`ColumnVector`]) plus an optional *selection
//! vector*, and [`eval_batch`] evaluates an expression tree one
//! **column** at a time with tight loops over primitive lanes — the
//! Shark/Flare-style answer to interpretation overhead that §3.4/§4.3.4
//! of the paper motivate.
//!
//! Layout:
//!
//! * [`batch`] — the storage types: [`VectorData`], [`ColumnVector`],
//!   [`RowBatch`] and the batch→row compaction point
//!   ([`RowBatch::into_selected_rows`]).
//! * [`kernels`] — columnar expression kernels ([`eval_batch`],
//!   [`eval_projection_batch`], [`filter_batch`]).
//! * [`hash`] — columnar group-key hashing for batch-native hash
//!   aggregation ([`BatchGroups`]).
//! * [`accumulators`] — the aggregate partial state ([`Acc`]) and the
//!   typed lanes the batch kernel updates per batch
//!   ([`AccLane`], [`LaneAgg`]).
//!
//! Design rules (documented in DESIGN.md):
//!
//! * **A kernel where one exists, else the interpreter on the selected
//!   lanes.** Kernels cover Long/Double arithmetic with Hive division
//!   semantics, three-valued AND/OR, string comparison/concat, numeric
//!   casts and null tests, each tested lane by lane against the
//!   [`interpreter`](crate::interpreter), which defines the semantics
//!   (division or modulo by zero yields NULL in both). Any other node
//!   (CASE, LIKE, UDFs, decimals, dates, …) makes its whole subtree fall
//!   back: the interpreter evaluates the *selected* rows only, producing
//!   a boxed [`VectorData::Values`] column. Unselected lanes are never
//!   evaluated, matching the row path where filtered-out rows never
//!   reach the expression.
//! * **Filters select, they don't copy.** A predicate refines the
//!   selection vector; rows are compacted only at the batch→row adapter
//!   boundary ([`RowBatch::into_selected_rows`]).

pub mod accumulators;
pub mod batch;
pub mod hash;
pub mod kernels;

pub use accumulators::{Acc, AccLane, LaneAgg};
pub use batch::{ColumnVector, RowBatch, VectorData, NULL_LANE};
pub use hash::BatchGroups;
pub use kernels::{eval_batch, eval_projection_batch, filter_batch};
