//! In-memory columnar storage (§3.6 of the Spark SQL paper).
//!
//! Cached DataFrames and colfile row groups are stored as
//! [`batch::ColumnarBatch`]es: one encoded, compressed vector per column
//! with null bitmaps and min/max statistics, written from execution
//! lanes ([`EncodedColumn::encode`]) and read back as lanes
//! ([`EncodedColumn::decode_vector`]). Dictionary and run-length encoding reduce the footprint by
//! an order of magnitude versus rows of boxed objects (measured by the
//! `mem_footprint` experiment binary), and per-batch statistics let
//! cached scans skip batches that cannot match pushed-down filters.

#![warn(missing_docs)]

pub mod batch;
pub mod bitmap;
pub mod column;
pub mod encoding;
pub mod memory;
pub mod serde;
pub mod spill;
pub mod stats;

pub use batch::{batch_rows, ColumnarBatch, DEFAULT_BATCH_SIZE};
pub use bitmap::Bitmap;
pub use column::{ColumnData, EncodedColumn};
pub use spill::SpillCodec;
pub use stats::ColumnStats;
