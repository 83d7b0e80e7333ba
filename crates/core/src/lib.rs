//! Spark SQL in Rust: relational data processing integrated with a
//! procedural distributed-collection API, per *Spark SQL: Relational Data
//! Processing in Spark* (SIGMOD 2015).
//!
//! The two contributions of the paper live here and in `catalyst`:
//!
//! * the **DataFrame API** ([`dataframe::DataFrame`], §3) — lazy
//!   relational operators over distributed rows, eagerly analyzed,
//!   freely mixed with procedural RDD code via
//!   [`DataFrame::to_rdd`](dataframe::DataFrame::to_rdd) and
//!   [`SQLContext::rdd_to_dataframe`](context::SQLContext::rdd_to_dataframe);
//!
//! * the **Catalyst optimizer** (the `catalyst` crate, §4) — analysis,
//!   logical optimization, cost-based physical planning and expression
//!   compilation, orchestrated by [`context::SQLContext`].
//!
//! ```
//! use spark_sql::prelude::*;
//!
//! let ctx = SQLContext::new_local(2);
//! record! {
//!     struct User {
//!         name: String => DataType::String,
//!         age: i32 => DataType::Int,
//!     }
//! }
//! let users = ctx.create_dataframe_from(vec![
//!     User { name: "Alice".into(), age: 22 },
//!     User { name: "Bob".into(), age: 19 },
//! ], 2).unwrap();
//! // users.where(users("age") < 21) from the paper:
//! let young = users.where_(col("age").lt(lit(21))).unwrap();
//! assert_eq!(young.count().unwrap(), 1);
//! ```

#![warn(missing_docs)]

mod aggregate;
pub mod cache;
pub mod conf;
pub mod context;
pub mod dataframe;
mod exchange;
pub mod execution;
pub mod io;
mod join;
pub mod plan_cache;
pub mod query_execution;
pub mod rdd_table;
pub mod record;
mod sort;
pub mod spill;
mod window;

pub use conf::SqlConf;
pub use context::SQLContext;
pub use dataframe::{DataFrame, GroupedData};
pub use io::{DataFrameReader, DataFrameWriter, SaveMode};
pub use plan_cache::PlanCacheStats;
pub use query_execution::{
    CacheEvents, OperatorLogEntry, QueryExecution, QueryLogEntry, RecoveryEvents,
};

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::conf::SqlConf;
    pub use crate::context::SQLContext;
    pub use crate::dataframe::DataFrame;
    pub use crate::io::{DataFrameReader, DataFrameWriter, SaveMode};
    pub use crate::query_execution::QueryExecution;
    pub use crate::record;
    pub use crate::record::Record;
    pub use catalyst::expr::builders::{
        avg, coalesce, col, concat, count, count_distinct, count_star, length, lit, max, min,
        qualified_col, substr, sum, when, year,
    };
    pub use catalyst::expr::Expr;
    pub use catalyst::plan::JoinType;
    pub use catalyst::row::Row;
    pub use catalyst::schema::{Schema, SchemaRef};
    pub use catalyst::types::{DataType, StructField};
    pub use catalyst::value::Value;
}
