//! Catalyst: an extensible relational query optimizer (§4 of *Spark SQL:
//! Relational Data Processing in Spark*, SIGMOD 2015), in Rust.
//!
//! At its core Catalyst is a library for representing trees and applying
//! rules to them ([`tree`], [`rules`]). On top of that sit libraries for
//! relational query processing — expressions ([`expr`]), data types
//! ([`types`]), logical plans ([`plan`]) — and rule sets for each phase of
//! query execution:
//!
//! 1. **Analysis** ([`analysis`]): resolve relations and attributes from a
//!    catalog, give attributes unique ids, propagate and coerce types.
//! 2. **Logical optimization** ([`optimizer`]): constant folding,
//!    predicate pushdown, projection pruning, null propagation, Boolean
//!    simplification, the paper's `DecimalAggregates` rule, and more.
//! 3. **Physical planning** ([`physical`]): translate to physical
//!    operators, choosing join algorithms with a cost model (broadcast vs
//!    shuffled hash join) and pushing projections/filters into data
//!    sources ([`source`]).
//! 4. **Expression evaluation**: columnar kernels over batches
//!    ([`vectorized`]) — this crate's substitute for the paper's
//!    quasiquote-based code generation, since both remove per-row
//!    interpretation overhead — and the tree-walking [`interpreter`]
//!    as the fallback where no kernel exists and the row-at-a-time
//!    evaluator. Both call the one definition of each scalar rule in
//!    [`scalar`].
//!
//! Extension points mirror the paper's: user rule batches, planning
//! strategies, data sources, UDFs and user-defined types.

#![warn(missing_docs)]
#![allow(clippy::type_complexity)] // Arc<dyn Fn(...)> closure-table types are the crate's idiom

#[macro_use]
pub mod row;

pub mod adaptive;
pub mod analysis;
pub mod cost;
pub mod error;
pub mod expr;
pub mod interpreter;
pub mod ndv;
pub mod optimizer;
pub mod physical;
pub mod plan;
pub mod rules;
pub mod scalar;
pub mod schema;
pub mod source;
pub mod tree;
pub mod types;
pub mod udt;
pub mod validation;
pub mod value;
pub mod vectorized;

pub use error::{CatalystError, Result};
pub use expr::{col, lit, Expr};
pub use row::Row;
pub use schema::{Schema, SchemaRef};
pub use types::{DataType, StructField};
pub use value::Value;
