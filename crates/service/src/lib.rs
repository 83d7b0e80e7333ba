//! Multi-tenant SQL service over the `spark-sql` engine.
//!
//! The paper (§3.1) frames Spark SQL as a library inside a single
//! application; this crate adds the deployment mode every production
//! SQL engine grows: a long-lived server that many clients share. It
//! provides:
//!
//! - a length-prefixed JSON **wire protocol** ([`wire`], [`json`]) with
//!   ops `hello`, `set`, `conf`, `query`, `fetch`, `cancel`, `stats`,
//!   and `close`;
//! - **per-session isolation** — each connection gets a fresh session
//!   over the shared root context: its own temp views (an overlay
//!   catalog) and its own conf, while `CACHE TABLE` data and permanent
//!   tables stay shared;
//! - **admission control** ([`sched`]) — a query must be granted a
//!   reservation from a bounded memory pool before it starts; denied
//!   queries wait (never start) and overfull queues reject;
//! - **fair scheduling** — round-robin dispatch across sessions' run
//!   queues with per-session in-flight caps over a fixed worker pool;
//! - **cooperative cancellation** — explicit `cancel` or a per-query
//!   deadline fires an `engine::CancelToken` that partition iterators
//!   and the DAG scheduler check, ending the query's tasks with memory
//!   reservations and spill files released.
//!
//! Everything is configured through `spark.sql.service.*` confs on the
//! root context passed to [`SqlServer::start`].

pub mod client;
pub mod json;
pub mod sched;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, FetchResult};
pub use json::Json;
pub use sched::{Outcome, QueryTask, SchedCounters, Scheduler, ServiceConf};
pub use server::SqlServer;
