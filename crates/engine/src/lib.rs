//! A Spark-like in-process distributed execution engine.
//!
//! This crate reproduces the substrate that Spark SQL (Armbrust et al.,
//! SIGMOD 2015) runs on: lazily evaluated, partitioned, fault-tolerant
//! distributed collections ("RDDs", §2.1 of the paper) executed by a DAG
//! scheduler that splits the lineage graph into stages at shuffle
//! boundaries and runs tasks on a pool of executor threads.
//!
//! The "cluster" is simulated inside one process: executors are worker
//! threads, each shuffle dependency holds its own map output and I/O
//! counters in memory (freed with the lineage that references it) and is
//! read back by one reader RDD over a list of read windows
//! ([`ShuffleReadSpec`]), broadcast is
//! an `Arc` handed to every task, and "HDFS" is a directory of part files
//! (used by the Figure 10 pipeline experiment to model materialization
//! between separate jobs).
//!
//! # Fault tolerance
//!
//! Tasks fail by value: task-side code records its error in the task's
//! slot ([`task`]) and ends its stream; the scheduler decides once,
//! following the RDD lineage protocol:
//!
//! * **Task failure** — a task's own error (a SQL evaluation error, say)
//!   aborts the job after one attempt as [`EngineError::Task`]; an
//!   injected fault or a panic (a bug, counted in `task_panics`) is
//!   retried in place up to `max_task_retries` times.
//! * **Fetch failure** — a missing shuffle bucket is an
//!   [`EngineError::FetchFailed`]; the scheduler removes the lost map
//!   output from its dependency and resubmits the parent map stage (only missing
//!   partitions), bounded by `max_stage_retries` resubmissions per
//!   shuffle ([`EngineError::StageRetriesExhausted`] beyond that).
//! * **Executor loss** — [`SparkContext::lose_executor`] drops every
//!   cache block that executor produced and bumps its loss generation,
//!   so the shuffle output it wrote before counts as missing; shuffle
//!   output is recomputed on next access and cached partitions are
//!   recomputed from their parent RDDs.
//!
//! Faults are driven either by the targeted
//! [`context::FailureInjector`] hook or by a seeded, budgeted
//! [`chaos::ChaosPlan`] (auto-installed when `ENGINE_CHAOS_SEED` is set)
//! that deterministically schedules task faults, fetch failures, and
//! executor deaths — the chaos test harness runs whole suites under it.
//!
//! # Example
//!
//! ```
//! use engine::SparkContext;
//!
//! let sc = SparkContext::new(4);
//! let lines = sc.parallelize(vec!["ERROR a", "ok", "ERROR b"], 2);
//! let errors = lines.filter(|s| s.contains("ERROR"));
//! assert_eq!(errors.count(), 2);
//! ```

#![allow(clippy::type_complexity)] // Arc<dyn Fn(...)> closure-table types are the crate's idiom

pub mod broadcast;
pub mod cache;
pub mod cancel;
pub mod chaos;
pub mod context;
pub mod error;
pub mod hdfs;
pub mod memory;
pub mod metrics;
pub mod ops;
pub mod pair;
pub mod partitioner;
pub mod pool;
pub mod rdd;
pub mod scheduler;
pub mod shuffle;
pub mod task;

pub use broadcast::Broadcast;
pub use cache::{CacheBudgetStats, EvictionPolicy};
pub use cancel::{CancelReason, CancelToken};
pub use chaos::{ChaosConf, ChaosPlan, ChaosStats, FaultKind};
pub use context::{EngineConf, SparkContext};
pub use error::{EngineError, Result};
pub use memory::{MemoryPool, MemoryReservation, MemoryStats, SpillFile};
pub use pair::PairRdd;
pub use partitioner::{HashPartitioner, Partitioner, RangePartitioner, Reservoir};
pub use rdd::{BoxIter, Data, Rdd, RddBase, RddRef};
pub use shuffle::{ShuffleDependency, ShuffleIo, ShuffleReadSpec, ShuffleStats};
