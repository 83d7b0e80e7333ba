//! Engine error type.

use std::fmt;
use std::sync::Arc;

/// Errors surfaced by job execution.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// A task failed more times than `max_task_retries` allows.
    TaskFailed {
        /// Stage the task belonged to.
        stage: usize,
        /// Partition index of the failing task.
        partition: usize,
        /// Description of the last failure.
        reason: String,
    },
    /// Fetch failures on one shuffle kept recurring after the map stage
    /// was resubmitted `max_stage_retries` times.
    StageRetriesExhausted {
        /// Stage whose output could not be kept available.
        stage: usize,
        /// Shuffle whose map output kept going missing.
        shuffle_id: usize,
        /// How many resubmissions were attempted before giving up.
        attempts: usize,
    },
    /// The job's [`crate::cancel::CancelToken`] fired before it finished
    /// (explicit cancel or deadline). Not retried.
    Cancelled {
        /// Human-readable cause ("query cancelled" / "query deadline exceeded").
        reason: String,
    },
    /// A task found map output `map_id` of `shuffle_id` missing; the
    /// scheduler resubmits the parent map stage.
    FetchFailed { shuffle_id: usize, map_id: usize },
    /// A task's own error (the SQL layer's typed error), never retried.
    Task(Arc<dyn std::error::Error + Send + Sync>),
    /// An I/O problem in the simulated file store.
    Io(String),
    /// Anything else (mis-shapen job, missing shuffle output after retries).
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::TaskFailed {
                stage,
                partition,
                reason,
            } => {
                write!(
                    f,
                    "task failed (stage {stage}, partition {partition}): {reason}"
                )
            }
            EngineError::StageRetriesExhausted {
                stage,
                shuffle_id,
                attempts,
            } => write!(
                f,
                "stage {stage} aborted: fetch failures on shuffle {shuffle_id} persisted \
                 after {attempts} map-stage resubmissions"
            ),
            EngineError::Cancelled { reason } => write!(f, "job cancelled: {reason}"),
            EngineError::FetchFailed { shuffle_id, map_id } => {
                write!(f, "fetch failed: shuffle {shuffle_id}, map {map_id}")
            }
            EngineError::Task(e) => write!(f, "{e}"),
            EngineError::Io(msg) => write!(f, "io error: {msg}"),
            EngineError::Internal(msg) => write!(f, "internal engine error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e.to_string())
    }
}

/// Convenience alias used throughout the engine.
pub type Result<T> = std::result::Result<T, EngineError>;
