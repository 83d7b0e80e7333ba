//! Catalyst error types.
//!
//! Analysis errors are reported *eagerly* when plans are constructed
//! (§3.4 of the paper: the API analyzes logical plans eagerly even though
//! execution is lazy), so they carry enough context to point at the
//! offending expression.

use std::fmt;

/// Errors raised while analyzing, optimizing, planning, or evaluating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalystError {
    /// Name resolution or semantic check failure (unknown column, type
    /// mismatch, aggregate misuse, …).
    Analysis(String),
    /// SQL text could not be parsed.
    Parse(String),
    /// A cast or arithmetic operation failed at runtime.
    Eval(String),
    /// Planner could not produce a physical plan.
    Plan(String),
    /// Problem in a data source.
    DataSource(String),
    /// Anything else.
    Internal(String),
}

impl CatalystError {
    /// Shorthand for an analysis error.
    pub fn analysis(msg: impl Into<String>) -> Self {
        CatalystError::Analysis(msg.into())
    }

    /// Shorthand for an evaluation error.
    pub fn eval(msg: impl Into<String>) -> Self {
        CatalystError::Eval(msg.into())
    }
}

impl fmt::Display for CatalystError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalystError::Analysis(m) => write!(f, "analysis error: {m}"),
            CatalystError::Parse(m) => write!(f, "parse error: {m}"),
            CatalystError::Eval(m) => write!(f, "evaluation error: {m}"),
            CatalystError::Plan(m) => write!(f, "planning error: {m}"),
            CatalystError::DataSource(m) => write!(f, "data source error: {m}"),
            CatalystError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for CatalystError {}

/// Local disk I/O (spill files) fails the query as an internal error.
impl From<std::io::Error> for CatalystError {
    fn from(e: std::io::Error) -> Self {
        CatalystError::Internal(format!("i/o error: {e}"))
    }
}

/// Result alias used across the optimizer.
pub type Result<T> = std::result::Result<T, CatalystError>;
