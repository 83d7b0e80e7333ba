//! Physical planning: operators, statistics, and the strategy-driven
//! planner (§4.3.3).

pub mod metrics;
pub mod plan;
pub mod planner;
pub mod stats;

pub use metrics::{OperatorMetrics, PlanMetrics};
pub use plan::{BuildSide, ExtensionExec, Partitioning, PhysicalPlan};
pub use planner::{
    ensure_requirements, expr_to_filter, extract_equi_keys, Planner, PlannerConfig, Strategy,
};
pub use stats::{annotate_row_estimates, estimate, estimate_physical_rows, Statistics};
