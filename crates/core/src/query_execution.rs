//! Programmatic query observability: [`QueryExecution`] exposes the
//! analyzed, optimized, and physical plans of one query together with a
//! live per-operator metrics registry, and every instrumented run appends
//! a [`QueryLogEntry`] to the session's query log.
//!
//! This is the machinery behind `DataFrame::explain_analyze()`: the query
//! runs with a [`PlanMetrics`] registry threaded through lowering, then
//! the physical tree is rendered with actual row counts and times — the
//! measurement methodology of the paper's Figures 8 and 9, but attached
//! to individual operators instead of whole queries.

use crate::context::SQLContext;
use crate::execution::{engine_err, execute, AdaptiveLog, ExecContext, ShuffleLog};
use crate::plan_cache::{PlanMemo, Planned};
use catalyst::adaptive::{self, AdaptivePlanChange};
use catalyst::error::Result;
use catalyst::physical::metrics::{format_ns, render_annotated, render_executed, PlanMetrics};
use catalyst::physical::PhysicalPlan;
use catalyst::plan::LogicalPlan;
use catalyst::row::Row;
use catalyst::rules::RuleHealthReport;
use engine::{CacheBudgetStats, CancelToken, MemoryPool, MemoryStats, RddRef, ShuffleStats};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One query's compilation pipeline plus its execution metrics.
///
/// Obtained from `DataFrame::query_execution()`. Holding the handle, you
/// can inspect every plan stage before running anything, execute with
/// instrumentation via [`QueryExecution::collect`], and read per-operator
/// actuals from [`QueryExecution::metrics`] afterwards. Metrics are
/// cumulative across repeated executions of the same handle.
pub struct QueryExecution {
    ctx: SQLContext,
    analyzed: LogicalPlan,
    /// Optimized + physical plans, shared with the DataFrame's memo (and
    /// the session plan cache) — everything else here is this handle's.
    planned: Arc<Planned>,
    /// True when `planned` came out of the memo instead of the planner.
    plan_cached: bool,
    metrics: Arc<PlanMetrics>,
    /// Computed on first request: see [`QueryExecution::rule_health`].
    rule_health: OnceLock<RuleHealthReport>,
    adaptive_log: AdaptiveLog,
    /// Shuffles minted by the most recent run, for attribution.
    shuffle_log: ShuffleLog,
    /// Memory pool of the most recent run (set by [`QueryExecution::to_rdd`]).
    mem_pool: Mutex<Option<Arc<MemoryPool>>>,
    /// Session-scoped id assigned when the handle was created.
    query_id: u64,
    /// Cooperative cancellation token (see [`QueryExecution::set_cancel`]).
    cancel: Mutex<Option<CancelToken>>,
}

impl QueryExecution {
    pub(crate) fn new(
        ctx: SQLContext,
        analyzed: LogicalPlan,
        memo: &PlanMemo,
    ) -> Result<QueryExecution> {
        let (planned, plan_cached) = ctx.planned(&analyzed, memo)?;
        let metrics = PlanMetrics::for_plan(&planned.physical);
        // Stamp cost-model row estimates up front so EXPLAIN ANALYZE can
        // grade estimated vs. actual rows per operator after the run.
        catalyst::physical::annotate_row_estimates(&planned.physical, &metrics);
        let query_id = ctx.next_query_id();
        Ok(QueryExecution {
            ctx,
            analyzed,
            planned,
            plan_cached,
            metrics,
            rule_health: OnceLock::new(),
            adaptive_log: AdaptiveLog::default(),
            shuffle_log: ShuffleLog::default(),
            mem_pool: Mutex::new(None),
            query_id,
            cancel: Mutex::new(None),
        })
    }

    /// The session-scoped id of this query (monotonic per `SQLContext`).
    pub fn query_id(&self) -> u64 {
        self.query_id
    }

    /// Attach a cancellation token. Subsequent executions of this handle
    /// check it cooperatively: at every partition boundary, every 256
    /// rows (every batch on the vectorized path), and in the scheduler's
    /// wait loop. A fired token ends in-flight tasks' streams, releasing
    /// memory reservations and deleting spill files, and surfaces as an
    /// `execution failed: job cancelled` error from
    /// [`QueryExecution::collect`].
    pub fn set_cancel(&self, token: CancelToken) {
        *self.cancel.lock().unwrap() = Some(token);
    }

    /// True when this handle's plans were reused — from the session plan
    /// cache or the DataFrame's own memo — instead of planned for it.
    pub fn plan_cached(&self) -> bool {
        self.plan_cached
    }

    /// Per-rule health for this query's optimizer run: how often each
    /// rule was applied vs. actually fired, rules that change their own
    /// output when re-applied (idempotence probes), rewrites the plan
    /// validator rejected, and batches that hit `max_iterations` without
    /// converging.
    ///
    /// The report is not kept with the plan (a cached plan would carry
    /// 7 KB of it for nobody): the first request re-runs the optimizer
    /// over the analyzed plan under a monitor and keeps what it saw. That
    /// only describes this handle's plan while the session still plans
    /// the way it did; once its configuration, extensions or statistics
    /// have changed under the handle, the report is empty.
    pub fn rule_health(&self) -> &RuleHealthReport {
        self.rule_health.get_or_init(|| {
            if !self.planned.is_current(self.ctx.plan_stamp()) {
                return RuleHealthReport::default();
            }
            self.ctx
                .plan_query_monitored(&self.analyzed)
                .map(|p| p.rule_health)
                .unwrap_or_default()
        })
    }

    /// The rule-health report rendered as an aligned table, suitable for
    /// printing next to [`QueryExecution::explain_analyze`] output.
    pub fn rule_health_report(&self) -> String {
        self.rule_health().render()
    }

    /// The analyzed logical plan (names resolved, types checked).
    pub fn analyzed(&self) -> &LogicalPlan {
        &self.analyzed
    }

    /// The optimized logical plan.
    pub fn optimized(&self) -> &LogicalPlan {
        &self.planned.optimized
    }

    /// The physical plan the metrics registry is shaped after.
    pub fn physical(&self) -> &PhysicalPlan {
        &self.planned.physical
    }

    /// Per-operator metrics, indexed by pre-order node id. Zero until an
    /// output operation on this handle runs.
    pub fn metrics(&self) -> Arc<PlanMetrics> {
        self.metrics.clone()
    }

    /// Lower the physical plan to an engine RDD with instrumentation
    /// attached: every operator meters rows and time into
    /// [`QueryExecution::metrics`] when the RDD executes.
    pub fn to_rdd(&self) -> Result<RddRef<Row>> {
        // Adaptive decisions and minted shuffles are per-run: lowering
        // materializes stages eagerly, so the logs fill in during `execute`.
        self.adaptive_log.clear();
        self.shuffle_log.lock().unwrap().clear();
        let ctx = ExecContext {
            metrics: Some(self.metrics.clone()),
            adaptive: self.adaptive_log.clone(),
            shuffles: self.shuffle_log.clone(),
            cancel: self.cancel.lock().unwrap().clone(),
            ..ExecContext::new(self.ctx.spark_context().clone(), self.ctx.conf())
        };
        *self.mem_pool.lock().unwrap() = Some(ctx.mem.clone());
        execute(self.physical(), &ctx)
    }

    /// Memory-pool counters of the most recent run: `Some` only when the
    /// run executed under a bounded budget
    /// (`spark.sql.memory.budgetBytes`), `None` for unbounded runs or
    /// before any run.
    pub fn memory_stats(&self) -> Option<MemoryStats> {
        self.mem_pool
            .lock()
            .unwrap()
            .as_ref()
            .filter(|p| p.is_bounded())
            .map(|p| p.stats())
    }

    /// Adaptive plan changes recorded by the most recent execution of
    /// this handle (empty when adaptive execution is off, nothing fired,
    /// or the query has not run yet).
    pub fn adaptive_changes(&self) -> Vec<AdaptivePlanChange> {
        self.adaptive_log.snapshot()
    }

    /// The plan that actually executed: the initial physical plan with
    /// the most recent run's adaptive rewrites applied.
    pub fn final_physical(&self) -> PhysicalPlan {
        adaptive::final_plan(self.physical(), &self.adaptive_changes())
    }

    /// Execute, gather all rows, and record the run: operator metrics
    /// fill in, engine shuffle volume is attributed to the Exchange node
    /// that minted each shuffle, fault-recovery activity is captured
    /// as engine-counter deltas, and a [`QueryLogEntry`] is appended to
    /// the session query log.
    pub fn collect(&self) -> Result<Vec<Row>> {
        let before = self.ctx.spark_context().metrics().snapshot();
        let cache_before = self.ctx.spark_context().cache_manager().budget_stats();
        // Install the cancel token on the driver thread so the engine
        // scheduler's wait loop observes it between task completions.
        let _cancel_guard = self
            .cancel
            .lock()
            .unwrap()
            .clone()
            .map(engine::cancel::install);
        let start = Instant::now();
        let rows = self.to_rdd()?.try_collect().map_err(engine_err)?;
        let wall_ns = start.elapsed().as_nanos() as u64;
        let recovery =
            RecoveryEvents::delta(&before, &self.ctx.spark_context().metrics().snapshot());
        self.attribute_shuffle_stats();
        let memory = self.memory_stats();
        let cache = CacheEvents::delta(
            &cache_before,
            &self.ctx.spark_context().cache_manager().budget_stats(),
        );
        self.ctx
            .log_query(self.log_entry(wall_ns, rows.len() as u64, recovery, memory, cache));
        Ok(rows)
    }

    /// Run the query and render the physical tree annotated with actual
    /// rows and times per operator — `EXPLAIN ANALYZE`.
    pub fn explain_analyze(&self) -> Result<String> {
        let rows = self.collect()?;
        let changes = self.adaptive_changes();
        let mut out = String::new();
        out.push_str(&format!(
            "== Query ==\nsession: {}, query id: {}\n",
            self.ctx.session_id(),
            self.query_id,
        ));
        if changes.is_empty() {
            out.push_str("== Physical Plan (executed) ==\n");
            out.push_str(&render_annotated(self.physical(), &self.metrics));
        } else {
            // Adaptive execution re-planned mid-run: show what the static
            // planner chose, each runtime decision, and what actually ran,
            // each line with the metrics of the node it shows.
            out.push_str("== Initial Physical Plan ==\n");
            out.push_str(&self.physical().to_string());
            out.push_str("== Adaptive Plan Changes ==\n");
            for c in &changes {
                out.push_str(&format!("{c}\n"));
            }
            out.push_str("== Final Physical Plan (executed) ==\n");
            out.push_str(&render_executed(
                self.physical(),
                &adaptive::final_plan(self.physical(), &changes),
                &self.metrics,
            ));
        }
        let entry = self.ctx.last_query_log_entry();
        let (wall, recovery, memory, cache) = entry
            .map(|e| (e.wall_ns, e.recovery, e.memory, e.cache))
            .unwrap_or((0, RecoveryEvents::default(), None, CacheEvents::default()));
        if recovery.any() {
            out.push_str("== Fault Recovery ==\n");
            out.push_str(&recovery.render());
        }
        if let Some(m) = memory {
            out.push_str("== Memory ==\n");
            out.push_str(&render_memory(&m));
        }
        if cache.any() {
            out.push_str("== Cache ==\n");
            out.push_str(&cache.render());
        }
        let lint = catalyst::analysis::lint::lint_plan_at_level(
            &self.analyzed,
            &self.ctx.conf().lint_level,
        );
        if !lint.is_empty() {
            out.push_str("== Lint ==\n");
            for d in &lint {
                out.push_str(&d.render());
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "== Totals ==\noutput rows: {}, wall time: {}\n",
            rows.len(),
            format_ns(wall),
        ));
        Ok(out)
    }

    /// Write the I/O counters of the shuffles this run minted onto the
    /// Exchange nodes that minted them, as `shuffle_*` extras.
    fn attribute_shuffle_stats(&self) {
        let mut totals: BTreeMap<usize, ShuffleStats> = BTreeMap::new();
        for (id, io) in self.shuffle_log.lock().unwrap().iter() {
            *totals.entry(*id).or_default() += io.stats();
        }
        for (id, s) in totals {
            let node = self.metrics.node(id);
            node.set_extra("shuffle_records_written", s.records_written);
            node.set_extra("shuffle_bytes_written", s.bytes_written);
            node.set_extra("shuffle_records_read", s.records_read);
        }
    }

    fn log_entry(
        &self,
        wall_ns: u64,
        output_rows: u64,
        recovery: RecoveryEvents,
        memory: Option<MemoryStats>,
        cache: CacheEvents,
    ) -> QueryLogEntry {
        let mut names = Vec::new();
        preorder_descriptions(self.physical(), &mut names);
        let operators = names
            .into_iter()
            .enumerate()
            .map(|(id, operator)| {
                let m = self.metrics.node(id);
                OperatorLogEntry {
                    id,
                    operator,
                    rows: m.output_rows(),
                    elapsed_ns: m.elapsed_ns(),
                    extras: m.extras().into_iter().collect(),
                }
            })
            .collect();
        QueryLogEntry {
            session_id: self.ctx.session_id().to_string(),
            query_id: self.query_id,
            query: self.optimized().node_description(),
            plan_cached: self.plan_cached,
            wall_ns,
            output_rows,
            operators,
            recovery,
            memory,
            cache,
        }
    }
}

/// Render a bounded run's memory counters for `explain_analyze`.
fn render_memory(m: &MemoryStats) -> String {
    format!(
        "budget: {} B, peak reserved: {} B\n\
         broadcast tables (outside the budget): {} B\n\
         spilled buffers: {}, spill bytes: {}\n\
         spill files created/deleted: {}/{}\n",
        m.budget,
        m.peak,
        m.broadcast_bytes,
        m.spill_count,
        m.spill_bytes,
        m.spill_files_created,
        m.spill_files_deleted,
    )
}

/// Fault-recovery activity observed during one instrumented run: deltas
/// of the engine's recovery counters between the start and end of
/// [`QueryExecution::collect`]. All zero for a fault-free run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryEvents {
    /// Tasks retried in place after a (possibly injected) failure.
    pub task_retries: u64,
    /// Shuffle fetches that found their map output missing.
    pub fetch_failures: u64,
    /// Parent map stages resubmitted to regenerate lost shuffle output.
    pub stage_resubmissions: u64,
    /// Map tasks recomputed for previously complete shuffles.
    pub map_tasks_recomputed: u64,
    /// Executors lost (all their shuffle and cache blocks dropped).
    pub executors_lost: u64,
    /// Cached partitions rebuilt from lineage after their block was lost.
    pub cache_recomputes: u64,
}

impl RecoveryEvents {
    fn delta(
        before: &engine::metrics::MetricsSnapshot,
        after: &engine::metrics::MetricsSnapshot,
    ) -> RecoveryEvents {
        RecoveryEvents {
            task_retries: after.task_failures.saturating_sub(before.task_failures),
            fetch_failures: after.fetch_failures.saturating_sub(before.fetch_failures),
            stage_resubmissions: after
                .stage_resubmissions
                .saturating_sub(before.stage_resubmissions),
            map_tasks_recomputed: after
                .map_tasks_recomputed
                .saturating_sub(before.map_tasks_recomputed),
            executors_lost: after.executors_lost.saturating_sub(before.executors_lost),
            cache_recomputes: after
                .cache_recomputes
                .saturating_sub(before.cache_recomputes),
        }
    }

    /// True if any recovery machinery fired during the run.
    pub fn any(&self) -> bool {
        *self != RecoveryEvents::default()
    }

    /// One line per nonzero counter, for `explain_analyze` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in [
            ("task retries", self.task_retries),
            ("fetch failures", self.fetch_failures),
            ("stage resubmissions", self.stage_resubmissions),
            ("map tasks recomputed", self.map_tasks_recomputed),
            ("executors lost", self.executors_lost),
            ("cache recomputes", self.cache_recomputes),
        ] {
            if v > 0 {
                out.push_str(&format!("{name}: {v}\n"));
            }
        }
        out
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"task_retries\":{},\"fetch_failures\":{},\"stage_resubmissions\":{},\"map_tasks_recomputed\":{},\"executors_lost\":{},\"cache_recomputes\":{}}}",
            self.task_retries,
            self.fetch_failures,
            self.stage_resubmissions,
            self.map_tasks_recomputed,
            self.executors_lost,
            self.cache_recomputes,
        )
    }
}

/// Shared-cache eviction activity observed during one instrumented run:
/// deltas of the budgeted cache's eviction counters between the start
/// and end of [`QueryExecution::collect`]. All zero when the cache runs
/// unbudgeted or nothing was evicted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheEvents {
    /// Cached blocks evicted to stay under the cache budget.
    pub evictions: u64,
    /// Total bytes of those evicted blocks.
    pub evicted_bytes: u64,
}

impl CacheEvents {
    fn delta(before: &CacheBudgetStats, after: &CacheBudgetStats) -> CacheEvents {
        CacheEvents {
            evictions: after.evictions.saturating_sub(before.evictions),
            evicted_bytes: after.evicted_bytes.saturating_sub(before.evicted_bytes),
        }
    }

    /// True if any block was evicted during the run.
    pub fn any(&self) -> bool {
        *self != CacheEvents::default()
    }

    /// One-line summary for `explain_analyze` output.
    pub fn render(&self) -> String {
        format!(
            "evictions: {}, evicted bytes: {}\n",
            self.evictions, self.evicted_bytes
        )
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"evictions\":{},\"evicted_bytes\":{}}}",
            self.evictions, self.evicted_bytes
        )
    }
}

fn preorder_descriptions(plan: &PhysicalPlan, out: &mut Vec<String>) {
    out.push(plan.node_description());
    for child in plan.children() {
        preorder_descriptions(&child, out);
    }
}

/// One instrumented query run, as recorded in the session query log.
#[derive(Debug, Clone)]
pub struct QueryLogEntry {
    /// Session the query ran in (`"local"` for direct library use; the
    /// SQL service stamps its wire session id).
    pub session_id: String,
    /// Session-scoped query id (monotonic per root `SQLContext`).
    pub query_id: u64,
    /// Root description of the optimized logical plan.
    pub query: String,
    /// True when the run reused a memoised plan (the session plan cache,
    /// or an earlier use of the same DataFrame) instead of planning.
    pub plan_cached: bool,
    /// End-to-end wall time of the run (driver side).
    pub wall_ns: u64,
    /// Rows the query returned.
    pub output_rows: u64,
    /// Per-operator actuals, in pre-order over the physical plan.
    pub operators: Vec<OperatorLogEntry>,
    /// Fault-recovery counters for this run (all zero when fault-free).
    pub recovery: RecoveryEvents,
    /// Memory-pool counters when the run executed under a bounded budget
    /// (`None` for unbounded runs).
    pub memory: Option<MemoryStats>,
    /// Shared-cache evictions this run triggered (all zero when the
    /// cache is unbudgeted).
    pub cache: CacheEvents,
}

/// Actuals of one physical operator within a [`QueryLogEntry`].
#[derive(Debug, Clone)]
pub struct OperatorLogEntry {
    /// Pre-order node id in the physical plan.
    pub id: usize,
    /// Operator description, e.g. `HashAggregate [..]`.
    pub operator: String,
    /// Rows the operator produced.
    pub rows: u64,
    /// Time spent producing them, summed across partitions.
    pub elapsed_ns: u64,
    /// Named side metrics (build sizes, shuffle volume, …).
    pub extras: Vec<(String, u64)>,
}

impl QueryLogEntry {
    /// Render this entry as a JSON object (no external dependencies).
    pub fn to_json(&self) -> String {
        let ops: Vec<String> = self
            .operators
            .iter()
            .map(|op| {
                let extras: Vec<String> = op
                    .extras
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json_string(k), v))
                    .collect();
                format!(
                    "{{\"id\":{},\"operator\":{},\"rows\":{},\"elapsed_ns\":{},\"extras\":{{{}}}}}",
                    op.id,
                    json_string(&op.operator),
                    op.rows,
                    op.elapsed_ns,
                    extras.join(",")
                )
            })
            .collect();
        let memory = match &self.memory {
            None => "null".to_string(),
            Some(m) => format!(
                "{{\"budget\":{},\"peak\":{},\"spill_count\":{},\"spill_bytes\":{},\"spill_files_created\":{},\"spill_files_deleted\":{}}}",
                m.budget, m.peak, m.spill_count, m.spill_bytes, m.spill_files_created, m.spill_files_deleted,
            ),
        };
        format!(
            "{{\"session_id\":{},\"query_id\":{},\"query\":{},\"plan_cached\":{},\"wall_ns\":{},\"output_rows\":{},\"recovery\":{},\"memory\":{},\"cache\":{},\"operators\":[{}]}}",
            json_string(&self.session_id),
            self.query_id,
            json_string(&self.query),
            self.plan_cached,
            self.wall_ns,
            self.output_rows,
            self.recovery.to_json(),
            memory,
            self.cache.to_json(),
            ops.join(",")
        )
    }
}

/// Escape `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }

    #[test]
    fn log_entry_renders_json() {
        let entry = QueryLogEntry {
            session_id: "local".into(),
            query_id: 7,
            query: "Project [a]".into(),
            plan_cached: true,
            wall_ns: 1200,
            output_rows: 3,
            operators: vec![OperatorLogEntry {
                id: 0,
                operator: "Project [a]".into(),
                rows: 3,
                elapsed_ns: 400,
                extras: vec![("shuffle_bytes_written".into(), 64)],
            }],
            recovery: RecoveryEvents {
                fetch_failures: 2,
                ..RecoveryEvents::default()
            },
            memory: None,
            cache: CacheEvents::default(),
        };
        let json = entry.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"session_id\":\"local\""), "{json}");
        assert!(json.contains("\"query_id\":7"), "{json}");
        assert!(json.contains("\"query\":\"Project [a]\""), "{json}");
        assert!(json.contains("\"plan_cached\":true"), "{json}");
        assert!(
            json.contains("\"cache\":{\"evictions\":0,\"evicted_bytes\":0}"),
            "{json}"
        );
        assert!(
            json.contains("\"extras\":{\"shuffle_bytes_written\":64}"),
            "{json}"
        );
        assert!(
            json.contains("\"recovery\":{\"task_retries\":0,\"fetch_failures\":2"),
            "{json}"
        );
        assert!(json.contains("\"memory\":null"), "{json}");

        let bounded = QueryLogEntry {
            memory: Some(MemoryStats {
                budget: 4096,
                peak: 4000,
                spill_count: 3,
                spill_bytes: 9000,
                spill_files_created: 3,
                spill_files_deleted: 3,
                ..MemoryStats::default()
            }),
            ..entry
        };
        let json = bounded.to_json();
        assert!(
            json.contains("\"memory\":{\"budget\":4096,\"peak\":4000,\"spill_count\":3"),
            "{json}"
        );
    }

    #[test]
    fn recovery_events_render_only_nonzero_counters() {
        let quiet = RecoveryEvents::default();
        assert!(!quiet.any());
        assert_eq!(quiet.render(), "");
        let busy = RecoveryEvents {
            stage_resubmissions: 1,
            map_tasks_recomputed: 4,
            ..RecoveryEvents::default()
        };
        assert!(busy.any());
        assert_eq!(
            busy.render(),
            "stage resubmissions: 1\nmap tasks recomputed: 4\n"
        );
    }
}
