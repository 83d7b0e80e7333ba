//! The traced way to run a query in process: the explicit chain
//! `sql::parse` → analysis → optimise + plan → lowering → collect, one
//! span per call, with the counters the engine already keeps read at the
//! same boundaries. Layers are the workspace crates.

use crate::run::{put, Metrics};
use crate::stats::percentile;
use crate::trace::{self_times_ns, Tracer};
use catalyst::physical::metrics::PlanMetrics;
use catalyst::physical::PhysicalPlan;
use catalyst::Row;
use engine::metrics::MetricsSnapshot;
use spark_sql::query_execution::QueryExecution;
use spark_sql::SQLContext;
use std::time::Instant;

/// Operator kinds whose self time is reported, by the first word of the
/// physical node's description (so a new operator lands in `other`
/// instead of breaking the build).
const OP_KINDS: [&str; 7] = [
    "scan",
    "filter_project",
    "aggregate",
    "join",
    "sort",
    "window",
    "other",
];

fn op_kind(description: &str) -> usize {
    let word = description.split([' ', '(']).next().unwrap_or("");
    match word {
        "Scan" | "ExternalScan" | "LocalData" => 0,
        "Project" | "Filter" => 1,
        "HashAggregate" => 2,
        w if w.ends_with("Join") || w == "CartesianProduct" => 3,
        "Sort" | "TakeOrdered" => 4,
        "Window" => 5,
        _ => 6,
    }
}

/// Sums over every traced query of one run.
pub struct LayerAcc {
    pub tracer: Tracer,
    next_query_id: u64,
    op_ns: [u64; 7],
    rows_scanned: u64,
    batches: u64,
    spill_count: u64,
    spill_bytes: u64,
    mem_peak: u64,
    engine: MetricsSnapshot,
}

/// What a bounded run's memory pool counted, for the spill checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spill {
    pub count: u64,
    pub files_created: u64,
    pub files_deleted: u64,
}

impl LayerAcc {
    /// Query ids count up from `first_query_id`.
    pub fn new(origin: Instant, first_query_id: u64) -> LayerAcc {
        LayerAcc {
            tracer: Tracer::new(origin),
            next_query_id: first_query_id,
            op_ns: [0; 7],
            rows_scanned: 0,
            batches: 0,
            spill_count: 0,
            spill_bytes: 0,
            mem_peak: 0,
            engine: MetricsSnapshot::default(),
        }
    }

    /// Run `text` as the explicit chain under one `query` span and return
    /// that span's milliseconds with the result. `reply` runs under the
    /// span too, once the rows are collected: the service replay encodes
    /// them there. The span closes before any counter is read, so the
    /// bookkeeping is in no span.
    pub fn run(
        &mut self,
        ctx: &SQLContext,
        text: &str,
        reply: impl FnOnce(&mut Tracer, usize, &[Row]),
    ) -> (f64, Result<(Vec<Row>, Spill), String>) {
        let before = ctx.spark_context().metrics().snapshot();
        let root = self.tracer.open("query", None, self.next_query_id);
        self.next_query_id += 1;
        let chain = chain(&mut self.tracer, root, ctx, text, reply);
        self.tracer.close(root);
        let ms = self.tracer.spans[root].ns() as f64 / 1e6;
        let after = ctx.spark_context().metrics().snapshot();
        self.add_engine(&before, &after);
        let result = chain.map(|(rows, qe)| {
            let mut spill = Spill::default();
            if let Some(qe) = qe {
                self.add_operators(qe.physical(), &qe.metrics(), &mut 0);
                if let Some(m) = qe.memory_stats() {
                    spill = Spill {
                        count: m.spill_count,
                        files_created: m.spill_files_created,
                        files_deleted: m.spill_files_deleted,
                    };
                    self.spill_count += m.spill_count;
                    self.spill_bytes += m.spill_bytes;
                    self.mem_peak = self.mem_peak.max(m.peak);
                }
            }
            (rows, spill)
        });
        (ms, result)
    }

    fn add_engine(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        let e = &mut self.engine;
        e.tasks_launched += after.tasks_launched - before.tasks_launched;
        e.stages_run += after.stages_run - before.stages_run;
        e.task_time_ns += after.task_time_ns - before.task_time_ns;
        e.shuffle_records_written += after.shuffle_records_written - before.shuffle_records_written;
        e.shuffle_records_read += after.shuffle_records_read - before.shuffle_records_read;
        e.cache_hits += after.cache_hits - before.cache_hits;
        e.cache_misses += after.cache_misses - before.cache_misses;
    }

    /// Pre-order walk matching `PlanMetrics`' node ids. An operator's
    /// elapsed time includes the upstream operators it pulls from, so its
    /// self time is its own minus its children's. Returns the node's
    /// elapsed time.
    fn add_operators(
        &mut self,
        plan: &PhysicalPlan,
        metrics: &PlanMetrics,
        next_id: &mut usize,
    ) -> u64 {
        let node = metrics.node(*next_id);
        *next_id += 1;
        let elapsed = node.elapsed_ns();
        let children: u64 = plan
            .children()
            .iter()
            .map(|c| self.add_operators(c, metrics, next_id))
            .sum();
        let kind = op_kind(&plan.node_description());
        self.op_ns[kind] += elapsed.saturating_sub(children);
        if kind == 0 {
            self.rows_scanned += node.output_rows();
        }
        self.batches += node.extras().get("batches").copied().unwrap_or(0);
        elapsed
    }

    /// Turn the sums into per-layer metrics, each time and count per
    /// traced pass. Returns the tracer for the span file.
    pub fn finish(self, passes: usize, threads: usize, layers: &mut Metrics) -> Tracer {
        let per_pass = |x: u64| x as f64 / passes as f64;
        let ms = |ns: u64| per_pass(ns) / 1e6;
        let spans = &self.tracer.spans;
        let self_ns = self_times_ns(spans);
        let total = |name: &str| -> u64 {
            spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.name == name)
                .map(|(_, ns)| *ns)
                .sum()
        };
        let n = |name: &str| spans.iter().filter(|s| s.name == name).count();
        for (metric, span) in [
            ("sql.parse_ms", "sql.parse"),
            ("catalyst.analyze_ms", "catalyst.analyze"),
            ("catalyst.plan_ms", "catalyst.plan"),
            ("core.lower_ms", "core.lower"),
            ("core.run_ms", "core.run"),
        ] {
            put(layers, metric, ms(total(span)), "ms", n(span));
        }
        // Whole-query spans; how much of each its phases account for.
        let mut query_ns = 0u64;
        let mut cover = Vec::new();
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == "query") {
            query_ns += s.ns();
            cover.push(100.0 * (s.ns() - self_ns[i]) as f64 / s.ns().max(1) as f64);
        }
        let planning = total("catalyst.analyze") + total("catalyst.plan");
        put(
            layers,
            "catalyst.plan_share",
            planning as f64 / query_ns.max(1) as f64,
            "ratio",
            n("query"),
        );
        // The 1st percentile: 99 queries in 100 are covered at least so
        // far. The minimum is whichever query the OS preempted between
        // two spans.
        put(
            layers,
            "trace.phase_cover_pct",
            percentile(&cover, 1.0),
            "%",
            cover.len(),
        );

        for (kind, ns) in OP_KINDS.iter().zip(self.op_ns) {
            put(
                layers,
                format!("core.op.{kind}_ms"),
                ms(ns),
                "ms",
                n("query"),
            );
        }
        let e = &self.engine;
        for (name, count, unit) in [
            ("core.rows_scanned", self.rows_scanned, "count"),
            ("core.batches", self.batches, "count"),
            ("core.spill_count", self.spill_count, "count"),
            ("core.spill_bytes", self.spill_bytes, "B"),
            ("core.cache_hits", e.cache_hits, "count"),
            ("core.cache_misses", e.cache_misses, "count"),
            ("engine.tasks_launched", e.tasks_launched, "count"),
            ("engine.stages_run", e.stages_run, "count"),
            (
                "engine.shuffle_records_written",
                e.shuffle_records_written,
                "count",
            ),
            (
                "engine.shuffle_records_read",
                e.shuffle_records_read,
                "count",
            ),
        ] {
            put(layers, name, per_pass(count), unit, passes);
        }
        put(
            layers,
            "core.mem_peak_bytes",
            self.mem_peak as f64,
            "B",
            passes,
        );
        put(
            layers,
            "engine.task_time_ms",
            ms(e.task_time_ns),
            "ms",
            passes,
        );
        // Time the driver waited in `run` beyond the task work spread
        // over the executor threads: scheduling, launch and hand-over.
        let run_ns = total("core.run") + total("core.lower");
        let overhead = (run_ns as f64 - e.task_time_ns as f64 / threads as f64).max(0.0);
        put(
            layers,
            "engine.sched_overhead_ms",
            overhead / passes as f64 / 1e6,
            "ms",
            passes,
        );
        self.tracer
    }
}

/// The chain itself, one child span of `root` per call into a layer.
/// Statements that are not queries (`CACHE TABLE`, …) run through
/// `ctx.sql` under one `statement` span and return no rows.
fn chain(
    t: &mut Tracer,
    root: usize,
    ctx: &SQLContext,
    text: &str,
    reply: impl FnOnce(&mut Tracer, usize, &[Row]),
) -> Result<(Vec<Row>, Option<QueryExecution>), String> {
    let statement = t
        .child("sql.parse", root, || sql::parse(text))
        .map_err(|e| e.to_string())?;
    let sql::Statement::Query(plan) = statement else {
        t.child("statement", root, || ctx.sql(text))
            .map_err(|e| e.to_string())?;
        return Ok((Vec::new(), None));
    };
    let df = t
        .child("catalyst.analyze", root, || ctx.dataframe(plan))
        .map_err(|e| e.to_string())?;
    let qe = t
        .child("catalyst.plan", root, || df.query_execution())
        .map_err(|e| e.to_string())?;
    let rdd = t
        .child("core.lower", root, || qe.to_rdd())
        .map_err(|e| e.to_string())?;
    let rows = t
        .child("core.run", root, || {
            let rows = rdd.try_collect();
            // Spill files are deleted when the plan's iterators drop.
            drop(rdd);
            rows
        })
        .map_err(|e| e.to_string())?;
    reply(t, root, &rows);
    Ok((rows, Some(qe)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_are_classified_by_their_first_word() {
        let kind = |d: &str| OP_KINDS[op_kind(d)];
        assert_eq!(kind("Scan colfile:x [columns: a]"), "scan");
        assert_eq!(kind("LocalData (3 rows)"), "scan");
        assert_eq!(kind("Filter (a > 1)"), "filter_project");
        assert_eq!(kind("HashAggregate [a] [sum(b)]"), "aggregate");
        assert_eq!(
            kind("BroadcastHashJoin INNER build=Left keys=(a = b)"),
            "join"
        );
        assert_eq!(kind("CartesianProduct INNER"), "join");
        assert_eq!(kind("TakeOrdered 3 [a ASC]"), "sort");
        assert_eq!(kind("Window [rank()] partition=[a] order=[b]"), "window");
        assert_eq!(kind("Union (2 inputs)"), "other");
    }
}
