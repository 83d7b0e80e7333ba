//! The DataFrame API (§3): a distributed collection of rows with a known
//! schema, manipulated through relational operators that build a logical
//! plan lazily — while analysis runs *eagerly* so errors surface at the
//! line of code that caused them (§3.4).

use crate::context::SQLContext;
use crate::execution::engine_err;
use crate::plan_cache::PlanMemo;
use catalyst::error::Result;
use catalyst::expr::builders;
use catalyst::expr::{Expr, SortOrder};
use catalyst::plan::{JoinType, LogicalPlan};
use catalyst::row::Row;
use catalyst::schema::SchemaRef;
use engine::RddRef;

/// A lazily evaluated relational dataset.
///
/// Every transformation returns a new DataFrame whose plan has been
/// analyzed (names resolved, types checked); nothing executes until an
/// output operation such as [`DataFrame::collect`] or
/// [`DataFrame::count`] is called.
#[derive(Clone)]
pub struct DataFrame {
    ctx: SQLContext,
    plan: LogicalPlan,
    /// The optimized + physical plans, once an output operation,
    /// `explain()` or `query_execution()` has asked for them. Shared with
    /// clones, and with the session's plan cache when `sql()` built this
    /// DataFrame.
    memo: PlanMemo,
}

impl std::fmt::Debug for DataFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DataFrame[{}]", self.plan.node_description())
    }
}

impl DataFrame {
    pub(crate) fn new(ctx: SQLContext, plan: LogicalPlan) -> DataFrame {
        DataFrame::with_memo(ctx, plan, PlanMemo::default())
    }

    pub(crate) fn with_memo(ctx: SQLContext, plan: LogicalPlan, memo: PlanMemo) -> DataFrame {
        DataFrame { ctx, plan, memo }
    }

    /// The session this DataFrame belongs to.
    pub fn context(&self) -> &SQLContext {
        &self.ctx
    }

    /// The analyzed logical plan.
    pub fn logical_plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Schema of the result.
    pub fn schema(&self) -> SchemaRef {
        self.plan.schema()
    }

    /// Output column names.
    pub fn columns(&self) -> Vec<String> {
        self.plan
            .output()
            .iter()
            .map(|c| c.name.to_string())
            .collect()
    }

    fn derive(&self, plan: LogicalPlan) -> Result<DataFrame> {
        // Eager analysis (§3.4).
        let analyzed = self.ctx.analyze(plan)?;
        Ok(DataFrame::new(self.ctx.clone(), analyzed))
    }

    // ---- relational transformations (§3.3) ----

    /// Projection: `select(vec![col("name"), col("age").add(lit(1))])`.
    pub fn select(&self, exprs: Vec<Expr>) -> Result<DataFrame> {
        self.derive(self.plan.clone().project(exprs))
    }

    /// Projection by column names.
    pub fn select_cols(&self, names: &[&str]) -> Result<DataFrame> {
        self.select(names.iter().map(|n| builders::col(*n)).collect())
    }

    /// Filter rows (`where` in the DSL).
    pub fn filter(&self, predicate: Expr) -> Result<DataFrame> {
        self.derive(self.plan.clone().filter(predicate))
    }

    /// Alias of [`DataFrame::filter`], matching the paper's `where`.
    pub fn where_(&self, predicate: Expr) -> Result<DataFrame> {
        self.filter(predicate)
    }

    /// Join with another DataFrame.
    pub fn join(
        &self,
        other: &DataFrame,
        join_type: JoinType,
        condition: Option<Expr>,
    ) -> Result<DataFrame> {
        self.derive(
            self.plan
                .clone()
                .join(other.plan.clone(), join_type, condition),
        )
    }

    /// Inner equi-join convenience.
    pub fn join_on(&self, other: &DataFrame, condition: Expr) -> Result<DataFrame> {
        self.join(other, JoinType::Inner, Some(condition))
    }

    /// Start a grouped aggregation: `df.group_by(vec![col("a")])?.avg("b")`.
    pub fn group_by(&self, groupings: Vec<Expr>) -> GroupedData {
        GroupedData {
            df: self.clone(),
            groupings,
        }
    }

    /// Grouping by column names.
    pub fn group_by_cols(&self, names: &[&str]) -> GroupedData {
        self.group_by(names.iter().map(|n| builders::col(*n)).collect())
    }

    /// Global aggregation (no grouping): `df.agg(vec![count_star()])`.
    pub fn agg(&self, aggregates: Vec<Expr>) -> Result<DataFrame> {
        self.derive(self.plan.clone().aggregate(vec![], aggregates))
    }

    /// Sort by the given orders.
    pub fn order_by(&self, orders: Vec<SortOrder>) -> Result<DataFrame> {
        self.derive(self.plan.clone().sort(orders))
    }

    /// Keep at most `n` rows.
    pub fn limit(&self, n: usize) -> Result<DataFrame> {
        self.derive(self.plan.clone().limit(n))
    }

    /// Bag union (schemas must be compatible).
    pub fn union(&self, other: &DataFrame) -> Result<DataFrame> {
        self.derive(self.plan.clone().union(vec![other.plan.clone()]))
    }

    /// Duplicate elimination.
    pub fn distinct(&self) -> Result<DataFrame> {
        self.derive(self.plan.clone().distinct())
    }

    /// Bernoulli sample.
    pub fn sample(&self, fraction: f64, seed: u64) -> Result<DataFrame> {
        self.derive(self.plan.clone().sample(fraction, seed))
    }

    /// Qualify this DataFrame's columns with `alias` (for joins).
    pub fn alias(&self, alias: &str) -> Result<DataFrame> {
        self.derive(self.plan.clone().subquery_alias(alias))
    }

    /// Append a computed column.
    pub fn with_column(&self, name: &str, expr: Expr) -> Result<DataFrame> {
        let mut exprs: Vec<Expr> = self.plan.output().into_iter().map(Expr::Column).collect();
        exprs.push(expr.alias(name));
        self.select(exprs)
    }

    /// Register as a temp table so SQL can see it; the registered plan is
    /// an unmaterialized view — optimizations happen across SQL and the
    /// original DataFrame expressions (§3.3).
    pub fn register_temp_table(&self, name: &str) {
        self.ctx.register_plan(name, self.plan.clone());
    }

    /// Materialize into the in-memory columnar cache (§3.6) and return a
    /// DataFrame reading from it.
    pub fn cache(&self) -> Result<DataFrame> {
        self.ctx.cache_dataframe(self)
    }

    // ---- output operations (trigger execution) ----

    /// Execute and gather all rows.
    pub fn collect(&self) -> Result<Vec<Row>> {
        self.to_rdd()?.try_collect().map_err(engine_err)
    }

    /// Execute and count rows.
    pub fn count(&self) -> Result<u64> {
        let rdd = self.to_rdd()?;
        Ok(rdd
            .run_job(|_, it| it.count() as u64)
            .map_err(engine_err)?
            .into_iter()
            .sum())
    }

    /// First `n` rows.
    pub fn take(&self, n: usize) -> Result<Vec<Row>> {
        Ok(self.to_rdd()?.take(n))
    }

    /// First row, if any.
    pub fn first(&self) -> Result<Option<Row>> {
        Ok(self.take(1)?.into_iter().next())
    }

    /// Compile to an engine RDD of rows — the bridge back to procedural
    /// Spark code (§3.1: "each DataFrame can also be viewed as an RDD of
    /// Row objects").
    pub fn to_rdd(&self) -> Result<RddRef<Row>> {
        let (planned, _) = self.ctx.planned(&self.plan, &self.memo)?;
        self.ctx.lower(&planned.physical)
    }

    /// Render up to `n` rows as an aligned text table.
    pub fn show(&self, n: usize) -> Result<String> {
        let rows = self.take(n)?;
        let schema = self.schema();
        let headers: Vec<String> = schema.fields().iter().map(|f| f.name.to_string()).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                r.values()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = v.to_string();
                        if i < widths.len() {
                            widths[i] = widths[i].max(s.len());
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in rendered {
            out.push('|');
            for (v, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {v:w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        Ok(out)
    }

    /// EXPLAIN output: analyzed, optimized, and physical plans.
    pub fn explain(&self) -> Result<String> {
        let (planned, _) = self.ctx.planned(&self.plan, &self.memo)?;
        Ok(format!(
            "== Analyzed Logical Plan ==\n{}\n== Optimized Logical Plan ==\n{}\n\
             == Physical Plan ==\n{}",
            self.plan, planned.optimized, planned.physical
        ))
    }

    /// Static lint diagnostics for this query (the analyzed plan, before
    /// optimization — so findings the optimizer would silently rewrite
    /// away, like an always-false predicate, still surface). Filtered to
    /// the session's `spark.sql.lint.level`; `off` reports nothing.
    pub fn lint(&self) -> Vec<catalyst::analysis::lint::LintDiagnostic> {
        let level = self.ctx.conf().lint_level;
        catalyst::analysis::lint::lint_plan_at_level(&self.plan, &level)
    }

    /// [`DataFrame::lint`] rendered one diagnostic per line, or an empty
    /// string when the plan is clean.
    pub fn lint_report(&self) -> String {
        self.lint()
            .iter()
            .map(|d| d.render() + "\n")
            .collect::<String>()
    }

    /// An observability handle over this query: analyzed/optimized/
    /// physical plans plus a per-operator metrics registry that fills in
    /// when the handle executes.
    pub fn query_execution(&self) -> Result<crate::query_execution::QueryExecution> {
        crate::query_execution::QueryExecution::new(self.ctx.clone(), self.plan.clone(), &self.memo)
    }

    /// Run the query and render the physical plan annotated with actual
    /// row counts, per-operator times, and shuffle volume — the paper's
    /// Figure 8/9 measurements attached to individual operators.
    pub fn explain_analyze(&self) -> Result<String> {
        self.query_execution()?.explain_analyze()
    }

    /// Per-rule optimizer health for this query, rendered as a table:
    /// applications vs. fires (effectiveness), idempotence probes,
    /// validator-rejected rewrites, and non-converged batches. Pairs with
    /// [`DataFrame::explain_analyze`] — one shows what execution did, the
    /// other what optimization did.
    pub fn rule_health_report(&self) -> Result<String> {
        Ok(self.query_execution()?.rule_health_report())
    }

    /// Start a builder-style write:
    /// `df.write().format("csv").mode(SaveMode::Overwrite).save(path)`.
    pub fn write(&self) -> crate::io::DataFrameWriter {
        crate::io::DataFrameWriter::new(self.clone())
    }
}

/// A DataFrame with pending grouping keys (result of
/// [`DataFrame::group_by`]).
pub struct GroupedData {
    df: DataFrame,
    groupings: Vec<Expr>,
}

impl GroupedData {
    /// Aggregate: output columns are the grouping expressions followed by
    /// `aggregates`.
    pub fn agg(&self, aggregates: Vec<Expr>) -> Result<DataFrame> {
        let mut outputs = self.groupings.clone();
        outputs.extend(aggregates);
        self.df.derive(
            self.df
                .plan
                .clone()
                .aggregate(self.groupings.clone(), outputs),
        )
    }

    /// `df.group_by(…).avg("b")` — the Figure 9 one-liner.
    pub fn avg(&self, column: &str) -> Result<DataFrame> {
        self.agg(vec![
            builders::avg(builders::col(column)).alias(format!("avg({column})"))
        ])
    }

    /// Sum of a column per group.
    pub fn sum(&self, column: &str) -> Result<DataFrame> {
        self.agg(vec![
            builders::sum(builders::col(column)).alias(format!("sum({column})"))
        ])
    }

    /// Row count per group.
    pub fn count(&self) -> Result<DataFrame> {
        self.agg(vec![builders::count_star().alias("count")])
    }

    /// Min of a column per group.
    pub fn min(&self, column: &str) -> Result<DataFrame> {
        self.agg(vec![
            builders::min(builders::col(column)).alias(format!("min({column})"))
        ])
    }

    /// Max of a column per group.
    pub fn max(&self, column: &str) -> Result<DataFrame> {
        self.agg(vec![
            builders::max(builders::col(column)).alias(format!("max({column})"))
        ])
    }
}
