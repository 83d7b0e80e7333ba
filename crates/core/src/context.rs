//! The session entry point: `SQLContext` (the paper's
//! `SQLContext`/`HiveContext`), tying the catalog, analyzer, optimizer,
//! planner, data source registry, and execution engine together.

use crate::cache::CachedRelation;
use crate::conf::SqlConf;
use crate::dataframe::DataFrame;
use crate::execution::{execute, ExecContext};
use crate::io::DataFrameReader;
use crate::plan_cache::{
    statistics_epochs, PlanCache, PlanCacheStats, PlanMemo, PlanStamp, Planned,
};
use crate::query_execution::QueryLogEntry;
use crate::rdd_table::RddTable;
use crate::record::Record;
use catalyst::analysis::catalog::require_table;
use catalyst::analysis::{
    Analyzer, Catalog, CatalogEntry, FunctionRegistry, OverlayCatalog, RecordingCatalog,
    SimpleCatalog,
};
use catalyst::error::{CatalystError, Result};
use catalyst::expr::{ColumnRef, UdfImpl};
use catalyst::optimizer::Optimizer;
use catalyst::physical::{PhysicalPlan, Planner, PlannerConfig, Strategy};
use catalyst::plan::LogicalPlan;
use catalyst::row::Row;
use catalyst::rules::{Batch, ExecutionMonitor, RuleHealthReport, TraceEvent};
use catalyst::schema::SchemaRef;
use catalyst::source::BaseRelation;
use catalyst::types::DataType;
use catalyst::udt::UdtRegistry;
use catalyst::validation;
use catalyst::value::Value;
use datasources::{CsvOptions, DataSourceRegistry, JsonRelation, Options};
use engine::{RddRef, SparkContext};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many runs the session query log keeps; the oldest falls off when
/// one more is recorded.
pub const QUERY_LOG_CAPACITY: usize = 1024;

struct CtxInner {
    sc: SparkContext,
    /// The server-wide catalog shared by every session.
    shared_catalog: Arc<SimpleCatalog>,
    /// `Some` for contexts created by [`SQLContext::new_session`]: a
    /// session-local temp-view layer over the shared catalog.
    session_catalog: Option<Arc<OverlayCatalog>>,
    functions: Arc<FunctionRegistry>,
    udts: Arc<UdtRegistry>,
    sources: Arc<DataSourceRegistry>,
    conf: RwLock<SqlConf>,
    /// Bumped by every write to `conf`; half of a [`PlanStamp`].
    conf_version: AtomicU64,
    strategies: RwLock<Vec<Arc<dyn Strategy>>>,
    optimizer: Mutex<Optimizer>,
    /// Bumped whenever a UDF, UDT, strategy or optimizer batch is
    /// registered; the other half of a [`PlanStamp`]. Functions and UDTs
    /// are shared with derived sessions, so the counter is too.
    plan_generation: Arc<AtomicU64>,
    /// Statement text → analyzed plan + plan memo (see `plan_cache`).
    plan_cache: Mutex<PlanCache>,
    /// Catalog entries replaced by `CACHE TABLE`, for `UNCACHE` to put
    /// back as they were.
    uncached: Mutex<HashMap<String, CatalogEntry>>,
    /// Instrumented runs recorded by `QueryExecution::collect`, newest
    /// last, at most [`QUERY_LOG_CAPACITY`].
    query_log: Mutex<VecDeque<QueryLogEntry>>,
    /// Stable id stamped on this session's query-log entries. `"local"`
    /// for library use; the SQL service assigns `s1`, `s2`, ….
    session_id: String,
    /// Monotonic per-session query-id source (first query is 1).
    next_query_id: AtomicU64,
}

/// A Spark SQL session.
#[derive(Clone)]
pub struct SQLContext {
    inner: Arc<CtxInner>,
}

impl SQLContext {
    /// Create a session over an existing engine context.
    pub fn new(sc: SparkContext) -> Self {
        let ctx = SQLContext {
            inner: Arc::new(CtxInner {
                sc,
                shared_catalog: Arc::new(SimpleCatalog::default()),
                session_catalog: None,
                functions: Arc::new(FunctionRegistry::default()),
                udts: Arc::new(UdtRegistry::default()),
                sources: Arc::new(DataSourceRegistry::default()),
                conf: RwLock::new(SqlConf::default()),
                conf_version: AtomicU64::new(0),
                strategies: RwLock::new(Vec::new()),
                optimizer: Mutex::new(Optimizer::new()),
                plan_generation: Arc::new(AtomicU64::new(0)),
                plan_cache: Mutex::new(PlanCache::default()),
                uncached: Mutex::new(HashMap::new()),
                query_log: Mutex::new(VecDeque::new()),
                session_id: "local".to_string(),
                next_query_id: AtomicU64::new(1),
            }),
        };
        // The environment may have set a cache budget through the
        // registry defaults; mirror it onto the engine cache.
        ctx.apply_cache_conf();
        ctx
    }

    /// Derive an isolated session sharing this context's engine, shared
    /// catalog, cache, functions, UDTs, and data sources. The new session
    /// gets its own temp-view layer (a [`OverlayCatalog`] over the shared
    /// catalog), a snapshot of the current configuration (later `SET`s
    /// are invisible across sessions), its own query log, and its own
    /// query-id counter and its own plan cache. Custom optimizer batches
    /// are *not* inherited.
    pub fn new_session(&self, session_id: impl Into<String>) -> SQLContext {
        SQLContext {
            inner: Arc::new(CtxInner {
                sc: self.inner.sc.clone(),
                shared_catalog: self.inner.shared_catalog.clone(),
                session_catalog: Some(Arc::new(OverlayCatalog::over(
                    self.inner.shared_catalog.clone(),
                ))),
                functions: self.inner.functions.clone(),
                udts: self.inner.udts.clone(),
                sources: self.inner.sources.clone(),
                conf: RwLock::new(self.conf()),
                conf_version: AtomicU64::new(0),
                strategies: RwLock::new(self.inner.strategies.read().clone()),
                optimizer: Mutex::new(Optimizer::new()),
                plan_generation: self.inner.plan_generation.clone(),
                plan_cache: Mutex::new(PlanCache::default()),
                uncached: Mutex::new(HashMap::new()),
                query_log: Mutex::new(VecDeque::new()),
                session_id: session_id.into(),
                next_query_id: AtomicU64::new(1),
            }),
        }
    }

    /// This session's id (`"local"` outside the SQL service).
    pub fn session_id(&self) -> &str {
        &self.inner.session_id
    }

    /// Allocate the next query id for this session.
    pub(crate) fn next_query_id(&self) -> u64 {
        self.inner.next_query_id.fetch_add(1, Ordering::SeqCst)
    }

    /// The catalog this session resolves tables against.
    fn catalog_dyn(&self) -> Arc<dyn Catalog> {
        match &self.inner.session_catalog {
            Some(overlay) => overlay.clone(),
            None => self.inner.shared_catalog.clone(),
        }
    }

    /// Put `entry` under `name` in the layer this session writes to
    /// (its temp-view layer, or the shared catalog for the root context).
    fn catalog_insert(&self, name: &str, entry: CatalogEntry) {
        match &self.inner.session_catalog {
            Some(overlay) => overlay.insert(name, entry),
            None => self.inner.shared_catalog.insert(name, entry),
        }
        self.drop_stale_plans();
    }

    fn catalog_unregister(&self, name: &str) -> bool {
        let existed = match &self.inner.session_catalog {
            Some(overlay) => overlay.unregister(name),
            None => self.inner.shared_catalog.unregister(name),
        };
        self.drop_stale_plans();
        existed
    }

    /// This session just changed its catalog: let go of cached plans over
    /// entries that are gone for good, so they do not keep a dropped
    /// relation (and a cached one's blocks) alive until their text happens
    /// to be sent again. An entry `CACHE TABLE` set aside is not gone —
    /// `UNCACHE TABLE` brings it back and plans over it with it.
    fn drop_stale_plans(&self) {
        let catalog = self.catalog_dyn();
        let set_aside = self.inner.uncached.lock();
        self.inner.plan_cache.lock().drop_stale(|name, id| {
            catalog.lookup_entry(name).is_some_and(|e| e.id == id)
                || set_aside
                    .get(&name.to_ascii_lowercase())
                    .is_some_and(|e| e.id == id)
        });
    }

    /// Create a session with a fresh local "cluster" of
    /// `executor_threads` workers.
    pub fn new_local(executor_threads: usize) -> Self {
        SQLContext::new(SparkContext::new(executor_threads))
    }

    /// The underlying engine context.
    pub fn spark_context(&self) -> &SparkContext {
        &self.inner.sc
    }

    /// Read the current configuration.
    pub fn conf(&self) -> SqlConf {
        self.inner.conf.read().clone()
    }

    /// Mutate the configuration.
    pub fn set_conf(&self, f: impl FnOnce(&mut SqlConf)) {
        f(&mut self.inner.conf.write());
        self.inner.conf_version.fetch_add(1, Ordering::SeqCst);
        // Shared-resource knobs (the cache budget/policy) act on the
        // engine immediately, same as the string-keyed `set` path.
        self.apply_cache_conf();
    }

    /// Set a runtime config by registry key, e.g.
    /// `ctx.set("spark.sql.shuffle.partitions", "4")`. Unknown keys
    /// error with the list of valid keys. The same registry backs `SET`
    /// statements and startup environment variables.
    pub fn set(&self, key: &str, value: &str) -> Result<()> {
        self.inner.conf.write().set(key, value)?;
        self.inner.conf_version.fetch_add(1, Ordering::SeqCst);
        let lower = key.to_ascii_lowercase();
        if lower.starts_with("spark.sql.chaos.") {
            self.apply_chaos_conf();
        }
        if lower == "spark.sql.cache.budgetbytes" || lower == "spark.sql.cache.evictionpolicy" {
            self.apply_cache_conf();
        }
        Ok(())
    }

    /// Current value of a runtime config key, rendered as a string.
    pub fn get(&self, key: &str) -> Result<String> {
        self.inner.conf.read().get(key)
    }

    /// Install (or clear) the engine chaos plan described by the session
    /// configuration.
    fn apply_chaos_conf(&self) {
        let conf = self.conf();
        let plan = conf.chaos_seed.map(|seed| {
            let mut cc = engine::ChaosConf::seeded(seed);
            if let Some(p) = conf.chaos_prob {
                cc.task_fault_prob = p;
                cc.fetch_fault_prob = p;
            }
            Arc::new(engine::ChaosPlan::new(cc))
        });
        self.inner.sc.set_chaos(plan);
    }

    /// Apply the session's cache budget/policy to the engine's shared
    /// cache manager. Like the chaos hook, this is an engine-level
    /// side effect: the cache is shared, so the last session to set it
    /// wins (services set it once at startup).
    fn apply_cache_conf(&self) {
        let conf = self.conf();
        let budget = (conf.cache_budget_bytes > 0).then_some(conf.cache_budget_bytes);
        self.inner.sc.cache_manager().set_budget(
            budget,
            engine::EvictionPolicy::parse(&conf.cache_eviction_policy),
        );
    }

    /// The user-defined-type registry (§4.4.2).
    pub fn udts(&self) -> &UdtRegistry {
        &self.inner.udts
    }

    /// The data source provider registry (§4.4.1).
    pub fn data_sources(&self) -> &DataSourceRegistry {
        &self.inner.sources
    }

    // ---- analysis / planning / execution pipeline ----

    /// Analyze a plan against this session's catalog and functions.
    pub fn analyze(&self, plan: LogicalPlan) -> Result<LogicalPlan> {
        Analyzer::new(self.catalog_dyn(), self.inner.functions.clone()).analyze(plan)
    }

    /// Wrap an unanalyzed plan into a DataFrame (analyzing it eagerly).
    pub fn dataframe(&self, plan: LogicalPlan) -> Result<DataFrame> {
        Ok(DataFrame::new(self.clone(), self.analyze(plan)?))
    }

    /// Optimize + physically plan a query, recording nothing beyond what
    /// validation needs.
    pub fn plan_query(&self, analyzed: &LogicalPlan) -> Result<(LogicalPlan, PhysicalPlan)> {
        let planned = self.plan_with(analyzed, false)?;
        Ok((planned.optimized, planned.physical))
    }

    /// Optimize + physically plan a query under monitoring: rule-health
    /// counters and the trace are always collected, and — when plan
    /// validation is on ([`catalyst::validation::enabled`]) — every
    /// optimizer rewrite is checked as a post-condition and the physical
    /// plan is checked at shuffle boundaries. A rule that breaks an
    /// invariant has its rewrite rolled back and fails the query with a
    /// report naming the batch, rule, iteration, invariant, and plan diff.
    pub fn plan_query_monitored(&self, analyzed: &LogicalPlan) -> Result<PlannedQuery> {
        self.plan_with(analyzed, true)
    }

    fn plan_with(&self, analyzed: &LogicalPlan, record: bool) -> Result<PlannedQuery> {
        let conf = self.conf();
        let validate = conf.plan_validation.unwrap_or_else(validation::enabled);
        let validator = validation::PlanValidator::new();
        let monitor = if validate {
            ExecutionMonitor::with_validator(&validator)
        } else if record {
            ExecutionMonitor::new()
        } else {
            ExecutionMonitor::silent()
        };
        // One rule list; the reference runs its prefix, through the user
        // batches.
        let out = self.inner.optimizer.lock().optimize_monitored(
            analyzed.clone(),
            conf.reference,
            monitor,
        );
        if !out.violations.is_empty() {
            let mut msg = String::from("optimizer rule broke a plan invariant:\n");
            for v in &out.violations {
                msg.push_str(&v.to_string());
                msg.push('\n');
            }
            return Err(CatalystError::Internal(msg));
        }
        let optimized = out.plan;
        let mut planner = Planner::new(PlannerConfig {
            pushdown_enabled: conf.pushdown_enabled,
            column_pruning_enabled: conf.column_pruning_enabled,
            broadcast_threshold: conf.broadcast_threshold,
            cost_based_build_side: !conf.reference,
            shuffle_partitions: conf.shuffle_partitions,
        });
        for s in self.inner.strategies.read().iter() {
            planner.add_strategy(s.clone());
        }
        let physical = planner.plan(&optimized)?;
        if validate {
            let violations = validator.check_physical(&physical);
            if !violations.is_empty() {
                return Err(CatalystError::Internal(format!(
                    "physical plan failed integrity checks:\n{}",
                    validation::render_violations(&violations)
                )));
            }
        }
        Ok(PlannedQuery {
            optimized,
            physical,
            rule_health: out.health,
            trace: out.trace,
        })
    }

    /// What planning depends on besides the analyzed plan, as of now.
    pub(crate) fn plan_stamp(&self) -> PlanStamp {
        PlanStamp {
            conf_version: self.inner.conf_version.load(Ordering::SeqCst),
            generation: self.inner.plan_generation.load(Ordering::SeqCst),
        }
    }

    /// The optimized + physical plans of `analyzed`, planned at most once
    /// per `memo` while the session's configuration and extension
    /// registries stay as they are. The flag says whether the memo
    /// answered. Every output operation and `query_execution()` come
    /// through here, so a statement served from the plan cache, a
    /// DataFrame collected twice and an `EXPLAIN` all see one plan.
    pub(crate) fn planned(
        &self,
        analyzed: &LogicalPlan,
        memo: &PlanMemo,
    ) -> Result<(Arc<Planned>, bool)> {
        // Read before planning: a change that races with it leaves a
        // stamp that no longer matches, never a stale plan that does.
        let stamp = self.plan_stamp();
        if let Some(planned) = memo.get(stamp) {
            return Ok((planned, true));
        }
        let statistics = statistics_epochs(analyzed);
        let (optimized, physical) = self.plan_query(analyzed)?;
        let planned = Arc::new(Planned {
            optimized,
            physical,
            stamp,
            statistics,
        });
        memo.set(planned.clone());
        Ok((planned, false))
    }

    /// Lower a physical plan to an engine RDD under the configuration of
    /// this moment (lowering, shuffle ids and the memory pool belong to
    /// one execution, not to the plan).
    pub(crate) fn lower(&self, physical: &PhysicalPlan) -> Result<RddRef<Row>> {
        let ctx = ExecContext::new(self.inner.sc.clone(), self.conf());
        execute(physical, &ctx)
    }

    // ---- plan cache ----

    /// A `SELECT` this session has analyzed before, if every table it
    /// reads, the configuration and the extension registries are what
    /// they were then.
    fn cached_statement(&self, text: &str) -> Option<DataFrame> {
        let catalog = self.catalog_dyn();
        let (analyzed, memo) =
            self.inner
                .plan_cache
                .lock()
                .get(text, self.plan_stamp(), catalog.as_ref())?;
        Some(DataFrame::with_memo(self.clone(), analyzed, memo))
    }

    /// Analyze a parsed `SELECT`, recording which catalog entries it
    /// resolved, and keep the result under its text.
    fn analyze_statement(&self, text: &str, plan: LogicalPlan) -> Result<DataFrame> {
        let stamp = self.plan_stamp();
        let catalog = Arc::new(RecordingCatalog::new(self.catalog_dyn()));
        let analyzed =
            Analyzer::new(catalog.clone(), self.inner.functions.clone()).analyze(plan)?;
        let memo = PlanMemo::default();
        self.inner.plan_cache.lock().insert(
            text,
            analyzed.clone(),
            catalog.take_seen(),
            stamp,
            memo.clone(),
        );
        Ok(DataFrame::with_memo(self.clone(), analyzed, memo))
    }

    /// This session's plan-cache counters: `sql()` calls served from the
    /// cache, `SELECT`s that had to be analyzed, entries dropped because
    /// what they were planned against changed, and entries resident.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.inner.plan_cache.lock().stats()
    }

    // ---- query log ----

    /// Record one instrumented run (called by `QueryExecution::collect`).
    pub(crate) fn log_query(&self, entry: QueryLogEntry) {
        let mut log = self.inner.query_log.lock();
        if log.len() == QUERY_LOG_CAPACITY {
            log.pop_front();
        }
        log.push_back(entry);
    }

    /// Snapshot of the session query log, oldest first: one entry per
    /// instrumented run (`collect` on a `QueryExecution`, or
    /// `explain_analyze`). The log is a ring of the most recent
    /// [`QUERY_LOG_CAPACITY`] (1024) runs, so a context can serve queries
    /// for days without it growing.
    pub fn query_log(&self) -> Vec<QueryLogEntry> {
        self.inner.query_log.lock().iter().cloned().collect()
    }

    /// The most recent instrumented run, if any.
    pub fn last_query_log_entry(&self) -> Option<QueryLogEntry> {
        self.inner.query_log.lock().back().cloned()
    }

    /// Drop every recorded query log entry.
    pub fn clear_query_log(&self) {
        self.inner.query_log.lock().clear();
    }

    /// The query log rendered as a JSON array, for dumping from
    /// benchmark harnesses.
    pub fn query_log_json(&self) -> String {
        let entries: Vec<String> = self
            .inner
            .query_log
            .lock()
            .iter()
            .map(QueryLogEntry::to_json)
            .collect();
        format!("[{}]", entries.join(","))
    }

    // ---- SQL ----

    /// Run a SQL statement. Queries return a DataFrame; DDL statements
    /// return an empty DataFrame after taking effect.
    ///
    /// A `SELECT` whose exact text this session has run before is served
    /// from its plan cache — no parse, no analysis and, once executed, no
    /// optimization or physical planning — provided every table it reads
    /// is the catalog entry it was analyzed against and neither the
    /// configuration nor a UDF/UDT/strategy/optimizer-batch registry
    /// changed since. Otherwise it is planned afresh and replaces the
    /// entry. The cache holds the [`crate::plan_cache::PLAN_CACHE_CAPACITY`]
    /// most recently used statements; `EXPLAIN` and DDL are never cached.
    pub fn sql(&self, text: &str) -> Result<DataFrame> {
        if let Some(df) = self.cached_statement(text) {
            return Ok(df);
        }
        match sql::parse(text)? {
            sql::Statement::Query(plan) => self.analyze_statement(text, plan),
            sql::Statement::CreateTempTable {
                name,
                provider,
                options,
                query,
            } => {
                match query {
                    Some(q) => {
                        // CREATE TABLE … AS SELECT: materialize through
                        // the session and register the result.
                        let df = self.dataframe(q)?;
                        let rows = df.collect()?;
                        self.register_rows(&name, df.schema(), rows)?;
                    }
                    None => {
                        let rel = self.inner.sources.create_relation(&provider, &options)?;
                        self.register_relation(&name, rel);
                    }
                }
                self.empty_dataframe()
            }
            sql::Statement::CacheTable { name } => {
                self.cache_table(&name)?;
                self.empty_dataframe()
            }
            sql::Statement::UncacheTable { name } => {
                self.uncache_table(&name)?;
                self.empty_dataframe()
            }
            sql::Statement::Explain(plan) => {
                let df = self.dataframe(plan)?;
                let text = df.explain()?;
                let rows: Vec<Row> = text
                    .lines()
                    .map(|l| Row::new(vec![Value::str(l)]))
                    .collect();
                let schema = Arc::new(catalyst::schema::Schema::new(vec![
                    catalyst::types::StructField::new("plan", DataType::String, false),
                ]));
                self.create_dataframe(schema, rows)
            }
            sql::Statement::ExplainLint(plan) => {
                let df = self.dataframe(plan)?;
                let rows: Vec<Row> = df
                    .lint()
                    .into_iter()
                    .map(|d| {
                        Row::new(vec![
                            Value::str(d.severity.name()),
                            Value::str(d.class.code()),
                            Value::Long(d.node_id as i64),
                            Value::str(d.node),
                            Value::str(d.message),
                        ])
                    })
                    .collect();
                let schema = Arc::new(catalyst::schema::Schema::new(vec![
                    catalyst::types::StructField::new("severity", DataType::String, false),
                    catalyst::types::StructField::new("code", DataType::String, false),
                    catalyst::types::StructField::new("node_id", DataType::Long, false),
                    catalyst::types::StructField::new("node", DataType::String, false),
                    catalyst::types::StructField::new("message", DataType::String, false),
                ]));
                self.create_dataframe(schema, rows)
            }
            sql::Statement::Set { key, value } => {
                let pairs: Vec<(String, String)> = match (&key, &value) {
                    (Some(k), Some(v)) => {
                        self.set(k, v)?;
                        vec![(k.clone(), self.get(k)?)]
                    }
                    (Some(k), None) => vec![(k.clone(), self.get(k)?)],
                    _ => self.conf().entries(),
                };
                let rows: Vec<Row> = pairs
                    .into_iter()
                    .map(|(k, v)| Row::new(vec![Value::str(k), Value::str(v)]))
                    .collect();
                let schema = Arc::new(catalyst::schema::Schema::new(vec![
                    catalyst::types::StructField::new("key", DataType::String, false),
                    catalyst::types::StructField::new("value", DataType::String, false),
                ]));
                self.create_dataframe(schema, rows)
            }
            sql::Statement::ShowTables => {
                let rows: Vec<Row> = self
                    .catalog_dyn()
                    .table_names()
                    .into_iter()
                    .map(|n| Row::new(vec![Value::str(n)]))
                    .collect();
                let schema = Arc::new(catalyst::schema::Schema::new(vec![
                    catalyst::types::StructField::new("table", DataType::String, false),
                ]));
                self.create_dataframe(schema, rows)
            }
            sql::Statement::Describe { name } => {
                let df = self.table(&name)?;
                let rows: Vec<Row> = df
                    .schema()
                    .fields()
                    .iter()
                    .map(|f| {
                        Row::new(vec![
                            Value::str(f.name.as_ref()),
                            Value::str(f.dtype.to_string()),
                            Value::Boolean(f.nullable),
                        ])
                    })
                    .collect();
                let schema = Arc::new(catalyst::schema::Schema::new(vec![
                    catalyst::types::StructField::new("column", DataType::String, false),
                    catalyst::types::StructField::new("type", DataType::String, false),
                    catalyst::types::StructField::new("nullable", DataType::Boolean, false),
                ]));
                self.create_dataframe(schema, rows)
            }
        }
    }

    fn empty_dataframe(&self) -> Result<DataFrame> {
        self.dataframe(LogicalPlan::LocalRelation {
            output: vec![],
            rows: Arc::new(vec![]),
        })
    }

    // ---- catalog ----

    /// Register an analyzed plan as a temp table (in the session layer,
    /// for sessions; in the shared catalog, for the root context).
    pub fn register_plan(&self, name: &str, plan: LogicalPlan) {
        self.catalog_insert(name, CatalogEntry::new(plan));
    }

    /// Register a data source relation as a table.
    pub fn register_relation(&self, name: &str, relation: Arc<dyn BaseRelation>) {
        self.register_plan(name, scan_plan(relation));
    }

    /// Register literal rows as a table.
    pub fn register_rows(&self, name: &str, schema: SchemaRef, rows: Vec<Row>) -> Result<()> {
        let df = self.create_dataframe(schema, rows)?;
        df.register_temp_table(name);
        Ok(())
    }

    /// Remove a temp table.
    pub fn drop_temp_table(&self, name: &str) -> bool {
        self.catalog_unregister(name)
    }

    /// Look up a table as a DataFrame.
    pub fn table(&self, name: &str) -> Result<DataFrame> {
        self.dataframe(LogicalPlan::UnresolvedRelation {
            name: name.to_string(),
        })
    }

    // ---- DataFrame construction ----

    /// DataFrame over literal rows.
    pub fn create_dataframe(&self, schema: SchemaRef, rows: Vec<Row>) -> Result<DataFrame> {
        let output = fresh_output(&schema);
        self.dataframe(LogicalPlan::LocalRelation {
            output,
            rows: Arc::new(rows),
        })
    }

    /// DataFrame over an existing RDD of rows (§3.5's "querying native
    /// datasets" once objects are rows).
    pub fn dataframe_from_rdd(
        &self,
        name: &str,
        schema: SchemaRef,
        rdd: RddRef<Row>,
    ) -> Result<DataFrame> {
        let output = fresh_output(&schema);
        let table = RddTable::new(name, schema, rdd);
        self.dataframe(LogicalPlan::External {
            data: Arc::new(table),
            output,
        })
    }

    /// DataFrame over a collection of native objects: schema comes from
    /// the [`Record`] implementation (the reflection step of §3.5) and
    /// field extraction happens lazily inside scan tasks.
    pub fn create_dataframe_from<T: Record>(
        &self,
        objects: Vec<T>,
        num_partitions: usize,
    ) -> Result<DataFrame> {
        let schema = Arc::new(T::schema());
        let rdd = self
            .inner
            .sc
            .parallelize(objects, num_partitions)
            .map(|obj| obj.to_row());
        self.dataframe_from_rdd(std::any::type_name::<T>(), schema, rdd)
    }

    /// View an RDD of records as a DataFrame (the `rdd.toDF` of §3.5).
    pub fn rdd_to_dataframe<T: Record>(&self, rdd: &RddRef<T>) -> Result<DataFrame> {
        let schema = Arc::new(T::schema());
        self.dataframe_from_rdd(std::any::type_name::<T>(), schema, rdd.map(|o| o.to_row()))
    }

    /// Read newline-delimited JSON with schema inference (§5.1).
    pub fn read_json_lines(
        &self,
        name: &str,
        lines: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> Result<DataFrame> {
        let rel = JsonRelation::from_lines(name, lines, 2, None)?;
        self.dataframe(scan_plan(Arc::new(rel)))
    }

    /// Start a builder-style read:
    /// `ctx.read().format("csv").option("header", "true").load(path)`.
    pub fn read(&self) -> DataFrameReader {
        DataFrameReader::new(self.clone())
    }

    /// Read a JSON file (shorthand for `read().format("json")`).
    pub fn read_json(&self, path: &str) -> Result<DataFrame> {
        self.read().format("json").load(path)
    }

    /// Read a CSV file (shorthand for `read().format("csv")` with the
    /// options spelled out).
    pub fn read_csv(&self, path: &str, options: &CsvOptions) -> Result<DataFrame> {
        let mut reader = self
            .read()
            .format("csv")
            .option("delimiter", options.delimiter)
            .option("header", options.header)
            .option("partitions", options.num_partitions);
        if let Some(schema) = &options.schema {
            reader = reader.schema(schema);
        }
        reader.load(path)
    }

    /// Read a colfile (Parquet stand-in; the default `read()` format).
    pub fn read_colfile(&self, path: &str) -> Result<DataFrame> {
        self.read().load(path)
    }

    /// Open a relation through the provider registry (`USING` names).
    pub fn read_source(&self, provider: &str, options: &Options) -> Result<DataFrame> {
        let rel = self.inner.sources.create_relation(provider, options)?;
        self.dataframe(scan_plan(rel))
    }

    // ---- extension points (§4.4) ----

    /// Register an inline UDF (§3.7).
    pub fn register_udf(
        &self,
        name: &str,
        return_type: DataType,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.inner.functions.register(UdfImpl {
            name: Arc::from(name),
            return_type,
            func: Box::new(f),
        });
        self.bump_plan_generation();
    }

    /// An extension point changed: plans made before it are stale.
    fn bump_plan_generation(&self) {
        self.inner.plan_generation.fetch_add(1, Ordering::SeqCst);
    }

    /// Register a user-defined type (§4.4.2).
    pub fn register_udt(&self, name: &str, sql_type: DataType) {
        self.inner.udts.register(name, sql_type);
        self.bump_plan_generation();
    }

    /// Register a physical planning strategy ahead of the defaults (what
    /// the §7.2 interval join uses).
    pub fn add_strategy(&self, strategy: Arc<dyn Strategy>) {
        self.inner.strategies.write().push(strategy);
        self.bump_plan_generation();
    }

    /// Add a batch of logical optimizer rules (§4.4: "developers can add
    /// batches of rules … at runtime"). It runs after the operator batch
    /// and the batches added before it, in production and the reference.
    pub fn add_optimizer_batch(&self, batch: Batch<LogicalPlan>) {
        self.inner.optimizer.lock().add_batch(batch);
        self.bump_plan_generation();
    }

    // ---- caching (§3.6) ----

    /// Materialize a DataFrame into the in-memory columnar cache.
    pub fn cache_dataframe(&self, df: &DataFrame) -> Result<DataFrame> {
        let rel = self.cached_relation_for(df, "dataframe")?;
        self.dataframe(scan_plan(rel))
    }

    fn cached_relation_for(&self, df: &DataFrame, name: &str) -> Result<Arc<dyn BaseRelation>> {
        let conf = self.conf();
        let rdd = df.to_rdd()?;
        let num_partitions = rdd.num_partitions();
        // Re-runnable: recovery invokes it again from lineage when cached
        // blocks are lost to an executor failure.
        let materializer = Box::new(move || {
            rdd.run_job(|_, it| it.collect::<Vec<Row>>())
                .map_err(|e| CatalystError::Internal(format!("cache materialization: {e}")))
        });
        Ok(Arc::new(CachedRelation::new(
            name,
            df.schema(),
            num_partitions,
            conf.columnar_cache_enabled,
            conf.cache_batch_size,
            self.inner.sc.clone(),
            materializer,
        )))
    }

    /// `CACHE TABLE name`: replace the catalog entry with its cached
    /// form, keeping the entry it replaces — the entry as stored, not the
    /// alias-wrapped plan analysis makes of it, so a table's plan is the
    /// same size after any number of `CACHE`/`UNCACHE` round trips.
    pub fn cache_table(&self, name: &str) -> Result<()> {
        let stored = require_table(self.catalog_dyn().as_ref(), name)?;
        let rel = self.cached_relation_for(&self.table(name)?, name)?;
        // Caching a cached table again keeps the first, uncached entry.
        self.inner
            .uncached
            .lock()
            .entry(name.to_ascii_lowercase())
            .or_insert(stored);
        self.register_relation(name, rel);
        Ok(())
    }

    /// `UNCACHE TABLE name`: put back the entry `CACHE TABLE` replaced —
    /// the same entry, so statements planned before the `CACHE TABLE` are
    /// valid again, and the ones planned over the cached form are dropped
    /// with it.
    pub fn uncache_table(&self, name: &str) -> Result<()> {
        let set_aside = self
            .inner
            .uncached
            .lock()
            .remove(&name.to_ascii_lowercase());
        let entry = set_aside
            .ok_or_else(|| CatalystError::analysis(format!("table '{name}' is not cached")))?;
        self.catalog_insert(name, entry);
        Ok(())
    }
}

/// What [`SQLContext::plan_query_monitored`] produces: the optimized and
/// physical plans plus everything the execution monitor observed.
pub struct PlannedQuery {
    /// The optimized logical plan.
    pub optimized: LogicalPlan,
    /// The physical plan.
    pub physical: PhysicalPlan,
    /// Per-rule health: applications, fires, effectiveness, idempotence
    /// probes, and batches that hit their iteration cap while still
    /// changing the plan.
    pub rule_health: RuleHealthReport,
    /// Plan-change log: one event per fired rule (with before/after diffs
    /// when validation is on) plus non-convergence markers.
    pub trace: Vec<TraceEvent>,
}

/// Build a logical scan with fresh attribute ids for a relation.
pub fn scan_plan(relation: Arc<dyn BaseRelation>) -> LogicalPlan {
    let output: Vec<ColumnRef> = relation
        .schema()
        .fields()
        .iter()
        .map(|f| ColumnRef::new(f.name.clone(), f.dtype.clone(), f.nullable))
        .collect();
    LogicalPlan::Scan {
        relation,
        output,
        filters: vec![],
    }
}

fn fresh_output(schema: &SchemaRef) -> Vec<ColumnRef> {
    schema
        .fields()
        .iter()
        .map(|f| ColumnRef::new(f.name.clone(), f.dtype.clone(), f.nullable))
        .collect()
}
