//! Session configuration: the typed knobs of a [`crate::SQLContext`] plus
//! the string-keyed runtime-config registry over them.
//!
//! Every tunable has one source of truth — its field on [`SqlConf`] — and
//! three ways to reach it, in precedence order:
//!
//! 1. explicit sets (`ctx.set("spark.sql.vectorize.enabled", "false")`,
//!    `SET spark.sql.vectorize.enabled=false`, or a `set_conf` closure),
//! 2. environment variables, applied once through the same registry when
//!    the first default configuration is built (legacy names like
//!    `CATALYST_VECTORIZE` are routed here instead of being checked
//!    ad hoc at their point of use),
//! 3. built-in defaults.
//!
//! Unknown keys fail with an error that lists every valid key; values are
//! parsed per key kind (booleans, byte sizes with `k`/`m`/`g` suffixes,
//! counts, floats, strings).

use catalyst::error::{CatalystError, Result};
use std::sync::OnceLock;

/// Tunable knobs of a [`crate::SQLContext`].
#[derive(Debug, Clone)]
pub struct SqlConf {
    /// Compile expressions to fused closures (§4.3.4) instead of
    /// interpreting them per row. Off ≈ the Shark baseline.
    pub codegen_enabled: bool,
    /// Cache DataFrames as compressed columnar batches (§3.6) instead of
    /// row objects.
    pub columnar_cache_enabled: bool,
    /// Push filters into capable data sources (§4.4.1).
    pub pushdown_enabled: bool,
    /// Prune columns at the source.
    pub column_pruning_enabled: bool,
    /// Broadcast-join threshold in estimated bytes (§4.3.3).
    pub broadcast_threshold: u64,
    /// Reduce-side partitions for shuffles.
    pub shuffle_partitions: usize,
    /// Rows per columnar cache batch.
    pub cache_batch_size: usize,
    /// Execute Scan/Filter/Project over columnar `RowBatch`es with
    /// vectorized expression kernels, falling back to rows for the rest
    /// of the plan. `CATALYST_VECTORIZE=0` in the environment flips the
    /// default off (the pure row path, for differential testing).
    pub vectorize_enabled: bool,
    /// Rows per execution batch on the vectorized path.
    pub vectorize_batch_size: usize,
    /// Re-plan shuffled joins at stage boundaries from *measured*
    /// map-output sizes: coalesce small post-shuffle
    /// partitions, demote shuffled hash joins to broadcast when the built
    /// side turns out small, and split skewed reduce partitions.
    /// `CATALYST_ADAPTIVE=0` in the environment flips the default off
    /// (static plans only, for differential testing).
    pub adaptive_enabled: bool,
    /// Target bytes per post-shuffle partition when coalescing; also the
    /// absolute floor below which a partition is never considered skewed.
    pub adaptive_target_partition_bytes: u64,
    /// A reduce partition is skewed when it exceeds this factor times the
    /// median partition size (and the target above).
    pub adaptive_skew_factor: f64,
    /// Byte budget for buffering operators (hash join build sides, hash
    /// aggregation tables, sort buffers). `0` means unbounded: the pool
    /// never denies a reservation. Under a budget the same operators, on
    /// outgrowing their fair share of it, spill to disk and merge.
    /// `SPARK_SQL_MEMORY_BUDGET` in the environment sets the default
    /// (plain bytes or `64k` / `16m` / `1g`).
    pub memory_budget_bytes: u64,
    /// Directory for operator spill files; empty means the system temp
    /// directory. `SPARK_SQL_SPILL_DIR` sets the default.
    pub spill_dir: String,
    /// Plan-validation override: `Some(b)` forces validation on/off,
    /// `None` defers to [`catalyst::validation::enabled`] (environment,
    /// then build profile). `CATALYST_VALIDATE` routes here.
    pub plan_validation: Option<bool>,
    /// Chaos fault-injection seed for this session's engine context
    /// (`None` = no injected faults). `ENGINE_CHAOS_SEED` routes here;
    /// setting it through the registry installs a fresh
    /// [`engine::ChaosPlan`] on the session's `SparkContext`.
    pub chaos_seed: Option<u64>,
    /// Override for both chaos fault probabilities (`ENGINE_CHAOS_PROB`).
    pub chaos_prob: Option<f64>,
    /// Run the constraint-propagation optimizer phase (nullability +
    /// value-domain abstract interpretation feeding predicate pruning,
    /// `IS NOT NULL` inference, and empty-relation propagation).
    /// `CATALYST_CONSTRAINTS=0` in the environment flips the default off
    /// (for differential testing of the constraint rules).
    pub constraints_enabled: bool,
    /// Run the cost-based optimizer phase (statistics-driven join
    /// reordering, aggregates answered from source stats,
    /// common-subexpression elimination, and build-side selection for
    /// shuffled hash joins). `CATALYST_CBO=0` in the environment flips
    /// the default off (for differential testing of the CBO rules).
    pub cbo_enabled: bool,
    /// Minimum severity the lint pass reports: `off`, `info`, `warn`, or
    /// `error`. `SPARK_SQL_LINT_LEVEL` sets the default.
    pub lint_level: String,
    /// Byte budget for the shared columnar block cache; exceeding it
    /// evicts per `cache_eviction_policy`. `0` means unbounded (no
    /// eviction). `SPARK_SQL_CACHE_BUDGET` sets the default. Applied to
    /// the engine's shared `CacheManager` when set through a session.
    pub cache_budget_bytes: u64,
    /// Which cached block to evict when over budget: `lru` or `cost`
    /// (cost-aware `(hits+1)/bytes` density, per the Yang et al. line of
    /// work). `SPARK_SQL_CACHE_POLICY` sets the default.
    pub cache_eviction_policy: String,
    /// Worker threads the multi-tenant SQL service runs queries on.
    /// `SPARK_SQL_SERVICE_WORKERS` sets the default.
    pub service_workers: usize,
    /// Per-session cap on queries executing at once (fair-scheduler slot
    /// accounting). `SPARK_SQL_SERVICE_SESSION_INFLIGHT` sets the default.
    pub service_session_in_flight: usize,
    /// Admission-control memory budget for the service, in bytes; a query
    /// is only started once its reservation fits. `0` disables admission
    /// control. `SPARK_SQL_SERVICE_ADMISSION_BUDGET` sets the default.
    pub service_admission_budget: u64,
    /// Bytes reserved against the admission budget per admitted query.
    pub service_admission_query_bytes: u64,
    /// Per-session cap on queries waiting to run; submissions beyond it
    /// are rejected outright rather than queued.
    pub service_max_queued: usize,
    /// Default per-query deadline in milliseconds (measured from
    /// submission, so queue time counts); `0` means no deadline.
    pub service_query_timeout_ms: usize,
}

impl SqlConf {
    /// Built-in defaults with no environment applied.
    fn base() -> Self {
        SqlConf {
            codegen_enabled: true,
            columnar_cache_enabled: true,
            pushdown_enabled: true,
            column_pruning_enabled: true,
            broadcast_threshold: 10 * 1024 * 1024,
            shuffle_partitions: 8,
            cache_batch_size: columnar::DEFAULT_BATCH_SIZE,
            vectorize_enabled: true,
            vectorize_batch_size: columnar::DEFAULT_BATCH_SIZE,
            adaptive_enabled: true,
            adaptive_target_partition_bytes: 1 << 20,
            adaptive_skew_factor: 4.0,
            memory_budget_bytes: 0,
            spill_dir: String::new(),
            plan_validation: None,
            chaos_seed: None,
            chaos_prob: None,
            constraints_enabled: true,
            cbo_enabled: true,
            lint_level: "warn".to_string(),
            cache_budget_bytes: 0,
            cache_eviction_policy: "lru".to_string(),
            service_workers: 4,
            service_session_in_flight: 2,
            service_admission_budget: 0,
            service_admission_query_bytes: 8 << 20,
            service_max_queued: 64,
            service_query_timeout_ms: 0,
        }
    }

    /// Defaults with environment overrides applied through the registry,
    /// using `lookup` as the environment. Exists (separately from
    /// [`Default`], which uses the real environment) so precedence is
    /// testable without mutating process state.
    pub fn from_env_lookup(lookup: &dyn Fn(&str) -> Option<String>) -> Self {
        let mut conf = SqlConf::base();
        for e in entries() {
            let Some(var) = e.env else { continue };
            let Some(raw) = lookup(var) else { continue };
            // Legacy boolean env vars use a lenient grammar (anything
            // outside the off-list enables); normalize before the strict
            // registry parse. Other kinds ignore unparsable values, like
            // `ChaosConf::from_env` always has.
            let value = if e.kind == Kind::Bool {
                let off = matches!(
                    raw.trim().to_ascii_lowercase().as_str(),
                    "" | "0" | "false" | "off" | "no"
                );
                if off {
                    "false".to_string()
                } else {
                    "true".to_string()
                }
            } else {
                raw
            };
            let _ = (e.set)(&mut conf, value.trim());
        }
        conf
    }

    /// A configuration approximating Shark (§6.1 baseline): no expression
    /// compilation, no columnar cache, no source pushdown, row-at-a-time
    /// execution.
    pub fn shark_like() -> Self {
        SqlConf {
            codegen_enabled: false,
            columnar_cache_enabled: false,
            pushdown_enabled: false,
            column_pruning_enabled: false,
            vectorize_enabled: false,
            adaptive_enabled: false,
            ..Default::default()
        }
    }

    // ---- string-keyed registry ----

    /// Set `key` to `value`. Unknown keys and unparsable values error;
    /// the unknown-key message lists every valid key.
    pub fn set(&mut self, key: &str, value: &str) -> Result<()> {
        match entries().iter().find(|e| e.key.eq_ignore_ascii_case(key)) {
            Some(e) => (e.set)(self, value.trim()),
            None => Err(unknown_key(key)),
        }
    }

    /// Current value of `key`, rendered as a string.
    pub fn get(&self, key: &str) -> Result<String> {
        match entries().iter().find(|e| e.key.eq_ignore_ascii_case(key)) {
            Some(e) => Ok((e.get)(self)),
            None => Err(unknown_key(key)),
        }
    }

    /// Every `(key, value)` pair, sorted by key — what bare `SET` shows.
    pub fn entries(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = entries()
            .iter()
            .map(|e| (e.key.to_string(), (e.get)(self)))
            .collect();
        out.sort();
        out
    }

    /// All valid registry keys, sorted.
    pub fn valid_keys() -> Vec<&'static str> {
        let mut keys: Vec<&'static str> = entries().iter().map(|e| e.key).collect();
        keys.sort_unstable();
        keys
    }

    /// Directory spill files go to.
    pub fn spill_path(&self) -> std::path::PathBuf {
        if self.spill_dir.is_empty() {
            std::env::temp_dir().join("spark-sql-spill")
        } else {
            std::path::PathBuf::from(&self.spill_dir)
        }
    }
}

impl Default for SqlConf {
    /// Defaults with real environment variables applied (computed once
    /// per process, like the old per-variable `OnceLock`s).
    fn default() -> Self {
        static FROM_ENV: OnceLock<SqlConf> = OnceLock::new();
        FROM_ENV
            .get_or_init(|| SqlConf::from_env_lookup(&|var| std::env::var(var).ok()))
            .clone()
    }
}

fn unknown_key(key: &str) -> CatalystError {
    CatalystError::analysis(format!(
        "unknown config key '{key}'; valid keys: {}",
        SqlConf::valid_keys().join(", ")
    ))
}

// ---- registry table ----

#[derive(PartialEq, Eq, Clone, Copy)]
enum Kind {
    Bool,
    Bytes,
    Count,
    Float,
    Str,
}

struct ConfEntry {
    key: &'static str,
    /// Environment variable routed through this entry at startup.
    env: Option<&'static str>,
    kind: Kind,
    get: fn(&SqlConf) -> String,
    set: fn(&mut SqlConf, &str) -> Result<()>,
}

/// Strict boolean grammar for explicit sets.
fn parse_bool(key: &str, v: &str) -> Result<bool> {
    match v.to_ascii_lowercase().as_str() {
        "true" | "on" | "yes" | "1" => Ok(true),
        "false" | "off" | "no" | "0" => Ok(false),
        _ => Err(CatalystError::analysis(format!(
            "invalid boolean '{v}' for {key} (use true/false)"
        ))),
    }
}

/// Byte sizes: plain integers or `k`/`m`/`g` suffixes (powers of 1024).
fn parse_bytes(key: &str, v: &str) -> Result<u64> {
    let lower = v.to_ascii_lowercase();
    let (digits, mult) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let mult = match lower.as_bytes()[lower.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            };
            (d, mult)
        }
        None => (lower.as_str(), 1),
    };
    digits
        .trim()
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| {
            CatalystError::analysis(format!(
                "invalid byte size '{v}' for {key} (use e.g. 1048576, 64k, 16m, 1g)"
            ))
        })
}

fn parse_count(key: &str, v: &str) -> Result<usize> {
    v.parse::<usize>()
        .map_err(|_| CatalystError::analysis(format!("invalid count '{v}' for {key}")))
}

fn parse_float(key: &str, v: &str) -> Result<f64> {
    v.parse::<f64>()
        .map_err(|_| CatalystError::analysis(format!("invalid number '{v}' for {key}")))
}

macro_rules! bool_entry {
    ($key:literal, $env:expr, $field:ident) => {
        ConfEntry {
            key: $key,
            env: $env,
            kind: Kind::Bool,
            get: |c| c.$field.to_string(),
            set: |c, v| {
                c.$field = parse_bool($key, v)?;
                Ok(())
            },
        }
    };
}

fn entries() -> &'static [ConfEntry] {
    static ENTRIES: OnceLock<Vec<ConfEntry>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        vec![
            bool_entry!("spark.sql.codegen.enabled", None, codegen_enabled),
            bool_entry!(
                "spark.sql.cache.columnar.enabled",
                None,
                columnar_cache_enabled
            ),
            bool_entry!("spark.sql.pushdown.enabled", None, pushdown_enabled),
            bool_entry!(
                "spark.sql.columnPruning.enabled",
                None,
                column_pruning_enabled
            ),
            bool_entry!(
                "spark.sql.vectorize.enabled",
                Some("CATALYST_VECTORIZE"),
                vectorize_enabled
            ),
            bool_entry!(
                "spark.sql.adaptive.enabled",
                Some("CATALYST_ADAPTIVE"),
                adaptive_enabled
            ),
            bool_entry!(
                "spark.sql.constraints.enabled",
                Some("CATALYST_CONSTRAINTS"),
                constraints_enabled
            ),
            bool_entry!("spark.sql.cbo.enabled", Some("CATALYST_CBO"), cbo_enabled),
            ConfEntry {
                key: "spark.sql.lint.level",
                env: Some("SPARK_SQL_LINT_LEVEL"),
                kind: Kind::Str,
                get: |c| c.lint_level.clone(),
                set: |c, v| {
                    let lv = v.to_ascii_lowercase();
                    if !matches!(lv.as_str(), "off" | "info" | "warn" | "error") {
                        return Err(CatalystError::analysis(format!(
                            "invalid level '{v}' for spark.sql.lint.level \
                             (use off/info/warn/error)"
                        )));
                    }
                    c.lint_level = lv;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.autoBroadcastJoinThreshold",
                env: None,
                kind: Kind::Bytes,
                get: |c| c.broadcast_threshold.to_string(),
                set: |c, v| {
                    c.broadcast_threshold = parse_bytes("spark.sql.autoBroadcastJoinThreshold", v)?;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.shuffle.partitions",
                env: None,
                kind: Kind::Count,
                get: |c| c.shuffle_partitions.to_string(),
                set: |c, v| {
                    let n = parse_count("spark.sql.shuffle.partitions", v)?;
                    if n == 0 {
                        return Err(CatalystError::analysis(
                            "spark.sql.shuffle.partitions must be at least 1",
                        ));
                    }
                    c.shuffle_partitions = n;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.cache.batchSize",
                env: None,
                kind: Kind::Count,
                get: |c| c.cache_batch_size.to_string(),
                set: |c, v| {
                    c.cache_batch_size = parse_count("spark.sql.cache.batchSize", v)?;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.vectorize.batchSize",
                env: None,
                kind: Kind::Count,
                get: |c| c.vectorize_batch_size.to_string(),
                set: |c, v| {
                    c.vectorize_batch_size = parse_count("spark.sql.vectorize.batchSize", v)?;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.adaptive.targetPartitionBytes",
                env: None,
                kind: Kind::Bytes,
                get: |c| c.adaptive_target_partition_bytes.to_string(),
                set: |c, v| {
                    c.adaptive_target_partition_bytes =
                        parse_bytes("spark.sql.adaptive.targetPartitionBytes", v)?;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.adaptive.skewFactor",
                env: None,
                kind: Kind::Float,
                get: |c| c.adaptive_skew_factor.to_string(),
                set: |c, v| {
                    c.adaptive_skew_factor = parse_float("spark.sql.adaptive.skewFactor", v)?;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.memory.budgetBytes",
                env: Some("SPARK_SQL_MEMORY_BUDGET"),
                kind: Kind::Bytes,
                get: |c| c.memory_budget_bytes.to_string(),
                set: |c, v| {
                    c.memory_budget_bytes = parse_bytes("spark.sql.memory.budgetBytes", v)?;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.memory.spillDir",
                env: Some("SPARK_SQL_SPILL_DIR"),
                kind: Kind::Str,
                get: |c| c.spill_dir.clone(),
                set: |c, v| {
                    c.spill_dir = v.to_string();
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.planValidation.enabled",
                env: Some("CATALYST_VALIDATE"),
                kind: Kind::Bool,
                get: |c| {
                    c.plan_validation
                        .unwrap_or_else(catalyst::validation::enabled)
                        .to_string()
                },
                set: |c, v| {
                    c.plan_validation = Some(parse_bool("spark.sql.planValidation.enabled", v)?);
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.cache.budgetBytes",
                env: Some("SPARK_SQL_CACHE_BUDGET"),
                kind: Kind::Bytes,
                get: |c| c.cache_budget_bytes.to_string(),
                set: |c, v| {
                    c.cache_budget_bytes = parse_bytes("spark.sql.cache.budgetBytes", v)?;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.cache.evictionPolicy",
                env: Some("SPARK_SQL_CACHE_POLICY"),
                kind: Kind::Str,
                get: |c| c.cache_eviction_policy.clone(),
                set: |c, v| {
                    let lv = v.to_ascii_lowercase();
                    if !matches!(lv.as_str(), "lru" | "cost") {
                        return Err(CatalystError::analysis(format!(
                            "invalid policy '{v}' for spark.sql.cache.evictionPolicy \
                             (use lru/cost)"
                        )));
                    }
                    c.cache_eviction_policy = lv;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.service.workers",
                env: Some("SPARK_SQL_SERVICE_WORKERS"),
                kind: Kind::Count,
                get: |c| c.service_workers.to_string(),
                set: |c, v| {
                    let n = parse_count("spark.sql.service.workers", v)?;
                    if n == 0 {
                        return Err(CatalystError::analysis(
                            "spark.sql.service.workers must be at least 1",
                        ));
                    }
                    c.service_workers = n;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.service.sessionInFlight",
                env: Some("SPARK_SQL_SERVICE_SESSION_INFLIGHT"),
                kind: Kind::Count,
                get: |c| c.service_session_in_flight.to_string(),
                set: |c, v| {
                    let n = parse_count("spark.sql.service.sessionInFlight", v)?;
                    if n == 0 {
                        return Err(CatalystError::analysis(
                            "spark.sql.service.sessionInFlight must be at least 1",
                        ));
                    }
                    c.service_session_in_flight = n;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.service.admission.budgetBytes",
                env: Some("SPARK_SQL_SERVICE_ADMISSION_BUDGET"),
                kind: Kind::Bytes,
                get: |c| c.service_admission_budget.to_string(),
                set: |c, v| {
                    c.service_admission_budget =
                        parse_bytes("spark.sql.service.admission.budgetBytes", v)?;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.service.admission.queryBytes",
                env: None,
                kind: Kind::Bytes,
                get: |c| c.service_admission_query_bytes.to_string(),
                set: |c, v| {
                    let n = parse_bytes("spark.sql.service.admission.queryBytes", v)?;
                    if n == 0 {
                        return Err(CatalystError::analysis(
                            "spark.sql.service.admission.queryBytes must be at least 1",
                        ));
                    }
                    c.service_admission_query_bytes = n;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.service.maxQueued",
                env: None,
                kind: Kind::Count,
                get: |c| c.service_max_queued.to_string(),
                set: |c, v| {
                    c.service_max_queued = parse_count("spark.sql.service.maxQueued", v)?;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.service.queryTimeoutMs",
                env: None,
                kind: Kind::Count,
                get: |c| c.service_query_timeout_ms.to_string(),
                set: |c, v| {
                    c.service_query_timeout_ms =
                        parse_count("spark.sql.service.queryTimeoutMs", v)?;
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.chaos.seed",
                env: Some("ENGINE_CHAOS_SEED"),
                kind: Kind::Str,
                get: |c| c.chaos_seed.map(|s| s.to_string()).unwrap_or_default(),
                set: |c, v| {
                    if v.is_empty() {
                        c.chaos_seed = None;
                        return Ok(());
                    }
                    c.chaos_seed = Some(v.parse::<u64>().map_err(|_| {
                        CatalystError::analysis(format!(
                            "invalid seed '{v}' for spark.sql.chaos.seed (u64 or empty)"
                        ))
                    })?);
                    Ok(())
                },
            },
            ConfEntry {
                key: "spark.sql.chaos.prob",
                env: Some("ENGINE_CHAOS_PROB"),
                kind: Kind::Str,
                get: |c| c.chaos_prob.map(|p| p.to_string()).unwrap_or_default(),
                set: |c, v| {
                    if v.is_empty() {
                        c.chaos_prob = None;
                        return Ok(());
                    }
                    c.chaos_prob = Some(parse_float("spark.sql.chaos.prob", v)?);
                    Ok(())
                },
            },
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_set_get_roundtrip() {
        let mut c = SqlConf::base();
        c.set("spark.sql.vectorize.enabled", "false").unwrap();
        assert!(!c.vectorize_enabled);
        assert_eq!(c.get("spark.sql.vectorize.enabled").unwrap(), "false");
        c.set("spark.sql.memory.budgetBytes", "64k").unwrap();
        assert_eq!(c.memory_budget_bytes, 64 * 1024);
        c.set("spark.sql.autoBroadcastJoinThreshold", "16m")
            .unwrap();
        assert_eq!(c.broadcast_threshold, 16 << 20);
        c.set("spark.sql.shuffle.partitions", "3").unwrap();
        assert_eq!(c.shuffle_partitions, 3);
        c.set("spark.sql.adaptive.skewFactor", "2.5").unwrap();
        assert_eq!(c.adaptive_skew_factor, 2.5);
        // Keys are case-insensitive.
        c.set("SPARK.SQL.CODEGEN.ENABLED", "off").unwrap();
        assert!(!c.codegen_enabled);
    }

    #[test]
    fn unknown_key_lists_valid_keys() {
        let mut c = SqlConf::base();
        let err = c
            .set("spark.sql.vectorise.enabled", "true")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown config key"), "{err}");
        assert!(err.contains("spark.sql.vectorize.enabled"), "{err}");
        let err = c.get("nope").unwrap_err().to_string();
        assert!(err.contains("spark.sql.memory.budgetBytes"), "{err}");
    }

    #[test]
    fn invalid_values_error() {
        let mut c = SqlConf::base();
        assert!(c.set("spark.sql.vectorize.enabled", "maybe").is_err());
        assert!(c.set("spark.sql.memory.budgetBytes", "lots").is_err());
        assert!(c.set("spark.sql.shuffle.partitions", "0").is_err());
        assert!(c.set("spark.sql.chaos.seed", "x").is_err());
    }

    #[test]
    fn env_routes_through_registry_and_explicit_set_wins() {
        let env = |var: &str| match var {
            "CATALYST_VECTORIZE" => Some("0".to_string()),
            "CATALYST_ADAPTIVE" => Some("weird-but-truthy".to_string()),
            "SPARK_SQL_MEMORY_BUDGET" => Some("1m".to_string()),
            "ENGINE_CHAOS_SEED" => Some("42".to_string()),
            "CATALYST_VALIDATE" => Some("1".to_string()),
            _ => None,
        };
        let mut c = SqlConf::from_env_lookup(&env);
        // Env beat the defaults (lenient legacy bool grammar).
        assert!(!c.vectorize_enabled);
        assert!(c.adaptive_enabled);
        assert_eq!(c.memory_budget_bytes, 1 << 20);
        assert_eq!(c.chaos_seed, Some(42));
        assert_eq!(c.plan_validation, Some(true));
        // Explicit set beats env.
        c.set("spark.sql.vectorize.enabled", "true").unwrap();
        assert!(c.vectorize_enabled);
        c.set("spark.sql.memory.budgetBytes", "0").unwrap();
        assert_eq!(c.memory_budget_bytes, 0);
        // Unparsable env values for non-bool kinds are ignored.
        let c = SqlConf::from_env_lookup(&|v| {
            (v == "SPARK_SQL_MEMORY_BUDGET").then(|| "garbage".to_string())
        });
        assert_eq!(c.memory_budget_bytes, 0);
    }

    #[test]
    fn service_and_cache_keys_roundtrip() {
        let mut c = SqlConf::base();
        c.set("spark.sql.cache.budgetBytes", "4m").unwrap();
        assert_eq!(c.cache_budget_bytes, 4 << 20);
        c.set("spark.sql.cache.evictionPolicy", "cost").unwrap();
        assert_eq!(c.cache_eviction_policy, "cost");
        assert!(c.set("spark.sql.cache.evictionPolicy", "fifo").is_err());
        c.set("spark.sql.service.workers", "8").unwrap();
        assert_eq!(c.service_workers, 8);
        assert!(c.set("spark.sql.service.workers", "0").is_err());
        assert!(c.set("spark.sql.service.sessionInFlight", "0").is_err());
        c.set("spark.sql.service.admission.budgetBytes", "64m")
            .unwrap();
        assert_eq!(c.service_admission_budget, 64 << 20);
        c.set("spark.sql.service.admission.queryBytes", "1m")
            .unwrap();
        assert_eq!(c.service_admission_query_bytes, 1 << 20);
        assert!(c
            .set("spark.sql.service.admission.queryBytes", "0")
            .is_err());
        c.set("spark.sql.service.queryTimeoutMs", "250").unwrap();
        assert_eq!(c.service_query_timeout_ms, 250);
        c.set("spark.sql.service.maxQueued", "5").unwrap();
        assert_eq!(c.service_max_queued, 5);
    }

    #[test]
    fn entries_cover_every_key_and_sort() {
        let c = SqlConf::base();
        let entries = c.entries();
        assert_eq!(entries.len(), SqlConf::valid_keys().len());
        let mut sorted = entries.clone();
        sorted.sort();
        assert_eq!(entries, sorted);
        assert!(entries
            .iter()
            .any(|(k, v)| k == "spark.sql.memory.budgetBytes" && v == "0"));
    }

    #[test]
    fn the_spill_escape_hatch_is_gone() {
        // Budget 0 is the one way to say "unbounded".
        let mut c = SqlConf::base();
        let err = c
            .set("spark.sql.memory.spillEnabled", "false")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown config key"), "{err}");
        assert!(err.contains("spark.sql.memory.budgetBytes"), "{err}");
    }
}
