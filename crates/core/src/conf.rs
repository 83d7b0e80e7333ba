//! Session configuration: the typed knobs of a [`crate::SQLContext`] plus
//! the string-keyed runtime-config registry over them.
//!
//! Every tunable has one source of truth — its field on [`SqlConf`] — and
//! three ways to reach it, in precedence order:
//!
//! 1. explicit sets (`ctx.set("spark.sql.shuffle.partitions", "4")`,
//!    `SET spark.sql.shuffle.partitions=4`, or a `set_conf` closure),
//! 2. environment variables, applied once through the same registry when
//!    the first default configuration is built (names like
//!    `SPARK_SQL_MEMORY_BUDGET` are routed here instead of being checked
//!    ad hoc at their point of use),
//! 3. built-in defaults.
//!
//! Unknown keys fail with an error that lists every valid key; values are
//! parsed per key kind (booleans, byte sizes with `k`/`m`/`g` suffixes,
//! counts, floats, strings). The reference engine
//! ([`SqlConf::reference()`]) has no key and no environment variable.

use catalyst::error::{CatalystError, Result};
use std::sync::OnceLock;

/// Tunable knobs of a [`crate::SQLContext`].
#[derive(Debug, Clone)]
pub struct SqlConf {
    /// Run the reference engine instead of production: row-at-a-time
    /// execution with the tree-walking interpreter and no batch kernels
    /// (§4.3.4's interpreted baseline), static plans (no adaptive
    /// re-planning), and only the standard optimizer batches (no
    /// constraint or cost-based phase; shuffled joins build the right
    /// side). Slow and obviously correct: the oracle every differential
    /// suite compares production against, and the Shark baseline of
    /// Figure 8. Set through [`SqlConf::reference()`] or
    /// [`SqlConf::shark_like`]; it has no registry key or env var.
    pub reference: bool,
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
    /// Rows per execution batch on the vectorized path.
    pub vectorize_batch_size: usize,
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
            reference: false,
            columnar_cache_enabled: true,
            pushdown_enabled: true,
            column_pruning_enabled: true,
            broadcast_threshold: 10 * 1024 * 1024,
            shuffle_partitions: 8,
            cache_batch_size: columnar::DEFAULT_BATCH_SIZE,
            vectorize_batch_size: columnar::DEFAULT_BATCH_SIZE,
            adaptive_target_partition_bytes: 1 << 20,
            adaptive_skew_factor: 4.0,
            memory_budget_bytes: 0,
            spill_dir: String::new(),
            plan_validation: None,
            chaos_seed: None,
            chaos_prob: None,
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
            // Unparsable values are ignored, like `ChaosConf::from_env`
            // always has. (`CATALYST_VALIDATE` outside the strict boolean
            // grammar leaves the override unset, and
            // `catalyst::validation::enabled` reads it leniently.)
            let _ = (e.set)(&mut conf, raw.trim());
        }
        conf
    }

    /// The reference configuration: defaults, environment applied, with
    /// the `reference` engine in place of production.
    pub fn reference() -> Self {
        SqlConf {
            reference: true,
            ..Default::default()
        }
    }

    /// A configuration approximating Shark (§6.1 baseline): the reference
    /// engine — interpreted, row at a time, no constraint or cost-based
    /// phase, both of which Shark lacked — plus no columnar cache and no
    /// source pushdown or pruning.
    pub fn shark_like() -> Self {
        SqlConf {
            columnar_cache_enabled: false,
            pushdown_enabled: false,
            column_pruning_enabled: false,
            ..SqlConf::reference()
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

struct ConfEntry {
    key: &'static str,
    /// Environment variable routed through this entry at startup.
    env: Option<&'static str>,
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

fn parse_str(_key: &str, v: &str) -> Result<String> {
    Ok(v.to_string())
}

/// A count or byte size that must be at least 1.
fn at_least_one<T: PartialEq + From<u8>>(key: &str, n: T) -> Result<T> {
    if n == T::from(0) {
        return Err(CatalystError::analysis(format!("{key} must be at least 1")));
    }
    Ok(n)
}

/// One of `choices`, case-insensitively, stored lowercase.
fn parse_choice(key: &str, v: &str, choices: &[&str]) -> Result<String> {
    let lv = v.to_ascii_lowercase();
    if !choices.contains(&lv.as_str()) {
        return Err(CatalystError::analysis(format!(
            "invalid value '{v}' for {key} (use {})",
            choices.join("/")
        )));
    }
    Ok(lv)
}

/// An entry whose field is set by `$parse(key, value)` and read back
/// through `Display`.
macro_rules! entry {
    ($key:literal, $env:expr, $parse:expr, $field:ident) => {
        ConfEntry {
            key: $key,
            env: $env,
            get: |c| c.$field.to_string(),
            set: |c, v| {
                c.$field = $parse($key, v)?;
                Ok(())
            },
        }
    };
}

fn entries() -> &'static [ConfEntry] {
    static ENTRIES: OnceLock<Vec<ConfEntry>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        vec![
            entry!(
                "spark.sql.cache.columnar.enabled",
                None,
                parse_bool,
                columnar_cache_enabled
            ),
            entry!(
                "spark.sql.pushdown.enabled",
                None,
                parse_bool,
                pushdown_enabled
            ),
            entry!(
                "spark.sql.columnPruning.enabled",
                None,
                parse_bool,
                column_pruning_enabled
            ),
            entry!(
                "spark.sql.lint.level",
                Some("SPARK_SQL_LINT_LEVEL"),
                |k, v| parse_choice(k, v, &["off", "info", "warn", "error"]),
                lint_level
            ),
            entry!(
                "spark.sql.autoBroadcastJoinThreshold",
                None,
                parse_bytes,
                broadcast_threshold
            ),
            entry!(
                "spark.sql.shuffle.partitions",
                None,
                |k, v| at_least_one(k, parse_count(k, v)?),
                shuffle_partitions
            ),
            entry!(
                "spark.sql.cache.batchSize",
                None,
                parse_count,
                cache_batch_size
            ),
            entry!(
                "spark.sql.vectorize.batchSize",
                None,
                parse_count,
                vectorize_batch_size
            ),
            entry!(
                "spark.sql.adaptive.targetPartitionBytes",
                None,
                parse_bytes,
                adaptive_target_partition_bytes
            ),
            entry!(
                "spark.sql.adaptive.skewFactor",
                None,
                parse_float,
                adaptive_skew_factor
            ),
            entry!(
                "spark.sql.memory.budgetBytes",
                Some("SPARK_SQL_MEMORY_BUDGET"),
                parse_bytes,
                memory_budget_bytes
            ),
            entry!(
                "spark.sql.memory.spillDir",
                Some("SPARK_SQL_SPILL_DIR"),
                parse_str,
                spill_dir
            ),
            ConfEntry {
                key: "spark.sql.planValidation.enabled",
                env: Some("CATALYST_VALIDATE"),
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
            entry!(
                "spark.sql.cache.budgetBytes",
                Some("SPARK_SQL_CACHE_BUDGET"),
                parse_bytes,
                cache_budget_bytes
            ),
            entry!(
                "spark.sql.cache.evictionPolicy",
                Some("SPARK_SQL_CACHE_POLICY"),
                |k, v| parse_choice(k, v, &["lru", "cost"]),
                cache_eviction_policy
            ),
            entry!(
                "spark.sql.service.workers",
                Some("SPARK_SQL_SERVICE_WORKERS"),
                |k, v| at_least_one(k, parse_count(k, v)?),
                service_workers
            ),
            entry!(
                "spark.sql.service.sessionInFlight",
                Some("SPARK_SQL_SERVICE_SESSION_INFLIGHT"),
                |k, v| at_least_one(k, parse_count(k, v)?),
                service_session_in_flight
            ),
            entry!(
                "spark.sql.service.admission.budgetBytes",
                Some("SPARK_SQL_SERVICE_ADMISSION_BUDGET"),
                parse_bytes,
                service_admission_budget
            ),
            entry!(
                "spark.sql.service.admission.queryBytes",
                None,
                |k, v| at_least_one(k, parse_bytes(k, v)?),
                service_admission_query_bytes
            ),
            entry!(
                "spark.sql.service.maxQueued",
                None,
                parse_count,
                service_max_queued
            ),
            entry!(
                "spark.sql.service.queryTimeoutMs",
                None,
                parse_count,
                service_query_timeout_ms
            ),
            ConfEntry {
                key: "spark.sql.chaos.seed",
                env: Some("ENGINE_CHAOS_SEED"),
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
        c.set("spark.sql.pushdown.enabled", "false").unwrap();
        assert!(!c.pushdown_enabled);
        assert_eq!(c.get("spark.sql.pushdown.enabled").unwrap(), "false");
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
        c.set("SPARK.SQL.COLUMNPRUNING.ENABLED", "off").unwrap();
        assert!(!c.column_pruning_enabled);
    }

    #[test]
    fn unknown_key_lists_valid_keys() {
        let mut c = SqlConf::base();
        let err = c
            .set("spark.sql.pushdwn.enabled", "true")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown config key"), "{err}");
        assert!(err.contains("spark.sql.pushdown.enabled"), "{err}");
        let err = c.get("nope").unwrap_err().to_string();
        assert!(err.contains("spark.sql.memory.budgetBytes"), "{err}");
    }

    #[test]
    fn invalid_values_error() {
        let mut c = SqlConf::base();
        assert!(c.set("spark.sql.pushdown.enabled", "maybe").is_err());
        assert!(c.set("spark.sql.memory.budgetBytes", "lots").is_err());
        assert!(c.set("spark.sql.shuffle.partitions", "0").is_err());
        assert!(c.set("spark.sql.chaos.seed", "x").is_err());
    }

    #[test]
    fn env_routes_through_registry_and_explicit_set_wins() {
        let env = |var: &str| match var {
            "SPARK_SQL_MEMORY_BUDGET" => Some("1m".to_string()),
            "ENGINE_CHAOS_SEED" => Some("42".to_string()),
            "CATALYST_VALIDATE" => Some("1".to_string()),
            _ => None,
        };
        let mut c = SqlConf::from_env_lookup(&env);
        // Env beat the defaults.
        assert_eq!(c.memory_budget_bytes, 1 << 20);
        assert_eq!(c.chaos_seed, Some(42));
        assert_eq!(c.plan_validation, Some(true));
        // Explicit set beats env.
        c.set("spark.sql.planValidation.enabled", "false").unwrap();
        assert_eq!(c.plan_validation, Some(false));
        c.set("spark.sql.memory.budgetBytes", "0").unwrap();
        assert_eq!(c.memory_budget_bytes, 0);
        // Unparsable env values are ignored; a `CATALYST_VALIDATE` outside
        // the strict grammar leaves the override to `validation::enabled`.
        let c = SqlConf::from_env_lookup(&|v| match v {
            "SPARK_SQL_MEMORY_BUDGET" => Some("garbage".to_string()),
            "CATALYST_VALIDATE" => Some("weird-but-truthy".to_string()),
            _ => None,
        });
        assert_eq!(c.memory_budget_bytes, 0);
        assert_eq!(c.plan_validation, None);
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

    #[test]
    fn the_engine_switches_are_gone() {
        // One production configuration and one reference, which no key
        // and no env var reaches.
        assert_eq!(SqlConf::valid_keys().len(), 23);
        let routed = entries().iter().filter(|e| e.env.is_some()).count();
        assert_eq!(routed, 11);
        let mut c = SqlConf::base();
        for key in [
            "spark.sql.codegen.enabled",
            "spark.sql.vectorize.enabled",
            "spark.sql.adaptive.enabled",
            "spark.sql.constraints.enabled",
            "spark.sql.cbo.enabled",
        ] {
            let err = c.set(key, "false").unwrap_err().to_string();
            assert!(err.contains("unknown config key"), "{key}: {err}");
            assert!(c.get(key).is_err(), "{key}");
        }
        let c = SqlConf::from_env_lookup(&|var| {
            matches!(
                var,
                "CATALYST_VECTORIZE"
                    | "CATALYST_ADAPTIVE"
                    | "CATALYST_CONSTRAINTS"
                    | "CATALYST_CBO"
            )
            .then(|| "0".to_string())
        });
        assert!(!c.reference);
        assert!(SqlConf::reference().reference);
        assert!(SqlConf::shark_like().reference);
    }
}
