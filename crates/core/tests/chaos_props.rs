//! Chaos differential tests: randomly generated SQL plans (joins,
//! aggregates, cached tables) executed under deterministic seeded fault
//! injection must produce results byte-identical to a fault-free run of
//! the same plan in the other configuration — production against the
//! reference.
//!
//! Each iteration builds one query, runs it on a clean context with
//! chaos disabled (the baseline), then re-runs it in the other
//! configuration on a fresh context with a seeded [`engine::ChaosPlan`]
//! injecting task panics, shuffle fetch failures, and executor deaths —
//! plus, for cached-table plans, an explicit executor loss between cache
//! warmup and the main query. Sorted result multisets must match exactly.
//!
//! Meaningfulness floors at the end prove the sweep exercised every
//! fault kind (panic, fetch failure, executor death) and every recovery
//! path (in-place task retry, map-stage resubmission, cached-partition
//! recomputation) instead of vacuously comparing fault-free runs.

use engine::metrics::MetricsSnapshot;
use engine::{ChaosConf, ChaosPlan};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spark_sql::prelude::*;
use std::sync::Arc;

const ITERS: u64 = 100;

fn fact_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, true),
        StructField::new("v", DataType::Long, true),
    ]))
}

fn dim_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("dk", DataType::Long, true),
        StructField::new("w", DataType::String, true),
    ]))
}

const STR_POOL: &[&str] = &["eng", "sales", "hr", "", "ops"];

fn arb_fact_rows(rng: &mut StdRng) -> Vec<Row> {
    let n = rng.random_range(0usize..400);
    (0..n)
        .map(|i| {
            let k = if rng.random_bool(0.1) {
                Value::Null
            } else {
                Value::Long(rng.random_range(0i64..16))
            };
            Row::new(vec![k, Value::Long(i as i64)])
        })
        .collect()
}

fn arb_dim_rows(rng: &mut StdRng) -> Vec<Row> {
    let m = rng.random_range(1usize..40);
    (0..m)
        .map(|_| {
            let dk = if rng.random_bool(0.1) {
                Value::Null
            } else {
                Value::Long(rng.random_range(0i64..16))
            };
            Row::new(vec![
                dk,
                Value::str(STR_POOL[rng.random_range(0..STR_POOL.len())]),
            ])
        })
        .collect()
}

struct GenQuery {
    fact_rows: Vec<Row>,
    dim_rows: Vec<Row>,
    join_type: JoinType,
    aggregate: bool,
    /// Run the chaotic side in the reference; the baseline then runs in
    /// production.
    reference: bool,
    /// Route the dim through `CACHE TABLE` (blocks in the engine cache).
    cache_dim: bool,
    /// With `cache_dim`: lose this executor slot between cache warmup
    /// and the main query, dropping some of the cached blocks.
    kill_slot: Option<usize>,
    broadcast_threshold: u64,
}

fn arb_query(rng: &mut StdRng) -> GenQuery {
    let join_type = match rng.random_range(0u32..10) {
        0..=4 => JoinType::Inner,
        5 | 6 => JoinType::Left,
        7 | 8 => JoinType::Right,
        _ => JoinType::Full,
    };
    let cache_dim = rng.random_bool(0.5);
    GenQuery {
        fact_rows: arb_fact_rows(rng),
        dim_rows: arb_dim_rows(rng),
        join_type,
        aggregate: rng.random_bool(0.4),
        reference: rng.random_bool(0.5),
        cache_dim,
        kill_slot: (cache_dim && rng.random_bool(0.6)).then(|| rng.random_range(0usize..2)),
        broadcast_threshold: if rng.random_bool(0.5) {
            64
        } else {
            10 * 1024 * 1024
        },
    }
}

struct Outcome {
    rows: Vec<String>,
    /// Final engine counters for the run's (fresh) context.
    metrics: MetricsSnapshot,
    /// Did the instrumented main query log nonzero recovery activity?
    recovery_logged: bool,
}

/// Execute `q` on a fresh context, in production or in the reference.
/// `chaos: None` pins chaos off (the baseline stays fault-free even under
/// `ENGINE_CHAOS_SEED`); `Some` installs the seeded plan before anything
/// runs.
fn run(q: &GenQuery, reference: bool, chaos: Option<Arc<ChaosPlan>>) -> Outcome {
    let with_chaos = chaos.is_some();
    let ctx = SQLContext::new_local(2);
    let sc = ctx.spark_context().clone();
    sc.set_chaos(chaos);
    ctx.set_conf(|c| {
        c.reference = reference;
        c.broadcast_threshold = q.broadcast_threshold;
    });
    // Fact over a bare RDD: unknown statistics force shuffled joins, so
    // the fault schedule has map stages to hit.
    let fact_rdd = sc.parallelize(q.fact_rows.clone(), 4);
    let fact = ctx
        .dataframe_from_rdd("fact", fact_schema(), fact_rdd)
        .expect("fact");
    let dim_rdd = sc.parallelize(q.dim_rows.clone(), 2);
    let dim = ctx
        .dataframe_from_rdd("dim", dim_schema(), dim_rdd)
        .expect("dim");
    let dim = if q.cache_dim {
        dim.register_temp_table("dim");
        ctx.cache_table("dim").expect("cache dim");
        // Warm the cache, then (chaos runs only) lose an executor slot:
        // its cached blocks drop and the main query must recompute them.
        ctx.table("dim").expect("dim").collect().expect("warmup");
        if with_chaos {
            if let Some(slot) = q.kill_slot {
                sc.lose_executor(slot);
            }
        }
        ctx.table("dim").expect("dim")
    } else {
        dim
    };
    let mut df = fact
        .join(&dim, q.join_type, Some(col("k").eq(col("dk"))))
        .expect("join");
    if q.aggregate {
        df = df
            .group_by(vec![col("k").rem(lit(4i64)).alias("g")])
            .agg(vec![count_star().alias("n"), sum(col("v")).alias("s")])
            .expect("aggregate");
    }
    let qe = df.query_execution().expect("query_execution");
    let mut rows: Vec<String> = qe
        .collect()
        .expect("collect")
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    let recovery_logged = ctx
        .query_log()
        .last()
        .map(|e| e.recovery.any())
        .unwrap_or(false);
    Outcome {
        rows,
        metrics: sc.metrics().snapshot(),
        recovery_logged,
    }
}

#[test]
fn chaotic_runs_match_fault_free_results() {
    let mut nonempty = 0u32;
    let mut faulted_runs = 0u32;
    let mut task_panics = 0u64;
    let mut executor_deaths = 0u64;
    let mut fetch_failures = 0u64;
    let mut task_retries = 0u64;
    let mut stage_resubmissions = 0u64;
    let mut map_tasks_recomputed = 0u64;
    let mut cache_recomputes = 0u64;
    let mut recovery_logged_runs = 0u32;

    for seed in 0..ITERS {
        let mut rng = StdRng::seed_from_u64(0xC4A0 ^ seed.wrapping_mul(0x9E37_79B9));
        let q = arb_query(&mut rng);
        let baseline = run(&q, !q.reference, None);
        assert_eq!(
            baseline.metrics.task_failures + baseline.metrics.fetch_failures,
            0,
            "seed {seed}: baseline must be fault-free"
        );

        let plan = Arc::new(ChaosPlan::new(ChaosConf {
            task_fault_prob: 0.08,
            fetch_fault_prob: 0.08,
            max_task_panics: 2,
            max_executor_deaths: 1,
            max_fetch_failures: 2,
            ..ChaosConf::seeded(0xFA17 ^ seed.wrapping_mul(0x85EB_CA6B))
        }));
        let chaotic = run(&q, q.reference, Some(plan.clone()));
        assert_eq!(
            chaotic.rows, baseline.rows,
            "seed {seed}: chaos run diverged (join={:?}, agg={}, reference={}, cache_dim={}, \
             kill={:?})",
            q.join_type, q.aggregate, q.reference, q.cache_dim, q.kill_slot
        );

        // Injected faults are retried; nothing ever panics for real.
        let panics = baseline.metrics.task_panics + chaotic.metrics.task_panics;
        assert_eq!(panics, 0, "seed {seed}: a task panicked");
        let stats = plan.stats();
        task_panics += stats.task_panics;
        executor_deaths += stats.executor_deaths;
        fetch_failures += stats.fetch_failures;
        task_retries += chaotic.metrics.task_failures;
        stage_resubmissions += chaotic.metrics.stage_resubmissions;
        map_tasks_recomputed += chaotic.metrics.map_tasks_recomputed;
        cache_recomputes += chaotic.metrics.cache_recomputes;
        if stats.task_panics + stats.executor_deaths + stats.fetch_failures > 0
            || q.kill_slot.is_some()
        {
            faulted_runs += 1;
        }
        if chaotic.recovery_logged {
            recovery_logged_runs += 1;
        }
        if !baseline.rows.is_empty() {
            nonempty += 1;
        }
    }

    eprintln!(
        "chaos sweep: panics={task_panics} deaths={executor_deaths} fetches={fetch_failures} \
         retries={task_retries} resubmissions={stage_resubmissions} \
         map_recomputed={map_tasks_recomputed} cache_recomputes={cache_recomputes} \
         recovery_logged={recovery_logged_runs} faulted={faulted_runs}/{ITERS}"
    );
    // Meaningfulness floors: the sweep must actually inject every fault
    // kind and drive every recovery path, not compare quiet runs.
    assert!(
        nonempty > ITERS as u32 / 2,
        "only {nonempty} non-empty results"
    );
    assert!(
        faulted_runs > ITERS as u32 / 2,
        "only {faulted_runs} runs saw any fault"
    );
    assert!(task_panics >= 5, "only {task_panics} task panics injected");
    assert!(
        executor_deaths >= 5,
        "only {executor_deaths} executor deaths injected"
    );
    assert!(
        fetch_failures >= 5,
        "only {fetch_failures} fetch failures injected"
    );
    assert!(
        task_retries >= 5,
        "in-place task retry path fired only {task_retries} times"
    );
    assert!(
        stage_resubmissions >= 5,
        "map-stage resubmission path fired only {stage_resubmissions} times"
    );
    assert!(
        map_tasks_recomputed >= 5,
        "only {map_tasks_recomputed} map tasks recomputed from lineage"
    );
    assert!(
        cache_recomputes >= 5,
        "cached-partition recovery fired only {cache_recomputes} times"
    );
    assert!(
        recovery_logged_runs >= 5,
        "query log captured recovery in only {recovery_logged_runs} runs"
    );
}
