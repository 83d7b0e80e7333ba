//! DAG scheduler structure tests: stage construction, topological
//! ordering of shuffle dependencies, stage skipping, fault recovery,
//! and metrics.
//!
//! Tests asserting exact task/stage counters call `sc.set_chaos(None)`
//! so they stay deterministic when the suite runs under
//! `ENGINE_CHAOS_SEED` (the chaos CI job).

use engine::metrics::Metrics;
use engine::scheduler::{collect_shuffle_dependencies, materialize_shuffle};
use engine::{
    ChaosConf, ChaosPlan, EngineError, HashPartitioner, PairRdd, ShuffleDependency, SparkContext,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn narrow_only_jobs_have_no_shuffle_stages() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    let rdd = sc
        .parallelize((0..100i64).collect(), 4)
        .map(|x| x + 1)
        .filter(|x| x % 2 == 0);
    let deps = collect_shuffle_dependencies(rdd.as_inner());
    assert!(deps.is_empty());
    rdd.count();
    // One job, one (result) stage.
    assert_eq!(Metrics::get(&sc.metrics().jobs_run), 1);
    assert_eq!(Metrics::get(&sc.metrics().stages_run), 1);
}

#[test]
fn chained_shuffles_order_parents_first() {
    let sc = SparkContext::new(2);
    // Two chained shuffles: reduce_by_key then a re-key + reduce again.
    let stage1 = sc
        .parallelize((0..100i64).map(|i| (i % 10, i)).collect(), 4)
        .reduce_by_key(|a, b| a + b, 4);
    let stage2 = stage1
        .map(|(k, v)| (k % 2, v))
        .reduce_by_key(|a, b| a + b, 2);
    let deps = collect_shuffle_dependencies(stage2.as_inner());
    assert_eq!(deps.len(), 2);
    // Parent (first shuffle) must come before the dependent one, and the
    // parent's map-side RDD must not itself depend on the later shuffle.
    assert!(deps[0].shuffle_id() < deps[1].shuffle_id());
    let parent_deps = collect_shuffle_dependencies(deps[0].parent());
    assert!(parent_deps.is_empty());
    let child_deps = collect_shuffle_dependencies(deps[1].parent());
    assert_eq!(child_deps.len(), 1);
}

#[test]
fn diamond_lineage_runs_each_shuffle_once() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    let base = sc
        .parallelize((0..100i64).map(|i| (i % 5, i)).collect(), 4)
        .reduce_by_key(|a, b| a + b, 4);
    // Diamond: two branches from the same shuffled RDD, joined by union.
    let a = base.map(|(k, v)| (k, v + 1));
    let b = base.map(|(k, v)| (k, v - 1));
    let merged = a.union(&b);
    let deps = collect_shuffle_dependencies(merged.as_inner());
    assert_eq!(
        deps.len(),
        1,
        "shared shuffle dependency must be deduplicated"
    );
    assert_eq!(merged.count(), 10);
    // Map stage ran exactly once: 4 map tasks (+ 2×4 narrow result reads).
    assert_eq!(Metrics::get(&sc.metrics().stages_run), 2);
}

#[test]
fn stage_skipping_across_jobs_counts_stages() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    let rdd = sc
        .parallelize((0..100i64).map(|i| (i % 4, i)).collect(), 4)
        .reduce_by_key(|a, b| a + b, 2);
    rdd.count(); // job 1: map stage + result stage
    let after_first = Metrics::get(&sc.metrics().stages_run);
    assert_eq!(after_first, 2);
    rdd.count(); // job 2: result stage only (map output reused)
    assert_eq!(Metrics::get(&sc.metrics().stages_run), 3);
    // Drop the map output through the lineage, forcing the map stage to
    // rerun.
    drop_all_output(&rdd);
    rdd.count();
    assert_eq!(Metrics::get(&sc.metrics().stages_run), 5);
}

/// Remove every map output of every shuffle in `rdd`'s lineage.
fn drop_all_output<T: engine::Data>(rdd: &engine::RddRef<T>) {
    for sd in collect_shuffle_dependencies(rdd.as_inner()) {
        for map_id in 0..sd.parent().num_partitions() {
            sd.remove_output(map_id);
        }
    }
}

#[test]
fn task_counts_include_retries() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    sc.set_failure_injector(Some(std::sync::Arc::new(|site| {
        site.attempt == 0 && site.partition == 0
    })));
    let rdd = sc.parallelize((0..10i64).collect(), 2);
    assert_eq!(rdd.count(), 10);
    sc.set_failure_injector(None);
    // 2 partitions + 1 retry.
    assert_eq!(Metrics::get(&sc.metrics().tasks_launched), 3);
    assert_eq!(Metrics::get(&sc.metrics().task_failures), 1);
}

#[test]
fn shuffle_metrics_reflect_combining() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    // 1000 records, 10 keys, 4 map partitions: map-side combine should
    // write at most 10 combiners per map task (40), not 1000 records.
    let rdd = sc
        .parallelize((0..1000i64).map(|i| (i % 10, 1i64)).collect(), 4)
        .reduce_by_key(|a, b| a + b, 2);
    let out = rdd.collect();
    assert_eq!(out.len(), 10);
    let written = Metrics::get(&sc.metrics().shuffle_records_written);
    assert!(
        written <= 40,
        "map-side combine failed: {written} records written"
    );
    assert_eq!(Metrics::get(&sc.metrics().shuffle_records_read), written);
}

#[test]
fn fetch_failure_resubmits_map_stage_and_recovers() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    let rdd = sc
        .parallelize((0..100i64).map(|i| (i % 10, i)).collect(), 4)
        .reduce_by_key(|a, b| a + b, 2);
    let baseline = {
        let mut v = rdd.collect();
        v.sort();
        v
    };
    // Fresh fault-free state, then exactly one injected fetch failure.
    drop_all_output(&rdd);
    sc.metrics().reset();
    sc.set_chaos(Some(Arc::new(ChaosPlan::new(ChaosConf {
        task_fault_prob: 0.0,
        fetch_fault_prob: 1.0,
        max_fetch_failures: 1,
        ..ChaosConf::seeded(11)
    }))));
    let mut got = rdd.collect();
    got.sort();
    assert_eq!(
        got, baseline,
        "recovered run must match the fault-free result"
    );
    let m = sc.metrics().snapshot();
    assert!(
        m.fetch_failures >= 1,
        "the injected fetch failure must be observed"
    );
    assert!(
        m.stage_resubmissions >= 1,
        "the map stage must be resubmitted"
    );
    assert!(
        m.map_tasks_recomputed >= 1,
        "the lost map output must be recomputed"
    );
    // A fetch failure is not a task failure: no in-place retry happened.
    assert_eq!(m.task_failures, 0);
}

#[test]
fn stage_retry_exhaustion_names_stage_and_attempts() {
    let sc = SparkContext::new(2);
    // Every fetch of this shuffle fails, forever: recovery must give up
    // after max_stage_retries resubmissions with a descriptive error.
    sc.set_chaos(Some(Arc::new(ChaosPlan::new(ChaosConf {
        task_fault_prob: 0.0,
        fetch_fault_prob: 1.0,
        max_fetch_failures: u64::MAX,
        repeat_fetch_faults: true,
        ..ChaosConf::seeded(5)
    }))));
    let rdd = sc
        .parallelize((0..40i64).map(|i| (i % 4, i)).collect(), 2)
        .reduce_by_key(|a, b| a + b, 2);
    let err = rdd
        .try_collect()
        .expect_err("unrecoverable fetch failures must fail the job");
    let max = sc.conf().max_stage_retries;
    match &err {
        EngineError::StageRetriesExhausted { attempts, .. } => assert_eq!(*attempts, max),
        other => panic!("expected StageRetriesExhausted, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("aborted"),
        "error must name the aborted stage: {msg}"
    );
    assert!(
        msg.contains(&format!("{max} map-stage resubmissions")),
        "error must state the resubmission count: {msg}"
    );
    assert_eq!(Metrics::get(&sc.metrics().stage_resubmissions), max as u64);
}

#[test]
fn executor_death_mid_materialize_is_retried_not_deadlocked() {
    let sc = SparkContext::new(2);
    // Kill an executor on the first faulted task of the map stage; the
    // materialization must re-check completeness, rerun the dropped
    // buckets, and finish (no task panics, exactly one death allowed).
    sc.set_chaos(Some(Arc::new(ChaosPlan::new(ChaosConf {
        task_fault_prob: 1.0,
        fetch_fault_prob: 0.0,
        max_task_panics: 0,
        max_executor_deaths: 1,
        ..ChaosConf::seeded(7)
    }))));
    let parent = sc.parallelize((0..200i64).map(|i| (i % 8, 1i64)).collect(), 4);
    let mat = ShuffleDependency::<i64, i64, i64>::new(
        parent.as_inner(),
        Arc::new(HashPartitioner::new(4)),
        None,
        false,
        None,
    );
    materialize_shuffle(&sc, mat.clone()).expect("materialization must survive executor death");
    let mut got = mat.read_all().collect();
    got.sort();
    let mut want: Vec<(i64, i64)> = (0..200i64).map(|i| (i % 8, 1i64)).collect();
    want.sort();
    assert_eq!(got, want);
    assert_eq!(Metrics::get(&sc.metrics().executors_lost), 1);
    // Sizes stay consistent after recovery: every map reported again.
    assert_eq!(mat.map_output_sizes().len(), 4);
}

#[test]
fn lost_executor_shuffle_and_cache_recompute_from_lineage() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    let cached = sc
        .parallelize((0..60i64).collect(), 4)
        .map(|x| x * 3)
        .cache();
    let summed = cached.map(|x| (x % 5, x)).reduce_by_key(|a, b| a + b, 2);
    let baseline = {
        let mut v = summed.collect();
        v.sort();
        v
    };
    assert!(sc.cache_manager().len() >= 4);
    // Kill both executors, plus the driver-owner slot (the driver can run
    // stolen tasks, so some blocks may be registered to it): every
    // shuffle bucket and cache block vanishes.
    sc.lose_executor(0);
    sc.lose_executor(1);
    sc.lose_executor(usize::MAX);
    assert!(sc.cache_manager().is_empty());
    let mut got = summed.collect();
    got.sort();
    assert_eq!(got, baseline);
    let m = sc.metrics().snapshot();
    assert_eq!(m.executors_lost, 3);
    assert!(
        m.map_tasks_recomputed >= 1,
        "lost map output must be recomputed"
    );
    assert!(
        m.cache_recomputes >= 1,
        "lost cache blocks must be recomputed"
    );
}

/// Sets its flag when dropped: stands in for a reservation or a spill
/// file held by a running task.
struct DropGuard(Arc<AtomicBool>);

impl Drop for DropGuard {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn a_recorded_error_fails_the_job_once_and_only_after_its_siblings_finish() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    let started = Arc::new(AtomicBool::new(false));
    let dropped = Arc::new(AtomicBool::new(false));
    let (s, d) = (started.clone(), dropped.clone());
    let res = sc.parallelize(vec![0i64, 1], 2).run_job(move |p, _| {
        if p == 0 {
            // Fail only once the sibling holds its guard.
            let t0 = Instant::now();
            while !s.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(5) {
                std::thread::yield_now();
            }
            engine::task::fail(EngineError::Io("partition 0 is wrong".into()));
        } else {
            let _guard = DropGuard(d.clone());
            s.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(200));
        }
    });
    assert!(matches!(res, Err(EngineError::Io(m)) if m == "partition 0 is wrong"));
    assert!(
        dropped.load(Ordering::SeqCst),
        "run_job returned while a sibling task still held its guard"
    );
    // Deterministic: one attempt per task, nothing retried, no panic.
    let m = sc.metrics().snapshot();
    assert_eq!(
        (m.tasks_launched, m.task_failures, m.task_panics),
        (2, 0, 0)
    );
}

#[test]
fn a_failed_task_publishes_neither_shuffle_output_nor_cache_blocks() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    let failing = sc.parallelize((0..40i64).collect(), 4).map(|x| {
        if x == 0 {
            engine::task::fail(EngineError::Io("bad row".into()));
        }
        x
    });
    let shuffled = failing.map(|x| (x % 3, x)).reduce_by_key(|a, b| a + b, 2);
    let dep = collect_shuffle_dependencies(shuffled.as_inner()).remove(0);
    assert!(shuffled.try_collect().is_err());
    // Map partition 0 holds the bad row: its bucket was never put.
    assert!(dep.missing_maps().contains(&0));

    let cached = failing.cache();
    assert!(cached.try_collect().is_err());
    assert!(sc.cache_manager().peek(cached.as_inner().id(), 0).is_none());
}
