//! DAG scheduler: splits the lineage graph into stages at shuffle
//! boundaries, runs map stages in dependency order, then the result
//! stage, retrying failed tasks up to `max_task_retries`.
//!
//! Stage skipping works like Spark's: if a shuffle dependency already
//! holds complete map output (an earlier job over the same lineage
//! computed it), the map stage is not rerun. The scheduler keeps no
//! shuffle state of its own: it asks each dependency it finds in the
//! job's lineage ([`collect_shuffle_dependencies`]) what is missing, and
//! map output and its I/O counters live in the dependency as long as
//! that lineage is held. Every reduce side is the dependency's one
//! reader ([`crate::shuffle::ShuffleDependency::read`]), whose shuffle
//! edge is how a job finds the dependency.
//!
//! Tasks fail by value: each task attempt runs with an error slot
//! ([`crate::task`]), and the scheduler decides once, when the task
//! returns, what its recorded error means. Fault recovery follows the
//! lineage protocol:
//!
//! * A task that records [`EngineError::FetchFailed`] is *not* retried in
//!   place — the input it needs is gone. The scheduler removes the lost
//!   map output from its dependency, resubmits the parent map stage
//!   (only its missing partitions), and reruns the failed stage.
//!   Resubmissions are bounded by `max_stage_retries` per shuffle;
//!   exhausting them aborts the job with
//!   [`EngineError::StageRetriesExhausted`].
//! * A task that records [`EngineError::Cancelled`] or an error of its
//!   own aborts the job after that one attempt: a rerun would fail the
//!   same way.
//! * An injected fault, or a panic caught by the one `catch_unwind` net
//!   around a task (counted in `task_panics`; a panic is a bug), is
//!   retried in place, up to `max_task_retries` attempts.
//! * Whatever ends a stage early waits for its launched sibling tasks to
//!   finish first and skips the ones still queued.
//! * Executor loss (`SparkContext::lose_executor`) is lazy: it bumps the
//!   executor's loss generation, and every map output the executor wrote
//!   before then counts as missing. Map stages re-check completeness
//!   after running, so mid-stage losses are recomputed before dependents
//!   run.
//!
//! While a stage is in flight the driver thread steals queued pool tasks
//! and runs them itself ([`crate::pool::ThreadPool::try_steal`]), so jobs
//! nested inside tasks (e.g. a cache materializer) make progress even
//! when every worker is blocked.

use crate::chaos::FaultKind;
use crate::context::{FailureSite, SparkContext};
use crate::error::{EngineError, Result};
use crate::metrics::Metrics;
use crate::rdd::{BoxIter, Data, Dependency, Rdd, RddBase, TaskContext};
use crate::shuffle::ShuffleDependencyBase;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Walk the lineage graph and return every shuffle dependency reachable
/// from `root`, parents before children (topological order).
pub fn collect_shuffle_dependencies(root: Arc<dyn RddBase>) -> Vec<Arc<dyn ShuffleDependencyBase>> {
    let mut out: Vec<Arc<dyn ShuffleDependencyBase>> = Vec::new();
    let mut seen_rdds: HashSet<usize> = HashSet::new();
    let mut seen_shuffles: HashSet<usize> = HashSet::new();

    fn visit(
        rdd: Arc<dyn RddBase>,
        out: &mut Vec<Arc<dyn ShuffleDependencyBase>>,
        seen_rdds: &mut HashSet<usize>,
        seen_shuffles: &mut HashSet<usize>,
    ) {
        if !seen_rdds.insert(rdd.id()) {
            return;
        }
        for dep in rdd.dependencies() {
            match dep {
                Dependency::Narrow(parent) => visit(parent, out, seen_rdds, seen_shuffles),
                Dependency::Shuffle(sd) => {
                    if seen_shuffles.insert(sd.shuffle_id()) {
                        visit(sd.parent(), out, seen_rdds, seen_shuffles);
                        out.push(sd);
                    }
                }
            }
        }
    }

    visit(root, &mut out, &mut seen_rdds, &mut seen_shuffles);
    out
}

/// How one task attempt ended.
enum TaskOutcome<R> {
    /// The task returned with an empty error slot.
    Ok(R),
    /// The task recorded an error: decided once, never retried in place.
    Failed(EngineError),
    /// An injected fault or a panic: retried up to `max_task_retries`.
    Retry(String),
    /// Not run: the stage had already failed when the task was dequeued.
    Skipped,
}

/// Run `task` for the given partitions on the executor pool; results in
/// the order of `partitions`. A task's recorded error ([`crate::task`])
/// fails the stage at once — [`EngineError::FetchFailed`] for the caller
/// to resubmit the map stage. Injected faults and panics are retried in
/// place up to the configured limit. An error returns only after every
/// launched sibling has finished (releasing what it holds); queued
/// siblings are skipped.
fn run_tasks<R: Send + 'static>(
    sc: &SparkContext,
    stage_id: usize,
    partitions: Vec<usize>,
    task: Arc<dyn Fn(&TaskContext) -> R + Send + Sync>,
) -> Result<Vec<R>> {
    Metrics::add(&sc.metrics().stages_run, 1);
    if partitions.is_empty() {
        return Ok(vec![]);
    }
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, usize, TaskOutcome<R>)>();
    let abandoned = Arc::new(AtomicBool::new(false));

    let submit = |partition: usize, attempt: usize| {
        let tx = tx.clone();
        let task = task.clone();
        let injector = sc.failure_injector();
        let sc2 = sc.clone();
        let abandoned = abandoned.clone();
        sc.pool().execute(move || {
            let outcome = if abandoned.load(Ordering::SeqCst) {
                TaskOutcome::Skipped
            } else {
                run_attempt(&sc2, injector, &*task, stage_id, partition, attempt)
            };
            // Let go of the task (and the lineage it holds) before the
            // driver can see the outcome: once a job returns, no executor
            // still keeps its shuffle output alive.
            drop(task);
            let _ = tx.send((partition, attempt, outcome));
            // Wake the driver's result-wait loop (it blocks on the pool's
            // activity condvar, not on the channel).
            sc2.pool().notify();
        });
    };

    let index: HashMap<usize, usize> = partitions
        .iter()
        .enumerate()
        .map(|(i, p)| (*p, i))
        .collect();
    for &p in &partitions {
        submit(p, 0);
    }

    let max_retries = sc.conf().max_task_retries;
    let mut results: Vec<Option<R>> = partitions.iter().map(|_| None).collect();
    let mut remaining = partitions.len();
    // Submitted tasks that have not reported an outcome yet.
    let mut outstanding = partitions.len();
    // Fail the stage, but only after the outstanding siblings report:
    // queued ones are skipped, running ones hit their own checks (a
    // fired cancel token) or finish.
    let fail = |mut outstanding: usize, err: EngineError| {
        abandoned.store(true, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while outstanding > 0 && std::time::Instant::now() < deadline {
            let generation = sc.pool().activity_generation();
            if rx.try_recv().is_some() {
                outstanding -= 1;
                continue;
            }
            // Queued tasks of this stage must still be dequeued to
            // report; keep the pool moving so the drain can't starve
            // itself.
            if let Some(stolen) = sc.pool().try_steal() {
                stolen();
                continue;
            }
            sc.pool()
                .wait_for_activity(generation, Duration::from_millis(25));
        }
        Err(err)
    };
    while remaining > 0 {
        // Wait for a result, but keep the pool moving: run queued tasks
        // on this thread so a nested job can't starve a blocked pool.
        // Blocking is event-driven — the pool's activity generation is
        // bumped by every submission and result, and the generation is
        // sampled *before* re-checking the channel, so a result that
        // lands between the check and the wait wakes us immediately
        // rather than being missed. The timeout is only a liveness bound
        // for conditions nothing notifies about (a deadline expiring on
        // an otherwise idle job), not a polling interval.
        let cancel_token = crate::cancel::current();
        let wait_bound = if cancel_token.is_some() {
            Duration::from_millis(25)
        } else {
            Duration::from_millis(500)
        };
        let (partition, attempt, outcome) = loop {
            let generation = sc.pool().activity_generation();
            if let Some(msg) = rx.try_recv() {
                break msg;
            }
            if let Some(err) = cancel_token
                .as_ref()
                .and_then(|t| crate::cancel::check(t).err())
            {
                return fail(outstanding, err);
            }
            if let Some(stolen) = sc.pool().try_steal() {
                stolen();
                continue;
            }
            sc.pool().wait_for_activity(generation, wait_bound);
        };
        let slot = index[&partition];
        outstanding -= 1;
        match outcome {
            TaskOutcome::Ok(r) => {
                if results[slot].is_none() {
                    results[slot] = Some(r);
                    remaining -= 1;
                }
            }
            // A fetch failure hands the stage back for map-stage
            // resubmission; a cancellation or the task's own error ends
            // the job. None of them is fixed by an in-place retry.
            TaskOutcome::Failed(err) => return fail(outstanding, err),
            TaskOutcome::Retry(reason) => {
                Metrics::add(&sc.metrics().task_failures, 1);
                if attempt + 1 > max_retries {
                    let err = EngineError::TaskFailed {
                        stage: stage_id,
                        partition,
                        reason,
                    };
                    return fail(outstanding, err);
                }
                submit(partition, attempt + 1);
                outstanding += 1;
            }
            TaskOutcome::Skipped => unreachable!("tasks are skipped only after the stage failed"),
        }
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("task result"))
        .collect())
}

/// One attempt of one task on the calling (executor) thread: injected
/// faults first, then the task body under its error slot and the one
/// `catch_unwind` net, which turns a panic — a bug — into a retry.
fn run_attempt<R>(
    sc: &SparkContext,
    injector: Option<crate::context::FailureInjector>,
    task: &(dyn Fn(&TaskContext) -> R + Send + Sync),
    stage_id: usize,
    partition: usize,
    attempt: usize,
) -> TaskOutcome<R> {
    Metrics::add(&sc.metrics().tasks_launched, 1);
    let site = FailureSite {
        stage_id,
        partition,
        attempt,
    };
    if injector.is_some_and(|inj| inj(site)) {
        return TaskOutcome::Retry("injected task failure".into());
    }
    if let Some(kind) = sc
        .chaos()
        .and_then(|c| c.task_fault(stage_id, partition, attempt))
    {
        return TaskOutcome::Retry(match kind {
            FaultKind::ExecutorDeath => {
                // Stolen tasks run on the driver; its blocks live under
                // the DRIVER_OWNER slot, so "the node running this task"
                // is always killable.
                let ex = crate::pool::current_executor().unwrap_or(crate::cache::DRIVER_OWNER);
                sc.lose_executor(ex);
                format!("chaos: executor {ex} died running stage {stage_id}")
            }
            _ => "chaos: injected task panic".to_string(),
        });
    }
    let tc = TaskContext {
        stage_id,
        partition,
        attempt,
    };
    let start = std::time::Instant::now();
    let (result, recorded) = crate::task::scoped(|| catch_unwind(AssertUnwindSafe(|| task(&tc))));
    Metrics::add(
        &sc.metrics().task_time_ns,
        start.elapsed().as_nanos() as u64,
    );
    match (result, recorded) {
        (Err(payload), _) => {
            Metrics::add(&sc.metrics().task_panics, 1);
            TaskOutcome::Retry(panic_message(payload))
        }
        (Ok(_), Some(err)) => TaskOutcome::Failed(err),
        (Ok(r), None) => TaskOutcome::Ok(r),
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

/// Per-job bookkeeping of map-stage resubmissions, bounding recovery.
#[derive(Default)]
struct RecoveryState {
    /// shuffle_id -> resubmissions so far.
    resubmissions: HashMap<usize, usize>,
}

impl RecoveryState {
    /// React to an observed fetch failure: remove the lost output from
    /// its dependency among the job's `shuffles` and charge one
    /// resubmission against the shuffle, failing the job once
    /// `max_stage_retries` is exceeded.
    fn note_fetch_failure(
        &mut self,
        sc: &SparkContext,
        stage_id: usize,
        shuffles: &[Arc<dyn ShuffleDependencyBase>],
        shuffle_id: usize,
        map_id: usize,
    ) -> Result<()> {
        Metrics::add(&sc.metrics().fetch_failures, 1);
        if let Some(sd) = shuffles.iter().find(|sd| sd.shuffle_id() == shuffle_id) {
            sd.remove_output(map_id);
        }
        let count = self.resubmissions.entry(shuffle_id).or_insert(0);
        *count += 1;
        let max = sc.conf().max_stage_retries;
        if *count > max {
            return Err(EngineError::StageRetriesExhausted {
                stage: stage_id,
                shuffle_id,
                attempts: max,
            });
        }
        Metrics::add(&sc.metrics().stage_resubmissions, 1);
        Ok(())
    }
}

/// Bring every shuffle in `shuffles` (parents before children) to a
/// complete state, running only missing map partitions. Fetch failures
/// inside a map task restart the sweep from the first shuffle so lost
/// parent output is regenerated before its dependents rerun.
fn ensure_shuffles(
    sc: &SparkContext,
    shuffles: &[Arc<dyn ShuffleDependencyBase>],
    rec: &mut RecoveryState,
) -> Result<()> {
    'restart: loop {
        for sd in shuffles {
            loop {
                let missing = sd.missing_maps();
                if missing.is_empty() {
                    break;
                }
                if sd.was_complete() {
                    // This shuffle was whole before: we are recomputing
                    // lost output from lineage, not running a fresh stage.
                    Metrics::add(&sc.metrics().map_tasks_recomputed, missing.len() as u64);
                }
                let stage_id = sc.new_stage_id();
                let sd2 = sd.clone();
                match run_tasks(
                    sc,
                    stage_id,
                    missing,
                    Arc::new(move |tc: &TaskContext| sd2.run_map_task(tc.partition, tc)),
                ) {
                    // Re-check completeness: an executor death during the
                    // stage can lose buckets that had already reported.
                    Ok(_) => continue,
                    Err(EngineError::FetchFailed { shuffle_id, map_id }) => {
                        rec.note_fetch_failure(sc, stage_id, shuffles, shuffle_id, map_id)?;
                        continue 'restart;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        return Ok(());
    }
}

/// Materialize one shuffle's map output — and, recursively, every shuffle
/// upstream of it — without running a result stage. Already-complete
/// shuffles are skipped, so re-materializing is free. This is the
/// primitive adaptive query execution uses: run a stage, observe its real
/// output sizes via [`crate::shuffle::ShuffleDependency::map_output_sizes`],
/// then plan the next stage. Lost output is recomputed from lineage under
/// the same bounded-resubmission rules as a full job.
pub fn materialize_shuffle(sc: &SparkContext, dep: Arc<dyn ShuffleDependencyBase>) -> Result<()> {
    let mut stages = collect_shuffle_dependencies(dep.parent());
    stages.push(dep);
    let mut rec = RecoveryState::default();
    ensure_shuffles(sc, &stages, &mut rec)
}

/// Execute a job: ensure every upstream shuffle is materialized, then run
/// `func` over each partition of `rdd` and return the per-partition
/// results in partition order. Fetch failures in the result stage
/// resubmit the owning map stage from lineage and rerun the result stage,
/// bounded by `max_stage_retries` resubmissions per shuffle.
pub fn run_job<T: Data, U: Send + 'static>(
    sc: &SparkContext,
    rdd: Arc<dyn Rdd<Item = T>>,
    func: Arc<dyn Fn(usize, BoxIter<T>) -> U + Send + Sync>,
) -> Result<Vec<U>> {
    Metrics::add(&sc.metrics().jobs_run, 1);

    let shuffles = collect_shuffle_dependencies(crate::shuffle::as_base(rdd.clone()));
    let mut rec = RecoveryState::default();
    loop {
        // Map stages, parents first.
        ensure_shuffles(sc, &shuffles, &mut rec)?;

        // Result stage.
        let stage_id = sc.new_stage_id();
        let n = rdd.num_partitions();
        let rdd2 = rdd.clone();
        let func2 = func.clone();
        match run_tasks(
            sc,
            stage_id,
            (0..n).collect(),
            Arc::new(move |tc: &TaskContext| func2(tc.partition, rdd2.compute(tc.partition, tc))),
        ) {
            Ok(results) => return Ok(results),
            Err(EngineError::FetchFailed { shuffle_id, map_id }) => {
                rec.note_fetch_failure(sc, stage_id, &shuffles, shuffle_id, map_id)?;
            }
            Err(e) => return Err(e),
        }
    }
}
