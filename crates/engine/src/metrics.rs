//! Lightweight execution metrics.
//!
//! Counters are global to a [`crate::SparkContext`] and cheap to bump from
//! any executor thread. Experiments use them to report shuffle volume and
//! task counts alongside wall-clock time; tests use them to assert that a
//! plan actually avoided work (e.g. predicate pushdown shuffling fewer
//! records). One shuffle's own volume is counted by its dependency
//! ([`crate::shuffle::ShuffleIo`]) and goes with it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Global counters for one context.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Tasks launched (including retries).
    pub tasks_launched: AtomicU64,
    /// Task attempts that failed by injected fault or panic and were
    /// retried (a task's own recorded error is not retried).
    pub task_failures: AtomicU64,
    /// Task attempts that panicked. A panic is a bug: task-side errors
    /// travel through the task's error slot, so this stays 0.
    pub task_panics: AtomicU64,
    /// Records published by map tasks.
    pub shuffle_records_written: AtomicU64,
    /// Records fetched by reduce tasks.
    pub shuffle_records_read: AtomicU64,
    /// Stages executed.
    pub stages_run: AtomicU64,
    /// Jobs executed.
    pub jobs_run: AtomicU64,
    /// Partitions served from the cache manager instead of recomputation.
    pub cache_hits: AtomicU64,
    /// Partitions computed and inserted into the cache manager.
    pub cache_misses: AtomicU64,
    /// Bytes written to the simulated file store.
    pub fs_bytes_written: AtomicU64,
    /// Bytes read from the simulated file store.
    pub fs_bytes_read: AtomicU64,
    /// Wall time spent inside task bodies, summed across executor threads.
    pub task_time_ns: AtomicU64,
    /// Shuffle fetches that failed (missing or chaos-faulted map output).
    pub fetch_failures: AtomicU64,
    /// Map stages resubmitted to regenerate lost shuffle output.
    pub stage_resubmissions: AtomicU64,
    /// Map tasks re-run for a shuffle that had previously completed.
    pub map_tasks_recomputed: AtomicU64,
    /// Executors lost (their shuffle buckets and cache blocks with them).
    pub executors_lost: AtomicU64,
    /// Cached partitions recomputed from lineage after their block was lost.
    pub cache_recomputes: AtomicU64,
}

impl Metrics {
    /// Add `n` to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Read a counter.
    #[inline]
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Reset every counter to zero (useful between benchmark phases).
    pub fn reset(&self) {
        self.tasks_launched.store(0, Ordering::Relaxed);
        self.task_failures.store(0, Ordering::Relaxed);
        self.task_panics.store(0, Ordering::Relaxed);
        self.shuffle_records_written.store(0, Ordering::Relaxed);
        self.shuffle_records_read.store(0, Ordering::Relaxed);
        self.stages_run.store(0, Ordering::Relaxed);
        self.jobs_run.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.fs_bytes_written.store(0, Ordering::Relaxed);
        self.fs_bytes_read.store(0, Ordering::Relaxed);
        self.task_time_ns.store(0, Ordering::Relaxed);
        self.fetch_failures.store(0, Ordering::Relaxed);
        self.stage_resubmissions.store(0, Ordering::Relaxed);
        self.map_tasks_recomputed.store(0, Ordering::Relaxed);
        self.executors_lost.store(0, Ordering::Relaxed);
        self.cache_recomputes.store(0, Ordering::Relaxed);
    }

    /// Snapshot of all counters, for printing in experiment harnesses.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_launched: Metrics::get(&self.tasks_launched),
            task_failures: Metrics::get(&self.task_failures),
            task_panics: Metrics::get(&self.task_panics),
            shuffle_records_written: Metrics::get(&self.shuffle_records_written),
            shuffle_records_read: Metrics::get(&self.shuffle_records_read),
            stages_run: Metrics::get(&self.stages_run),
            jobs_run: Metrics::get(&self.jobs_run),
            cache_hits: Metrics::get(&self.cache_hits),
            cache_misses: Metrics::get(&self.cache_misses),
            fs_bytes_written: Metrics::get(&self.fs_bytes_written),
            fs_bytes_read: Metrics::get(&self.fs_bytes_read),
            task_time_ns: Metrics::get(&self.task_time_ns),
            fetch_failures: Metrics::get(&self.fetch_failures),
            stage_resubmissions: Metrics::get(&self.stage_resubmissions),
            map_tasks_recomputed: Metrics::get(&self.map_tasks_recomputed),
            executors_lost: Metrics::get(&self.executors_lost),
            cache_recomputes: Metrics::get(&self.cache_recomputes),
        }
    }
}

/// A point-in-time copy of [`Metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub tasks_launched: u64,
    pub task_failures: u64,
    pub task_panics: u64,
    pub shuffle_records_written: u64,
    pub shuffle_records_read: u64,
    pub stages_run: u64,
    pub jobs_run: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub fs_bytes_written: u64,
    pub fs_bytes_read: u64,
    pub task_time_ns: u64,
    pub fetch_failures: u64,
    pub stage_resubmissions: u64,
    pub map_tasks_recomputed: u64,
    pub executors_lost: u64,
    pub cache_recomputes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = Metrics::default();
        Metrics::add(&m.tasks_launched, 3);
        Metrics::add(&m.tasks_launched, 2);
        assert_eq!(Metrics::get(&m.tasks_launched), 5);
        m.reset();
        assert_eq!(Metrics::get(&m.tasks_launched), 0);
    }

    #[test]
    fn snapshot_copies_all_fields() {
        let m = Metrics::default();
        Metrics::add(&m.shuffle_records_written, 7);
        Metrics::add(&m.fs_bytes_read, 11);
        let s = m.snapshot();
        assert_eq!(s.shuffle_records_written, 7);
        assert_eq!(s.fs_bytes_read, 11);
        assert_eq!(s.tasks_launched, 0);
    }
}
