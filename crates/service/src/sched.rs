//! Admission control and fair cross-session scheduling.
//!
//! The service never lets a query start unless its admission
//! reservation is granted: each query reserves a fixed slice
//! (`spark.sql.service.admission.queryBytes`) from a service-level
//! [`engine::MemoryPool`] sized by
//! `spark.sql.service.admission.budgetBytes`. A query that cannot
//! reserve waits in its session's run queue (never started), and a
//! submission that would exceed `spark.sql.service.maxQueued` is
//! rejected outright.
//!
//! Dispatch is round-robin across sessions' run queues with a
//! per-session in-flight cap (`spark.sql.service.sessionInFlight`) —
//! slot accounting in the style of distributed SQL schedulers: a
//! session with a deep queue cannot starve a light one, because the
//! cursor advances past it after every grant.

use catalyst::row::Row;
use engine::{MemoryPool, MemoryReservation};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service configuration, snapshotted from `spark.sql.service.*` confs
/// when the server starts.
#[derive(Debug, Clone)]
pub struct ServiceConf {
    /// Worker threads executing queries (`spark.sql.service.workers`).
    pub workers: usize,
    /// Max queries of one session running at once
    /// (`spark.sql.service.sessionInFlight`).
    pub session_in_flight: usize,
    /// Admission currency budget in bytes; 0 disables admission control
    /// (`spark.sql.service.admission.budgetBytes`).
    pub admission_budget: u64,
    /// Reservation each query must be granted before it starts
    /// (`spark.sql.service.admission.queryBytes`).
    pub admission_query_bytes: u64,
    /// Max queries waiting across all sessions before submissions are
    /// rejected (`spark.sql.service.maxQueued`).
    pub max_queued: usize,
    /// Default per-query deadline in ms; 0 = none
    /// (`spark.sql.service.queryTimeoutMs`).
    pub query_timeout_ms: u64,
}

impl ServiceConf {
    /// Snapshot the service knobs out of a SQL conf.
    pub fn from_sql_conf(conf: &spark_sql::SqlConf) -> ServiceConf {
        ServiceConf {
            workers: conf.service_workers.max(1),
            session_in_flight: conf.service_session_in_flight.max(1),
            admission_budget: conf.service_admission_budget,
            admission_query_bytes: conf.service_admission_query_bytes.max(1),
            max_queued: conf.service_max_queued,
            query_timeout_ms: conf.service_query_timeout_ms as u64,
        }
    }
}

/// Everything known about a finished query, error or not. Counters are
/// populated even when `rows` is an error so a cancelled query can
/// prove its spill files were released.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Column names and result rows, or the error message.
    pub rows: Result<(Vec<String>, Vec<Row>), String>,
    /// The query failed because its token fired (explicit cancel or
    /// deadline), as opposed to failing on its own.
    pub cancelled: bool,
    /// End-to-end execution wall time (excludes queueing).
    pub wall_ns: u64,
    /// Spill files the query's memory pool created / deleted.
    pub spill_files_created: u64,
    pub spill_files_deleted: u64,
    /// Shared-cache evictions the run triggered.
    pub evictions: u64,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            rows: Ok((Vec::new(), Vec::new())),
            cancelled: false,
            wall_ns: 0,
            spill_files_created: 0,
            spill_files_deleted: 0,
            evictions: 0,
        }
    }
}

enum TaskState {
    Waiting,
    Running,
    Done(Outcome),
}

/// One submitted query: the unit the scheduler queues, dispatches, and
/// the wire layer fetches/cancels by id.
pub struct QueryTask {
    /// Service-wide query handle (what `fetch`/`cancel` name).
    pub id: u64,
    /// Owning session.
    pub session: String,
    /// The SQL text to run.
    pub sql: String,
    /// Fires on explicit cancel or deadline expiry.
    pub token: engine::CancelToken,
    /// Set when admission control made this query wait before starting.
    pub queued_by_admission: AtomicBool,
    state: Mutex<TaskState>,
    done: Condvar,
}

impl QueryTask {
    /// Build a task; `timeout` (if any) arms a deadline starting now —
    /// queue time counts against it.
    pub fn new(id: u64, session: String, sql: String, timeout: Option<Duration>) -> Arc<QueryTask> {
        let token = match timeout {
            Some(t) => engine::CancelToken::with_deadline(Instant::now() + t),
            None => engine::CancelToken::new(),
        };
        Arc::new(QueryTask {
            id,
            session,
            sql,
            token,
            queued_by_admission: AtomicBool::new(false),
            state: Mutex::new(TaskState::Waiting),
            done: Condvar::new(),
        })
    }

    /// Block until the query finishes and return its outcome.
    pub fn wait_done(&self) -> Outcome {
        let mut st = self.state.lock().unwrap();
        loop {
            if let TaskState::Done(outcome) = &*st {
                return outcome.clone();
            }
            st = self.done.wait(st).unwrap();
        }
    }

    /// True once the outcome is available.
    pub fn is_done(&self) -> bool {
        matches!(&*self.state.lock().unwrap(), TaskState::Done(_))
    }

    fn finish(&self, outcome: Outcome) {
        *self.state.lock().unwrap() = TaskState::Done(outcome);
        self.done.notify_all();
    }
}

struct SessionQueue {
    name: String,
    queue: VecDeque<Arc<QueryTask>>,
    in_flight: usize,
}

struct SchedState {
    sessions: Vec<SessionQueue>,
    cursor: usize,
    queued: usize,
    shutdown: bool,
}

/// Monotonic service counters, surfaced by the `stats` wire op.
#[derive(Debug, Default)]
pub struct SchedCounters {
    /// Queries that started executing.
    pub admitted: AtomicU64,
    /// Queries that had to wait because admission denied their
    /// reservation at least once.
    pub queued_by_admission: AtomicU64,
    /// Submissions rejected because the wait queue was full.
    pub rejected: AtomicU64,
    /// Queries that finished cancelled (explicit or deadline).
    pub cancelled: AtomicU64,
}

/// The scheduler: run queues, the admission pool, and worker dispatch.
pub struct Scheduler {
    state: Mutex<SchedState>,
    work: Condvar,
    /// Admission currency. `None` when the budget is 0 (admission off).
    pool: Option<Arc<MemoryPool>>,
    conf: ServiceConf,
    /// Tasks by id, for `fetch`/`cancel`. Entries live until the task
    /// finishes *and* has been fetched (or the session closes).
    tasks: Mutex<HashMap<u64, Arc<QueryTask>>>,
    /// Service counters.
    pub counters: SchedCounters,
}

impl Scheduler {
    pub fn new(conf: ServiceConf) -> Scheduler {
        let pool = (conf.admission_budget > 0).then(|| {
            // The admission pool is pure accounting — it never spills, so
            // the spill dir is only a path that is never written.
            MemoryPool::bounded(conf.admission_budget, std::env::temp_dir())
        });
        Scheduler {
            state: Mutex::new(SchedState {
                sessions: Vec::new(),
                cursor: 0,
                queued: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            pool,
            conf,
            tasks: Mutex::new(HashMap::new()),
            counters: SchedCounters::default(),
        }
    }

    pub fn conf(&self) -> &ServiceConf {
        &self.conf
    }

    /// Enqueue a query. Rejects (never queues) when the global wait
    /// queue is at `maxQueued`.
    pub fn submit(&self, task: Arc<QueryTask>) -> Result<(), String> {
        let mut st = self.state.lock().unwrap();
        if st.shutdown {
            return Err("service is shutting down".to_string());
        }
        if st.queued >= self.conf.max_queued {
            self.counters.rejected.fetch_add(1, Ordering::SeqCst);
            return Err(format!(
                "admission rejected: {} queries already queued (spark.sql.service.maxQueued={})",
                st.queued, self.conf.max_queued
            ));
        }
        let idx = match st.sessions.iter().position(|s| s.name == task.session) {
            Some(i) => i,
            None => {
                st.sessions.push(SessionQueue {
                    name: task.session.clone(),
                    queue: VecDeque::new(),
                    in_flight: 0,
                });
                st.sessions.len() - 1
            }
        };
        self.tasks.lock().unwrap().insert(task.id, task.clone());
        st.sessions[idx].queue.push_back(task);
        st.queued += 1;
        drop(st);
        self.work.notify_one();
        Ok(())
    }

    /// Worker entry: block until a query may start, then return it with
    /// its granted admission reservation. `None` means shutdown.
    ///
    /// Fairness: scan sessions round-robin from the cursor; skip
    /// sessions at their in-flight cap; advance the cursor past each
    /// grant so queue depth does not buy extra turns.
    pub fn next(&self) -> Option<(Arc<QueryTask>, Option<MemoryReservation>)> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.shutdown {
                return None;
            }
            if let Some(idx) = self.runnable_session(&st) {
                match self.admit() {
                    Admission::Granted(reservation) => {
                        let task = st.sessions[idx].queue.pop_front().expect("non-empty");
                        st.sessions[idx].in_flight += 1;
                        st.cursor = idx + 1;
                        st.queued -= 1;
                        *task.state.lock().unwrap() = TaskState::Running;
                        self.counters.admitted.fetch_add(1, Ordering::SeqCst);
                        return Some((task, reservation));
                    }
                    Admission::Denied => {
                        // The query stays queued, never started. Mark it
                        // (first denial only) and wait for a release.
                        let head = st.sessions[idx].queue.front().expect("non-empty");
                        if !head.queued_by_admission.swap(true, Ordering::SeqCst) {
                            self.counters
                                .queued_by_admission
                                .fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            }
            // Nothing runnable (no work, all sessions capped, or
            // admission denied): sleep until a submit or release. The
            // timeout is a liveness bound only.
            let (next, _) = self
                .work
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap();
            st = next;
        }
    }

    fn runnable_session(&self, st: &SchedState) -> Option<usize> {
        let n = st.sessions.len();
        (0..n).map(|i| (st.cursor + i) % n).find(|&idx| {
            let s = &st.sessions[idx];
            !s.queue.is_empty() && s.in_flight < self.conf.session_in_flight
        })
    }

    fn admit(&self) -> Admission {
        match &self.pool {
            None => Admission::Granted(None),
            Some(pool) => {
                let mut r = pool.register();
                if r.try_grow(self.conf.admission_query_bytes) {
                    Admission::Granted(Some(r))
                } else {
                    Admission::Denied
                }
            }
        }
    }

    /// Worker exit for one query: record the outcome, free the session
    /// slot, and (by dropping `reservation` at the caller) release the
    /// admission grant. Wakes every waiter so queued queries re-try
    /// admission.
    pub fn finish(&self, task: &QueryTask, outcome: Outcome) {
        if outcome.cancelled {
            self.counters.cancelled.fetch_add(1, Ordering::SeqCst);
        }
        task.finish(outcome);
        let mut st = self.state.lock().unwrap();
        if let Some(s) = st.sessions.iter_mut().find(|s| s.name == task.session) {
            s.in_flight = s.in_flight.saturating_sub(1);
        }
        drop(st);
        self.work.notify_all();
    }

    /// Look up a live task by wire handle.
    pub fn task(&self, id: u64) -> Option<Arc<QueryTask>> {
        self.tasks.lock().unwrap().get(&id).cloned()
    }

    /// Drop the task-registry entry once the client has fetched it.
    pub fn forget(&self, id: u64) {
        self.tasks.lock().unwrap().remove(&id);
    }

    /// Queries currently waiting across all sessions.
    pub fn queued_len(&self) -> usize {
        self.state.lock().unwrap().queued
    }

    /// Stop dispatching; wakes all workers so they observe shutdown.
    pub fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.work.notify_all();
    }
}

enum Admission {
    Granted(Option<MemoryReservation>),
    Denied,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conf(budget: u64, max_queued: usize) -> ServiceConf {
        ServiceConf {
            workers: 2,
            session_in_flight: 1,
            admission_budget: budget,
            admission_query_bytes: 100,
            max_queued,
            query_timeout_ms: 0,
        }
    }

    fn submit(sched: &Scheduler, id: u64, session: &str) -> Arc<QueryTask> {
        let t = QueryTask::new(id, session.to_string(), "SELECT 1".into(), None);
        sched.submit(t.clone()).unwrap();
        t
    }

    #[test]
    fn round_robin_across_sessions_with_in_flight_cap() {
        let sched = Scheduler::new(conf(0, 100));
        // Session a floods 4 queries before b and c submit one each.
        for id in 0..4 {
            submit(&sched, id, "a");
        }
        submit(&sched, 10, "b");
        submit(&sched, 11, "c");
        let mut order = Vec::new();
        for _ in 0..6 {
            let (task, r) = sched.next().unwrap();
            order.push(task.session.clone());
            sched.finish(&task, Outcome::default());
            drop(r);
        }
        // b and c each get a turn before a's backlog drains.
        assert_eq!(order[..3], ["a", "b", "c"]);
        assert_eq!(order[3..], ["a", "a", "a"]);
    }

    #[test]
    fn admission_denial_queues_and_marks_the_task() {
        // Budget fits exactly one 100-byte reservation.
        let sched = Arc::new(Scheduler::new(conf(100, 100)));
        let first = submit(&sched, 1, "a");
        let (t1, r1) = sched.next().unwrap();
        assert_eq!(t1.id, 1);
        assert!(r1.is_some());
        let second = submit(&sched, 2, "b");
        // A second worker cannot start query 2 while the grant is held.
        let sched2 = sched.clone();
        let waiter = std::thread::spawn(move || {
            let (t2, r2) = sched2.next().unwrap();
            assert_eq!(t2.id, 2);
            assert!(r2.is_some());
            sched2.finish(&t2, Outcome::default());
        });
        // Give the waiter time to hit the denial path.
        std::thread::sleep(Duration::from_millis(80));
        assert!(!second.is_done());
        assert!(second.queued_by_admission.load(Ordering::SeqCst));
        assert_eq!(sched.counters.queued_by_admission.load(Ordering::SeqCst), 1);
        // Releasing the first grant admits the queued query.
        sched.finish(&t1, Outcome::default());
        drop(r1);
        waiter.join().unwrap();
        drop(first);
        assert_eq!(sched.counters.admitted.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn full_queue_rejects_submissions() {
        let sched = Scheduler::new(conf(0, 2));
        submit(&sched, 1, "a");
        submit(&sched, 2, "a");
        let t = QueryTask::new(3, "a".into(), "SELECT 1".into(), None);
        let err = sched.submit(t).unwrap_err();
        assert!(err.contains("admission rejected"), "{err}");
        assert_eq!(sched.counters.rejected.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shutdown_unblocks_workers() {
        let sched = Arc::new(Scheduler::new(conf(0, 10)));
        let s2 = sched.clone();
        let h = std::thread::spawn(move || s2.next().is_none());
        std::thread::sleep(Duration::from_millis(30));
        sched.shutdown();
        assert!(h.join().unwrap());
    }

    #[test]
    fn deadline_task_token_fires() {
        let t = QueryTask::new(
            1,
            "a".into(),
            "SELECT 1".into(),
            Some(Duration::from_millis(5)),
        );
        std::thread::sleep(Duration::from_millis(20));
        assert!(t.token.state().is_some());
    }
}
