//! Fixed-size executor thread pool.
//!
//! Each worker thread stands in for one executor of the simulated
//! cluster: tasks observe which executor they run on via
//! [`current_executor`], which is what lets fault injection model
//! executor death as "drop everything executor N produced". Tasks are
//! `FnOnce` closures delivered over a crossbeam channel; the pool lives
//! as long as the [`crate::SparkContext`].
//!
//! The driver can also pull queued tasks with [`ThreadPool::try_steal`]
//! and run them on its own thread. The scheduler does this while waiting
//! for stage results so that nested jobs (a task that itself calls
//! `run_job`, e.g. a cache materializer) cannot deadlock a fully blocked
//! pool.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::cell::Cell;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    static EXECUTOR_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The executor index of the current thread, or `None` on the driver
/// (or any thread outside the pool).
pub fn current_executor() -> Option<usize> {
    EXECUTOR_ID.with(|id| id.get())
}

/// A fixed pool of worker threads executing submitted closures.
pub struct ThreadPool {
    sender: Option<Sender<Task>>,
    /// Extra handle on the task queue so non-worker threads can steal
    /// queued tasks while they wait.
    stealer: Receiver<Task>,
    workers: Vec<JoinHandle<()>>,
    /// Generation counter + condvar that waiters (the scheduler's
    /// result loop) block on instead of polling. Bumped on every task
    /// submission and by [`notify`](Self::notify) when a task result is
    /// posted.
    activity: Arc<(Mutex<u64>, Condvar)>,
}

impl ThreadPool {
    /// Spawn `size` worker threads (at least 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver) = unbounded::<Task>();
        let mut workers = Vec::with_capacity(size);
        for i in 0..size {
            let rx = receiver.clone();
            let handle = std::thread::Builder::new()
                .name(format!("executor-{i}"))
                .spawn(move || {
                    EXECUTOR_ID.with(|id| id.set(Some(i)));
                    while let Ok(task) = rx.recv() {
                        task();
                    }
                })
                .expect("failed to spawn executor thread");
            workers.push(handle);
        }
        ThreadPool {
            sender: Some(sender),
            stealer: receiver,
            workers,
            activity: Arc::new((Mutex::new(0), Condvar::new())),
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Submit a task for asynchronous execution.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.sender
            .as_ref()
            .expect("pool shut down")
            .send(Box::new(f))
            .expect("executor pool disconnected");
        // A new task is also something a blocked waiter may want to steal.
        self.notify();
    }

    /// Take one queued task, if any, to run on the calling thread.
    pub fn try_steal(&self) -> Option<Task> {
        self.stealer.try_recv()
    }

    /// Wake every thread blocked in [`wait_for_activity`](Self::wait_for_activity).
    /// Tasks call this after posting a result so the driver's wait loop
    /// re-checks its result channel without spinning.
    pub fn notify(&self) {
        let (gen, cv) = &*self.activity;
        *gen.lock().unwrap() += 1;
        cv.notify_all();
    }

    /// Current activity generation; pass to
    /// [`wait_for_activity`](Self::wait_for_activity).
    pub fn activity_generation(&self) -> u64 {
        *self.activity.0.lock().unwrap()
    }

    /// Block until the activity generation advances past `seen` or
    /// `timeout` elapses. The pattern is: read the generation, re-check
    /// whatever condition you are waiting on, then wait — any event
    /// between the read and the wait bumps the generation and makes the
    /// wait return immediately, so wake-ups cannot be lost.
    pub fn wait_for_activity(&self, seen: u64, timeout: Duration) {
        let (gen, cv) = &*self.activity;
        let mut g = gen.lock().unwrap();
        while *g == seen {
            let (next, result) = cv.wait_timeout(g, timeout).unwrap();
            g = next;
            if result.timed_out() {
                break;
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel lets workers drain outstanding tasks and exit.
        drop(self.sender.take());
        // The pool can be dropped *from* a worker thread (when a task holds
        // the last Arc to the owning context); that worker must detach
        // itself rather than self-join.
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            if w.thread().id() == me {
                continue;
            }
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = crossbeam::channel::unbounded();
        for _ in 0..100 {
            let c = counter.clone();
            let tx = tx.clone();
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..100 {
            rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_waits_for_submitted_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..32 {
                let c = counter.clone();
                pool.execute(move || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn zero_size_is_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
    }

    #[test]
    fn workers_know_their_executor_id_and_driver_does_not() {
        assert_eq!(current_executor(), None);
        let pool = ThreadPool::new(3);
        let (tx, rx) = crossbeam::channel::unbounded();
        for _ in 0..16 {
            let tx = tx.clone();
            pool.execute(move || {
                tx.send(current_executor()).unwrap();
            });
        }
        for _ in 0..16 {
            let id = rx.recv().unwrap().expect("worker must have an executor id");
            assert!(id < 3);
        }
    }

    #[test]
    fn wait_for_activity_wakes_on_notify() {
        let pool = Arc::new(ThreadPool::new(1));
        let seen = pool.activity_generation();
        let p = pool.clone();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            p.notify();
        });
        // Must return well before the fallback timeout.
        let start = std::time::Instant::now();
        pool.wait_for_activity(seen, Duration::from_secs(10));
        assert!(start.elapsed() < Duration::from_secs(5));
        waker.join().unwrap();
    }

    #[test]
    fn wait_for_activity_returns_immediately_on_stale_generation() {
        let pool = ThreadPool::new(1);
        let seen = pool.activity_generation();
        pool.notify(); // generation advances before the wait starts
        let start = std::time::Instant::now();
        pool.wait_for_activity(seen, Duration::from_secs(10));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn stolen_tasks_run_on_the_calling_thread() {
        let pool = ThreadPool::new(1);
        // Park the only worker so the next submission stays queued.
        let (hold_tx, hold_rx) = crossbeam::channel::unbounded::<()>();
        let (started_tx, started_rx) = crossbeam::channel::unbounded::<()>();
        pool.execute(move || {
            started_tx.send(()).unwrap();
            let _ = hold_rx.recv();
        });
        started_rx.recv().unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        let c = ran.clone();
        pool.execute(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        // Steal and run it here; the worker is still parked.
        let mut stole = false;
        for _ in 0..1000 {
            if let Some(task) = pool.try_steal() {
                task();
                stole = true;
                break;
            }
            std::thread::yield_now();
        }
        assert!(stole);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        hold_tx.send(()).unwrap();
    }

    /// Dropping a pool joins its workers, so each must see the task
    /// channel disconnect. (A lost wake-up in the channel used to leave
    /// one parked about once in ten thousand drops, hanging the drop.)
    #[test]
    fn five_thousand_pools_shut_down() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let churn = std::thread::spawn(move || {
            for _ in 0..5_000 {
                let pool = ThreadPool::new(2);
                for _ in 0..4 {
                    pool.execute(|| {});
                }
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a pool's drop never returned: a worker missed the disconnect");
        churn.join().unwrap();
    }
}
