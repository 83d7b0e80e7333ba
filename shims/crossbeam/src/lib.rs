//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides only `crossbeam::channel::{unbounded, Sender, Receiver}` —
//! the multi-producer multi-consumer unbounded channel the engine's
//! thread pool and scheduler use. Built on `Mutex<VecDeque>` + `Condvar`;
//! disconnection semantics match crossbeam: `recv` fails once the queue
//! is empty and every `Sender` is gone, `send` fails once every
//! `Receiver` is gone.

/// MPMC channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Sending half; cloneable.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// Receiving half; cloneable (crossbeam channels are MPMC).
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with the queue still empty.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    impl<T> Sender<T> {
        /// Enqueue a value, waking one blocked receiver.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.0.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            self.0
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(value);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::AcqRel);
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake every blocked receiver so they
                // can observe disconnection. A receiver reads `senders`
                // and parks under the queue lock, so notify under it too:
                // otherwise one that has read 1 and not yet parked misses
                // this — the only — wake-up.
                let _queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a value arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = queue.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = self
                    .0
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Non-blocking receive; `None` when the queue is currently empty.
        pub fn try_recv(&self) -> Option<T> {
            self.0
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front()
        }

        /// Block for at most `timeout` waiting for a value. Distinguishes
        /// an empty queue (`Timeout`) from a closed one (`Disconnected`)
        /// so callers can interleave waiting with other work — the
        /// scheduler uses this to execute queued pool tasks while a
        /// nested job is in flight.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = queue.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .0
                    .ready
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError};

    #[test]
    fn send_recv_in_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_fails_after_all_senders_drop() {
        let (tx, rx) = unbounded::<i32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn multiple_consumers_drain_everything() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        let n = 1000;
        let h = std::thread::spawn(move || {
            let mut got = 0;
            while rx2.recv().is_ok() {
                got += 1;
            }
            got
        });
        for i in 0..n {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut local = 0;
        while rx.recv().is_ok() {
            local += 1;
        }
        assert_eq!(local + h.join().unwrap(), n);
    }

    /// The last sender's drop must reach a receiver that has seen
    /// `senders == 1` and is about to park. A lost wake-up leaves that
    /// receiver blocked forever, so a watchdog turns it into a failure.
    #[test]
    fn dropping_the_last_sender_wakes_every_receiver() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let stress = std::thread::spawn(move || {
            for _ in 0..100_000 {
                let (tx, rx) = unbounded::<fn()>();
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        let rx = rx.clone();
                        std::thread::spawn(move || {
                            while let Ok(task) = rx.recv() {
                                task();
                            }
                        })
                    })
                    .collect();
                for _ in 0..4 {
                    tx.send(|| {}).unwrap();
                }
                drop(tx);
                for w in workers {
                    w.join().unwrap();
                }
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a receiver never saw the disconnect (lost wake-up)");
        stress.join().unwrap();
    }
}
