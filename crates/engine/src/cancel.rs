//! Cooperative query cancellation and deadlines.
//!
//! A [`CancelToken`] is shared between the driver thread that owns a job
//! and everything that runs on its behalf. Cancellation is *cooperative*:
//! nothing is killed. Task-side code calls [`check`] at partition
//! boundaries (and every few hundred rows in tight iterators); once the
//! token has fired, the check returns [`crate::EngineError::Cancelled`],
//! which the task records in its error slot ([`crate::task`]) before
//! ending its stream. Dropping the stream releases memory reservations
//! and spill files. The scheduler reads the slot and aborts the job
//! instead of retrying the task.
//!
//! The driver side installs the token thread-locally ([`install`]) so the
//! scheduler's result-wait loop can abandon a stage between task
//! completions without plumbing a token through every `run_job` call.
//!
//! Deadlines are just tokens that fire on their own: a token built with
//! [`CancelToken::with_deadline`] reports [`CancelReason::DeadlineExceeded`]
//! once the instant passes, whether or not anyone called
//! [`CancelToken::cancel`].

use crate::error::EngineError;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a token fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called (client cancel, shutdown, ...).
    Cancelled,
    /// The token's deadline passed before the query finished.
    DeadlineExceeded,
}

impl CancelReason {
    /// Human-readable phrase used in error messages.
    pub fn describe(self) -> &'static str {
        match self {
            CancelReason::Cancelled => "query cancelled",
            CancelReason::DeadlineExceeded => "query deadline exceeded",
        }
    }
}

struct TokenInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// Shared cancellation flag with an optional deadline.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same state.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token that only fires on an explicit [`cancel`](Self::cancel).
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Fire the token. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// `Some(reason)` once the token has fired, `None` while live.
    ///
    /// An explicit cancel wins over a deadline when both apply, so a
    /// client that cancels a query just as it times out sees "cancelled".
    pub fn state(&self) -> Option<CancelReason> {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return Some(CancelReason::Cancelled);
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// Has the token fired (explicitly or by deadline)?
    pub fn is_cancelled(&self) -> bool {
        self.state().is_some()
    }
}

/// Task-side cancellation point: [`EngineError::Cancelled`] once the
/// token has fired. Call at partition boundaries and periodically inside
/// long row loops.
pub fn check(token: &CancelToken) -> Result<(), EngineError> {
    match token.state() {
        Some(reason) => Err(EngineError::Cancelled {
            reason: reason.describe().to_string(),
        }),
        None => Ok(()),
    }
}

thread_local! {
    // A stack, not a slot: nested jobs (cache materializers) run under the
    // outermost query's token but must restore it when they pop.
    static CURRENT: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// Install `token` as the current thread's driver-side token until the
/// returned guard drops. The scheduler's wait loop polls it between task
/// completions so a cancelled job stops scheduling new stages promptly.
pub fn install(token: CancelToken) -> InstallGuard {
    CURRENT.with(|c| c.borrow_mut().push(token));
    InstallGuard { _priv: () }
}

/// The innermost token installed on this thread, if any.
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// RAII guard returned by [`install`]; pops the token on drop.
pub struct InstallGuard {
    _priv: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn explicit_cancel_fires() {
        let t = CancelToken::new();
        assert_eq!(t.state(), None);
        t.cancel();
        assert_eq!(t.state(), Some(CancelReason::Cancelled));
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_fires_on_its_own() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.state(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn explicit_cancel_wins_over_deadline() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        t.cancel();
        assert_eq!(t.state(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn check_returns_cancelled_once_fired() {
        let t = CancelToken::new();
        assert!(check(&t).is_ok());
        t.cancel();
        assert!(matches!(
            check(&t),
            Err(EngineError::Cancelled { reason }) if reason == "query cancelled"
        ));
    }

    #[test]
    fn install_stacks_and_restores() {
        assert!(current().is_none());
        let outer = CancelToken::new();
        let g1 = install(outer.clone());
        {
            let inner = CancelToken::new();
            let _g2 = install(inner.clone());
            inner.cancel();
            assert!(current().unwrap().is_cancelled());
        }
        assert!(!current().unwrap().is_cancelled());
        drop(g1);
        assert!(current().is_none());
    }
}
