//! The running task's error slot.
//!
//! Task-side code never unwinds to report an error: it records the error
//! here ([`fail`], or [`ok`] on a `Result`) and ends its stream, and the
//! scheduler reads the slot once the task returns. A task whose slot is
//! set publishes nothing ([`failed`]): no map output, no cache block.
//!
//! The slot is a thread-local stack: a task blocked on a nested job
//! steals and runs other tasks on its own thread, each with its own slot.

use crate::error::EngineError;
use std::cell::RefCell;
use std::error::Error;

thread_local! {
    static SLOTS: RefCell<Vec<Option<EngineError>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` (which must not unwind) with a fresh slot; returns its value
/// and the error it recorded.
pub(crate) fn scoped<R>(f: impl FnOnce() -> R) -> (R, Option<EngineError>) {
    SLOTS.with(|s| s.borrow_mut().push(None));
    let out = f();
    let err = SLOTS.with(|s| s.borrow_mut().pop().flatten());
    (out, err)
}

/// Record `err` as the running task's failure; the first error recorded
/// wins. Recording outside any task is a bug.
pub fn fail(err: EngineError) {
    SLOTS.with(|s| match s.borrow_mut().last_mut() {
        Some(slot) => {
            slot.get_or_insert(err);
        }
        None => panic!("task error raised outside a task: {err}"),
    });
}

/// The value of `result`, or `None` after recording its error with
/// [`fail`]. An [`EngineError`] is recorded as itself, any other error
/// as [`EngineError::Task`].
pub fn ok<T, E: Into<Box<dyn Error + Send + Sync>>>(result: Result<T, E>) -> Option<T> {
    match result {
        Ok(v) => Some(v),
        Err(e) => {
            fail(match e.into().downcast::<EngineError>() {
                Ok(e) => *e,
                Err(e) => EngineError::Task(e.into()),
            });
            None
        }
    }
}

/// Has the running task recorded an error? `false` outside any task.
pub fn failed() -> bool {
    SLOTS.with(|s| matches!(s.borrow().last(), Some(Some(_))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_error_wins_and_nested_slots_are_separate() {
        let ((), outer) = scoped(|| {
            assert!(!failed());
            assert_eq!(ok::<(), _>(Err(EngineError::Io("first".into()))), None);
            let ((), inner) = scoped(|| {
                assert!(!failed());
                let _ = ok::<(), _>(Err("nested"));
            });
            assert!(matches!(inner, Some(EngineError::Task(e)) if e.to_string() == "nested"));
            fail(EngineError::Io("second".into()));
            assert!(failed());
        });
        assert!(matches!(outer, Some(EngineError::Io(m)) if m == "first"));
        assert!(!failed());
    }

    #[test]
    fn a_clean_task_leaves_its_slot_empty() {
        let (v, err) = scoped(|| ok::<_, EngineError>(Ok(7)));
        assert_eq!(v, Some(7));
        assert!(err.is_none());
    }
}
