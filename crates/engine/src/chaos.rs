//! Deterministic failure injection ("chaos") for fault-tolerance testing.
//!
//! A [`ChaosPlan`] decides, from a seed and pure hashing, where faults
//! strike: a task panics at launch, an executor dies (losing every
//! shuffle bucket and cache block it owns — see
//! [`crate::SparkContext::lose_executor`]), or a shuffle fetch fails even
//! though the bucket exists. Decisions depend only on `(seed, stage,
//! partition)` / `(seed, shuffle, map)`, so a given seed reproduces the
//! same fault schedule on every run — the property the chaos CI job and
//! `chaos_props` sweep rely on.
//!
//! Termination is guaranteed by construction: faults only hit attempt 0
//! of a task, each `(shuffle, map)` fetch fails at most once (unless
//! [`ChaosConf::repeat_fetch_faults`] is set to test retry exhaustion;
//! the shuffle dependency keeps the once-per-map flag, so it goes with
//! the shuffle),
//! and every fault kind has a budget. With the default budgets a context
//! absorbs all injected faults well inside `max_task_retries` ×
//! `max_stage_retries`.
//!
//! Setting `ENGINE_CHAOS_SEED` in the environment installs a plan in
//! every new [`crate::SparkContext`] (see [`ChaosConf::from_env`]);
//! `ENGINE_CHAOS_PROB` optionally overrides both fault probabilities.
//! Tests that assert exact task/stage counters opt out with
//! `sc.set_chaos(None)`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The kinds of fault a [`ChaosPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The task fails at launch (stands in for an uncaught task panic);
    /// the scheduler retries it in place up to `max_task_retries`.
    TaskPanic,
    /// The executor running the task dies: its cache blocks are dropped
    /// and its shuffle buckets count as missing from then on, then the
    /// task fails. Downstream reads of the lost buckets surface as fetch
    /// failures.
    ExecutorDeath,
    /// A shuffle fetch fails (as if the serving executor's files were
    /// lost); the scheduler removes that map output and resubmits the
    /// parent map stage.
    FetchFailure,
}

/// Configuration of a [`ChaosPlan`].
#[derive(Debug, Clone)]
pub struct ChaosConf {
    /// Seed all fault decisions derive from.
    pub seed: u64,
    /// Probability a task launch (attempt 0) is a fault candidate.
    pub task_fault_prob: f64,
    /// Probability a `(shuffle, map)` fetch is a fault candidate.
    pub fetch_fault_prob: f64,
    /// Budget of injected task panics.
    pub max_task_panics: u64,
    /// Budget of injected executor deaths.
    pub max_executor_deaths: u64,
    /// Budget of injected fetch failures.
    pub max_fetch_failures: u64,
    /// Allow the same `(shuffle, map)` fetch to fail repeatedly. Off by
    /// default (each pair fails at most once, so recovery always
    /// converges); tests turn it on to drive stage-retry exhaustion.
    pub repeat_fetch_faults: bool,
}

impl Default for ChaosConf {
    fn default() -> Self {
        ChaosConf {
            seed: 0,
            task_fault_prob: 0.05,
            fetch_fault_prob: 0.05,
            max_task_panics: 2,
            max_executor_deaths: 1,
            max_fetch_failures: 2,
            repeat_fetch_faults: false,
        }
    }
}

impl ChaosConf {
    /// Default configuration with the given seed.
    pub fn seeded(seed: u64) -> Self {
        ChaosConf {
            seed,
            ..Default::default()
        }
    }

    /// Configuration from the environment: `Some` when
    /// `ENGINE_CHAOS_SEED` holds a u64, with `ENGINE_CHAOS_PROB`
    /// optionally overriding both fault probabilities.
    pub fn from_env() -> Option<Self> {
        let seed = std::env::var("ENGINE_CHAOS_SEED")
            .ok()?
            .trim()
            .parse::<u64>()
            .ok()?;
        let mut conf = ChaosConf::seeded(seed);
        if let Ok(p) = std::env::var("ENGINE_CHAOS_PROB") {
            if let Ok(p) = p.trim().parse::<f64>() {
                conf.task_fault_prob = p;
                conf.fetch_fault_prob = p;
            }
        }
        Some(conf)
    }
}

/// Counts of faults a plan has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Injected task panics.
    pub task_panics: u64,
    /// Injected executor deaths.
    pub executor_deaths: u64,
    /// Injected fetch failures.
    pub fetch_failures: u64,
}

/// A seeded, budgeted fault schedule. Install on a context with
/// [`crate::SparkContext::set_chaos`]; the scheduler and the shuffle
/// fetch path consult it at every decision point.
pub struct ChaosPlan {
    conf: ChaosConf,
    task_panics: AtomicU64,
    executor_deaths: AtomicU64,
    fetch_failures: AtomicU64,
}

impl ChaosPlan {
    /// Build a plan from a configuration.
    pub fn new(conf: ChaosConf) -> Self {
        ChaosPlan {
            conf,
            task_panics: AtomicU64::new(0),
            executor_deaths: AtomicU64::new(0),
            fetch_failures: AtomicU64::new(0),
        }
    }

    /// Default-configured plan with the given seed.
    pub fn seeded(seed: u64) -> Self {
        ChaosPlan::new(ChaosConf::seeded(seed))
    }

    /// The configuration this plan was built from.
    pub fn conf(&self) -> &ChaosConf {
        &self.conf
    }

    /// Decide a launch-time fault for a task. Only attempt 0 is ever
    /// faulted, so in-place retries always make progress.
    pub fn task_fault(
        &self,
        stage_id: usize,
        partition: usize,
        attempt: usize,
    ) -> Option<FaultKind> {
        if attempt != 0 {
            return None;
        }
        let h = hash3(
            self.conf.seed,
            0x7A5C_u64,
            stage_id as u64,
            partition as u64,
        );
        if !below(h, self.conf.task_fault_prob) {
            return None;
        }
        // A second hash picks the kind; fall back to the other when its
        // budget is spent (deaths are the rarer, more disruptive fault).
        let kinds = if hash3(
            self.conf.seed,
            0xDEAD_u64,
            stage_id as u64,
            partition as u64,
        )
        .is_multiple_of(4)
        {
            [FaultKind::ExecutorDeath, FaultKind::TaskPanic]
        } else {
            [FaultKind::TaskPanic, FaultKind::ExecutorDeath]
        };
        for kind in kinds {
            let claimed = match kind {
                FaultKind::TaskPanic => claim(&self.task_panics, self.conf.max_task_panics),
                FaultKind::ExecutorDeath => {
                    claim(&self.executor_deaths, self.conf.max_executor_deaths)
                }
                FaultKind::FetchFailure => false,
            };
            if claimed {
                return Some(kind);
            }
        }
        None
    }

    /// Decide whether fetching map output `(shuffle_id, map_id)` should
    /// fail right now. `decided` is that output's flag, set the first
    /// time it is a fault candidate: a retried fetch then succeeds and
    /// recovery converges.
    pub fn fetch_fault(&self, shuffle_id: usize, map_id: usize, decided: &AtomicBool) -> bool {
        let h = hash3(self.conf.seed, 0xFE7C_u64, shuffle_id as u64, map_id as u64);
        if !below(h, self.conf.fetch_fault_prob) {
            return false;
        }
        if !self.conf.repeat_fetch_faults && decided.swap(true, Ordering::SeqCst) {
            return false;
        }
        claim(&self.fetch_failures, self.conf.max_fetch_failures)
    }

    /// How many faults of each kind the plan has injected.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            task_panics: self.task_panics.load(Ordering::Relaxed),
            executor_deaths: self.executor_deaths.load(Ordering::Relaxed),
            fetch_failures: self.fetch_failures.load(Ordering::Relaxed),
        }
    }
}

/// Atomically claim one unit of a budget; false once exhausted.
fn claim(counter: &AtomicU64, max: u64) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < max).then_some(n + 1)
        })
        .is_ok()
}

/// splitmix64 finalizer — a well-mixed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash3(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    mix(seed ^ mix(tag ^ mix(a ^ mix(b))))
}

fn below(hash: u64, prob: f64) -> bool {
    (hash as f64) < prob * (u64::MAX as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = ChaosPlan::seeded(7);
        let b = ChaosPlan::seeded(7);
        for stage in 0..50 {
            for p in 0..8 {
                assert_eq!(a.task_fault(stage, p, 0), b.task_fault(stage, p, 0));
            }
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn budgets_bound_injected_faults() {
        let plan = ChaosPlan::new(ChaosConf {
            task_fault_prob: 1.0,
            fetch_fault_prob: 1.0,
            ..ChaosConf::seeded(3)
        });
        for stage in 0..100 {
            plan.task_fault(stage, 0, 0);
            plan.fetch_fault(stage, 0, &AtomicBool::new(false));
        }
        let s = plan.stats();
        assert_eq!(s.task_panics, 2);
        assert_eq!(s.executor_deaths, 1);
        assert_eq!(s.fetch_failures, 2);
    }

    #[test]
    fn retries_are_never_faulted() {
        let plan = ChaosPlan::new(ChaosConf {
            task_fault_prob: 1.0,
            ..ChaosConf::seeded(1)
        });
        assert!(plan.task_fault(0, 0, 1).is_none());
        assert!(plan.task_fault(0, 0, 2).is_none());
    }

    #[test]
    fn fetch_faults_fire_once_per_map_output() {
        let plan = ChaosPlan::new(ChaosConf {
            fetch_fault_prob: 1.0,
            max_fetch_failures: 100,
            ..ChaosConf::seeded(5)
        });
        let (map0, map1) = (AtomicBool::new(false), AtomicBool::new(false));
        assert!(plan.fetch_fault(1, 0, &map0));
        assert!(
            !plan.fetch_fault(1, 0, &map0),
            "second fetch of the same output must succeed"
        );
        assert!(plan.fetch_fault(1, 1, &map1));
    }

    #[test]
    fn repeat_mode_keeps_failing_the_same_fetch() {
        let plan = ChaosPlan::new(ChaosConf {
            fetch_fault_prob: 1.0,
            max_fetch_failures: 100,
            repeat_fetch_faults: true,
            ..ChaosConf::seeded(5)
        });
        let map0 = AtomicBool::new(false);
        assert!(plan.fetch_fault(1, 0, &map0));
        assert!(plan.fetch_fault(1, 0, &map0));
    }
}
