//! Rule executor: batches of rules run to fixed point (§4.2).
//!
//! "Catalyst groups rules into batches, and executes each batch until it
//! reaches a fixed point, that is, until the tree stops changing after
//! applying its rules." Rules report change through the
//! [`Transformed::changed`] flag; a batch terminates when a full pass over
//! its rules changes nothing, or when the iteration cap is hit (a safety
//! valve against non-converging rule sets).
//!
//! There is one loop, [`RuleExecutor::execute_monitored`], and an
//! [`ExecutionMonitor`] decides what it observes. A silent monitor
//! records nothing, so the walk costs only the rules. A recording one
//! counts every rule application into a [`RuleHealthReport`] and logs
//! every fire. A validating one also checks each change as a per-rule
//! post-condition (a rewrite that breaks a plan invariant is rolled back
//! and reported as an [`InvariantViolation`] with a structural
//! before/after diff) and probes rules for idempotence. Batches that
//! exhaust `max_iterations` without converging are recorded instead of
//! silently truncated.

use crate::tree::Transformed;

/// A named rewrite over trees of type `T`.
pub trait Rule<T>: Send + Sync {
    /// Rule name for tracing/EXPLAIN.
    fn name(&self) -> &str;
    /// Apply once; report whether anything changed.
    fn apply(&self, tree: T) -> Transformed<T>;
}

/// Wrap a closure as a rule.
pub struct FnRule<T> {
    name: String,
    f: Box<dyn Fn(T) -> Transformed<T> + Send + Sync>,
}

impl<T> FnRule<T> {
    /// Create a rule from a closure.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(T) -> Transformed<T> + Send + Sync + 'static,
    ) -> Self {
        FnRule {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl<T> Rule<T> for FnRule<T> {
    fn name(&self) -> &str {
        &self.name
    }
    fn apply(&self, tree: T) -> Transformed<T> {
        (self.f)(tree)
    }
}

/// How many times a batch may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Run each rule exactly once.
    Once,
    /// Iterate until no rule changes the tree, capped at `max_iterations`.
    FixedPoint {
        /// Iteration cap.
        max_iterations: usize,
    },
    /// Run the first batch of the same name again — its rules, not a
    /// copy of them — if the tree changed since that batch last ran.
    /// A batch at its fixed point would change nothing on the same tree,
    /// so the rerun is skipped then.
    Rerun,
}

/// A named group of rules with an execution strategy.
pub struct Batch<T> {
    /// Batch name.
    pub name: String,
    /// Execution strategy.
    pub strategy: Strategy,
    /// Rules in application order.
    pub rules: Vec<Box<dyn Rule<T>>>,
}

impl<T> Batch<T> {
    /// A fixed-point batch with the default cap of 100 iterations.
    pub fn fixed_point(name: impl Into<String>, rules: Vec<Box<dyn Rule<T>>>) -> Self {
        Batch {
            name: name.into(),
            strategy: Strategy::FixedPoint {
                max_iterations: 100,
            },
            rules,
        }
    }

    /// A once batch.
    pub fn once(name: impl Into<String>, rules: Vec<Box<dyn Rule<T>>>) -> Self {
        Batch {
            name: name.into(),
            strategy: Strategy::Once,
            rules,
        }
    }

    /// Run the earlier batch `name` again if the tree changed since it
    /// last ran ([`Strategy::Rerun`]). Holds no rules of its own.
    pub fn rerun(name: impl Into<String>) -> Self {
        Batch {
            name: name.into(),
            strategy: Strategy::Rerun,
            rules: Vec::new(),
        }
    }
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A rule application that changed the tree.
    RuleFired,
    /// A `FixedPoint` batch exhausted `max_iterations` while its last
    /// iteration was still changing the tree.
    NonConvergence,
}

/// Rendered before/after snapshot of a single rewrite (the plan-change
/// log). Only populated under monitored execution with a validator, since
/// rendering requires a [`RuleValidator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanChange {
    /// Plan rendering before the rule fired.
    pub before: String,
    /// Plan rendering after the rule fired.
    pub after: String,
    /// Line diff between the two (`-` removed, `+` added).
    pub diff: String,
}

/// Trace record of one rule application that changed the tree, or of a
/// batch that failed to converge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Batch the rule ran in.
    pub batch: String,
    /// Rule that fired (for [`TraceKind::NonConvergence`], the batch name).
    pub rule: String,
    /// Iteration within the batch (for non-convergence, the iteration cap).
    pub iteration: usize,
    /// What this event records.
    pub kind: TraceKind,
    /// Structural before/after change, when a plan-change log was requested.
    pub change: Option<PlanChange>,
}

impl TraceEvent {
    fn fired(batch: &str, rule: &str, iteration: usize, change: Option<PlanChange>) -> Self {
        TraceEvent {
            batch: batch.to_string(),
            rule: rule.to_string(),
            iteration,
            kind: TraceKind::RuleFired,
            change,
        }
    }

    fn non_convergence(batch: &str, max_iterations: usize) -> Self {
        TraceEvent {
            batch: batch.to_string(),
            rule: batch.to_string(),
            iteration: max_iterations,
            kind: TraceKind::NonConvergence,
            change: None,
        }
    }
}

/// One invariant violated by a rule rewrite, as reported by a
/// [`RuleValidator`]. The validator names the invariant; the executor
/// attaches batch/rule/iteration context to build an
/// [`InvariantViolation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleViolation {
    /// Name of the violated invariant (e.g. `schema-preserved`).
    pub invariant: String,
    /// Human-readable description of what went wrong.
    pub message: String,
}

/// A rule rewrite rejected by the validator, with full context: which
/// batch/rule/iteration produced it, which invariant broke, and a
/// structural before/after plan diff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Batch the offending rule ran in.
    pub batch: String,
    /// Rule whose rewrite violated the invariant.
    pub rule: String,
    /// Iteration within the batch.
    pub iteration: usize,
    /// Name of the violated invariant.
    pub invariant: String,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Line diff of the rejected rewrite (`-` before, `+` after).
    pub diff: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "invariant '{}' violated by rule '{}' (batch '{}', iteration {}): {}",
            self.invariant, self.rule, self.batch, self.iteration, self.message
        )?;
        write!(f, "plan diff:\n{}", self.diff)
    }
}

/// Post-condition checker plugged into monitored execution: after every
/// rule application that changed the tree, `validate(before, after)` runs
/// and any violations cause the rewrite to be rolled back and reported.
pub trait RuleValidator<T>: Send + Sync {
    /// Check the rewrite `before -> after`; empty means the rewrite is ok.
    fn validate(&self, before: &T, after: &T) -> Vec<RuleViolation>;
    /// Render a tree for the plan-change log.
    fn render(&self, tree: &T) -> String;
    /// Line diff between two renderings (`-` removed, `+` added).
    fn diff(&self, before: &T, after: &T) -> String {
        format!(
            "--- before\n{}\n+++ after\n{}",
            self.render(before),
            self.render(after)
        )
    }
}

/// Health counters for one rule within one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleHealth {
    /// Batch the rule belongs to.
    pub batch: String,
    /// Rule name.
    pub rule: String,
    /// Total applications (fired or not).
    pub applications: usize,
    /// Applications that changed the tree.
    pub fires: usize,
    /// Fires where immediately re-applying the rule changed the tree
    /// again — the rule is not idempotent on that input. Benign inside a
    /// `FixedPoint` batch (the loop re-runs it anyway) but a convergence
    /// hazard in a `Once` batch.
    pub reapply_changes: usize,
    /// Rewrites rejected by the validator and rolled back.
    pub rejected: usize,
}

impl RuleHealth {
    /// Fraction of applications that changed the tree (0.0 when never
    /// applied).
    pub fn effectiveness(&self) -> f64 {
        if self.applications == 0 {
            0.0
        } else {
            self.fires as f64 / self.applications as f64
        }
    }
}

/// A `FixedPoint` batch that hit its iteration cap while still changing
/// the tree. Before this report existed the executor silently kept the
/// last tree, hiding oscillating rule sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonConvergence {
    /// Batch that failed to converge.
    pub batch: String,
    /// The iteration cap that was exhausted.
    pub max_iterations: usize,
}

/// Aggregated per-rule health over one executor run: fire counts,
/// effectiveness, idempotence probes, rejected rewrites, and batches that
/// failed to converge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleHealthReport {
    /// Per-rule counters, in first-application order.
    pub rules: Vec<RuleHealth>,
    /// Batches that exhausted their iteration cap while still changing.
    pub non_converged: Vec<NonConvergence>,
}

impl RuleHealthReport {
    fn entry(&mut self, batch: &str, rule: &str) -> &mut RuleHealth {
        if let Some(i) = self
            .rules
            .iter()
            .position(|h| h.batch == batch && h.rule == rule)
        {
            return &mut self.rules[i];
        }
        self.rules.push(RuleHealth {
            batch: batch.to_string(),
            rule: rule.to_string(),
            applications: 0,
            fires: 0,
            reapply_changes: 0,
            rejected: 0,
        });
        self.rules.last_mut().unwrap()
    }

    /// Look up the counters for a rule, if it ever ran.
    pub fn health_for(&self, batch: &str, rule: &str) -> Option<&RuleHealth> {
        self.rules
            .iter()
            .find(|h| h.batch == batch && h.rule == rule)
    }

    /// Merge another report into this one (used when several executor runs
    /// back one query, e.g. re-analysis of subplans).
    pub fn merge(&mut self, other: &RuleHealthReport) {
        for h in &other.rules {
            let e = self.entry(&h.batch, &h.rule);
            e.applications += h.applications;
            e.fires += h.fires;
            e.reapply_changes += h.reapply_changes;
            e.rejected += h.rejected;
        }
        self.non_converged
            .extend(other.non_converged.iter().cloned());
    }

    /// Render the report as an aligned text table (the form surfaced next
    /// to `EXPLAIN ANALYZE` output).
    pub fn render(&self) -> String {
        let mut out = String::from("== Rule Health ==\n");
        if self.rules.is_empty() {
            out.push_str("(no rules ran)\n");
        } else {
            let bw = self
                .rules
                .iter()
                .map(|h| h.batch.len())
                .max()
                .unwrap()
                .max(5);
            let rw = self
                .rules
                .iter()
                .map(|h| h.rule.len())
                .max()
                .unwrap()
                .max(4);
            out.push_str(&format!(
                "{:bw$}  {:rw$}  {:>7}  {:>5}  {:>6}  {:>8}  {:>8}\n",
                "batch", "rule", "applied", "fired", "effect", "reapply", "rejected"
            ));
            for h in &self.rules {
                out.push_str(&format!(
                    "{:bw$}  {:rw$}  {:>7}  {:>5}  {:>5.0}%  {:>8}  {:>8}\n",
                    h.batch,
                    h.rule,
                    h.applications,
                    h.fires,
                    h.effectiveness() * 100.0,
                    h.reapply_changes,
                    h.rejected,
                ));
            }
        }
        if self.non_converged.is_empty() {
            out.push_str("non-converged batches: none\n");
        } else {
            for nc in &self.non_converged {
                out.push_str(&format!(
                    "non-converged batch: '{}' still changing after {} iterations\n",
                    nc.batch, nc.max_iterations
                ));
            }
        }
        out
    }
}

/// Decides what [`RuleExecutor::execute_monitored`] observes and collects
/// it: the plan-change trace, per-rule health counters, and validator
/// violations. Create one per run.
pub struct ExecutionMonitor<'a, T> {
    validator: Option<&'a dyn RuleValidator<T>>,
    /// Count applications and fires and log the trace.
    record: bool,
    /// Plan-change log: one event per fired rule plus non-convergence
    /// markers.
    pub trace: Vec<TraceEvent>,
    /// Per-rule health counters.
    pub health: RuleHealthReport,
    /// Rewrites rejected (and rolled back) by the validator.
    pub violations: Vec<InvariantViolation>,
}

impl<T> ExecutionMonitor<'static, T> {
    /// Record health and trace, without validation and without cloning
    /// the tree.
    pub fn new() -> Self {
        Self::build(None, true)
    }

    /// Record nothing: the run costs the rules and nothing else.
    pub fn silent() -> Self {
        Self::build(None, false)
    }
}

impl<T> Default for ExecutionMonitor<'static, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, T> ExecutionMonitor<'a, T> {
    /// Record, and check every changed rewrite with `validator` as a
    /// post-condition: render it into the plan-change log and probe it
    /// for idempotence.
    pub fn with_validator(validator: &'a dyn RuleValidator<T>) -> Self {
        Self::build(Some(validator), true)
    }

    fn build(validator: Option<&'a dyn RuleValidator<T>>, record: bool) -> Self {
        ExecutionMonitor {
            validator,
            record,
            trace: Vec::new(),
            health: RuleHealthReport::default(),
            violations: Vec::new(),
        }
    }
}

/// Runs batches of rules in order.
pub struct RuleExecutor<T> {
    batches: Vec<Batch<T>>,
}

impl<T> RuleExecutor<T> {
    /// Build an executor from batches.
    pub fn new(batches: Vec<Batch<T>>) -> Self {
        RuleExecutor { batches }
    }

    /// Insert a batch at `index` (the extension point: "developers can
    /// add batches of rules to each phase of query optimization at
    /// runtime", §4.4).
    pub fn insert_batch(&mut self, index: usize, batch: Batch<T>) {
        self.batches.insert(index, batch);
    }

    /// The batches, in the order they run.
    pub fn batches(&self) -> &[Batch<T>] {
        &self.batches
    }
}

impl<T: Clone> RuleExecutor<T> {
    /// Run the first `n` batches under `monitor` (all of them when `n` is
    /// `batches().len()`): count applications and
    /// fires per rule and record the plan-change log when it records, and
    /// — when it carries a [`RuleValidator`] — probe idempotence and check
    /// every changed rewrite as a post-condition. A rewrite that violates
    /// an invariant is **rolled back** (the rule's output is discarded)
    /// and reported in [`ExecutionMonitor::violations`], so a buggy rule
    /// cannot corrupt the tree it hands downstream. A `FixedPoint` batch
    /// that exhausts its cap while still changing is recorded as a
    /// [`NonConvergence`] and a [`TraceKind::NonConvergence`] event.
    pub fn execute_monitored(
        &self,
        n: usize,
        mut tree: T,
        monitor: &mut ExecutionMonitor<'_, T>,
    ) -> T {
        // Rewrites kept so far, and how many there were when each batch
        // last finished: a `Rerun` only runs if the count moved since.
        let mut kept = 0usize;
        let mut finished_at = vec![None; self.batches.len()];
        for (i, step) in self.batches[..n].iter().enumerate() {
            let index = match step.strategy {
                Strategy::Rerun => {
                    let j = self.batches[..i]
                        .iter()
                        .position(|b| b.name == step.name && b.strategy != Strategy::Rerun)
                        .unwrap_or_else(|| panic!("no batch '{}' to run again", step.name));
                    if finished_at[j] == Some(kept) {
                        continue;
                    }
                    j
                }
                _ => i,
            };
            let batch = &self.batches[index];
            let max = match batch.strategy {
                Strategy::FixedPoint { max_iterations } => max_iterations,
                _ => 1,
            };
            let mut converged = false;
            for iteration in 0..max {
                let mut any_change = false;
                for rule in &batch.rules {
                    let before = monitor.validator.map(|_| tree.clone());
                    let out = rule.apply(tree);
                    if monitor.record {
                        monitor.health.entry(&batch.name, rule.name()).applications += 1;
                    }
                    if !out.changed {
                        tree = out.data;
                        continue;
                    }
                    if let (Some(v), Some(b)) = (monitor.validator, &before) {
                        let entry = monitor.health.entry(&batch.name, rule.name());
                        if rule.apply(out.data.clone()).changed {
                            entry.reapply_changes += 1;
                        }
                        let violations = v.validate(b, &out.data);
                        if !violations.is_empty() {
                            entry.rejected += 1;
                            let diff = v.diff(b, &out.data);
                            for viol in violations {
                                monitor.violations.push(InvariantViolation {
                                    batch: batch.name.clone(),
                                    rule: rule.name().to_string(),
                                    iteration,
                                    invariant: viol.invariant,
                                    message: viol.message,
                                    diff: diff.clone(),
                                });
                            }
                            tree = before.expect("validator implies before snapshot");
                            continue;
                        }
                    }
                    any_change = true;
                    kept += 1;
                    if monitor.record {
                        monitor.health.entry(&batch.name, rule.name()).fires += 1;
                        let change =
                            monitor
                                .validator
                                .zip(before.as_ref())
                                .map(|(v, b)| PlanChange {
                                    before: v.render(b),
                                    after: v.render(&out.data),
                                    diff: v.diff(b, &out.data),
                                });
                        monitor.trace.push(TraceEvent::fired(
                            &batch.name,
                            rule.name(),
                            iteration,
                            change,
                        ));
                    }
                    tree = out.data;
                }
                if !any_change {
                    converged = true;
                    break;
                }
            }
            finished_at[index] = Some(kept);
            let fixed_point = matches!(batch.strategy, Strategy::FixedPoint { .. });
            if !converged && fixed_point && monitor.record {
                monitor.health.non_converged.push(NonConvergence {
                    batch: batch.name.clone(),
                    max_iterations: max,
                });
                monitor
                    .trace
                    .push(TraceEvent::non_convergence(&batch.name, max));
            }
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trees are plain i64 here; rules are numeric rewrites.
    fn halve() -> Box<dyn Rule<i64>> {
        Box::new(FnRule::new("halve", |n: i64| {
            if n > 1 && n % 2 == 0 {
                Transformed::yes(n / 2)
            } else {
                Transformed::no(n)
            }
        }))
    }

    fn dec_odd() -> Box<dyn Rule<i64>> {
        Box::new(FnRule::new("dec-odd", |n: i64| {
            if n > 1 && n % 2 == 1 {
                Transformed::yes(n - 1)
            } else {
                Transformed::no(n)
            }
        }))
    }

    fn run(exec: &RuleExecutor<i64>, n: i64) -> i64 {
        exec.execute_monitored(exec.batches().len(), n, &mut ExecutionMonitor::silent())
    }

    #[test]
    fn fixed_point_composes_simple_rules_into_global_effect() {
        // Collatz-ish: repeatedly halving/decrementing reaches 1 — each
        // rule is tiny but the batch has a large cumulative effect (§4.2).
        let exec = RuleExecutor::new(vec![Batch::fixed_point("shrink", vec![halve(), dec_odd()])]);
        assert_eq!(run(&exec, 1000), 1);
        assert_eq!(run(&exec, 77), 1);
    }

    #[test]
    fn once_strategy_runs_single_pass() {
        let exec = RuleExecutor::new(vec![Batch::once("shrink", vec![halve()])]);
        assert_eq!(run(&exec, 8), 4);
    }

    #[test]
    fn iteration_cap_stops_nonconverging_batches() {
        let flip = Box::new(FnRule::new("flip", |n: i64| Transformed::yes(-n)));
        let exec = RuleExecutor::new(vec![Batch {
            name: "osc".into(),
            strategy: Strategy::FixedPoint { max_iterations: 7 },
            rules: vec![flip],
        }]);
        // 7 iterations of negation: odd count -> negated.
        assert_eq!(run(&exec, 5), -5);
    }

    #[test]
    fn trace_records_fired_rules() {
        let exec = RuleExecutor::new(vec![Batch::fixed_point("shrink", vec![halve()])]);
        let mut monitor = ExecutionMonitor::new();
        exec.execute_monitored(exec.batches().len(), 8, &mut monitor);
        let trace = monitor.trace;
        assert_eq!(trace.len(), 3); // 8 -> 4 -> 2 -> 1
        assert!(trace.iter().all(|e| e.rule == "halve"));
        assert!(trace.iter().all(|e| e.kind == TraceKind::RuleFired));
    }

    #[test]
    fn inserted_batches_run_at_their_position() {
        let double = || -> Box<dyn Rule<i64>> {
            Box::new(FnRule::new("double", |n: i64| Transformed::yes(n * 2)))
        };
        let mut exec = RuleExecutor::new(vec![Batch::once("double", vec![double()])]);
        exec.insert_batch(
            0,
            Batch::once(
                "user",
                vec![Box::new(FnRule::new("plus-one", |n: i64| {
                    Transformed::yes(n + 1)
                }))],
            ),
        );
        assert_eq!(run(&exec, 1), 4);
        assert_eq!(exec.batches()[0].name, "user");
    }

    #[test]
    fn silent_monitor_records_nothing() {
        let exec = RuleExecutor::new(vec![Batch::fixed_point("shrink", vec![halve(), dec_odd()])]);
        let mut monitor = ExecutionMonitor::silent();
        assert_eq!(
            exec.execute_monitored(exec.batches().len(), 1000, &mut monitor),
            1
        );
        assert!(monitor.trace.is_empty());
        assert!(monitor.health.rules.is_empty());
    }

    #[test]
    fn rerun_runs_the_named_batch_again_only_after_a_change() {
        let to_ten = Box::new(FnRule::new("to-ten", |n: i64| {
            if n == 5 {
                Transformed::yes(10)
            } else {
                Transformed::no(n)
            }
        }));
        let exec = RuleExecutor::new(vec![
            Batch::fixed_point("shrink", vec![halve(), dec_odd()]),
            Batch::once(
                "bump",
                vec![Box::new(FnRule::new("to-five", |n: i64| {
                    if n == 1 {
                        Transformed::yes(5)
                    } else {
                        Transformed::no(n)
                    }
                }))],
            ),
            Batch::once("spike", vec![to_ten]),
            Batch::rerun("shrink"),
        ]);
        // 8 shrinks to 1, "bump" makes it 5 and "spike" 10: the tree
        // changed since "shrink" ran, so it runs again — the same rules,
        // counted under the same batch.
        let mut monitor = ExecutionMonitor::new();
        assert_eq!(
            exec.execute_monitored(exec.batches().len(), 8, &mut monitor),
            1
        );
        let h = monitor.health.health_for("shrink", "halve").unwrap();
        assert_eq!(h.fires, 3 + 3);
        assert_eq!(monitor.health.rules.len(), 4);

        // The first three batches alone stop at 10.
        assert_eq!(
            exec.execute_monitored(3, 8, &mut ExecutionMonitor::silent()),
            10
        );

        // Nothing changed after "shrink": no rerun, no second round of
        // applications.
        let quiet = RuleExecutor::new(vec![
            Batch::fixed_point("shrink", vec![halve()]),
            Batch::rerun("shrink"),
        ]);
        let mut monitor = ExecutionMonitor::new();
        assert_eq!(
            quiet.execute_monitored(quiet.batches().len(), 3, &mut monitor),
            3
        );
        assert_eq!(
            monitor
                .health
                .health_for("shrink", "halve")
                .unwrap()
                .applications,
            1
        );
    }

    #[test]
    fn oscillating_batch_reports_non_convergence() {
        // An oscillating rule (n -> -n forever) must not fail silently:
        // both the trace and the health report name the batch and its cap.
        let flip = Box::new(FnRule::new("flip", |n: i64| Transformed::yes(-n)));
        let exec = RuleExecutor::new(vec![Batch {
            name: "osc".into(),
            strategy: Strategy::FixedPoint { max_iterations: 7 },
            rules: vec![flip],
        }]);

        let mut monitor = ExecutionMonitor::new();
        assert_eq!(
            exec.execute_monitored(exec.batches().len(), 5, &mut monitor),
            -5
        );
        let nc: Vec<_> = monitor
            .trace
            .iter()
            .filter(|e| e.kind == TraceKind::NonConvergence)
            .collect();
        assert_eq!(nc.len(), 1);
        assert_eq!(nc[0].batch, "osc");
        assert_eq!(nc[0].iteration, 7);
        assert_eq!(monitor.health.non_converged.len(), 1);
        assert_eq!(monitor.health.non_converged[0].batch, "osc");
        assert_eq!(monitor.health.non_converged[0].max_iterations, 7);
        let report = monitor.health.render();
        assert!(report.contains("non-converged batch: 'osc'"), "{report}");
    }

    #[test]
    fn converging_batches_report_no_non_convergence() {
        let exec = RuleExecutor::new(vec![Batch::fixed_point("shrink", vec![halve(), dec_odd()])]);
        let mut monitor = ExecutionMonitor::new();
        exec.execute_monitored(exec.batches().len(), 1000, &mut monitor);
        assert!(monitor.health.non_converged.is_empty());
        assert!(monitor.trace.iter().all(|e| e.kind == TraceKind::RuleFired));
    }

    #[test]
    fn monitor_counts_applications_fires_and_effectiveness() {
        let exec = RuleExecutor::new(vec![Batch::fixed_point("shrink", vec![halve(), dec_odd()])]);
        let mut monitor = ExecutionMonitor::new();
        assert_eq!(
            exec.execute_monitored(exec.batches().len(), 8, &mut monitor),
            1
        );
        // 8 -> 4 -> 2 -> 1, then one clean pass: halve applied 4x, fired 3x.
        let h = monitor.health.health_for("shrink", "halve").unwrap();
        assert_eq!(h.applications, 4);
        assert_eq!(h.fires, 3);
        assert!((h.effectiveness() - 0.75).abs() < 1e-9);
        let d = monitor.health.health_for("shrink", "dec-odd").unwrap();
        assert_eq!(d.fires, 0);
        assert_eq!(d.effectiveness(), 0.0);
        // One trace event per fire.
        assert_eq!(monitor.trace.len(), 3);
    }

    struct NegativeForbidden;
    impl RuleValidator<i64> for NegativeForbidden {
        fn validate(&self, _before: &i64, after: &i64) -> Vec<RuleViolation> {
            if *after < 0 {
                vec![RuleViolation {
                    invariant: "non-negative".into(),
                    message: format!("tree became {after}"),
                }]
            } else {
                Vec::new()
            }
        }
        fn render(&self, tree: &i64) -> String {
            tree.to_string()
        }
    }

    #[test]
    fn validator_rejects_and_rolls_back_bad_rewrites() {
        // "negate" breaks the invariant; "halve" is fine. The bad rewrite
        // must be rolled back so the good rule still converges.
        let negate = Box::new(FnRule::new("negate", |n: i64| {
            if n > 2 {
                Transformed::yes(-n)
            } else {
                Transformed::no(n)
            }
        }));
        let exec = RuleExecutor::new(vec![Batch::fixed_point("mix", vec![negate, halve()])]);
        let validator = NegativeForbidden;
        let mut monitor = ExecutionMonitor::with_validator(&validator);
        assert_eq!(
            exec.execute_monitored(exec.batches().len(), 8, &mut monitor),
            1
        );
        assert!(!monitor.violations.is_empty());
        let v = &monitor.violations[0];
        assert_eq!(v.batch, "mix");
        assert_eq!(v.rule, "negate");
        assert_eq!(v.invariant, "non-negative");
        assert!(
            v.diff.contains('8'),
            "diff should show the before tree: {}",
            v.diff
        );
        let h = monitor.health.health_for("mix", "negate").unwrap();
        assert!(h.rejected >= 1);
        assert_eq!(h.fires, 0);
    }

    #[test]
    fn monitor_probes_idempotence() {
        // inc-to-10 changes its own output when re-applied (7 -> 8 then
        // 8 -> 9): not idempotent. halve on 8 -> 4 also re-fires. Use a
        // rule idempotent by construction for the negative case.
        let snap = Box::new(FnRule::new("snap-to-zero", |n: i64| {
            if n != 0 {
                Transformed::yes(0)
            } else {
                Transformed::no(n)
            }
        }));
        let inc = Box::new(FnRule::new("inc-to-10", |n: i64| {
            if n < 10 {
                Transformed::yes(n + 1)
            } else {
                Transformed::no(n)
            }
        }));
        let validator = NegativeForbidden;
        let exec = RuleExecutor::new(vec![Batch::fixed_point("probe", vec![inc, snap])]);
        let mut monitor = ExecutionMonitor::with_validator(&validator);
        exec.execute_monitored(exec.batches().len(), 5, &mut monitor);
        assert!(
            monitor
                .health
                .health_for("probe", "inc-to-10")
                .unwrap()
                .reapply_changes
                > 0
        );
        assert_eq!(
            monitor
                .health
                .health_for("probe", "snap-to-zero")
                .unwrap()
                .reapply_changes,
            0
        );
    }

    #[test]
    fn change_log_records_before_after_and_diff() {
        let validator = NegativeForbidden;
        let exec = RuleExecutor::new(vec![Batch::fixed_point("shrink", vec![halve()])]);
        let mut monitor = ExecutionMonitor::with_validator(&validator);
        exec.execute_monitored(exec.batches().len(), 4, &mut monitor);
        let change = monitor.trace[0]
            .change
            .as_ref()
            .expect("change log populated");
        assert_eq!(change.before, "4");
        assert_eq!(change.after, "2");
    }

    #[test]
    fn health_report_renders_table() {
        let exec = RuleExecutor::new(vec![Batch::fixed_point("shrink", vec![halve()])]);
        let mut monitor = ExecutionMonitor::new();
        exec.execute_monitored(exec.batches().len(), 8, &mut monitor);
        let report = monitor.health.render();
        assert!(report.contains("halve"), "{report}");
        assert!(report.contains("non-converged batches: none"), "{report}");
    }
}
