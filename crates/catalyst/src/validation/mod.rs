//! Plan-integrity checking: static analysis over logical and physical
//! plans (§4.2's debuggability claim, made machine-checked).
//!
//! The paper argues Catalyst's rule-based design is easy to extend and
//! debug; that only holds if a rule that breaks a plan invariant is
//! caught the moment it fires, not three phases later as a wrong result.
//! Production Spark later grew exactly this tooling
//! (`LogicalPlanIntegrity`, `PlanChangeLogger`); this module is the
//! equivalent:
//!
//! - [`PlanValidator::check_logical`] validates a standalone logical plan
//!   (after analysis): no unresolved placeholders, every attribute
//!   reference reachable from children, globally consistent expression
//!   ids, named projection outputs, well-typed expressions, Boolean
//!   predicates, consistent unions, and disjoint join inputs.
//! - [`PlanValidator::check_rewrite`] validates one optimizer rewrite as
//!   a per-rule post-condition: the output schema (names, types, ids)
//!   must survive, and the rewrite must not introduce any new invariant
//!   violation. Violations present *before* the rewrite are not blamed
//!   on the rule that happened to fire next.
//! - [`PlanValidator::check_physical`] validates a physical plan:
//!   references bound to the right child, shuffle-boundary expectations
//!   (hash-join keys present, aligned, and comparable; each co-location
//!   point over the exchange it needs, and exchanges nowhere else),
//!   broadcast build-side legality, and union shape.
//!
//! The validator plugs into [`crate::rules::RuleExecutor`] through the
//! [`crate::rules::RuleValidator`] trait: under monitored execution every
//! rewrite that changes the plan is checked, and a violating rewrite is
//! rolled back and reported with batch, rule, iteration, invariant, and
//! a structural before/after diff ([`diff::line_diff`]).
//!
//! Validation is on by default in debug builds (so `cargo test` runs the
//! whole corpus under it) and opt-in in release via `CATALYST_VALIDATE=1`
//! — see [`enabled`].

pub mod diff;
mod logical;
mod physical;

use crate::physical::PhysicalPlan;
use crate::plan::LogicalPlan;
use crate::rules::{RuleValidator, RuleViolation};
use std::fmt;
use std::sync::OnceLock;

/// The invariants [`PlanValidator`] checks. Each violation names one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// No `UnresolvedRelation` nodes or unresolved attribute / function /
    /// wildcard expressions remain after analysis.
    NoUnresolvedPlaceholders,
    /// Every attribute a node references is produced by one of its
    /// children (or, for a scan's pushed filters, by the scan itself).
    ReachableReferences,
    /// An expression id maps to one (name, type) everywhere in the plan —
    /// ids are the identity attributes carry through aliasing and
    /// pruning, so a clash makes column resolution ambiguous.
    UniqueAttributeIds,
    /// Every `Project` / `Aggregate` output expression has a stable name
    /// (`Column` or `Alias`); an unnamed output silently vanishes from
    /// `output()` and shrinks the schema.
    NamedOutputs,
    /// Every resolved expression type-checks (`data_type()` succeeds).
    WellTypedExpressions,
    /// Filter predicates, join conditions, and pushed scan filters are
    /// BOOLEAN-typed.
    BooleanPredicates,
    /// Union inputs agree in width and have pairwise-compatible column
    /// types.
    UnionShape,
    /// Join inputs produce disjoint attribute ids (a shared id makes
    /// `left.x = right.x` unresolvable — the self-join hazard).
    DistinctJoinChildren,
    /// Window functions appear only as top-level (aliased) expressions of
    /// a `Window` node, and every frame is well-formed (start bound not
    /// after end bound).
    WindowShape,
    /// An optimizer rewrite preserved the plan's output schema: same
    /// width, and per position the same name, type, and id.
    SchemaPreserved,
    /// Physical: every expression's column references resolve against the
    /// correct child's output.
    PhysicalReferences,
    /// Physical: hash-join key lists are non-empty, equal in length, and
    /// pairwise comparable — the shuffle-boundary expectation for
    /// hash-partitioned joins.
    JoinKeysAligned,
    /// Physical: a broadcast hash join never builds (broadcasts) the
    /// null-producing side of an outer join.
    BuildSideLegal,
    /// Physical: every operator that needs its input co-located reads it
    /// through the exchange that co-locates it — a shuffled hash join a
    /// `Hash` exchange per side on that side's keys, with equal partition
    /// counts; a grouped aggregate `Hash` on its groupings; a window
    /// `Hash` on its partition keys (or `Single`); a sort `Range` on its
    /// orders — and no other node reads an exchange.
    ExchangeRequirements,
}

impl Invariant {
    /// Stable kebab-case name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Invariant::NoUnresolvedPlaceholders => "no-unresolved-placeholders",
            Invariant::ReachableReferences => "reachable-references",
            Invariant::UniqueAttributeIds => "unique-attribute-ids",
            Invariant::NamedOutputs => "named-outputs",
            Invariant::WellTypedExpressions => "well-typed-expressions",
            Invariant::BooleanPredicates => "boolean-predicates",
            Invariant::UnionShape => "union-shape",
            Invariant::DistinctJoinChildren => "distinct-join-children",
            Invariant::WindowShape => "window-shape",
            Invariant::SchemaPreserved => "schema-preserved",
            Invariant::PhysicalReferences => "physical-references",
            Invariant::JoinKeysAligned => "join-keys-aligned",
            Invariant::BuildSideLegal => "build-side-legal",
            Invariant::ExchangeRequirements => "exchange-requirements",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One violated invariant, with a human-readable explanation of where and
/// how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant that broke.
    pub invariant: Invariant,
    /// What exactly went wrong.
    pub message: String,
}

impl Violation {
    pub(crate) fn new(invariant: Invariant, message: impl Into<String>) -> Self {
        Violation {
            invariant,
            message: message.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.message)
    }
}

/// Static checker over logical and physical plans. Stateless; construct
/// freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanValidator;

impl PlanValidator {
    /// A new validator.
    pub fn new() -> Self {
        PlanValidator
    }

    /// Check every standalone-plan invariant on a (supposedly analyzed)
    /// logical plan. Empty result = plan is sound.
    pub fn check_logical(&self, plan: &LogicalPlan) -> Vec<Violation> {
        logical::check_plan(plan)
    }

    /// Check one rewrite `before -> after` as a rule post-condition: the
    /// output schema must be preserved, and `after` must not violate any
    /// invariant `before` already satisfied. Pre-existing violations are
    /// filtered out so they are not blamed on an innocent rule.
    pub fn check_rewrite(&self, before: &LogicalPlan, after: &LogicalPlan) -> Vec<Violation> {
        let baseline = logical::check_plan(before);
        let mut out: Vec<Violation> = logical::check_plan(after)
            .into_iter()
            .filter(|viol| !baseline.contains(viol))
            .collect();
        out.extend(logical::check_schema_preserved(before, after));
        out
    }

    /// Check physical-plan invariants: reference binding, shuffle-boundary
    /// key expectations, broadcast build-side legality, union shape.
    pub fn check_physical(&self, plan: &PhysicalPlan) -> Vec<Violation> {
        physical::check_plan(plan)
    }
}

impl RuleValidator<LogicalPlan> for PlanValidator {
    fn validate(&self, before: &LogicalPlan, after: &LogicalPlan) -> Vec<RuleViolation> {
        self.check_rewrite(before, after)
            .into_iter()
            .map(|v| RuleViolation {
                invariant: v.invariant.name().to_string(),
                message: v.message,
            })
            .collect()
    }

    fn render(&self, plan: &LogicalPlan) -> String {
        plan.to_string()
    }

    fn diff(&self, before: &LogicalPlan, after: &LogicalPlan) -> String {
        diff::line_diff(&self.render(before), &self.render(after))
    }
}

/// Is plan validation enabled for this process?
///
/// The `CATALYST_VALIDATE` environment variable wins when set (`0`,
/// `false`, `off`, `no`, or empty disable; anything else enables).
/// Otherwise validation follows the build profile: on under
/// `debug_assertions` (so tests exercise it), off in release. The answer
/// is computed once and cached.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("CATALYST_VALIDATE") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "" | "0" | "false" | "off" | "no"
        ),
        Err(_) => cfg!(debug_assertions),
    })
}

/// Can values of these two types land in the same hash bucket / union
/// column coherently? Equal types always; distinct numeric types rely on
/// the engine's widening-consistent hashing (`Int 5`, `Long 5`, `Double
/// 5.0` hash alike); `Null` unifies with anything. Everything else (e.g.
/// BOOLEAN keyed against LONG) is a planning bug: the
/// `tightest_common_type` lattice would "unify" them to STRING for schema
/// inference, but no cast was inserted, so rows cannot co-partition.
fn hash_compatible(a: &crate::types::DataType, b: &crate::types::DataType) -> bool {
    use crate::types::DataType::*;
    fn numeric(t: &crate::types::DataType) -> bool {
        t.is_integral() || t.is_floating() || matches!(t, Decimal(_, _))
    }
    a == b || matches!(a, Null) || matches!(b, Null) || (numeric(a) && numeric(b))
}

/// Render a violation list as one report block.
pub fn render_violations(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}
