//! The Catalog: tracks tables in all data sources (§4.3.1) plus
//! registered functions. Temp tables registered from DataFrames stay
//! *unmaterialized views* — their logical plans are inlined, so
//! optimizations happen across SQL and the original DataFrame expressions
//! (§3.3).
//!
//! Every registration mints a [`CatalogEntry`] with a process-unique id.
//! A plan analyzed against the catalog can remember the ids it resolved
//! (see [`RecordingCatalog`]) and later ask, in one lookup per table,
//! whether each name still resolves to the entry it was planned against.

use crate::error::{CatalystError, Result};
use crate::expr::UdfImpl;
use crate::plan::LogicalPlan;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One registered table: its plan and the identity of this registration.
/// Registering a name again mints a new id even for an equal plan, so an
/// id names exactly one `register` call; putting a saved entry back with
/// [`SimpleCatalog::insert`] keeps its id.
#[derive(Clone)]
pub struct CatalogEntry {
    /// Process-unique id of this registration.
    pub id: u64,
    /// The table's logical plan.
    pub plan: LogicalPlan,
}

impl CatalogEntry {
    /// A fresh entry for `plan`.
    pub fn new(plan: LogicalPlan) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        CatalogEntry {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            plan,
        }
    }
}

/// Table name → catalog entry resolution.
pub trait Catalog: Send + Sync {
    /// Look up a table's entry by name.
    fn lookup_entry(&self, name: &str) -> Option<CatalogEntry>;
    /// Look up a table's plan by name.
    fn lookup(&self, name: &str) -> Option<LogicalPlan> {
        self.lookup_entry(name).map(|e| e.plan)
    }
    /// All registered table names (sorted).
    fn table_names(&self) -> Vec<String>;
}

/// In-memory catalog of temp tables / views.
#[derive(Default)]
pub struct SimpleCatalog {
    tables: RwLock<HashMap<String, CatalogEntry>>,
}

impl SimpleCatalog {
    /// Register (or replace) a table under a fresh entry id.
    pub fn register(&self, name: impl Into<String>, plan: LogicalPlan) {
        self.insert(name, CatalogEntry::new(plan));
    }

    /// Put an existing entry (back) under `name`, id and all.
    pub fn insert(&self, name: impl Into<String>, entry: CatalogEntry) {
        self.tables
            .write()
            .insert(name.into().to_ascii_lowercase(), entry);
    }

    /// Remove a table; true if it existed.
    pub fn unregister(&self, name: &str) -> bool {
        self.tables
            .write()
            .remove(&name.to_ascii_lowercase())
            .is_some()
    }
}

impl Catalog for SimpleCatalog {
    fn lookup_entry(&self, name: &str) -> Option<CatalogEntry> {
        self.tables.read().get(&name.to_ascii_lowercase()).cloned()
    }

    fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// A session-local catalog layered over a shared one: lookups hit the
/// session's own temp views first, then fall through to the shared
/// catalog; registrations always land in the session layer, so one
/// session's `CREATE TEMP TABLE` never leaks into another's namespace
/// while shared (server-level) tables stay visible to everyone.
pub struct OverlayCatalog {
    local: SimpleCatalog,
    shared: Arc<SimpleCatalog>,
}

impl OverlayCatalog {
    /// Layer a fresh session namespace over `shared`.
    pub fn over(shared: Arc<SimpleCatalog>) -> Self {
        OverlayCatalog {
            local: SimpleCatalog::default(),
            shared,
        }
    }

    /// Register (or replace) a table in the *session* layer. A shared
    /// table of the same name is shadowed for this session only.
    pub fn register(&self, name: impl Into<String>, plan: LogicalPlan) {
        self.local.register(name, plan);
    }

    /// Put an existing entry (back) into the *session* layer, id and all.
    pub fn insert(&self, name: impl Into<String>, entry: CatalogEntry) {
        self.local.insert(name, entry);
    }

    /// Remove a session-layer table; true if it existed. Shared tables
    /// cannot be dropped through a session.
    pub fn unregister(&self, name: &str) -> bool {
        self.local.unregister(name)
    }
}

impl Catalog for OverlayCatalog {
    fn lookup_entry(&self, name: &str) -> Option<CatalogEntry> {
        self.local
            .lookup_entry(name)
            .or_else(|| self.shared.lookup_entry(name))
    }

    fn table_names(&self) -> Vec<String> {
        let mut names = self.local.table_names();
        names.extend(self.shared.table_names());
        names.sort();
        names.dedup();
        names
    }
}

/// A catalog that remembers which entries were resolved through it: the
/// analyzer runs against one of these when its result is going to be
/// kept, and the `(name, entry id)` pairs it leaves behind are what the
/// kept plan depends on. Re-validating is [`entries_unchanged`].
pub struct RecordingCatalog {
    inner: Arc<dyn Catalog>,
    seen: Mutex<Vec<(String, u64)>>,
}

impl RecordingCatalog {
    /// Record lookups that reach `inner`.
    pub fn new(inner: Arc<dyn Catalog>) -> Self {
        RecordingCatalog {
            inner,
            seen: Mutex::new(Vec::new()),
        }
    }

    /// Take the distinct `(name, entry id)` pairs resolved so far.
    pub fn take_seen(&self) -> Vec<(String, u64)> {
        std::mem::take(&mut *self.seen.lock())
    }
}

impl Catalog for RecordingCatalog {
    fn lookup_entry(&self, name: &str) -> Option<CatalogEntry> {
        let entry = self.inner.lookup_entry(name)?;
        let mut seen = self.seen.lock();
        if !seen.iter().any(|(n, id)| *id == entry.id && n == name) {
            seen.push((name.to_string(), entry.id));
        }
        Some(entry)
    }

    fn table_names(&self) -> Vec<String> {
        self.inner.table_names()
    }
}

/// True if every recorded name still resolves to the entry it did when
/// it was recorded.
pub fn entries_unchanged(catalog: &dyn Catalog, seen: &[(String, u64)]) -> bool {
    seen.iter()
        .all(|(name, id)| catalog.lookup_entry(name).is_some_and(|e| e.id == *id))
}

/// Registry of user-defined functions (§3.7: inline registration).
#[derive(Default)]
pub struct FunctionRegistry {
    udfs: RwLock<HashMap<String, Arc<UdfImpl>>>,
}

impl FunctionRegistry {
    /// Register a UDF under its name.
    pub fn register(&self, udf: UdfImpl) {
        self.udfs
            .write()
            .insert(udf.name.to_ascii_lowercase(), Arc::new(udf));
    }

    /// Look up a UDF.
    pub fn lookup(&self, name: &str) -> Option<Arc<UdfImpl>> {
        self.udfs.read().get(&name.to_ascii_lowercase()).cloned()
    }

    /// Registered names (sorted).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.udfs.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// Look up a table's entry or fail with a helpful message.
pub fn require_table(catalog: &dyn Catalog, name: &str) -> Result<CatalogEntry> {
    catalog.lookup_entry(name).ok_or_else(|| {
        CatalystError::analysis(format!(
            "table '{name}' not found; known tables: [{}]",
            catalog.table_names().join(", ")
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ColumnRef;
    use crate::types::DataType;

    fn table() -> LogicalPlan {
        LogicalPlan::LocalRelation {
            output: vec![ColumnRef::new("x", DataType::Int, false)],
            rows: Arc::new(vec![]),
        }
    }

    #[test]
    fn register_lookup_case_insensitive() {
        let c = SimpleCatalog::default();
        c.register("Users", table());
        assert!(c.lookup("users").is_some());
        assert!(c.lookup("USERS").is_some());
        assert!(c.lookup("missing").is_none());
        assert_eq!(c.table_names(), vec!["users".to_string()]);
        assert!(c.unregister("users"));
        assert!(!c.unregister("users"));
    }

    #[test]
    fn overlay_shadows_and_isolates() {
        let shared = Arc::new(SimpleCatalog::default());
        shared.register("events", table());
        let a = OverlayCatalog::over(shared.clone());
        let b = OverlayCatalog::over(shared.clone());

        // Both sessions see the shared table.
        assert!(a.lookup("events").is_some());
        assert!(b.lookup("events").is_some());

        // A session-local view is invisible to the other session.
        a.register("mine", table());
        assert!(a.lookup("mine").is_some());
        assert!(b.lookup("mine").is_none());
        assert_eq!(a.table_names(), vec!["events", "mine"]);
        assert_eq!(b.table_names(), vec!["events"]);

        // Shadowing is per-session and unregister exposes the shared
        // table again rather than dropping it.
        a.register("events", table());
        assert!(a.unregister("events"));
        assert!(a.lookup("events").is_some(), "shared table still visible");
        assert!(!a.unregister("events"), "shared layer is read-only");
        assert!(shared.lookup("events").is_some());
    }

    #[test]
    fn an_entry_id_names_one_registration() {
        let c = SimpleCatalog::default();
        c.register("t", table());
        let first = c.lookup_entry("T").unwrap();
        assert_eq!(c.lookup_entry("t").unwrap().id, first.id);
        // An equal plan registered again is a different registration…
        c.register("t", table());
        let second = c.lookup_entry("t").unwrap();
        assert_ne!(second.id, first.id);
        // …and a saved entry put back is the one it was.
        c.insert("t", first.clone());
        assert_eq!(c.lookup_entry("t").unwrap().id, first.id);
    }

    #[test]
    fn recorded_lookups_revalidate_through_the_overlay() {
        let shared = Arc::new(SimpleCatalog::default());
        shared.register("events", table());
        shared.register("users", table());
        let session = Arc::new(OverlayCatalog::over(shared.clone()));
        let recording = RecordingCatalog::new(session.clone());
        assert!(recording.lookup("events").is_some());
        assert!(recording.lookup("events").is_some());
        assert!(recording.lookup("missing").is_none());
        let seen = recording.take_seen();
        assert_eq!(seen.len(), 1, "one pair per resolved table: {seen:?}");
        assert!(entries_unchanged(session.as_ref(), &seen));

        // Another table changing does not matter; this one being
        // shadowed, replaced or dropped does.
        shared.register("users", table());
        assert!(entries_unchanged(session.as_ref(), &seen));
        session.register("events", table());
        assert!(!entries_unchanged(session.as_ref(), &seen));
        assert!(entries_unchanged(shared.as_ref(), &seen));
        session.unregister("events");
        assert!(entries_unchanged(session.as_ref(), &seen));
        shared.unregister("events");
        assert!(!entries_unchanged(session.as_ref(), &seen));
    }

    #[test]
    fn require_table_lists_known_tables() {
        let c = SimpleCatalog::default();
        c.register("users", table());
        let err = require_table(&c, "logs").err().expect("no such table");
        assert!(err.to_string().contains("users"));
    }

    #[test]
    fn function_registry_roundtrip() {
        use crate::value::Value;
        let r = FunctionRegistry::default();
        r.register(UdfImpl {
            name: "twice".into(),
            return_type: DataType::Long,
            func: Box::new(|args| Ok(Value::Long(args[0].as_i64().unwrap_or(0) * 2))),
        });
        assert!(r.lookup("TWICE").is_some());
        assert!(r.lookup("thrice").is_none());
        assert_eq!(r.names(), vec!["twice".to_string()]);
    }
}
