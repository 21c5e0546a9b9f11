//! A multi-project **workspace**: a sharded registry of named projects,
//! each owning its storage engine, manager state (plan caches,
//! estimates, clock), and obs lane — so N sessions can plan, replan,
//! and execute concurrently without aliasing each other's state.
//!
//! The paper's flow manager is single-project; scaling the idea to a
//! design organisation means many concurrent projects over one store
//! root. The workspace keeps the sharing model trivial:
//!
//! * the **registry** (`name → project`) is behind one [`RwLock`] taken
//!   only to look up or register projects — never across planning work;
//! * each **project** is its own shard: an `Arc<Project>` holding a
//!   private [`RwLock<Hercules>`]. Sessions on different projects never
//!   contend; sessions on the *same* project serialize writes and share
//!   reads, which is exactly the aliasing discipline the storage engine
//!   needs (two writers on one persistent tail would tear it);
//! * each project carries a deterministic **obs lane** (1-based, in
//!   registration order), published to the trace collector on every
//!   [`update`](Project::update), so merged traces group by project no
//!   matter which OS thread did the work.
//!
//! Backends follow the store seam: an in-memory workspace puts every
//! project on an [`ArenaStore`]; a persistent workspace gives each
//! project a [`PersistentStore`] under `root/<name>/`, reopenable and
//! compactable (`herc gc`).
//!
//! # Example
//!
//! ```
//! use hercules::Workspace;
//! use schema::examples;
//! use simtools::{workload::Team, ToolLibrary};
//!
//! # fn main() -> Result<(), hercules::WorkspaceError> {
//! let ws = Workspace::in_memory();
//! for name in ["alu", "fpu"] {
//!     ws.create_project(
//!         name,
//!         examples::circuit_design(),
//!         ToolLibrary::standard(),
//!         Team::of_size(2),
//!         7,
//!     )?;
//! }
//! let alu = ws.project("alu").expect("registered");
//! let plan = alu.update(|h| h.plan("performance"))?;
//! assert_eq!(plan.len(), 2);
//! // The fpu project saw none of that.
//! let fpu = ws.project("fpu").expect("registered");
//! assert_eq!(fpu.read(|h| h.db().schedule_count()), 0);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use metadata::{ArenaStore, CompactionStats, MetadataDb, PersistentStore, Store, StoreError};
use schema::TaskSchema;
use simtools::workload::Team;
use simtools::ToolLibrary;

use crate::error::HerculesError;
use crate::manager::Hercules;

/// Errors from workspace registry operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkspaceError {
    /// A project with this name is already registered.
    DuplicateProject(String),
    /// No project with this name is registered.
    UnknownProject(String),
    /// The project name is unusable as a registry key / directory name.
    InvalidName(String),
    /// A persisted project has no saved session configuration
    /// (`project.conf`) — it predates config persistence or the file
    /// was corrupted; reopen it with an explicit schema via
    /// [`Workspace::open_project`].
    SessionConfig {
        /// The project whose config is missing or unreadable.
        project: String,
        /// What went wrong.
        message: String,
    },
    /// A storage-engine failure while creating or opening the
    /// project's store.
    Store(StoreError),
    /// A manager-level failure.
    Hercules(HerculesError),
}

impl fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkspaceError::DuplicateProject(n) => {
                write!(f, "project {n:?} already exists in the workspace")
            }
            WorkspaceError::UnknownProject(n) => {
                write!(f, "no project {n:?} in the workspace")
            }
            WorkspaceError::InvalidName(n) => write!(
                f,
                "invalid project name {n:?}: use non-empty names of letters, \
                 digits, '-', '_' or '.'"
            ),
            WorkspaceError::SessionConfig { project, message } => write!(
                f,
                "project {project:?} has no usable saved session config: {message} \
                 (reopen it with an explicit schema)"
            ),
            WorkspaceError::Store(e) => write!(f, "store: {e}"),
            WorkspaceError::Hercules(e) => write!(f, "manager: {e}"),
        }
    }
}

impl std::error::Error for WorkspaceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkspaceError::Store(e) => Some(e),
            WorkspaceError::Hercules(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for WorkspaceError {
    fn from(e: StoreError) -> Self {
        WorkspaceError::Store(e)
    }
}

impl From<HerculesError> for WorkspaceError {
    fn from(e: HerculesError) -> Self {
        WorkspaceError::Hercules(e)
    }
}

/// One project shard: a [`Hercules`] manager behind its own lock, plus
/// the project's identity (name, obs lane).
///
/// Obtained from [`Workspace::project`] /
/// [`Workspace::create_project`]; clone the `Arc` freely across
/// threads.
#[derive(Debug)]
pub struct Project {
    name: String,
    lane: u64,
    manager: RwLock<Hercules>,
}

impl Project {
    /// The project's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The project's deterministic obs lane (1-based, registration
    /// order). Lane 0 is the orchestrator by convention.
    pub fn lane(&self) -> u64 {
        self.lane
    }

    /// Runs `f` with shared read access to the manager. Concurrent
    /// readers on the same project proceed in parallel.
    pub fn read<R>(&self, f: impl FnOnce(&Hercules) -> R) -> R {
        let guard = self.manager.read().unwrap_or_else(|e| e.into_inner());
        f(&guard)
    }

    /// Runs `f` with exclusive write access to the manager, after
    /// publishing this project's obs lane for the current thread — so
    /// any spans the work records merge deterministically under this
    /// project regardless of which thread ran it.
    pub fn update<R>(&self, f: impl FnOnce(&mut Hercules) -> R) -> R {
        let mut guard = self.manager.write().unwrap_or_else(|e| e.into_inner());
        obs::Collector::set_lane(self.lane);
        f(&mut guard)
    }

    /// Compacts this project's store via [`Hercules::gc`] (takes the
    /// write lock).
    ///
    /// # Errors
    ///
    /// As [`Hercules::gc`].
    pub fn gc(&self) -> Result<CompactionStats, HerculesError> {
        self.update(Hercules::gc)
    }
}

/// The sharded multi-project registry: one lock over the name →
/// project map, and each [`Project`] its own shard behind its own
/// lock, so sessions on different projects never contend.
#[derive(Debug)]
pub struct Workspace {
    /// Project-store root for persistent workspaces; `None` keeps every
    /// project in memory.
    root: Option<PathBuf>,
    projects: RwLock<BTreeMap<String, Arc<Project>>>,
    next_lane: AtomicU64,
}

impl Workspace {
    /// A workspace whose projects all live on in-memory
    /// [`ArenaStore`]s — the default for tests and single-process
    /// sessions.
    pub fn in_memory() -> Workspace {
        Workspace {
            root: None,
            projects: RwLock::new(BTreeMap::new()),
            next_lane: AtomicU64::new(1),
        }
    }

    /// A workspace whose projects persist under `root/<name>/` as
    /// snapshot + journal-tail [`PersistentStore`]s.
    pub fn persistent(root: impl Into<PathBuf>) -> Workspace {
        Workspace {
            root: Some(root.into()),
            projects: RwLock::new(BTreeMap::new()),
            next_lane: AtomicU64::new(1),
        }
    }

    /// The persistent root, if this workspace has one.
    pub fn root(&self) -> Option<&Path> {
        self.root.as_deref()
    }

    /// Creates and registers a new project initialised from `schema`.
    /// Persistent workspaces create `root/<name>/` with its first
    /// snapshot; the directory must not already hold a store.
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::DuplicateProject`] if the name is taken,
    /// [`WorkspaceError::InvalidName`] for unusable names, or
    /// [`WorkspaceError::Store`] if the persistent store cannot be
    /// created.
    pub fn create_project(
        &self,
        name: &str,
        schema: TaskSchema,
        tools: ToolLibrary,
        team: Team,
        seed: u64,
    ) -> Result<Arc<Project>, WorkspaceError> {
        validate_name(name)?;
        let db = MetadataDb::for_schema(&schema);
        let store: Box<dyn Store> = match &self.root {
            None => {
                let mut arena = ArenaStore::new(db);
                arena.enable_journal();
                Box::new(arena)
            }
            Some(root) => {
                let dir = root.join(name);
                let store = PersistentStore::create(&dir, db)?;
                // Persist the session configuration beside the store so
                // the project can be reopened without re-supplying the
                // schema (`open_saved_project`, `herc serve`).
                write_project_conf(&dir, &schema, team.len(), seed)?;
                Box::new(store)
            }
        };
        self.register(name, Hercules::with_store(schema, tools, team, seed, store))
    }

    /// Reopens a persisted project from `root/<name>/` and registers
    /// it. The schema/tools/team/seed must match what the project was
    /// created with (they are session configuration, not store state).
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::DuplicateProject`] if already registered,
    /// [`WorkspaceError::UnknownProject`] for in-memory workspaces, or
    /// [`WorkspaceError::Store`] if the store fails to open.
    pub fn open_project(
        &self,
        name: &str,
        schema: TaskSchema,
        tools: ToolLibrary,
        team: Team,
        seed: u64,
    ) -> Result<Arc<Project>, WorkspaceError> {
        validate_name(name)?;
        let Some(root) = &self.root else {
            return Err(WorkspaceError::UnknownProject(name.to_owned()));
        };
        let dir = root.join(name);
        // A missing store directory is a *name* error, not an I/O
        // accident: report it as the typed `UnknownProject` so callers
        // (CLI, server) can map it to a clean not-found.
        if !dir.join("CURRENT").is_file() {
            return Err(WorkspaceError::UnknownProject(name.to_owned()));
        }
        let store = PersistentStore::open(dir)?;
        self.register(
            name,
            Hercules::with_store(schema, tools, team, seed, Box::new(store)),
        )
    }

    /// Reopens a persisted project using the session configuration
    /// saved at create time (`root/<name>/project.conf`: schema source,
    /// team size, seed) — no schema file needed. This is how the
    /// workspace server re-serves projects across process restarts.
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::UnknownProject`] if the project is not on
    /// disk (or the workspace is in-memory),
    /// [`WorkspaceError::DuplicateProject`] if already registered,
    /// [`WorkspaceError::SessionConfig`] if the saved config is
    /// missing or unreadable, or [`WorkspaceError::Store`] if the
    /// store fails to open.
    pub fn open_saved_project(&self, name: &str) -> Result<Arc<Project>, WorkspaceError> {
        validate_name(name)?;
        let Some(root) = &self.root else {
            return Err(WorkspaceError::UnknownProject(name.to_owned()));
        };
        let dir = root.join(name);
        if !dir.join("CURRENT").is_file() {
            return Err(WorkspaceError::UnknownProject(name.to_owned()));
        }
        let (schema, team_size, seed) = read_project_conf(&dir, name)?;
        let store = PersistentStore::open(dir)?;
        self.register(
            name,
            Hercules::with_store(
                schema,
                ToolLibrary::standard(),
                Team::of_size(team_size),
                seed,
                Box::new(store),
            ),
        )
    }

    /// Unregisters `name` and, for persistent workspaces, deletes its
    /// store directory — the D in the workspace's CRUD surface. The
    /// project may be registered, on disk, or both.
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::UnknownProject`] if the name is neither
    /// registered nor on disk; [`WorkspaceError::Store`] if the
    /// directory exists but cannot be removed.
    pub fn remove_project(&self, name: &str) -> Result<(), WorkspaceError> {
        validate_name(name)?;
        let held = self.project(name);
        // Other holders of the `Arc<Project>` may still mutate it. Keep
        // the name registered and hold the project's write lock until
        // its files are gone, so no concurrent open can start a second
        // store on the directory. Close the store's held tail first:
        // the next append then reopens by path and wedges on the
        // missing file instead of writing to an orphaned inode.
        let mut session = held
            .as_ref()
            .map(|p| p.manager.write().unwrap_or_else(|e| e.into_inner()));
        if let Some(h) = session.as_mut() {
            h.store.release_files();
        }
        let dir = self.root.as_ref().map(|root| root.join(name));
        let dir = dir.filter(|dir| dir.is_dir());
        let on_disk = dir.is_some();
        let deleted = dir.map_or(Ok(()), |dir| {
            fs::remove_dir_all(&dir).map_err(|e| {
                WorkspaceError::Store(StoreError::Io {
                    path: dir,
                    message: e.to_string(),
                })
            })
        });
        // Unregister only now, and only this registration: a second
        // remover that waited on the same lock finds the name gone.
        let registered = held.as_ref().is_some_and(|held| {
            let mut projects = self.projects.write().unwrap_or_else(|e| e.into_inner());
            let ours = projects.get(name).is_some_and(|p| Arc::ptr_eq(p, held));
            if ours {
                projects.remove(name);
            }
            ours
        });
        drop(session);
        deleted?;
        if registered || on_disk {
            Ok(())
        } else {
            Err(WorkspaceError::UnknownProject(name.to_owned()))
        }
    }

    /// Registers a manager the caller built, under `name` and the next
    /// obs lane: the seam for a project over a [`Store`] of the
    /// caller's own (see [`Hercules::with_store`]). The workspace
    /// takes the manager as it is and writes nothing under its root.
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::InvalidName`] for unusable names, or
    /// [`WorkspaceError::DuplicateProject`] if the name is taken.
    pub fn register(&self, name: &str, manager: Hercules) -> Result<Arc<Project>, WorkspaceError> {
        validate_name(name)?;
        let mut projects = self.projects.write().unwrap_or_else(|e| e.into_inner());
        if projects.contains_key(name) {
            return Err(WorkspaceError::DuplicateProject(name.to_owned()));
        }
        let project = Arc::new(Project {
            name: name.to_owned(),
            lane: self.next_lane.fetch_add(1, Ordering::Relaxed),
            manager: RwLock::new(manager),
        });
        projects.insert(name.to_owned(), Arc::clone(&project));
        Ok(project)
    }

    /// The registered project named `name`, if any.
    pub fn project(&self, name: &str) -> Option<Arc<Project>> {
        let projects = self.projects.read().unwrap_or_else(|e| e.into_inner());
        projects.get(name).cloned()
    }

    /// Registered project names, sorted.
    pub fn names(&self) -> Vec<String> {
        let projects = self.projects.read().unwrap_or_else(|e| e.into_inner());
        projects.keys().cloned().collect()
    }

    /// Number of registered projects.
    pub fn len(&self) -> usize {
        let projects = self.projects.read().unwrap_or_else(|e| e.into_inner());
        projects.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Names of registered projects whose store has wedged itself
    /// after a failed durability operation, sorted. Healthy stores and
    /// in-memory arenas never appear here.
    pub fn wedged_projects(&self) -> Vec<String> {
        let handles: Vec<Arc<Project>> = {
            let projects = self.projects.read().unwrap_or_else(|e| e.into_inner());
            projects.values().cloned().collect()
        };
        handles
            .iter()
            .filter(|p| p.read(|h| h.store().wedged_reason().is_some()))
            .map(|p| p.name().to_owned())
            .collect()
    }

    /// Compacts every registered project in name order, returning
    /// per-project stats. Stops at the first failure.
    ///
    /// # Errors
    ///
    /// The failing project's [`HerculesError`], wrapped.
    pub fn gc_all(&self) -> Result<Vec<(String, CompactionStats)>, WorkspaceError> {
        let handles: Vec<Arc<Project>> = {
            let projects = self.projects.read().unwrap_or_else(|e| e.into_inner());
            projects.values().cloned().collect()
        };
        let mut out = Vec::with_capacity(handles.len());
        for project in handles {
            let stats = project.gc()?;
            out.push((project.name().to_owned(), stats));
        }
        Ok(out)
    }

    /// Project directories found on disk under `root` (subdirectories
    /// holding a store `CURRENT` file), sorted — the discovery half of
    /// [`open_project`](Workspace::open_project), usable before any
    /// project is registered.
    pub fn on_disk_projects(root: impl AsRef<Path>) -> Vec<String> {
        let mut names = Vec::new();
        let Ok(entries) = fs::read_dir(root.as_ref()) else {
            return names;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() && path.join("CURRENT").is_file() {
                if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                    names.push(name.to_owned());
                }
            }
        }
        names.sort();
        names
    }
}

/// File name of the saved session configuration inside a persisted
/// project's directory.
const PROJECT_CONF: &str = "project.conf";

/// Magic first line of the saved session config. Public so operator
/// surfaces (`/healthz`) can report the on-disk schema version they
/// would accept.
pub const PROJECT_CONF_MAGIC: &str = "schedflow-project/v1";

/// Persists the session configuration (schema source, team size,
/// seed) beside a project's store, atomically.
fn write_project_conf(
    dir: &Path,
    schema: &TaskSchema,
    team_size: usize,
    seed: u64,
) -> Result<(), WorkspaceError> {
    // `to_source()` omits the `schema NAME;` declaration — prepend it
    // so the reopened project keeps its schema name.
    let text = format!(
        "{PROJECT_CONF_MAGIC}\nteam {team_size}\nseed {seed}\nschema:\nschema {};\n{}",
        schema.name(),
        schema.to_source()
    );
    let path = dir.join(PROJECT_CONF);
    obs::export::write_atomic(&path, &text).map_err(|e| {
        WorkspaceError::Store(StoreError::Io {
            path,
            message: e.to_string(),
        })
    })
}

/// Reads a saved session configuration back. The schema is re-parsed
/// from its [`TaskSchema::to_source`] form (pinned round-trippable by
/// the schema crate's parser property suite).
pub(crate) fn read_project_conf(
    dir: &Path,
    name: &str,
) -> Result<(TaskSchema, usize, u64), WorkspaceError> {
    let conf_err = |message: String| WorkspaceError::SessionConfig {
        project: name.to_owned(),
        message,
    };
    let path = dir.join(PROJECT_CONF);
    let text = fs::read_to_string(&path)
        .map_err(|e| conf_err(format!("cannot read {}: {e}", path.display())))?;
    let mut lines = text.splitn(5, '\n');
    if lines.next() != Some(PROJECT_CONF_MAGIC) {
        return Err(conf_err(format!("missing {PROJECT_CONF_MAGIC:?} header")));
    }
    let team_size: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("team "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| conf_err("bad or missing 'team N' line".to_owned()))?;
    let seed: u64 = lines
        .next()
        .and_then(|l| l.strip_prefix("seed "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| conf_err("bad or missing 'seed N' line".to_owned()))?;
    if lines.next() != Some("schema:") {
        return Err(conf_err("missing 'schema:' marker".to_owned()));
    }
    let source = lines.next().unwrap_or_default();
    let schema =
        schema::parse_schema(source).map_err(|e| conf_err(format!("schema re-parse: {e}")))?;
    Ok((schema, team_size.max(1), seed))
}

fn validate_name(name: &str) -> Result<(), WorkspaceError> {
    let ok = !name.is_empty()
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if ok {
        Ok(())
    } else {
        Err(WorkspaceError::InvalidName(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedule::WorkDays;
    use schema::examples;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("schedflow-workspace-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn add(ws: &Workspace, name: &str) -> Arc<Project> {
        ws.create_project(
            name,
            examples::circuit_design(),
            ToolLibrary::standard(),
            Team::of_size(2),
            7,
        )
        .unwrap()
    }

    #[test]
    fn projects_are_isolated() {
        let ws = Workspace::in_memory();
        let alu = add(&ws, "alu");
        let fpu = add(&ws, "fpu");
        alu.update(|h| h.plan("performance")).unwrap();
        assert!(alu.read(|h| h.db().schedule_count()) > 0);
        assert_eq!(fpu.read(|h| h.db().schedule_count()), 0);
        assert_eq!(ws.names(), ["alu", "fpu"]);
        assert_eq!(ws.len(), 2);
    }

    #[test]
    fn registry_rejects_duplicates_and_bad_names() {
        let ws = Workspace::in_memory();
        add(&ws, "alu");
        assert!(matches!(
            ws.create_project(
                "alu",
                examples::circuit_design(),
                ToolLibrary::standard(),
                Team::of_size(1),
                1,
            ),
            Err(WorkspaceError::DuplicateProject(_))
        ));
        for bad in ["", "..", "a/b", ".hidden"] {
            assert!(matches!(
                ws.create_project(
                    bad,
                    examples::circuit_design(),
                    ToolLibrary::standard(),
                    Team::of_size(1),
                    1,
                ),
                Err(WorkspaceError::InvalidName(_))
            ));
        }
        assert!(ws.project("ghost").is_none());
    }

    #[test]
    fn lanes_are_unique_and_ordered() {
        let ws = Workspace::in_memory();
        let a = add(&ws, "a");
        let b = add(&ws, "b");
        let c = add(&ws, "c");
        assert_eq!((a.lane(), b.lane(), c.lane()), (1, 2, 3));
    }

    #[test]
    fn register_assigns_lanes_and_refuses_taken_or_bad_names() {
        let ws = Workspace::in_memory();
        let manager = || {
            Hercules::new(
                examples::circuit_design(),
                ToolLibrary::standard(),
                Team::of_size(2),
                7,
            )
        };
        let a = add(&ws, "a");
        let b = ws.register("b", manager()).unwrap();
        let c = add(&ws, "c");
        assert_eq!((a.lane(), b.lane(), c.lane()), (1, 2, 3));
        assert!(Arc::ptr_eq(&ws.project("b").unwrap(), &b));
        for taken in ["a", "b"] {
            assert!(matches!(
                ws.register(taken, manager()),
                Err(WorkspaceError::DuplicateProject(_))
            ));
        }
        for bad in ["", "..", "a/b", ".hidden"] {
            assert!(matches!(
                ws.register(bad, manager()),
                Err(WorkspaceError::InvalidName(_))
            ));
        }
        // A refused registration takes no lane.
        assert_eq!(add(&ws, "d").lane(), 4);
        assert_eq!(ws.names(), ["a", "b", "c", "d"]);
    }

    #[test]
    fn persistent_workspace_roundtrips_and_discovers() {
        let root = scratch("roundtrip");
        {
            let ws = Workspace::persistent(&root);
            let alu = ws
                .create_project(
                    "alu",
                    examples::circuit_design(),
                    ToolLibrary::standard(),
                    Team::of_size(2),
                    7,
                )
                .unwrap();
            alu.update(|h| {
                h.plan("performance")?;
                h.execute("performance")
            })
            .unwrap();
        }
        assert_eq!(Workspace::on_disk_projects(&root), ["alu"]);
        let ws = Workspace::persistent(&root);
        let alu = ws
            .open_project(
                "alu",
                examples::circuit_design(),
                ToolLibrary::standard(),
                Team::of_size(2),
                7,
            )
            .unwrap();
        assert!(alu.read(|h| h.db().current_plan("Create").unwrap().is_complete()));
        assert!(alu.read(|h| h.clock()) > WorkDays::ZERO);
        // gc over the workspace compacts the reopened store.
        let stats = ws.gc_all().unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.tail_ops_after, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_missing_project_is_typed_unknown() {
        let root = scratch("unknown");
        fs::create_dir_all(&root).unwrap();
        let ws = Workspace::persistent(&root);
        // Registered root, unregistered name: typed UnknownProject,
        // not a raw store I/O error.
        assert!(matches!(
            ws.open_project(
                "ghost",
                examples::circuit_design(),
                ToolLibrary::standard(),
                Team::of_size(1),
                1,
            ),
            Err(WorkspaceError::UnknownProject(n)) if n == "ghost"
        ));
        assert!(matches!(
            ws.open_saved_project("ghost"),
            Err(WorkspaceError::UnknownProject(_))
        ));
        // Missing root entirely: same typed error.
        let ws = Workspace::persistent(root.join("nope"));
        assert!(matches!(
            ws.open_saved_project("ghost"),
            Err(WorkspaceError::UnknownProject(_))
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn saved_session_config_roundtrips() {
        let root = scratch("conf");
        {
            let ws = Workspace::persistent(&root);
            let alu = ws
                .create_project(
                    "alu",
                    examples::circuit_design(),
                    ToolLibrary::standard(),
                    Team::of_size(3),
                    11,
                )
                .unwrap();
            alu.update(|h| {
                h.plan("performance")?;
                h.execute("performance")
            })
            .unwrap();
        }
        // Reopen with *no* schema in hand: the saved config supplies
        // schema, team size, and seed.
        let ws = Workspace::persistent(&root);
        let alu = ws.open_saved_project("alu").unwrap();
        alu.read(|h| {
            assert_eq!(h.schema().name(), "circuit");
            assert_eq!(h.team().len(), 3);
            assert!(h.db().current_plan("Create").unwrap().is_complete());
        });
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn session_config_corruption_is_typed() {
        let root = scratch("confbad");
        {
            let ws = Workspace::persistent(&root);
            add(&ws, "alu");
        }
        fs::write(root.join("alu").join(super::PROJECT_CONF), "garbage\n").unwrap();
        let ws = Workspace::persistent(&root);
        assert!(matches!(
            ws.open_saved_project("alu"),
            Err(WorkspaceError::SessionConfig { project, .. }) if project == "alu"
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn remove_project_unregisters_and_deletes() {
        // In-memory: registry removal only.
        let ws = Workspace::in_memory();
        add(&ws, "alu");
        ws.remove_project("alu").unwrap();
        assert!(ws.project("alu").is_none());
        assert!(matches!(
            ws.remove_project("alu"),
            Err(WorkspaceError::UnknownProject(_))
        ));
        // Persistent: the store directory goes too, even when the
        // project was never registered in this process.
        let root = scratch("remove");
        {
            let ws = Workspace::persistent(&root);
            add(&ws, "alu");
        }
        let ws = Workspace::persistent(&root);
        ws.remove_project("alu").unwrap();
        assert_eq!(Workspace::on_disk_projects(&root), Vec::<String>::new());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn removed_project_wedges_its_remaining_holders() {
        let root = scratch("remove-held");
        let ws = Workspace::persistent(&root);
        let alu = add(&ws, "alu");
        alu.update(|h| h.plan("performance")).unwrap();
        ws.remove_project("alu").unwrap();
        // A session still holding the project must not acknowledge
        // writes whose files are gone.
        let err = alu.update(|h| h.plan("performance")).unwrap_err();
        assert!(
            matches!(
                err,
                HerculesError::Metadata(metadata::MetadataError::StorageFailed(_))
            ),
            "{err:?}"
        );
        assert!(alu.read(|h| h.store().wedged_reason().is_some()));
        assert!(!root.join("alu").exists(), "no file reappears");
        assert_eq!(Workspace::on_disk_projects(&root), Vec::<String>::new());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn removal_keeps_the_name_until_its_files_are_gone() {
        let root = scratch("remove-race");
        let ws = Workspace::persistent(&root);
        let alu = add(&ws, "alu");
        alu.update(|h| h.plan("performance")).unwrap();
        std::thread::scope(|s| {
            // A long plan or run holds the project while it is removed.
            let session = alu.manager.write().unwrap();
            let remover = s.spawn(|| ws.remove_project("alu"));
            std::thread::sleep(std::time::Duration::from_millis(100));
            // A served request that reopens the name meanwhile must not
            // start a second store on the directory being deleted.
            let reopened = ws.open_saved_project("alu");
            assert!(
                matches!(reopened, Err(WorkspaceError::DuplicateProject(_))),
                "{:?}",
                reopened.map(|p| p.lane())
            );
            assert!(ws.project("alu").is_some_and(|p| Arc::ptr_eq(&p, &alu)));
            drop(session);
            remover.join().unwrap().unwrap();
        });
        assert!(alu.update(|h| h.plan("performance")).is_err());
        assert!(matches!(
            ws.open_saved_project("alu"),
            Err(WorkspaceError::UnknownProject(_))
        ));
        assert!(matches!(
            ws.remove_project("alu"),
            Err(WorkspaceError::UnknownProject(_))
        ));
        assert!(!root.join("alu").exists(), "no file reappears");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_project_requires_persistence() {
        let ws = Workspace::in_memory();
        assert!(matches!(
            ws.open_project(
                "alu",
                examples::circuit_design(),
                ToolLibrary::standard(),
                Team::of_size(1),
                1,
            ),
            Err(WorkspaceError::UnknownProject(_))
        ));
    }

    #[test]
    fn concurrent_sessions_do_not_alias() {
        // Four threads, one project each, full plan/execute/replan
        // cycles — then every store passes its own invariants and the
        // per-project state is exactly what a serial run produces.
        let ws = Arc::new(Workspace::in_memory());
        let names = ["p0", "p1", "p2", "p3"];
        for name in names {
            add(&ws, name);
        }
        std::thread::scope(|scope| {
            for name in names {
                let ws = Arc::clone(&ws);
                scope.spawn(move || {
                    let project = ws.project(name).unwrap();
                    project
                        .update(|h| {
                            h.plan("performance")?;
                            h.execute("performance")?;
                            h.replan("performance")
                        })
                        .unwrap();
                });
            }
        });
        let serial = {
            let mut h = Hercules::new(
                examples::circuit_design(),
                ToolLibrary::standard(),
                Team::of_size(2),
                7,
            );
            h.enable_journal();
            h.plan("performance").unwrap();
            h.execute("performance").unwrap();
            h.replan("performance").unwrap();
            h.db().dump()
        };
        for name in names {
            let project = ws.project(name).unwrap();
            project.read(|h| {
                h.db().check_invariants().unwrap();
                assert_eq!(h.db().dump(), serial, "{name} diverged from serial run");
            });
        }
    }
}
