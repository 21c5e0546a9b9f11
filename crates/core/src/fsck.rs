//! Workspace-level integrity checking: `herc fsck`'s engine.
//!
//! A workspace root is a directory of project directories, each
//! holding a persistent store (`CURRENT` + snapshot/tail generations,
//! scrubbed by [`metadata::fsck`]) and a saved session configuration
//! (`project.conf`). [`fsck_workspace`] walks every project under a
//! root, verifies all of it, and — in repair mode — rebuilds each
//! damaged store from its best recoverable state so the root serves
//! again.
//!
//! The split of labour: [`metadata::fsck`] knows store files;
//! this module knows what a *workspace* looks like (which
//! subdirectories are projects, what a `project.conf` must contain)
//! and aggregates per-project results into one report with a single
//! healthy/unhealthy answer for the CLI's exit code.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use metadata::fsck::{RepairOutcome, StoreScrub};
use simtools::vfs::RealVfs;

use crate::workspace::read_project_conf;
use crate::WorkspaceError;

/// The verdict on one project's saved session configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfVerdict {
    /// Parses and the schema re-parses.
    Ok,
    /// No `project.conf` — the project cannot be lazily reopened (by
    /// `herc serve` or `ws status` without a schema file), though an
    /// explicit-schema open still works.
    Missing,
    /// Present but unreadable or failing validation.
    Corrupt(String),
}

impl fmt::Display for ConfVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfVerdict::Ok => f.write_str("ok"),
            ConfVerdict::Missing => f.write_str("MISSING"),
            ConfVerdict::Corrupt(detail) => write!(f, "CORRUPT ({detail})"),
        }
    }
}

/// Everything `fsck` learned about one project directory.
#[derive(Debug)]
pub struct ProjectFsck {
    /// The project (directory) name.
    pub name: String,
    /// The project directory.
    pub dir: PathBuf,
    /// The store scrub, or why the directory holds no scrubbable store
    /// at all (e.g. `CURRENT` itself is missing).
    pub store: Result<StoreScrub, String>,
    /// The `project.conf` verdict.
    pub conf: ConfVerdict,
    /// What repair mode did, when it ran for this project.
    pub repaired: Option<RepairOutcome>,
}

impl ProjectFsck {
    /// Whether this project would open and serve: the store scrub is
    /// healthy (after any repair) and the session config is usable.
    pub fn healthy(&self) -> bool {
        let store_ok = match (&self.store, &self.repaired) {
            (_, Some(RepairOutcome::Repaired { .. })) => true,
            (Ok(scrub), _) => scrub.healthy,
            (Err(_), _) => false,
        };
        store_ok && self.conf == ConfVerdict::Ok
    }
}

/// The aggregate result of checking a workspace root.
#[derive(Debug)]
pub struct WorkspaceFsck {
    /// The root that was walked.
    pub root: PathBuf,
    /// Per-project results, sorted by name.
    pub projects: Vec<ProjectFsck>,
}

impl WorkspaceFsck {
    /// Whether every project under the root is servable.
    pub fn healthy(&self) -> bool {
        self.projects.iter().all(ProjectFsck::healthy)
    }

    /// Projects that are not servable.
    pub fn damaged(&self) -> impl Iterator<Item = &ProjectFsck> {
        self.projects.iter().filter(|p| !p.healthy())
    }
}

/// Whether a directory looks like (the remains of) a project: any
/// store file or a session config. Damaged projects must still be
/// *found* — requiring an intact `CURRENT` (as registry discovery
/// does) would make the worst corruption invisible to fsck.
fn looks_like_project(dir: &Path) -> bool {
    if dir.join("CURRENT").is_file() || dir.join("project.conf").is_file() {
        return true;
    }
    let Ok(entries) = fs::read_dir(dir) else {
        return false;
    };
    entries.flatten().any(|e| {
        let name = e.file_name();
        let name = name.to_string_lossy();
        (name.starts_with("snapshot-") && name.ends_with(".txt"))
            || (name.starts_with("tail-") && name.ends_with(".journal"))
            || name == metadata::segment::DATA_SEGMENT
    })
}

/// Scrubs every project under `root`; with `repair`, rebuilds each
/// damaged-but-repairable store from its best recoverable state
/// (quarantining the damaged files), each healthy store whose data
/// segment holds unreferenced bytes without them, and removes what
/// uncommitted writes left. See [`metadata::fsck`] for the per-store
/// policy.
///
/// # Errors
///
/// [`WorkspaceError::Store`] when `root` is not a directory at all —
/// the same typed refusal `herc ws` and `herc gc` give for a missing
/// root.
pub fn fsck_workspace(
    root: impl AsRef<Path>,
    repair: bool,
) -> Result<WorkspaceFsck, WorkspaceError> {
    let root = root.as_ref();
    if !root.is_dir() {
        return Err(WorkspaceError::Store(metadata::StoreError::Io {
            path: root.to_path_buf(),
            message: "no workspace here: not a directory".to_owned(),
        }));
    }
    let vfs = RealVfs::arc();
    let mut projects = Vec::new();
    let mut names: Vec<(String, PathBuf)> = Vec::new();
    let entries = fs::read_dir(root).map_err(|e| {
        WorkspaceError::Store(metadata::StoreError::Io {
            path: root.to_path_buf(),
            message: e.to_string(),
        })
    })?;
    for entry in entries.flatten() {
        let dir = entry.path();
        if !dir.is_dir() || !looks_like_project(&dir) {
            continue;
        }
        if let Some(name) = dir.file_name().and_then(|n| n.to_str()) {
            names.push((name.to_owned(), dir.clone()));
        }
    }
    names.sort();
    for (name, dir) in names {
        let store = metadata::fsck::scrub(&*vfs, &dir).map_err(|e| e.to_string());
        let conf = check_conf(&dir, &name);
        let mut project = ProjectFsck {
            name,
            dir: dir.clone(),
            store,
            conf,
            repaired: None,
        };
        if repair {
            // Repair what repair *can* fix: the store, damaged, holding
            // unreferenced data-segment bytes, or beside the files of
            // a write that never committed. (A lost
            // project.conf has no redundant copy to rebuild from; the
            // verdict tells the operator to re-open with an explicit
            // schema, which rewrites it.)
            let store_clean = matches!(&project.store, Ok(s) if s.clean());
            if !store_clean {
                match metadata::fsck::repair(&vfs, &dir) {
                    Ok(outcome) => {
                        project.repaired = Some(outcome);
                        // Re-scrub so the report shows the post-repair
                        // state.
                        project.store =
                            metadata::fsck::scrub(&*vfs, &dir).map_err(|e| e.to_string());
                    }
                    Err(e) => {
                        project.store = Err(format!("unrepairable: {e}"));
                    }
                }
            }
        }
        projects.push(project);
    }
    Ok(WorkspaceFsck {
        root: root.to_path_buf(),
        projects,
    })
}

/// Validates one project's saved session config by actually parsing it
/// — the same code path `open_saved_project` trusts.
fn check_conf(dir: &Path, name: &str) -> ConfVerdict {
    if !dir.join("project.conf").is_file() {
        return ConfVerdict::Missing;
    }
    match read_project_conf(dir, name) {
        Ok(_) => ConfVerdict::Ok,
        Err(e) => ConfVerdict::Corrupt(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;
    use metadata::fsck::FileStatus;
    use schema::examples;
    use simtools::{workload::Team, ToolLibrary};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "schedflow-fsck-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seeded_root(tag: &str) -> PathBuf {
        let root = scratch(tag);
        let ws = Workspace::persistent(&root);
        let project = ws
            .create_project(
                "alpha",
                examples::circuit_design(),
                ToolLibrary::standard(),
                Team::of_size(2),
                7,
            )
            .unwrap();
        project.update(|h| h.plan("performance")).unwrap();
        root
    }

    #[test]
    fn missing_root_is_a_typed_error() {
        let err = fsck_workspace(scratch("absent"), false).unwrap_err();
        assert!(matches!(err, WorkspaceError::Store(_)));
        assert!(err.to_string().contains("no workspace here"));
    }

    #[test]
    fn healthy_root_reports_healthy() {
        let root = seeded_root("healthy");
        let report = fsck_workspace(&root, false).unwrap();
        assert_eq!(report.projects.len(), 1);
        assert!(report.healthy(), "{report:?}");
        assert_eq!(report.projects[0].conf, ConfVerdict::Ok);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_store_is_found_and_repaired() {
        let root = seeded_root("repairme");
        // Damage an interior tail record (the snapshot still loads, so
        // the store is repairable from a prefix of the session).
        let tail = root.join("alpha/tail-0.journal");
        let text = fs::read_to_string(&tail).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        assert!(lines.len() > 3, "need interior records: {text}");
        lines[2] = lines[2].chars().rev().collect();
        fs::write(&tail, lines.join("\n") + "\n").unwrap();
        let report = fsck_workspace(&root, false).unwrap();
        assert!(!report.healthy());
        assert_eq!(report.damaged().count(), 1);
        // Repair mode rebuilds it...
        let report = fsck_workspace(&root, true).unwrap();
        assert!(report.healthy(), "{report:?}");
        assert!(matches!(
            report.projects[0].repaired,
            Some(RepairOutcome::Repaired { .. })
        ));
        // ...the damage is quarantined, and the workspace opens again.
        assert!(root.join("alpha/tail-0.journal.quarantine").exists());
        let ws = Workspace::persistent(&root);
        let project = ws.open_saved_project("alpha").unwrap();
        assert!(project.read(|h| h.db().check_invariants().is_ok()));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn project_without_current_is_still_discovered() {
        let root = seeded_root("headless");
        fs::remove_file(root.join("alpha/CURRENT")).unwrap();
        let report = fsck_workspace(&root, false).unwrap();
        assert_eq!(report.projects.len(), 1, "damaged projects must be found");
        assert!(!report.healthy());
        assert!(report.projects[0].store.is_err());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_conf_is_reported_but_store_can_be_healthy() {
        let root = seeded_root("noconf");
        fs::remove_file(root.join("alpha/project.conf")).unwrap();
        let report = fsck_workspace(&root, false).unwrap();
        assert!(!report.healthy());
        assert_eq!(report.projects[0].conf, ConfVerdict::Missing);
        assert!(matches!(&report.projects[0].store, Ok(s) if s.healthy));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn non_project_directories_are_ignored() {
        let root = seeded_root("mixed");
        fs::create_dir_all(root.join("not-a-project")).unwrap();
        fs::write(root.join("not-a-project/notes.txt"), "hi").unwrap();
        let report = fsck_workspace(&root, false).unwrap();
        assert_eq!(report.projects.len(), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn file_status_is_used_in_reports() {
        // Silence the "unused import" trap and pin the re-export shape
        // the CLI prints from.
        let root = seeded_root("verdicts");
        let report = fsck_workspace(&root, false).unwrap();
        let scrub = report.projects[0].store.as_ref().unwrap();
        assert!(scrub.verdicts.iter().all(|v| v.status == FileStatus::Ok));
        fs::remove_dir_all(&root).unwrap();
    }
}
