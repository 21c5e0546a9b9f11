//! Grouped writes under faults: plan + execute of `asic_flow` on a
//! [`PersistentStore`] over [`FaultVfs`]`(`[`MemVfs`]`)`.
//!
//! A planning pass and each activity step of an execution reach the
//! store as one write group: one data-segment write and one tail write
//! when the group closes. These tests hold that batching to the
//! contract of the per-op appends it replaces:
//!
//! * **ENOSPC at every write point.** Each operation either returns
//!   `Ok` or returns [`MetadataError::StorageFailed`] with the store
//!   wedged, and a fault-free reopen holds exactly the state
//!   [`MetadataDb::recover`] builds from some prefix of the fault-free
//!   session's journal.
//! * **An injected crash at every fallible mutation.** The torn op
//!   still reaches disk: the reopened dump equals the dump of the same
//!   session's in-memory journal, recovered.
//! * **Bytes on disk.** After a fault-free run the tail and `data.seg`
//!   equal the goldens in `artifacts/asic_run/`, written by the per-op
//!   appends before grouping existed. Regenerate (deliberately) with
//!
//! ```text
//! cargo test -p hercules --test store_write_groups -- --ignored regenerate
//! ```

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hercules::{Hercules, HerculesError};
use metadata::{ArenaStore, Journal, MetadataDb, MetadataError, PersistentStore, Store};
use schema::examples;
use simtools::vfs::{FaultVfs, MemVfs, Vfs, VfsFaultPlan};
use simtools::workload::Team;
use simtools::ToolLibrary;

const DIR: &str = "/asic";
const TARGET: &str = "signoff_report";
const SEED: u64 = 7;
const TEAM: usize = 2;
/// The files the golden pins: the live tail and the data segment.
const FILES: [&str; 2] = ["tail-0.journal", "data.seg"];

/// Write and append calls one fault-free plan + execute makes, counted
/// by the ENOSPC sweep: one tail append for the planning pass; three
/// for the supply step, one write group (the segment's creation, the
/// primary input's datum, and one tail append of its two records);
/// then per activity step, nine of them, one segment write and one
/// tail append. The per-op appends before write groups made 88.
const WRITE_POINTS: u64 = 22;

fn manager(store: Box<dyn Store>) -> Hercules {
    Hercules::with_store(
        examples::asic_flow(),
        ToolLibrary::standard(),
        Team::of_size(TEAM),
        SEED,
        store,
    )
}

/// A manager over a fresh persistent store in `DIR` on `vfs`.
fn persistent(vfs: Arc<dyn Vfs>) -> Hercules {
    let db = MetadataDb::for_schema(&examples::asic_flow());
    manager(Box::new(PersistentStore::create_on(vfs, DIR, db).unwrap()))
}

/// Plans, then executes; stops at the first error.
fn drive(h: &mut Hercules) -> Result<(), HerculesError> {
    h.plan(TARGET)?;
    h.execute(TARGET)?;
    Ok(())
}

/// The store in `DIR` reopened fault-free, read whole.
fn reopened_dump(mem: &Arc<MemVfs>) -> String {
    let vfs = Arc::clone(mem) as Arc<dyn Vfs>;
    let store = PersistentStore::open_on(vfs, DIR).expect("the store reopens");
    store.db().try_dump().expect("every datum reads back")
}

/// The op lines of the fault-free session's journal, from an empty
/// database: the schema's declarations, then every record of the
/// tail.
fn reference_journal() -> Vec<String> {
    let mem = MemVfs::new();
    let mut h = persistent(mem.clone());
    drive(&mut h).expect("the fault-free session runs");
    let mut db = MetadataDb::for_schema(&examples::asic_flow());
    db.enable_journal();
    let declares = db.take_journal().unwrap().to_text();
    let tail = h.take_journal().expect("the tail reads back").to_text();
    // Both texts start with the journal header.
    declares
        .lines()
        .skip(1)
        .chain(tail.lines().skip(1))
        .map(str::to_owned)
        .collect()
}

#[test]
fn enospc_at_every_write_point_wedges_and_reopens_at_a_journal_prefix() {
    let lines = reference_journal();
    // Every prefix's state, by dump.
    let mut text = String::from("metadata-journal v1\n");
    let mut prefixes: HashMap<String, usize> = HashMap::new();
    for k in 0..=lines.len() {
        let prefix = Journal::parse(&text).unwrap();
        prefixes.insert(MetadataDb::recover(&prefix).unwrap().dump(), k);
        if let Some(line) = lines.get(k) {
            text.push_str(line);
            text.push('\n');
        }
    }
    let mut points = 0;
    loop {
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(mem.clone(), VfsFaultPlan::none());
        let mut h = persistent(faulty.clone());
        faulty.arm_enospc_after(points);
        for op in ["plan", "execute"] {
            let result = match op {
                "plan" => h.plan(TARGET).map(drop),
                _ => h.execute(TARGET).map(drop),
            };
            match result {
                Ok(()) => {}
                Err(HerculesError::Metadata(MetadataError::StorageFailed(_))) => {
                    assert!(
                        h.store().wedged_reason().is_some(),
                        "write point {points}: {op} failed without wedging"
                    );
                    break;
                }
                Err(e) => panic!("write point {points}: {op} failed with {e}"),
            }
        }
        if faulty.injected() == 0 {
            assert!(h.store().wedged_reason().is_none());
            break;
        }
        faulty.disarm();
        let dump = reopened_dump(&mem);
        assert!(
            prefixes.contains_key(&dump),
            "write point {points}: the reopened state is no prefix of the journal"
        );
        points += 1;
    }
    eprintln!("store_write_groups: {points} write points");
    assert_eq!(
        points, WRITE_POINTS,
        "write and append calls per plan + execute"
    );
}

#[test]
fn crash_at_every_fallible_mutation_still_persists_the_torn_op() {
    let mut crashes = 0;
    for k in 0.. {
        let mem = MemVfs::new();
        let mut h = persistent(mem.clone());
        h.inject_db_crash_after(k);
        let live = drive(&mut h);
        if !h.db().has_crashed() {
            live.expect("a session that never crashed succeeds");
            break;
        }
        assert!(
            matches!(
                live,
                Err(HerculesError::Metadata(MetadataError::InjectedCrash))
            ),
            "crash {k}: {live:?}"
        );
        // The same session on an in-memory store keeps the torn op in
        // its journal; recovery applies it.
        let mut twin = manager(Box::new(ArenaStore::new(MetadataDb::for_schema(
            &examples::asic_flow(),
        ))));
        twin.enable_journal();
        twin.inject_db_crash_after(k);
        let _ = drive(&mut twin);
        let recovered = MetadataDb::recover(&twin.take_journal().unwrap()).unwrap();
        assert_eq!(
            reopened_dump(&mem),
            recovered.dump(),
            "crash {k}: the reopened store differs from the recovered journal"
        );
        crashes += 1;
    }
    assert!(
        crashes > 20,
        "the sweep covers the session ({crashes} crash points)"
    );
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/asic_run")
}

/// The tail and segment bytes of a fault-free plan + execute.
fn run_files() -> Vec<(&'static str, Vec<u8>)> {
    let mem = MemVfs::new();
    let mut h = persistent(mem.clone());
    drive(&mut h).expect("the fault-free session runs");
    FILES
        .iter()
        .map(|&name| (name, mem.read(&Path::new(DIR).join(name)).unwrap()))
        .collect()
}

#[test]
fn tail_and_segment_bytes_match_the_golden() {
    for (name, actual) in run_files() {
        let path = golden_dir().join(name);
        let golden = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {}: {e}\nregenerate with: cargo test -p hercules \
                 --test store_write_groups -- --ignored regenerate",
                path.display()
            )
        });
        assert!(actual == golden, "{name} differs from {}", path.display());
    }
}

#[test]
#[ignore = "rewrites the golden files"]
fn regenerate() {
    std::fs::create_dir_all(golden_dir()).unwrap();
    for (name, bytes) in run_files() {
        std::fs::write(golden_dir().join(name), bytes).unwrap();
    }
}
