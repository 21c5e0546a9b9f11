//! The shared `Store` conformance suite: every behavioural check runs
//! identically against all backends — [`ArenaStore`],
//! [`PersistentStore`] on the real filesystem, and [`PersistentStore`]
//! behind a no-fault [`FaultVfs`] — so the persistent engine cannot
//! drift from the in-memory semantics the rest of the workspace is
//! tested against, and the fault-injection seam is proven
//! behaviour-identical when no faults are planned.
//!
//! The persistent backends are storage v3: the lifecycle's design data
//! are kilobytes of raw, non-UTF-8 bytes, written to the data segment
//! and read back from it.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use metadata::{ArenaStore, MetadataDb, MetadataError, PersistentStore, Store, StoreError};
use schedule::WorkDays;
use schema::examples;
use simtools::vfs::{FaultVfs, MemVfs, RealVfs, Vfs, VfsFaultPlan};

static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

/// A scratch directory unique per process + call, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "schedflow-conformance-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn seed_db() -> MetadataDb {
    MetadataDb::for_schema(&examples::circuit_design())
}

/// Runs `check` once per backend. The persistent backends get their
/// own scratch directories; all start from the same schema-initialised
/// database with journaling on. The third backend routes every I/O
/// call through a [`FaultVfs`] with an empty fault plan: with no
/// faults, the seam must be invisible.
fn for_each_backend(tag: &str, check: impl Fn(&mut dyn Store)) {
    let mut arena = ArenaStore::new(seed_db());
    arena.enable_journal();
    check(&mut arena);

    let scratch = ScratchDir::new(tag);
    let mut persistent = PersistentStore::create(&scratch.0, seed_db()).unwrap();
    check(&mut persistent);

    let scratch = ScratchDir::new(&format!("{tag}-faultvfs"));
    let faulty = FaultVfs::new(RealVfs::arc(), VfsFaultPlan::none());
    let mut seamed =
        PersistentStore::create_on(faulty.clone() as Arc<dyn Vfs>, &scratch.0, seed_db()).unwrap();
    check(&mut seamed);
    assert_eq!(faulty.injected(), 0, "a no-fault plan must inject nothing");
}

/// A raw design datum of `len` bytes, not UTF-8.
fn payload(tag: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(37) ^ tag | 0x80)
        .collect()
}

/// One planned + executed + completed activity; returns nothing so the
/// same closure body type-checks for both backends.
fn lifecycle(store: &mut dyn Store) {
    let s = store.begin_planning(WorkDays::ZERO);
    let sc = store
        .plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(2.0))
        .unwrap();
    store.assign(sc, "alice").unwrap();
    let stim = store.store_data("vec.stim", payload(1, 1500));
    store
        .supply_input("stimuli", "bob", WorkDays::ZERO, stim)
        .unwrap();
    let run = store
        .begin_run("Create", "alice", WorkDays::new(0.5))
        .unwrap();
    let data = store.store_data("v1.net", payload(2, 5000));
    let e = store
        .finish_run(run, "netlist", data, WorkDays::new(1.5), &[])
        .unwrap();
    store.link_completion(sc, e).unwrap();
}

#[test]
fn conformance_lifecycle_state() {
    for_each_backend("lifecycle", |store| {
        lifecycle(store);
        let db = store.db();
        assert_eq!(db.entity_count(), 2);
        assert_eq!(db.schedule_count(), 1);
        assert_eq!(db.runs().len(), 1);
        assert_eq!(db.data_count(), 2);
        for (class, tag, len) in [("stimuli", 1, 1500), ("netlist", 2, 5000)] {
            let entity = db.entity_container(class).unwrap()[0];
            let id = db.entity_instance(entity).data();
            assert_eq!(db.data_object(id).size(), len);
            assert_eq!(&*db.data_content(id).unwrap(), &payload(tag, len)[..]);
        }
        assert!(db.current_plan("Create").unwrap().is_complete());
        assert_eq!(db.actual_start("Create"), Some(WorkDays::new(0.5)));
        assert_eq!(db.actual_finish("Create"), Some(WorkDays::new(1.5)));
        db.check_invariants().unwrap();
    });
}

#[test]
fn conformance_validation_errors() {
    for_each_backend("validation", |store| {
        assert!(matches!(
            store.begin_run("Fabricate", "alice", WorkDays::ZERO),
            Err(MetadataError::UnknownActivity(_))
        ));
        let s = store.begin_planning(WorkDays::ZERO);
        assert!(store
            .plan_activity(s, "ghost", WorkDays::ZERO, WorkDays::ZERO)
            .is_err());
        let data = store.store_data("x", vec![]);
        let run = store
            .begin_run("Create", "alice", WorkDays::new(1.0))
            .unwrap();
        assert!(matches!(
            store.finish_run(run, "performance", data, WorkDays::new(2.0), &[]),
            Err(MetadataError::WrongOutputClass { .. })
        ));
        assert!(matches!(
            store.finish_run(run, "netlist", data, WorkDays::ZERO, &[]),
            Err(MetadataError::InvalidTimestamps { .. })
        ));
    });
}

#[test]
fn conformance_journal_replays_to_identical_state() {
    for_each_backend("journal", |store| {
        lifecycle(store);
        let journal = store.take_journal().expect("journaling is on");
        // The arena journal replays from empty; the persistent tail
        // replays onto the snapshot. Both equal the live state.
        match store.path() {
            None => {
                let recovered = MetadataDb::recover(&journal).unwrap();
                assert_eq!(recovered.dump(), store.db().dump());
            }
            Some(dir) => {
                let current: u64 = fs::read_to_string(dir.join("CURRENT"))
                    .unwrap()
                    .trim()
                    .parse()
                    .unwrap();
                let snapshot =
                    fs::read_to_string(dir.join(format!("snapshot-{current}.txt"))).unwrap();
                let (_, body) = metadata::framing::decode_snapshot(&snapshot).unwrap();
                let mut db = MetadataDb::load_at(body, current as u32).unwrap();
                db.apply_journal(&journal).unwrap();
                assert_eq!(db.dump(), store.db().dump());
            }
        }
    });
}

/// Ops in the store's journal. The arena's journal is in memory; the
/// persistent store's is its live tail file (memory keeps only ops not
/// yet appended).
fn journal_len(store: &dyn Store) -> usize {
    match store.path() {
        None => store.db().journal().unwrap().len(),
        Some(dir) => {
            let current = fs::read_to_string(dir.join("CURRENT")).unwrap();
            let tail =
                fs::read_to_string(dir.join(format!("tail-{}.journal", current.trim()))).unwrap();
            metadata::framing::decode_tail(&tail).journal.len()
        }
    }
}

#[test]
fn conformance_injected_crash_keeps_op_in_journal() {
    for_each_backend("crash", |store| {
        lifecycle(store);
        let ops_before = journal_len(store);
        let runs_before = store.db().runs().len();
        store.inject_crash_after(0);
        assert!(matches!(
            store.begin_run("Simulate", "bob", WorkDays::new(2.0)),
            Err(MetadataError::InjectedCrash)
        ));
        // Append-before-apply: the journal holds the torn op, the
        // database state does not.
        assert_eq!(journal_len(store), ops_before + 1);
        assert_eq!(store.db().runs().len(), runs_before);
        assert!(store.db().has_crashed());
    });
}

#[test]
fn conformance_compaction_preserves_state_and_stales_handles() {
    for_each_backend("compact", |store| {
        let s = store.begin_planning(WorkDays::ZERO);
        let sc = store
            .plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(2.0))
            .unwrap();
        let dump = store.db().dump();
        let gen_before = store.db().generation();
        let stats = store.compact().unwrap();
        assert_eq!(store.db().dump(), dump, "compaction must not change state");
        assert_eq!(stats.generation, store.db().generation());
        assert!(store.db().generation() > gen_before);
        // Old handles are stale; re-queried handles are fresh.
        assert!(matches!(
            store.assign(sc, "bob"),
            Err(MetadataError::StaleHandle(_))
        ));
        let fresh = store.db().schedule_container("Create").unwrap()[0];
        store.assign(fresh, "bob").unwrap();
        store.db().check_invariants().unwrap();
    });
}

/// Asserts the run index answers what a scan over every run answers:
/// per activity its runs in order, their iteration numbers, the run
/// count, the actual start and the measured durations.
fn assert_run_index_matches_scan(db: &MetadataDb, stage: &str) {
    for activity in db.activities() {
        let scanned: Vec<&metadata::Run> = db
            .runs()
            .iter()
            .filter(|r| r.activity() == activity)
            .collect();
        let ids = |runs: &[&metadata::Run]| runs.iter().map(|r| r.id()).collect::<Vec<_>>();
        assert_eq!(
            ids(&db.runs_of(activity)),
            ids(&scanned),
            "{stage}: {activity}"
        );
        assert_eq!(
            db.run_count_of(activity),
            scanned.len(),
            "{stage}: {activity}"
        );
        for (k, run) in scanned.iter().enumerate() {
            assert_eq!(run.iteration() as usize, k + 1, "{stage}: {activity}");
        }
        let start = scanned
            .iter()
            .map(|r| r.started_at())
            .min_by(|a, b| a.days().total_cmp(&b.days()));
        assert_eq!(db.actual_start(activity), start, "{stage}: {activity}");
        let history: Vec<WorkDays> = scanned.iter().filter_map(|r| r.duration()).collect();
        assert_eq!(
            db.duration_history(activity),
            history,
            "{stage}: {activity}"
        );
    }
}

/// Interleaved runs of both activities, started out of time order,
/// every other one finished.
fn run_history(store: &mut dyn Store, from: f64) {
    let data = store.store_data("out", b"x".to_vec());
    for k in 0..12u32 {
        let (activity, class) = if k % 3 == 1 {
            ("Simulate", "performance")
        } else {
            ("Create", "netlist")
        };
        let start = from + f64::from((k * 7) % 5);
        let run = store
            .begin_run(activity, "alice", WorkDays::new(start))
            .unwrap();
        if k % 2 == 0 {
            store
                .finish_run(run, class, data, WorkDays::new(start + 1.5), &[])
                .unwrap();
        }
    }
}

#[test]
fn conformance_run_index_matches_full_scan() {
    for_each_backend("run-index", |store| {
        run_history(store, 3.0);
        assert_run_index_matches_scan(store.db(), "live");
        let loaded = MetadataDb::load(&store.db().dump()).unwrap();
        assert_run_index_matches_scan(&loaded, "load");
        store.checkpoint().unwrap();
        if let Some(dir) = store.path() {
            let reopened = PersistentStore::open(dir).unwrap();
            assert_run_index_matches_scan(reopened.db(), "tail replay");
        }

        store.compact().unwrap();
        assert_run_index_matches_scan(store.db(), "compacted");
        run_history(store, 0.5);
        assert_run_index_matches_scan(store.db(), "runs after compaction");

        store.replace_db(loaded).unwrap();
        assert_run_index_matches_scan(store.db(), "replaced");
        run_history(store, 1.0);
        assert_run_index_matches_scan(store.db(), "runs after replacement");
        store.checkpoint().unwrap();
        if let Some(dir) = store.path() {
            let reopened = PersistentStore::open(dir).unwrap();
            assert_run_index_matches_scan(reopened.db(), "snapshot + tail replay");
        }
    });
}

#[test]
fn conformance_clone_is_independent() {
    for_each_backend("clone", |store| {
        lifecycle(store);
        let mut fork = store.boxed_clone();
        let before = store.db().dump();
        fork.begin_planning(WorkDays::new(9.0));
        assert_eq!(store.db().dump(), before, "fork writes must not leak back");
        assert_ne!(fork.db().dump(), before);
    });
}

#[test]
fn conformance_replace_db_swaps_state() {
    for_each_backend("replace", |store| {
        lifecycle(store);
        let mut other = seed_db();
        other.begin_planning(WorkDays::new(3.0));
        let expected = other.dump();
        store.replace_db(other).unwrap();
        assert_eq!(store.db().dump(), expected);
        store.checkpoint().unwrap();
    });
}

/// Property: ENOSPC at *every* write of a commit — first write,
/// second, ... until the commit finally succeeds — is a typed I/O
/// error that leaves the live state unchanged and the disk reopening
/// to the state before the call. The commit protocol has no point of
/// no return short of the `CURRENT` swap. `commit` returns the state
/// the store holds once it succeeds; the sweep returns how many writes
/// the successful commit made.
fn commit_survives_enospc_at_every_injection_point(
    commit: impl Fn(&mut PersistentStore) -> Result<String, StoreError>,
) -> u64 {
    let mut k = 0u64;
    loop {
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(mem.clone(), VfsFaultPlan::none());
        let mut store =
            PersistentStore::create_on(faulty.clone() as Arc<dyn Vfs>, "/p", seed_db()).unwrap();
        lifecycle(&mut store);
        let before = store.db().dump();
        faulty.arm_enospc_after(k);
        let result = commit(&mut store);
        faulty.disarm();
        let (expected, seq) = match result {
            Ok(after) => (after, 1),
            Err(e) => {
                assert!(
                    matches!(e, StoreError::Io { .. }),
                    "ENOSPC must surface as a typed I/O error: {e:?}"
                );
                (before, 0)
            }
        };
        assert_eq!(store.db().dump(), expected);
        drop(store);
        let reopened = PersistentStore::open_on(mem as Arc<dyn Vfs>, "/p").unwrap();
        assert_eq!(reopened.db().dump(), expected);
        assert_eq!(reopened.sequence(), seq, "the commit point is CURRENT");
        if seq == 1 {
            assert!(k >= 2, "the sweep must actually exercise failing writes");
            return k;
        }
        k += 1;
        assert!(k < 64, "a commit should need far fewer than 64 writes");
    }
}

#[test]
fn conformance_compact_survives_enospc_at_every_injection_point() {
    let writes = commit_survives_enospc_at_every_injection_point(|store| {
        let dump = store.db().dump();
        store.compact()?;
        Ok(dump)
    });
    println!("compact commits in {writes} writes");
}

/// The replacement carries inline design data, so the sweep also hits
/// the segment appends that move it out before the snapshot.
#[test]
fn conformance_replace_db_survives_enospc_at_every_injection_point() {
    let writes = commit_survives_enospc_at_every_injection_point(|store| {
        let mut other = MetadataDb::load(&store.db().dump()).unwrap();
        other.store_data("v3.net", payload(3, 2000));
        other.begin_planning(WorkDays::new(3.0));
        let dump = other.dump();
        store.replace_db(other)?;
        Ok(dump)
    });
    println!("replace_db commits in {writes} writes");
}

/// Storage v3 on disk: the design data are in the data segment, raw and
/// once, and the journal tail and every snapshot carry only references
/// — through a reopen and a compaction.
#[test]
fn persistent_design_data_live_in_the_segment_only() {
    for (i, vfs) in real_vfs_backends().into_iter().enumerate() {
        let scratch = ScratchDir::new(&format!("segment-{i}"));
        let dir = &scratch.0;
        let mut store = PersistentStore::create_on(Arc::clone(&vfs), dir, seed_db()).unwrap();
        assert!(!dir.join("data.seg").exists(), "no datum, no segment");
        lifecycle(&mut store);
        let expected = [payload(1, 1500), payload(2, 5000)].concat();
        assert_eq!(fs::read(dir.join("data.seg")).unwrap(), expected);
        let tail = fs::read_to_string(dir.join("tail-0.journal")).unwrap();
        assert_eq!(tail.matches(" store-data-ref ").count(), 2, "{tail}");
        assert!(tail.len() < 2000, "the tail holds no design data");
        let dump = store.db().dump();
        store.compact().unwrap();
        assert_eq!(store.db().dump(), dump);
        let snapshot = fs::read_to_string(dir.join("snapshot-1.txt")).unwrap();
        assert_eq!(snapshot.matches("\ndata-ref ").count(), 2, "{snapshot}");
        assert!(snapshot.len() < 2000, "the snapshot holds no design data");
        assert_eq!(fs::read(dir.join("data.seg")).unwrap(), expected);
        drop(store);
        let reopened = PersistentStore::open_on(vfs, dir).unwrap();
        assert_eq!(reopened.db().dump(), dump);
    }
}

/// The real-filesystem backends: plain, and behind a no-fault
/// [`FaultVfs`] (whose held append handle wraps the real one).
fn real_vfs_backends() -> [Arc<dyn Vfs>; 2] {
    [
        RealVfs::arc(),
        FaultVfs::new(RealVfs::arc(), VfsFaultPlan::none()) as Arc<dyn Vfs>,
    ]
}

fn tail_len(dir: &std::path::Path, seq: u64) -> u64 {
    fs::metadata(dir.join(format!("tail-{seq}.journal")))
        .unwrap()
        .len()
}

/// Appends land in the live tail across every epoch switch on disk:
/// after `compact` and `replace_db` the store appends to the new tail,
/// the superseded tail stops growing, and a reopen replays exactly the
/// live state.
#[test]
fn real_fs_appends_follow_every_epoch_switch() {
    for (i, vfs) in real_vfs_backends().into_iter().enumerate() {
        let scratch = ScratchDir::new(&format!("epochs-{i}"));
        let dir = &scratch.0;
        let mut store = PersistentStore::create_on(Arc::clone(&vfs), dir, seed_db()).unwrap();
        lifecycle(&mut store);
        store.compact().unwrap();
        let tail0 = tail_len(dir, 0);
        let empty = tail_len(dir, 1);
        lifecycle(&mut store);
        assert_eq!(
            tail_len(dir, 0),
            tail0,
            "superseded tail grew after compact"
        );
        assert!(
            tail_len(dir, 1) > empty,
            "compacted epoch's tail took no appends"
        );
        let mut other = seed_db();
        other.begin_planning(WorkDays::new(3.0));
        store.replace_db(other).unwrap();
        let tail1 = tail_len(dir, 1);
        lifecycle(&mut store);
        assert_eq!(
            tail_len(dir, 1),
            tail1,
            "superseded tail grew after replace_db"
        );
        assert!(
            tail_len(dir, 2) > empty,
            "replaced epoch's tail took no appends"
        );
        let dump = store.db().dump();
        drop(store);
        let reopened = PersistentStore::open_on(vfs, dir).unwrap();
        assert_eq!(reopened.sequence(), 2);
        assert_eq!(reopened.db().dump(), dump);
        reopened.db().check_invariants().unwrap();
    }
}

/// Opening a root whose tail ends in a torn record rewrites the tail
/// (temp file + rename); appends after the open must reach the
/// rewritten file, or the next open loses them.
#[test]
fn real_fs_appends_after_torn_tail_repair_survive_reopen() {
    for (i, vfs) in real_vfs_backends().into_iter().enumerate() {
        let scratch = ScratchDir::new(&format!("torn-{i}"));
        let dir = &scratch.0;
        let mut store = PersistentStore::create_on(Arc::clone(&vfs), dir, seed_db()).unwrap();
        lifecycle(&mut store);
        drop(store);
        vfs.append(&dir.join("tail-0.journal"), b"0badc0de begin-run Create al")
            .unwrap();
        let mut store = PersistentStore::open_on(Arc::clone(&vfs), dir).unwrap();
        lifecycle(&mut store);
        let dump = store.db().dump();
        drop(store);
        let reopened = PersistentStore::open_on(vfs, dir).unwrap();
        assert_eq!(reopened.db().dump(), dump);
        reopened.db().check_invariants().unwrap();
    }
}
