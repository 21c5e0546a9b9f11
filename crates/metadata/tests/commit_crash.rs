//! The commit crash sweep: a power loss after every write point of a
//! generation commit, over [`MemVfs`], whose `crash` keeps exactly what
//! fsyncs made durable.
//!
//! A commit writes the next generation's snapshot and empty tail in
//! place, fsyncs each, syncs the directory once and then replaces
//! `CURRENT`, whose rename is the commit point. For each of create,
//! [`replace_db`](Store::replace_db) and [`compact`](Store::compact),
//! the sweep lets the first `k` write points (writes, appends, fsyncs,
//! renames, removals) through, kills the process at the next one,
//! crashes the filesystem, and reopens. For every `k`:
//!
//! * the reopen serves the generation before the commit with its state,
//!   or the one after with its state, never anything else;
//! * `fsck` finds the root healthy, with every verdict `ok`,
//!   `uncommitted`, or `slack` (design data a dead commit moved to the
//!   segment), and one `repair` leaves it clean and serving the same
//!   state.
//!
//! The sweep ends at the first `k` the commit completes within, and
//! must have seen both outcomes on the way.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use metadata::fsck::{self, FileStatus};
use metadata::{MetadataDb, PersistentStore, Store, StoreError};
use schedule::WorkDays;
use schema::examples;
use simtools::vfs::{MemVfs, Vfs};

const DIR: &str = "/p";

/// A [`MemVfs`] behind a process that dies at a chosen write point:
/// the first `left` write points pass through, every later one fails
/// as if nothing ran after the death. Reads pass through.
#[derive(Debug)]
struct DieAfter {
    mem: Arc<MemVfs>,
    left: AtomicU64,
    died: AtomicU64,
}

impl DieAfter {
    fn over(mem: &Arc<MemVfs>) -> Arc<DieAfter> {
        Arc::new(DieAfter {
            mem: Arc::clone(mem),
            left: AtomicU64::new(u64::MAX),
            died: AtomicU64::new(0),
        })
    }

    /// Lets `k` more write points through.
    fn arm(&self, k: u64) {
        self.left.store(k, Ordering::SeqCst);
    }

    /// Whether a write point was refused since the process started.
    fn died(&self) -> bool {
        self.died.load(Ordering::SeqCst) > 0
    }

    /// One write point: through while any are left, else the death.
    fn point(&self) -> io::Result<()> {
        let left = self.left.load(Ordering::SeqCst);
        if left == 0 {
            self.died.fetch_add(1, Ordering::SeqCst);
            return Err(io::Error::other("the process died"));
        }
        self.left.store(left - 1, Ordering::SeqCst);
        Ok(())
    }
}

impl Vfs for DieAfter {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.mem.read_to_string(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.mem.read(path)
    }
    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.point()?;
        self.mem.write(path, contents)
    }
    fn append(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.point()?;
        self.mem.append(path, contents)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.point()?;
        self.mem.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.point()?;
        self.mem.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.point()?;
        self.mem.create_dir_all(path)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.point()?;
        self.mem.sync_file(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.point()?;
        self.mem.sync_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.mem.exists(path)
    }
    fn file_size(&self, path: &Path) -> u64 {
        self.mem.file_size(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.mem.file_len(path)
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.mem.list_dir(path)
    }
}

/// A raw design datum of `len` bytes, not UTF-8.
fn payload(tag: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ tag | 0x80)
        .collect()
}

/// A database holding one planned, run and completed activity, its
/// design data inline.
fn populated() -> MetadataDb {
    let mut db = MetadataDb::for_schema(&examples::circuit_design());
    let s = db.begin_planning(WorkDays::ZERO);
    let sc = db
        .plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(2.0))
        .unwrap();
    db.assign(sc, "alice").unwrap();
    let run = db.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
    let data = db.store_data("v1.net", payload(1, 3000));
    let e = db
        .finish_run(run, "netlist", data, WorkDays::new(1.0), &[])
        .unwrap();
    db.link_completion(sc, e).unwrap();
    db
}

/// A store at generation 1 whose live tail holds records and whose
/// segment grew since its last sync, every byte of it durable: the
/// state a commit starts from.
fn prepared(vfs: &Arc<DieAfter>) -> PersistentStore {
    let mut store = PersistentStore::create_on(
        Arc::clone(vfs) as Arc<dyn Vfs>,
        DIR,
        MetadataDb::for_schema(&examples::circuit_design()),
    )
    .unwrap();
    store.store_data("vec.stim", payload(2, 1500));
    store.begin_planning(WorkDays::new(1.0));
    store.compact().unwrap();
    let s = store.begin_planning(WorkDays::new(2.0));
    store
        .plan_activity(s, "Simulate", WorkDays::new(2.0), WorkDays::new(3.0))
        .unwrap();
    store.store_data("v2.net", payload(3, 2000));
    store.checkpoint().unwrap();
    store
}

/// What a directory serves after the crash: its generation and dump,
/// or `None` when it holds no store.
fn served(mem: &Arc<MemVfs>) -> Option<(u64, String)> {
    match PersistentStore::open_on(Arc::clone(mem) as Arc<dyn Vfs>, DIR) {
        Ok(store) => Some((store.sequence(), store.db().dump())),
        Err(StoreError::Io { .. }) => None,
        Err(e) => panic!("a crashed commit must reopen: {e}"),
    }
}

/// Scrubs the crashed root and repairs it once: healthy before, every
/// verdict ok, uncommitted or slack, clean after, serving what it
/// served.
fn fsck_heals(mem: &Arc<MemVfs>, at: &str) {
    let before = served(mem);
    let vfs: Arc<dyn Vfs> = Arc::clone(mem) as Arc<dyn Vfs>;
    let Ok(report) = fsck::scrub(&*vfs, Path::new(DIR)) else {
        assert_eq!(
            before, None,
            "{at}: only a store never created has no CURRENT"
        );
        return;
    };
    assert!(report.healthy, "{at}: {:?}", report.verdicts);
    for v in &report.verdicts {
        assert!(
            matches!(
                v.status,
                FileStatus::Ok | FileStatus::Uncommitted | FileStatus::Slack
            ),
            "{at}: {v:?}"
        );
    }
    fsck::repair(&vfs, Path::new(DIR)).unwrap();
    let after = fsck::scrub(&*vfs, Path::new(DIR)).unwrap();
    assert!(after.clean(), "{at}: one repair leaves it clean: {after:?}");
    let dump = |served: Option<(u64, String)>| served.map(|(_, dump)| dump);
    assert_eq!(
        dump(served(mem)),
        dump(before),
        "{at}: repair changed the state"
    );
}

/// Sweeps a crash over every write point of `commit`, run on the store
/// `prepare` leaves (`None`: the commit creates the store). `commit`
/// returns the state it commits.
fn sweep(
    what: &str,
    prepare: impl Fn(&Arc<DieAfter>) -> Option<PersistentStore>,
    commit: impl Fn(Option<PersistentStore>, &Arc<DieAfter>) -> Result<String, StoreError>,
) {
    let mut saw = [false; 2];
    for k in 0.. {
        assert!(
            k < 64,
            "{what}: a commit should need far fewer write points"
        );
        let mem = MemVfs::new();
        let vfs = DieAfter::over(&mem);
        let store = prepare(&vfs);
        let old = store.as_ref().map(|s| (s.sequence(), s.db().dump()));
        let new_seq = old.as_ref().map_or(0, |(seq, _)| seq + 1);
        vfs.arm(k);
        let committed = commit(store, &vfs);
        let died = vfs.died();
        mem.crash();
        let at = format!("{what}, death after {k} write points");
        let found = served(&mem);
        if found == old {
            saw[0] = true;
        } else {
            let new = committed.as_ref().ok().map(|dump| (new_seq, dump.clone()));
            assert!(new.is_some(), "{at}: a failed commit moved CURRENT");
            assert_eq!(found, new, "{at}");
            saw[1] = true;
        }
        fsck_heals(&mem, &at);
        if !died {
            assert!(committed.is_ok(), "{at}: {committed:?}");
            assert_eq!(found.map(|(seq, _)| seq), Some(new_seq), "{at}");
            assert!(k >= 4, "{what}: the sweep must exercise the commit");
            assert_eq!(saw, [true; 2], "{what}: both generations seen");
            return;
        }
    }
}

#[test]
fn a_crash_at_every_write_point_of_a_compaction_reopens_one_generation() {
    sweep(
        "compact",
        |vfs| Some(prepared(vfs)),
        |store, _| {
            let mut store = store.expect("a store");
            let dump = store.db().dump();
            store.compact()?;
            Ok(dump)
        },
    );
}

/// A commit that died before naming its generation left that
/// generation whole; the store went on appending below it. The next
/// commit writes over it in place.
#[test]
fn a_crash_at_every_write_point_of_a_compaction_over_a_stale_one_reopens_one_generation() {
    sweep(
        "compact over a stale generation",
        |vfs| {
            let store = prepared(vfs);
            for name in ["snapshot-1.txt", "tail-1.journal"] {
                let from = Path::new(DIR).join(name);
                let to = Path::new(DIR).join(name.replace('1', "2"));
                vfs.write(&to, &vfs.read(&from).unwrap()).unwrap();
                vfs.sync_file(&to).unwrap();
            }
            vfs.sync_dir(Path::new(DIR)).unwrap();
            Some(store)
        },
        |store, _| {
            let mut store = store.expect("a store");
            let dump = store.db().dump();
            store.compact()?;
            Ok(dump)
        },
    );
}

#[test]
fn a_crash_at_every_write_point_of_a_replacement_reopens_one_generation() {
    sweep(
        "replace_db",
        |vfs| Some(prepared(vfs)),
        |store, _| {
            let mut store = store.expect("a store");
            store.replace_db(populated())?;
            Ok(store.db().dump())
        },
    );
}

#[test]
fn a_crash_at_every_write_point_of_a_create_reopens_one_generation() {
    sweep(
        "create",
        |_| None,
        |_, vfs| {
            let store =
                PersistentStore::create_on(Arc::clone(vfs) as Arc<dyn Vfs>, DIR, populated())?;
            Ok(store.db().dump())
        },
    );
}
