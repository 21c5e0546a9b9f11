//! Storage compatibility: roots written before the data segment — v1
//! (no checksums) and v2 (checksummed), both with design data inline
//! as hex in snapshot `data` lines and tail `store-data` records — open
//! unmodified, and compaction and `fsck --repair` turn them into
//! storage v3 with the design data moved, raw, into `data.seg`. The
//! logical dump is byte-identical throughout.

use std::path::Path;
use std::sync::Arc;

use metadata::fsck::{self, RepairOutcome};
use metadata::{Framing, MetadataDb, PersistentStore, Store};
use schedule::WorkDays;
use schema::examples;
use simtools::vfs::{MemVfs, Vfs};

const DIR: &str = "/old";

/// A raw design datum, not UTF-8.
fn payload(tag: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(13) ^ tag | 0x80)
        .collect()
}

/// An older root as its writer left it: a snapshot holding one
/// executed activity (its datum inline), and a tail holding a second
/// execution (its datum inline too). Returns the filesystem and the
/// final logical dump.
fn old_root(framing: Framing) -> (Arc<MemVfs>, String, String) {
    let mut db = MetadataDb::for_schema(&examples::circuit_design());
    let stim = db.store_data("vec.stim", payload(1, 700));
    db.supply_input("stimuli", "bob", WorkDays::ZERO, stim)
        .unwrap();
    let snapshot_dump = db.dump();
    assert!(
        snapshot_dump.contains("\ndata "),
        "inline data in the snapshot"
    );
    db.enable_journal();
    let run = db.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
    let net = db.store_data("v1.net", payload(2, 1300));
    db.finish_run(run, "netlist", net, WorkDays::new(1.0), &[])
        .unwrap();
    let tail = framing.encode_tail(db.journal().unwrap());
    assert!(
        tail.contains("store-data 76312e6e6574 "),
        "inline data in the tail"
    );

    let mem = MemVfs::new();
    let dir = Path::new(DIR);
    mem.create_dir_all(dir).unwrap();
    mem.write(
        &dir.join("snapshot-0.txt"),
        framing.encode_snapshot(&snapshot_dump).as_bytes(),
    )
    .unwrap();
    mem.write(&dir.join("tail-0.journal"), tail.as_bytes())
        .unwrap();
    mem.write(&dir.join("CURRENT"), b"0\n").unwrap();
    (mem, snapshot_dump, db.dump())
}

fn files(mem: &MemVfs) -> Vec<(String, Vec<u8>)> {
    mem.list_dir(Path::new(DIR))
        .unwrap()
        .into_iter()
        .map(|p| {
            let bytes = mem.read(&p).unwrap();
            (p.display().to_string(), bytes)
        })
        .collect()
}

/// The data segment holds exactly the two payloads, raw, and the live
/// snapshot references them instead of holding them.
fn assert_v3(mem: &MemVfs, seq: u64) {
    let dir = Path::new(DIR);
    let segment = mem.read(&dir.join("data.seg")).unwrap();
    assert_eq!(segment, [payload(1, 700), payload(2, 1300)].concat());
    let snapshot = mem
        .read_to_string(&dir.join(format!("snapshot-{seq}.txt")))
        .unwrap();
    assert!(snapshot.starts_with(metadata::framing::SNAPSHOT_MAGIC_V2));
    assert_eq!(snapshot.matches("\ndata-ref ").count(), 2, "{snapshot}");
    assert!(!snapshot.contains("\ndata "), "{snapshot}");
}

#[test]
fn v1_and_v2_roots_open_unmodified_and_compact_to_v3() {
    for framing in [Framing::V1, Framing::V2] {
        let (mem, _, dump) = old_root(framing);
        let before = files(&mem);
        let vfs: Arc<dyn Vfs> = mem.clone();
        let store = PersistentStore::open_on(Arc::clone(&vfs), DIR).unwrap();
        assert_eq!(store.framing(), framing);
        assert_eq!(store.db().dump(), dump, "{framing:?} opens");
        drop(store);
        assert_eq!(files(&mem), before, "{framing:?}: open wrote nothing");

        let mut store = PersistentStore::open_on(Arc::clone(&vfs), DIR).unwrap();
        store.compact().unwrap();
        assert_eq!(store.framing(), Framing::V2);
        assert_eq!(store.db().dump(), dump, "{framing:?} compacts");
        drop(store);
        assert_v3(&mem, 1);
        let reopened = PersistentStore::open_on(vfs, DIR).unwrap();
        assert_eq!(reopened.db().dump(), dump, "{framing:?} reopens as v3");
        reopened.db().check_invariants().unwrap();
    }
}

#[test]
fn repair_rebuilds_an_old_root_as_v3() {
    for framing in [Framing::V1, Framing::V2] {
        let (mem, snapshot_dump, _) = old_root(framing);
        let vfs: Arc<dyn Vfs> = mem.clone();
        // Rot the tail's first record; records follow it, so it is
        // interior damage and repair rebuilds from the snapshot alone.
        let tail = Path::new(DIR).join("tail-0.journal");
        let text = mem.read_to_string(&tail).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines[1] = format!("zz{}", &lines[1][2..]);
        mem.write(&tail, (lines.join("\n") + "\n").as_bytes())
            .unwrap();
        if framing == Framing::V2 {
            assert!(PersistentStore::open_on(Arc::clone(&vfs), DIR).is_err());
        }
        let outcome = fsck::repair(&vfs, Path::new(DIR)).unwrap();
        assert!(
            matches!(outcome, RepairOutcome::Repaired { new_seq: 1, .. }),
            "{framing:?}: {outcome:?}"
        );
        let store = PersistentStore::open_on(vfs, DIR).unwrap();
        assert_eq!(store.db().dump(), snapshot_dump, "{framing:?}");
        let segment = mem.read(&Path::new(DIR).join("data.seg")).unwrap();
        assert_eq!(segment, payload(1, 700), "{framing:?}");
        let snapshot = mem
            .read_to_string(&Path::new(DIR).join("snapshot-1.txt"))
            .unwrap();
        assert_eq!(snapshot.matches("\ndata-ref ").count(), 1, "{snapshot}");
    }
}
