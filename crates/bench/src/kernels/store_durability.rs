//! B15 — checksummed record framing overhead on the persistent store.
//!
//! PR 8's durability work frames every journal record and snapshot
//! with a CRC32 so recovery can tell a torn tail from interior
//! corruption. The checksum is pure CPU on the write and read paths;
//! this kernel isolates it by running the identical scripted session
//! against both framings over [`MemVfs`] (no disk, no fsync — only
//! the encode/verify cost differs):
//!
//! * `append_v1/{n}` / `append_v2/{n}` — a session of `n` tool-run
//!   cycles against a [`PersistentStore`] writing un-checksummed (v1)
//!   vs checksummed (v2) tail records.
//! * `open_v1/{n}` / `open_v2/{n}` — reopening the finished store:
//!   snapshot decode (v2 verifies a whole-body CRC) plus tail replay
//!   (v2 verifies one CRC per record).
//! * `append_disk_v2/256` (`/64` when quick) — the v2 append session
//!   on the real filesystem in a temp directory, store creation
//!   untimed: the per-append I/O cost the `MemVfs` rows leave out.
//!
//! The gate (`tests/store_durability.rs`, EXPERIMENTS.md §B15): v2
//! must stay within **1.2×** of v1 on both paths. The CRC is a
//! table-driven byte loop over ~60-byte records, well below the op
//! validation and `Vec` work around it.

use std::path::Path;
use std::sync::Arc;

use harness::bench::{black_box, Record};
use metadata::{Framing, MetadataDb, PersistentStore, Store};
use schedule::WorkDays;
use schema::examples;
use simtools::vfs::{MemVfs, Vfs};

/// A fresh store at `dir` on `vfs`, seeded with the circuit schema, in
/// `framing`: its snapshot, empty tail and `CURRENT` written with the
/// framing's encoders, then opened. The store appends in the framing
/// its tail declares.
fn create(vfs: Arc<dyn Vfs>, dir: &Path, framing: Framing) -> PersistentStore {
    let dump = MetadataDb::for_schema(&examples::circuit_design()).dump();
    vfs.create_dir_all(dir).expect("make the store directory");
    for (name, text) in [
        ("snapshot-0.txt", framing.encode_snapshot(&dump)),
        ("tail-0.journal", framing.empty_tail()),
        ("CURRENT", "0\n".to_owned()),
    ] {
        vfs.write(&dir.join(name), text.as_bytes())
            .expect("write a store file");
    }
    PersistentStore::open_on(vfs, dir).expect("open a fresh store")
}

/// Drives one planned activity and then `runs` begin/store/finish
/// cycles: three tail appends per cycle.
fn drive(store: &mut PersistentStore, runs: usize) {
    let planning = store.begin_planning(WorkDays::ZERO);
    let plan = store
        .plan_activity(planning, "Create", WorkDays::ZERO, WorkDays::new(1.0))
        .expect("known activity");
    store.assign(plan, "alice").expect("live plan");
    let mut t = 0.0;
    for i in 0..runs {
        let run = store
            .begin_run("Create", "alice", WorkDays::new(t))
            .expect("known activity");
        let data = store.store_data("n.net", vec![(i & 0xFF) as u8; 16]);
        t += 0.25;
        store
            .finish_run(run, "netlist", data, WorkDays::new(t), &[])
            .expect("valid finish");
        t += 0.01;
    }
}

/// Drives `runs` begin/store/finish cycles against a fresh store on
/// its own in-memory filesystem; returns the VFS for the reopen half.
pub fn session(runs: usize, framing: Framing) -> Arc<MemVfs> {
    let mem = MemVfs::new();
    let mut store = create(mem.clone(), Path::new("/proj"), framing);
    drive(&mut store, runs);
    mem
}

/// Runs the kernel; `quick` selects the smoke-test plan and sizes.
pub fn run(quick: bool) -> Vec<Record> {
    let mut suite = super::suite("store_durability", quick);
    let sizes: &[usize] = if quick { &[64] } else { &[64, 256, 1_024] };
    for &n in sizes {
        for (label, framing) in [("v1", Framing::V1), ("v2", Framing::V2)] {
            suite.bench(&format!("append_{label}/{n}"), Some(n as u64), || {
                Arc::strong_count(&session(black_box(n), framing))
            });
            let mem = session(n, framing);
            suite.bench(&format!("open_{label}/{n}"), Some(n as u64), || {
                let store =
                    PersistentStore::open_on(mem.clone() as Arc<dyn Vfs>, Path::new("/proj"))
                        .expect("own store reopens");
                black_box(store.db().schedule_count())
            });
        }
    }
    // The same session on the real filesystem, store creation (and its
    // fsyncs) untimed: what the held tail handle saves per append.
    let n = if quick { 64 } else { 256 };
    let root = std::env::temp_dir().join(format!("schedflow-b15-disk-{}", std::process::id()));
    suite.bench_with_setup(
        &format!("append_disk_v2/{n}"),
        Some(n as u64),
        || {
            let _ = std::fs::remove_dir_all(&root);
            let db = MetadataDb::for_schema(&examples::circuit_design());
            PersistentStore::create(&root, db).expect("create a fresh store")
        },
        |mut store| drive(&mut store, black_box(n)),
    );
    let _ = std::fs::remove_dir_all(&root);
    suite.into_records()
}
