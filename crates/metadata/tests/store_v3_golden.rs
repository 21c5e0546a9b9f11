//! Golden files of the storage-v3 on-disk layout: a scripted session
//! through a [`PersistentStore`] — plan, supply an input, run, link,
//! compact, run again — must leave exactly the committed snapshot text,
//! tail text and data-segment bytes in `artifacts/store_v3/`. The
//! snapshot carries `data-ref` lines, the tail `store-data-ref`
//! records, and the segment the raw design data, once each. Format
//! drift strands written roots, so changes must be deliberate:
//! regenerate with
//!
//! ```text
//! cargo test -p metadata --test store_v3_golden -- --ignored regenerate
//! ```
//!
//! and review the diff.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use metadata::{MetadataDb, PersistentStore, Store};
use schedule::WorkDays;
use schema::examples;
use simtools::vfs::{MemVfs, Vfs};

const DIR: &str = "/project";

/// The files the golden pins, by name.
const FILES: [&str; 3] = ["snapshot-1.txt", "tail-1.journal", "data.seg"];

/// Runs the scripted session; returns the filesystem it wrote and the
/// session's logical dump.
fn scripted_root() -> (Arc<MemVfs>, String) {
    let mem = MemVfs::new();
    let db = MetadataDb::for_schema(&examples::circuit_design());
    let mut store = PersistentStore::create_on(mem.clone() as Arc<dyn Vfs>, DIR, db).unwrap();
    let session = store.begin_planning(WorkDays::ZERO);
    let plan_create = store
        .plan_activity(session, "Create", WorkDays::ZERO, WorkDays::new(2.0))
        .unwrap();
    store.assign(plan_create, "alice").unwrap();
    let stim = store.store_data("stimuli.dat", b"0101 1100\n".to_vec());
    store
        .supply_input("stimuli", "bob", WorkDays::ZERO, stim)
        .unwrap();
    let run = store
        .begin_run("Create", "alice", WorkDays::new(0.25))
        .unwrap();
    // Design data need not be text: a NUL and 0xff bytes.
    let net = store.store_data("netlist.v1", b"module counter;\0\xff\xfe".to_vec());
    let netlist = store
        .finish_run(run, "netlist", net, WorkDays::new(1.75), &[])
        .unwrap();
    store.link_completion(plan_create, netlist).unwrap();
    store.compact().unwrap();
    let run = store
        .begin_run("Create", "alice", WorkDays::new(2.0))
        .unwrap();
    let net = store.store_data("netlist.v2", b"module counter; // v2\n".to_vec());
    store
        .finish_run(run, "netlist", net, WorkDays::new(2.5), &[])
        .unwrap();
    store.checkpoint().unwrap();
    let dump = store.db().dump();
    (mem, dump)
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/store_v3")
}

#[test]
fn v3_files_match_the_golden_artifacts() {
    let (mem, _) = scripted_root();
    for name in FILES {
        let actual = mem.read(&Path::new(DIR).join(name)).unwrap();
        let path = golden_dir().join(name);
        let golden = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {}: {e}\nregenerate with: cargo test -p metadata \
                 --test store_v3_golden -- --ignored regenerate",
                path.display()
            )
        });
        assert!(
            golden == actual,
            "{name} drifted from the committed golden; if intentional, regenerate \
             with: cargo test -p metadata --test store_v3_golden -- --ignored regenerate\n\
             golden: {:?}\nactual: {:?}",
            String::from_utf8_lossy(&golden),
            String::from_utf8_lossy(&actual)
        );
    }
}

/// The committed files are a complete root: opened on their own they
/// serve the session's state, and the design data never appear in the
/// metadata files.
#[test]
fn golden_artifacts_open_as_the_session() {
    let (_, dump) = scripted_root();
    let mem = MemVfs::new();
    mem.create_dir_all(Path::new(DIR)).unwrap();
    for name in FILES {
        let bytes = std::fs::read(golden_dir().join(name)).expect("golden artifact exists");
        mem.write(&Path::new(DIR).join(name), &bytes).unwrap();
    }
    mem.write(&Path::new(DIR).join("CURRENT"), b"1\n").unwrap();
    let store = PersistentStore::open_on(mem.clone() as Arc<dyn Vfs>, DIR).unwrap();
    assert_eq!(store.db().dump(), dump);
    store.db().check_invariants().unwrap();
    let snapshot = mem
        .read_to_string(&Path::new(DIR).join("snapshot-1.txt"))
        .unwrap();
    let tail = mem
        .read_to_string(&Path::new(DIR).join("tail-1.journal"))
        .unwrap();
    assert_eq!(snapshot.matches("\ndata-ref ").count(), 2);
    assert_eq!(tail.matches(" store-data-ref ").count(), 1);
    for text in [&snapshot, &tail] {
        assert!(!text.contains("module counter"));
        // "module counter" hex-encoded, as a v2 file would carry it.
        assert!(!text.contains("6d6f64756c6520636f756e746572"));
    }
}

/// Rewrites the golden artifacts from the scripted session. Ignored by
/// default; run explicitly when the format changes deliberately.
#[test]
#[ignore = "writes the golden artifacts; run explicitly after deliberate format changes"]
fn regenerate() {
    let (mem, _) = scripted_root();
    std::fs::create_dir_all(golden_dir()).expect("artifact directory");
    for name in FILES {
        let bytes = mem.read(&Path::new(DIR).join(name)).unwrap();
        std::fs::write(golden_dir().join(name), bytes).expect("write golden artifact");
    }
}
