//! Golden tests over the committed corruption corpus in
//! `artifacts/corrupt_roots/`: copies of one small project, each with a
//! different kind of damage (none, torn tail, corrupt interior record,
//! rotted snapshot, missing `CURRENT`, a `carry-plan` record that
//! checksums but does not replay, a last record that checksums but does
//! not parse (`negative_md`: a negative milli-day), a compaction that
//! died writing its next generation (`stray_next`: a half-written
//! `snapshot-1.txt` that `CURRENT` never named), and the data-segment
//! cases). The corpus pins the
//! scrub verdicts — exit code, per-file classification, detail text —
//! so a recovery-policy change shows up as a reviewable diff, and the
//! repair test proves `--repair` fixes exactly the repairable cases.
//!
//! Regenerate after an intentional verdict change:
//!
//! ```text
//! cargo run --release -p dac95-schedflow --bin herc -- \
//!     fsck artifacts/corrupt_roots > artifacts/corrupt_roots/expected.txt
//! ```

use std::fs;
use std::path::Path;
use std::process::Command;

use metadata::Store;

/// Runs `herc` from the workspace root (the corpus verdicts embed
/// root-relative paths, so the cwd matters).
fn herc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_herc"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("spawn herc")
}

#[test]
fn scrub_verdicts_match_the_committed_golden() {
    let out = herc(&["fsck", "artifacts/corrupt_roots"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a root with damaged projects must exit 1"
    );
    let expected = fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts/corrupt_roots/expected.txt"),
    )
    .expect("committed golden");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout, expected,
        "fsck verdicts drifted from artifacts/corrupt_roots/expected.txt; \
         if the change is intentional, regenerate the golden (see module docs)"
    );
}

/// Copies the corpus somewhere writable (repair quarantines and
/// rebuilds in place; the committed corpus must stay pristine).
fn scratch_corpus() -> std::path::PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts/corrupt_roots");
    let dst = std::env::temp_dir().join(format!(
        "herc-fsck-corpus-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dst);
    for case in fs::read_dir(&src).expect("corpus exists") {
        let case = case.expect("read corpus entry").path();
        if !case.is_dir() {
            continue;
        }
        let out = dst.join(case.file_name().expect("named dir"));
        fs::create_dir_all(&out).expect("create case dir");
        for file in fs::read_dir(&case).expect("read case") {
            let file = file.expect("read case entry").path();
            fs::copy(&file, out.join(file.file_name().expect("named file"))).expect("copy");
        }
    }
    dst
}

#[test]
fn repair_fixes_exactly_the_repairable_cases() {
    let root = scratch_corpus();
    let root_str = root.to_str().expect("utf-8 path");
    // Repair: the interior rot and the unreplayable carry are rebuilt
    // from snapshot + valid tail prefix; the rotted snapshot (no other
    // generation) and the missing CURRENT stay damaged, so the exit
    // code is still 1.
    let out = herc(&["fsck", root_str, "--repair"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("repaired: rebuilt"), "{stdout}");
    // A second pass agrees: exactly the unrepairable two remain.
    let out = herc(&["fsck", root_str]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in [
        "project bad_carry: ok",
        "project healthy: ok",
        "project interior_rot: ok",
        "project negative_md: ok",
        "project stray_next: ok",
        "project torn_tail: ok",
        "project headless: DAMAGED",
        "project snapshot_rot: DAMAGED",
    ] {
        assert!(stdout.contains(line), "missing {line:?} in:\n{stdout}");
    }
    // The damage was quarantined, not deleted; the half-written
    // generation nothing named is gone.
    assert!(root.join("interior_rot/tail-0.journal.quarantine").exists());
    assert!(!root.join("stray_next/snapshot-1.txt").exists());
    assert!(!stdout.contains("uncommitted"), "{stdout}");
    let _ = fs::remove_dir_all(&root);
}

/// A last record that checksums but does not parse is damage, not a
/// torn append: open refuses it typed, and repair rebuilds the store
/// from the snapshot and every record before it, so the repaired
/// project holds what the same root without the bad record holds.
#[test]
fn repair_keeps_every_record_before_an_unparsable_one() {
    let root = scratch_corpus();
    let dir = root.join("negative_md");
    let refused = metadata::PersistentStore::open(&dir).expect_err("open refuses the root");
    assert!(
        refused
            .to_string()
            .contains("unparsable checksummed record"),
        "{refused}"
    );
    herc(&["fsck", root.to_str().expect("utf-8 path"), "--repair"]);
    let repaired = metadata::PersistentStore::open(&dir).expect("the repaired root opens");
    let healthy = metadata::PersistentStore::open(root.join("healthy")).expect("healthy opens");
    assert_eq!(repaired.db().dump(), healthy.db().dump());
    assert_eq!(repaired.db().schedule_count(), 2);
    let _ = fs::remove_dir_all(&root);
}

/// Open and scrub read a generation through one reader, so they agree
/// on which corpus roots open: torn tails, segment slack and a
/// half-written next generation heal or serve, interior damage, a carry that does not replay, a rotted
/// snapshot and a missing `CURRENT` are refused. `data_rot` opens
/// because open reads no design data, yet fsck reports it damaged: its
/// one rotted datum fails its checksum when read.
#[test]
fn open_agrees_with_scrub_on_every_corpus_root() {
    let root = scratch_corpus();
    let cases = [
        ("healthy", true, true),
        ("torn_tail", true, true),
        ("short_segment", true, true),
        ("segment_slack", true, true),
        ("stray_next", true, true),
        ("data_rot", true, false),
        ("interior_rot", false, false),
        ("bad_carry", false, false),
        ("negative_md", false, false),
        ("snapshot_rot", false, false),
        ("headless", false, false),
    ];
    for (case, opens, healthy) in cases {
        let dir = root.join(case);
        // Scrub first: open heals a torn tail on disk.
        let scrubbed =
            metadata::fsck::scrub(&simtools::vfs::RealVfs, &dir).is_ok_and(|scrub| scrub.healthy);
        assert_eq!(scrubbed, healthy, "{case}: scrub's verdict");
        let opened = metadata::PersistentStore::open(&dir);
        assert_eq!(opened.is_ok(), opens, "{case}: {opened:?}");
    }
    let _ = fs::remove_dir_all(&root);
}
