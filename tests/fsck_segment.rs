//! `herc fsck --repair` over the storage-v3 cases of the corruption
//! corpus in `artifacts/corrupt_roots/` (their scrub verdicts are
//! pinned with the rest of the corpus in `expected.txt`):
//!
//! * `data_rot` — a flipped byte inside a datum the live snapshot
//!   references. The store is damaged; repair falls back to the older
//!   generation, replays its tail up to the rotten datum, rebuilds the
//!   segment and quarantines the damaged one.
//! * `short_segment` — the segment lost its end, as a crash tearing its
//!   unsynced bytes leaves it. The store self-heals (the tail is torn
//!   at the first reference past the end); repair drops the partial
//!   datum.
//! * `segment_slack` — a datum's first bytes with no record pointing
//!   at them. Healthy; repair drops them.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const CASES: [&str; 3] = ["data_rot", "short_segment", "segment_slack"];

fn herc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_herc"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("spawn herc")
}

/// The v3 cases, copied somewhere writable.
fn scratch_cases() -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts/corrupt_roots");
    let dst = std::env::temp_dir().join(format!("herc-fsck-segment-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dst);
    for case in CASES {
        fs::create_dir_all(dst.join(case)).expect("case dir");
        for file in fs::read_dir(src.join(case)).expect("corpus case") {
            let file = file.expect("case entry").path();
            fs::copy(&file, dst.join(case).join(file.file_name().unwrap())).expect("copy");
        }
    }
    dst
}

fn segment_len(root: &Path, case: &str) -> u64 {
    fs::metadata(root.join(case).join("data.seg"))
        .expect("data segment")
        .len()
}

#[test]
fn repair_rebuilds_each_segment_to_exactly_its_referenced_data() {
    let root = scratch_cases();
    let root_str = root.to_str().expect("utf-8 path");
    let before = herc(&["fsck", root_str]);
    assert_eq!(before.status.code(), Some(1), "data_rot is damaged");
    let stdout = String::from_utf8_lossy(&before.stdout);
    for line in [
        "project data_rot: DAMAGED",
        "project short_segment: ok",
        "project segment_slack: ok",
    ] {
        assert!(stdout.contains(line), "missing {line:?} in:\n{stdout}");
    }

    let repaired = herc(&["fsck", root_str, "--repair"]);
    assert_eq!(repaired.status.code(), Some(0), "{repaired:?}");
    let stdout = String::from_utf8_lossy(&repaired.stdout);
    assert_eq!(stdout.matches("repaired: rebuilt").count(), 3, "{stdout}");

    // A second scrub finds every segment clean, holding exactly the
    // data the rebuilt state references.
    let after = herc(&["fsck", root_str]);
    assert_eq!(after.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&after.stdout);
    assert!(
        !stdout.contains(" slack ") && !stdout.contains("CORRUPT"),
        "{stdout}"
    );
    // data_rot keeps stimuli and two netlists (1536 + 2 x 8192 bytes);
    // the rotten performance datum and everything after it are gone.
    assert_eq!(segment_len(&root, "data_rot"), 17920);
    assert!(root.join("data_rot/data.seg.quarantine").exists());
    // short_segment keeps the one datum that survived whole.
    assert_eq!(segment_len(&root, "short_segment"), 1536);
    // segment_slack loses the 300 orphan bytes and nothing else.
    assert_eq!(segment_len(&root, "segment_slack"), 34304);
    for case in CASES {
        let served = herc(&[
            "serve",
            root_str,
            "--oneshot",
            "GET",
            &format!("/projects/{case}/export"),
        ]);
        assert_eq!(served.status.code(), Some(0), "{case}: {served:?}");
    }
    let _ = fs::remove_dir_all(&root);
}
