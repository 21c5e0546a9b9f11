//! Property suite for journal compaction: on chaos-seeded sessions —
//! random schemas, fault plans, and injected mid-op crashes — the
//! snapshot + journal-tail decomposition used by the persistent store
//! must be equivalent to full journal replay, and the compacted
//! emission must be a faithful, no-larger redo journal.
//!
//! For every seed the suite checks three properties against the raw
//! write-ahead journal of a full plan → execute → replan session:
//!
//! 1. **Full replay is sound** — `MetadataDb::recover` of the raw
//!    journal passes `check_invariants`.
//! 2. **Snapshot + tail ≡ full replay** — for several split points,
//!    replaying a prefix, dumping it as a snapshot, reloading the
//!    snapshot at a *different* generation, and redoing the remaining
//!    tail yields a byte-identical dump. This is exactly what
//!    `PersistentStore::open` does after a compaction.
//! 3. **Compaction round-trips and shrinks** — `Journal::compacted_from`
//!    of the recovered database replays back to the same dump and is
//!    never longer than the raw journal (strictly shorter whenever a
//!    crash left a torn tail op).
//!
//! A second test holds `gc`, which restamps the live database in place,
//! to a reopen of the compacted files on seeded sessions over
//! persistent stores: the same dump, then the same answers.

use std::path::Path;
use std::sync::Arc;

use hercules::Hercules;
use metadata::{Journal, MetadataDb, PersistentStore};
use schedule::WorkDays;
use schema::{examples, TaskSchema};
use simtools::rng::{mix, SplitMix64};
use simtools::vfs::{MemVfs, Vfs};
use simtools::workload::Team;
use simtools::{FaultPlan, ToolLibrary};

const SEEDS: u64 = 64;

/// A random flow and its target: one of the example schemas, a
/// pipeline or a layered flow.
fn seeded_flow(rng: &mut SplitMix64) -> (TaskSchema, String) {
    match rng.next_below(4) {
        0 => (examples::circuit_design(), "performance".to_owned()),
        1 => (examples::asic_flow(), "signoff_report".to_owned()),
        2 => {
            let stages = 3 + rng.next_below(5) as usize;
            (examples::pipeline(stages), format!("d{stages}"))
        }
        _ => {
            let layers = 2 + rng.next_below(2) as usize;
            let width = 2 + rng.next_below(2) as usize;
            (examples::layered(layers, width, 2), "merged".to_owned())
        }
    }
}

/// Drives one chaos-style session and returns its raw journal, the
/// compacted journal emitted from the *live* database (what `herc gc`
/// snapshots), the live database's dump, and whether an injected crash
/// actually fired (leaving a torn tail op in the raw journal).
fn session_journal(seed: u64) -> (Journal, Journal, String, bool) {
    let mut rng = SplitMix64::new(mix(&[seed, 0xC0_4AC7]));
    let (schema, target) = seeded_flow(&mut rng);
    let team = Team::of_size(1 + rng.next_below(3) as usize);
    let mut h = Hercules::new(schema, ToolLibrary::standard(), team, rng.next_u64());
    h.enable_journal();
    h.set_fault_plan(FaultPlan::seeded(rng.next_u64()).with_persistent_rate(0.25));

    h.plan(&target).expect("chaos scope plans");
    let _ = h.execute(&target);
    let _ = h.replan(&target);

    let mut crashed = false;
    if seed.is_multiple_of(3) {
        // Arm a crash a few fallible mutations into a follow-up
        // execution pass, then abandon the dead session — its journal
        // keeps the torn op (appended, never applied).
        h.inject_db_crash_after(rng.next_below(6) as u32);
        let _ = h.execute(&target);
        crashed = h.db().has_crashed();
    }
    let compacted_live = Journal::compacted_from(h.db());
    let live_dump = h.db().dump();
    let journal = h.take_journal().expect("journal enabled");
    (journal, compacted_live, live_dump, crashed)
}

/// The journal's ops after the first `skip`, rebuilt through the text
/// form — the same round trip the persistent store's tail file takes.
fn tail_of(journal: &Journal, skip: usize) -> Journal {
    let text = journal.to_text();
    let mut lines = text.lines();
    let mut out = String::from(lines.next().expect("journal header"));
    out.push('\n');
    for line in lines.skip(skip) {
        out.push_str(line);
        out.push('\n');
    }
    Journal::parse(&out).expect("tail text parses")
}

#[test]
fn snapshot_plus_tail_replay_equals_full_replay() {
    let mut torn_sessions = 0usize;
    let mut shrunk_sessions = 0usize;

    for seed in 0..SEEDS {
        let (journal, compacted_live, live_dump, crashed) = session_journal(seed);
        let n = journal.len();
        assert!(n > 0, "seed {seed}: session recorded no ops");

        // Property 1: full redo replay is sound.
        let full = MetadataDb::recover(&journal)
            .unwrap_or_else(|e| panic!("seed {seed}: full replay failed: {e}"));
        full.check_invariants()
            .unwrap_or_else(|v| panic!("seed {seed}: invariants violated: {v:?}"));
        let full_dump = full.dump();

        // Property 2: snapshot at an arbitrary split + tail redo ≡
        // full replay, across a generation bump (as after `herc gc`).
        let mut splits = vec![n / 3, n / 2, 2 * n / 3];
        splits.sort_unstable();
        splits.dedup();
        for split in splits.into_iter().filter(|&s| s > 0 && s < n) {
            let snap = MetadataDb::recover(&journal.prefix(split))
                .unwrap_or_else(|e| panic!("seed {seed}: prefix({split}) replay failed: {e}"));
            let mut reopened = MetadataDb::load_at(&snap.dump(), 7)
                .unwrap_or_else(|e| panic!("seed {seed}: snapshot reload failed: {e}"));
            reopened
                .apply_journal(&tail_of(&journal, split))
                .unwrap_or_else(|e| panic!("seed {seed}: tail redo at {split} failed: {e}"));
            assert_eq!(
                reopened.dump(),
                full_dump,
                "seed {seed}: snapshot@{split} + tail diverged from full replay"
            );
        }

        // Property 3a: compacting the fully recovered database
        // round-trips byte-for-byte.
        let compacted_full = Journal::compacted_from(&full);
        let recovered = MetadataDb::recover(&compacted_full)
            .unwrap_or_else(|e| panic!("seed {seed}: compacted replay failed: {e}"));
        assert_eq!(
            recovered.dump(),
            full_dump,
            "seed {seed}: compacted journal diverged from its source"
        );

        // Property 3b: compacting the *live* (possibly crashed)
        // database — what `herc gc` snapshots — round-trips to the
        // live dump, never grows, and strictly drops torn tail ops.
        let live_recovered = MetadataDb::recover(&compacted_live)
            .unwrap_or_else(|e| panic!("seed {seed}: live-compacted replay failed: {e}"));
        live_recovered
            .check_invariants()
            .unwrap_or_else(|v| panic!("seed {seed}: live-compacted invariants: {v:?}"));
        assert_eq!(
            live_recovered.dump(),
            live_dump,
            "seed {seed}: live-compacted journal diverged from the live session"
        );
        assert!(
            compacted_live.len() <= n,
            "seed {seed}: compaction grew the journal ({} > {n})",
            compacted_live.len()
        );
        if crashed {
            torn_sessions += 1;
            assert!(
                compacted_live.len() < n,
                "seed {seed}: torn tail survived compaction ({} vs {n} ops)",
                compacted_live.len()
            );
        }
        if compacted_live.len() < n {
            shrunk_sessions += 1;
        }
    }

    // The seed schedule is built to exercise the interesting corner:
    // some sessions must actually crash mid-op, and compaction must
    // actually shrink at least those.
    assert!(
        torn_sessions >= 4,
        "only {torn_sessions} sessions crashed; seed schedule too tame"
    );
    assert!(
        shrunk_sessions >= torn_sessions,
        "compaction shrank {shrunk_sessions} sessions but {torn_sessions} had torn tails"
    );
}

/// A copy of every file in `dir` on a fresh filesystem.
fn copy_dir(mem: &MemVfs, dir: &Path) -> Arc<MemVfs> {
    let copy = MemVfs::new();
    copy.create_dir_all(dir).expect("dir");
    for file in mem.list_dir(dir).expect("listable") {
        let bytes = mem.read(&file).expect("readable");
        copy.write(&file, &bytes).expect("writable");
    }
    copy
}

/// Status, forecast, plan, replan, execution and status again: what a
/// manager answers after a gc, op by op.
fn answers(h: &mut Hercules, target: &str) -> Vec<String> {
    vec![
        format!("{:?}", h.status()),
        format!("{:?}", h.forecast(target)),
        format!("{:?}", h.plan(target)),
        format!("{:?}", h.replan(target)),
        format!("{:?}", h.execute(target).map(|r| r.finished_at())),
        format!("{:?}", h.status()),
        format!("{:?}", h.forecast(target)),
    ]
}

/// `gc` restamps the live database at the next generation. On seeded
/// sessions over persistent stores, a manager that compacted must
/// answer exactly as one that
/// reopened the compacted files (whose database is that snapshot,
/// reloaded) under the same estimates and clock: the same dump, then
/// the same status, forecast, plan, replan and execution, op by op.
#[test]
fn a_restamped_gc_answers_as_a_reloaded_one() {
    let dir = Path::new("/project");
    for seed in 0..16 {
        let mut rng = SplitMix64::new(mix(&[seed, 0x2E57A]));
        let (schema, target) = seeded_flow(&mut rng);
        let team = 1 + rng.next_below(3) as usize;
        let tools_seed = rng.next_u64();
        let manager = |store: PersistentStore| {
            let team = Team::of_size(team);
            Hercules::with_store(
                schema.clone(),
                ToolLibrary::standard(),
                team,
                tools_seed,
                Box::new(store),
            )
        };
        let mem = MemVfs::new();
        let db = MetadataDb::for_schema(&schema);
        let mut live =
            manager(PersistentStore::create_on(mem.clone() as Arc<dyn Vfs>, dir, db).unwrap());
        live.plan(&target).unwrap();
        live.execute(&target).unwrap();
        let activities: Vec<String> = schema
            .rules()
            .iter()
            .map(|r| r.activity().to_owned())
            .collect();
        let mut estimates = Vec::new();
        for _ in 0..2 {
            let activity = activities[rng.next_below(activities.len() as u64) as usize].clone();
            let days = WorkDays::new(0.5 + rng.next_below(12) as f64 * 0.5);
            live.set_estimate(&activity, days).unwrap();
            estimates.push((activity, days));
        }
        live.replan(&target).unwrap();
        let generation = live.gc().unwrap().generation;

        let copy = copy_dir(&mem, dir);
        let mut reloaded = manager(PersistentStore::open_on(copy as Arc<dyn Vfs>, dir).unwrap());
        for (activity, days) in &estimates {
            reloaded.set_estimate(activity, *days).unwrap();
        }
        reloaded.advance_clock(live.clock());
        assert_eq!(reloaded.db().generation(), generation, "seed {seed}");
        assert_eq!(live.db().dump(), reloaded.db().dump(), "seed {seed}");
        assert_eq!(live.clock(), reloaded.clock(), "seed {seed}");
        assert_eq!(
            answers(&mut live, &target),
            answers(&mut reloaded, &target),
            "seed {seed}"
        );
        assert_eq!(live.db().dump(), reloaded.db().dump(), "seed {seed}");
    }
}
