//! The storage chaos suite: 64 fault-seeded sessions driven through
//! [`FaultVfs`] over [`MemVfs`], each ending in a crash or a plain
//! process exit, then recovered with no faults. The contract under
//! test is the durability tentpole's one-liner:
//!
//! > the store either serves correct data or reports corruption —
//! > never silently wrong, never aborting.
//!
//! Concretely, after every session, reopening the directory must
//! either
//!
//! * succeed with a state **byte-identical to some acknowledged
//!   prefix** of the session (the oracle records the database dump
//!   after every acknowledged mutation), or
//! * fail with a **typed** [`StoreError`], in which case `fsck` must
//!   scrub the directory, and — when a snapshot still loads — repair
//!   it back to a servable store whose state is again an acknowledged
//!   prefix.
//!
//! Sessions plan both in full (`plan-activity` + `assign`) and by
//! carrying unchanged versions (`carry-plan`), so crashes land between
//! carry records as well as inside full versions.
//!
//! Sessions store design data big enough to go through the data
//! segment (raw, non-UTF-8 payloads of kilobytes), so segment appends,
//! the reference records that follow them, and the reads behind every
//! dump all run under the fault plan. Open reads no design data, so
//! "reopening" here is open plus a dump of the state: a datum that
//! does not read back is a typed refusal like any other.
//!
//! Any panic, any untyped error, and any recovered state that never
//! existed fails the sweep. A floor on fully-recovered sessions keeps
//! the suite honest (a pass where nothing ever recovers would test
//! nothing).

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use metadata::fsck;
use metadata::{MetadataDb, PersistentStore, Store, StoreError};
use schedule::WorkDays;
use schema::examples;
use simtools::vfs::{FaultVfs, MemVfs, Vfs, VfsFaultPlan};

const SEEDS: u64 = 64;
const FAULT_RATE: f64 = 0.05;
const STEPS: usize = 40;

/// A datum of `len` raw bytes, different per step and not UTF-8.
fn payload(step: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + step * 7 + 0x80) as u8).collect()
}

/// The state the store holds: its dump. The dump reads design data
/// back through the faulty filesystem, and an injected EIO on that
/// read says nothing about the state, so the read is retried.
fn ack(store: &PersistentStore) -> String {
    loop {
        match store.db().try_dump() {
            Ok(dump) => return dump,
            Err(StoreError::Io { .. }) => continue,
            Err(e) => panic!("the live state does not read back: {e}"),
        }
    }
}

/// Reopens `dir` and reads the whole state back, as a restarted
/// process serving it would.
fn reopen(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<(PersistentStore, String), StoreError> {
    let store = PersistentStore::open_on(Arc::clone(vfs), dir)?;
    let dump = store.db().try_dump()?;
    Ok((store, dump))
}

/// Everything one seeded session produced.
struct SessionOutcome {
    /// Dumps of every state the session acknowledged (including the
    /// initial one) — the oracle set.
    acknowledged: HashSet<String>,
    /// Faults actually injected by the plan.
    injected: u64,
}

/// Runs the scripted session over the faulty VFS. Every mutation's
/// `Ok` is an acknowledgement: its post-state joins the oracle set.
/// Errors must be typed `MetadataError`s — the type system guarantees
/// that; what the script adds is that *no call may panic*.
fn run_session(store: &mut PersistentStore, faulty: &FaultVfs) -> SessionOutcome {
    let mut acknowledged = HashSet::new();
    acknowledged.insert(ack(store));
    for step in 0..STEPS {
        let t = WorkDays::new(step as f64 * 0.25);
        match step % 8 {
            // Plan a unit of work (fresh handles every time — earlier
            // ones may be stale after a compact).
            0 => {
                let s = store.begin_planning(t);
                acknowledged.insert(ack(store));
                if let Ok(sc) = store.plan_activity(s, "Create", t, WorkDays::new(2.0)) {
                    acknowledged.insert(ack(store));
                    if store.assign(sc, "alice").is_ok() {
                        acknowledged.insert(ack(store));
                    }
                }
            }
            // A planning pass that carries Create's current plan
            // unchanged in two carry runs around a changed Simulate, so
            // faults and crashes fall between carry records too.
            3 => {
                let s = store.begin_planning(t);
                acknowledged.insert(ack(store));
                let create =
                    |store: &PersistentStore| store.db().current_plan("Create").map(|p| p.id());
                if let Some(latest) = create(store) {
                    if store.carry_plan(s, &[latest]).is_ok() {
                        acknowledged.insert(ack(store));
                    }
                }
                if let Ok(sc) = store.plan_activity(s, "Simulate", t, WorkDays::new(1.0)) {
                    acknowledged.insert(ack(store));
                    if store.assign(sc, "bob").is_ok() {
                        acknowledged.insert(ack(store));
                    }
                }
                if let Some(latest) = create(store) {
                    if store.carry_plan(s, &[latest]).is_ok() {
                        acknowledged.insert(ack(store));
                    }
                }
            }
            // Execute a run end to end.
            1 | 4 | 6 => {
                let data = store.store_data(&format!("v{step}.net"), payload(step, 1024));
                acknowledged.insert(ack(store));
                if let Ok(run) = store.begin_run("Create", "alice", t) {
                    acknowledged.insert(ack(store));
                    if store
                        .finish_run(run, "netlist", data, t + WorkDays::new(0.5), &[])
                        .is_ok()
                    {
                        acknowledged.insert(ack(store));
                    }
                }
            }
            // Supply an external input.
            2 | 7 => {
                let data = store.store_data(&format!("in{step}.stim"), payload(step, 256));
                acknowledged.insert(ack(store));
                if store.supply_input("stimuli", "bob", t, data).is_ok() {
                    acknowledged.insert(ack(store));
                }
            }
            // Periodic durability + maintenance. Both may fail under
            // faults; both must fail *typed*.
            5 => {
                let _ = store.checkpoint();
            }
            _ => {
                if store.compact().is_ok() {
                    acknowledged.insert(ack(store));
                }
            }
        }
    }
    SessionOutcome {
        acknowledged,
        injected: faulty.injected(),
    }
}

/// One seed's end-to-end story. Returns `(recovered, repaired,
/// injected)`; panics only on a contract violation.
fn run_seed(seed: u64) -> (bool, bool, u64) {
    let mem = MemVfs::new();
    let dir = Path::new("/proj");
    let db = MetadataDb::for_schema(&examples::circuit_design());
    // Create fault-free so every seed reaches the interesting part,
    // then run the session through the fault plan.
    drop(PersistentStore::create_on(mem.clone() as Arc<dyn Vfs>, dir, db).unwrap());
    let faulty = FaultVfs::new(mem.clone(), VfsFaultPlan::seeded(seed, FAULT_RATE));
    let outcome = match PersistentStore::open_on(faulty.clone() as Arc<dyn Vfs>, dir) {
        Ok(mut store) => {
            let outcome = run_session(&mut store, &faulty);
            drop(store);
            outcome
        }
        // Faulted reads during open are a typed failure; the store on
        // disk is still exactly the created state.
        Err(_) => SessionOutcome {
            acknowledged: {
                let mut s = HashSet::new();
                let reopened = PersistentStore::open_on(mem.clone() as Arc<dyn Vfs>, dir).unwrap();
                s.insert(reopened.db().dump());
                s
            },
            injected: faulty.injected(),
        },
    };
    // Half the seeds die by power cut (unsynced bytes vanish), half by
    // plain process exit (the page cache survives).
    if seed.is_multiple_of(2) {
        mem.crash();
    }
    // Recovery runs fault-free, as a restarted process would. Scrub
    // and open read the store through one reader, so the scrub (run
    // first: open heals a torn tail) calls the store healthy exactly
    // when open serves it.
    let plain: Arc<dyn Vfs> = mem.clone();
    let scrub = fsck::scrub(&*plain, dir)
        .unwrap_or_else(|e| panic!("seed {seed}: scrub failed before recovery: {e}"));
    let reopened = reopen(&plain, dir);
    assert_eq!(
        scrub.healthy,
        reopened.is_ok(),
        "seed {seed}: scrub and open disagree on {:?}: {:?}",
        reopened.as_ref().err(),
        scrub.verdicts
    );
    match reopened {
        Ok((store, dump)) => {
            assert!(
                outcome.acknowledged.contains(&dump),
                "seed {seed}: recovered a state that was never acknowledged:\n{dump}"
            );
            store
                .db()
                .check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed}: recovered state is inconsistent: {e:?}"));
            (true, false, outcome.injected)
        }
        Err(StoreError::Corruption(report)) => {
            // Typed refusal. fsck must be able to scrub it, and — when
            // a snapshot survives — repair back to a servable,
            // acknowledged state.
            let scrub = fsck::scrub(&*plain, dir)
                .unwrap_or_else(|e| panic!("seed {seed}: scrub failed on {report}: {e}"));
            if !scrub.repairable {
                return (false, false, outcome.injected);
            }
            match fsck::repair(&plain, dir) {
                Ok(_) => {}
                Err(e) => panic!("seed {seed}: repairable scrub but repair failed: {e}"),
            }
            let (store, dump) = reopen(&plain, dir)
                .unwrap_or_else(|e| panic!("seed {seed}: repaired store does not open: {e}"));
            assert!(
                outcome.acknowledged.contains(&dump),
                "seed {seed}: repair produced a state that was never acknowledged:\n{dump}"
            );
            store
                .db()
                .check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed}: repaired state is inconsistent: {e:?}"));
            (true, true, outcome.injected)
        }
        Err(StoreError::Io { path, message }) => {
            panic!(
                "seed {seed}: recovery hit an untyped-looking I/O failure at {path:?}: {message}"
            )
        }
        Err(other) => panic!("seed {seed}: unexpected recovery error: {other}"),
    }
}

#[test]
fn sixty_four_fault_seeded_sessions_recover_or_report() {
    let mut recovered = 0u32;
    let mut repaired = 0u32;
    let mut injected_total = 0u64;
    for seed in 0..SEEDS {
        let (ok, fixed, injected) = run_seed(seed);
        recovered += u32::from(ok);
        repaired += u32::from(fixed);
        injected_total += injected;
    }
    println!(
        "fault sweep: {recovered}/{SEEDS} recovered ({repaired} via repair), \
         {injected_total} faults injected"
    );
    assert!(
        injected_total > SEEDS,
        "the plan must actually inject faults ({injected_total} across {SEEDS} seeds)"
    );
    assert!(
        recovered >= 40,
        "recovery floor: only {recovered}/{SEEDS} sessions ended servable"
    );
}

/// The same contract under a *hostile* rate: every other write fails.
/// Nothing may panic; every failure must be typed; recovery must still
/// never serve an unacknowledged state.
#[test]
fn hostile_fault_rate_never_panics_or_lies() {
    for seed in 100..116 {
        let mem = MemVfs::new();
        let dir = Path::new("/proj");
        let db = MetadataDb::for_schema(&examples::circuit_design());
        drop(PersistentStore::create_on(mem.clone() as Arc<dyn Vfs>, dir, db).unwrap());
        let faulty = FaultVfs::new(mem.clone(), VfsFaultPlan::seeded(seed, 0.5));
        let acknowledged = match PersistentStore::open_on(faulty.clone() as Arc<dyn Vfs>, dir) {
            Ok(mut store) => run_session(&mut store, &faulty).acknowledged,
            Err(_) => continue,
        };
        mem.crash();
        match reopen(&(mem.clone() as Arc<dyn Vfs>), dir) {
            Ok((_, dump)) => assert!(
                acknowledged.contains(&dump),
                "seed {seed}: unacknowledged state served"
            ),
            Err(StoreError::Corruption(_)) | Err(StoreError::Io { .. }) => {}
            Err(other) => panic!("seed {seed}: unexpected error class: {other}"),
        }
    }
}
