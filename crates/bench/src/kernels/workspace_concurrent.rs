//! B12 — concurrent workspace sessions: mixed plan/replan/query
//! traffic against a multi-project [`hercules::Workspace`] at 1, 2, 4,
//! and 8 threads.
//!
//! What this kernel measures is **lock granularity**, not CPU
//! parallelism: every write session holds its project's exclusive lock
//! across a fixed simulated commit latency (the position a real session
//! is in while a journal append reaches disk), burned by the projects'
//! store ([`slow_manager`], B13's latency model too) when the session's
//! write group closes. Under the workspace's RwLock-per-project
//! sharding, sessions against *different* projects overlap those
//! waits, so total throughput rises with the thread count even on a
//! single hardware core; a coarse-grained design (one lock around the
//! whole store) would serialize the waits and show flat throughput.
//! The acceptance gate — ≥2× ops/s from 1 → 4 threads, checked by
//! `tests/workspace_scaling.rs` and the `ws` CI stage — is therefore a
//! direct regression test on the sharding, portable to single-core
//! containers.
//!
//! Workload shape per batch: 8 projects × `OPS_PER_PROJECT` operations,
//! partitioned over the threads (each project is owned by exactly one
//! thread per batch, as in real per-project sessions). Three of every
//! four operations are incremental replans, each one write group that
//! pays the simulated latency under the write lock; every fourth is a
//! status rollup under the shared read lock. Total work is identical
//! at every thread count, so the per-element medians are directly
//! comparable.

use std::sync::Arc;

use harness::bench::Record;
use hercules::Workspace;

use super::slow_commits::slow_manager;

/// Projects in the workspace — also the maximum thread count.
pub const PROJECTS: usize = 8;

/// The thread counts the kernel sweeps.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn project_name(k: usize) -> String {
    format!("p{k}")
}

/// A workspace with [`PROJECTS`] planned ASIC-flow projects, each made
/// by [`slow_manager`], ready for replan/query traffic.
pub fn seeded_workspace() -> Arc<Workspace> {
    let ws = Arc::new(Workspace::in_memory());
    for k in 0..PROJECTS {
        let project = ws
            .register(&project_name(k), slow_manager(k as u64))
            .expect("fresh project");
        project
            .update(|h| h.plan("signoff_report"))
            .expect("initial plan");
    }
    ws
}

/// Runs one batch: `PROJECTS × ops_per_project` operations spread over
/// `threads` workers, each project owned by exactly one worker.
pub fn run_batch(ws: &Arc<Workspace>, threads: usize, ops_per_project: usize) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let ws = Arc::clone(ws);
            scope.spawn(move || {
                for k in (t..PROJECTS).step_by(threads) {
                    let project = ws.project(&project_name(k)).expect("known project");
                    for op in 0..ops_per_project {
                        if op % 4 == 3 {
                            // Shared-lock query: status rollup.
                            let complete = project.read(|h| h.status().complete_count());
                            std::hint::black_box(complete);
                        } else {
                            // Exclusive write: an incremental replan,
                            // whose commit latency the store burns
                            // while the session holds the lock.
                            project
                                .update(|h| h.replan("signoff_report"))
                                .expect("replan");
                        }
                    }
                }
            });
        }
    });
}

/// Runs the kernel; `quick` selects the smoke-test plan and batch size.
pub fn run(quick: bool) -> Vec<Record> {
    let mut suite = super::suite("workspace_concurrent", quick);
    // Identical batch in both modes (quick only trims samples):
    // bench_compare matches on names, so `threads/N` must mean the
    // same workload in the committed baseline and a quick fresh run.
    let ops_per_project = 12;
    let total_ops = (PROJECTS * ops_per_project) as u64;
    let ws = seeded_workspace();
    for threads in THREAD_COUNTS {
        suite.bench(&format!("threads/{threads}"), Some(total_ops), || {
            run_batch(&ws, threads, ops_per_project);
        });
    }
    suite.into_records()
}
