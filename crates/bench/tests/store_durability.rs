//! The B15 acceptance gate: checksummed (v2) record framing must cost
//! no more than **1.2×** the un-checksummed (v1) framing on both the
//! journal-append path and the snapshot-load path.
//!
//! Both stores run over `MemVfs`, so the comparison isolates the CPU
//! cost of the CRC32 encode/verify — exactly what the framing change
//! added — from disk and fsync noise. Ratios, not wall-clock floors,
//! keep the gate host-independent.

use bench::kernels;

// The timing gate and its session driver only compile in release mode
// (see `checksum_overhead_within_1_2x_on_append_and_open` below).
#[cfg(not(debug_assertions))]
use {
    bench::kernels::store_durability::session,
    metadata::{Framing, PersistentStore, Store},
    simtools::vfs::{MemVfs, Vfs},
    std::path::Path,
    std::sync::Arc,
    std::time::Instant,
};

/// The kernel itself must run and produce ordered statistics for every
/// framing/path combination (this is what the aggregated report and
/// `bench_compare` consume).
#[test]
fn kernel_covers_both_framings_and_paths() {
    let records = kernels::store_durability::run(true);
    for required in ["append_v1/64", "append_v2/64", "open_v1/64", "open_v2/64"] {
        let r = records
            .iter()
            .find(|r| r.bench == required)
            .unwrap_or_else(|| panic!("bench '{required}' produced no record"));
        assert!(r.stats.min_ns > 0.0, "{required}: non-positive min");
        assert!(
            r.stats.min_ns <= r.stats.median_ns && r.stats.median_ns <= r.stats.p95_ns,
            "{required}: stats out of order"
        );
    }
}

#[cfg(not(debug_assertions))]
fn best_secs(tries: usize, mut f: impl FnMut()) -> f64 {
    (0..tries)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Timing gates only make sense on optimized builds; a debug build
/// would measure unoptimized CRC table lookups against unoptimized
/// everything-else and say nothing about the shipped binary.
#[cfg(not(debug_assertions))]
#[test]
fn checksum_overhead_within_1_2x_on_append_and_open() {
    const RUNS: usize = 256;
    const TRIES: usize = 9;

    // Warm both paths once.
    session(RUNS, Framing::V1);
    session(RUNS, Framing::V2);

    let append_v1 = best_secs(TRIES, || drop(session(RUNS, Framing::V1)));
    let append_v2 = best_secs(TRIES, || drop(session(RUNS, Framing::V2)));
    let append_ratio = append_v2 / append_v1;

    let mem_v1 = session(RUNS, Framing::V1);
    let mem_v2 = session(RUNS, Framing::V2);
    let open = |mem: &Arc<MemVfs>| {
        let store = PersistentStore::open_on(mem.clone() as Arc<dyn Vfs>, Path::new("/proj"))
            .expect("own store reopens");
        assert!(store.db().schedule_count() > 0);
    };
    let open_v1 = best_secs(TRIES, || open(&mem_v1));
    let open_v2 = best_secs(TRIES, || open(&mem_v2));
    let open_ratio = open_v2 / open_v1;

    eprintln!(
        "store_durability: append v1 {:.3} ms, v2 {:.3} ms ({append_ratio:.2}x); \
         open v1 {:.3} ms, v2 {:.3} ms ({open_ratio:.2}x)",
        append_v1 * 1e3,
        append_v2 * 1e3,
        open_v1 * 1e3,
        open_v2 * 1e3
    );
    assert!(
        append_ratio <= 1.2,
        "checksummed append is {append_ratio:.2}x the plain framing \
         (gate: 1.2x); the CRC path has regressed"
    );
    assert!(
        open_ratio <= 1.2,
        "checksummed open is {open_ratio:.2}x the plain framing \
         (gate: 1.2x); snapshot/tail verification has regressed"
    );
}
