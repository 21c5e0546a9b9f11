//! Property tests for the `obs` tracing subsystem, driven by the
//! in-repo `harness` framework (obs itself sits below harness in the
//! workspace layering, so its randomized tests live here).
//!
//! Properties:
//!
//! * **Well-formedness** — every `Enter` has a matching `Exit`, spans
//!   nest properly per thread, and [`obs::Trace::validate`] accepts
//!   the result for arbitrary seeded span forests on arbitrary worker
//!   counts.
//! * **Deterministic merge** — the merged trace is a pure function of
//!   the seeded workload and its lane assignment: re-running the same
//!   workload yields the same shape and byte-identical logical Chrome
//!   JSON, regardless of OS scheduling.
//! * **Lane ordering** — threads appear in the merged trace in lane
//!   order, not completion order.
//!
//! Tests in this binary serialize on the collector's session lock.

use harness::prelude::*;
use obs::export::{to_chrome, Timebase};
use obs::{Arg, Collector, SpanGuard, Trace};

/// Fixed names per nesting level (span names are `&'static str`).
const NAMES: [&str; 4] = ["depth0", "depth1", "depth2", "depth3"];

/// A tiny deterministic generator for workload shaping.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Records a seeded forest of nested spans at `depth`, returning how
/// many spans it created.
fn forest(depth: usize, state: &mut u64) -> usize {
    if depth >= NAMES.len() {
        return 0;
    }
    let children = (next(state) % 3) as usize; // 0..=2 spans per level
    let mut created = 0;
    for c in 0..children {
        let mut span = SpanGuard::enter(NAMES[depth], vec![Arg::new("child", c)]);
        created += 1;
        if next(state).is_multiple_of(2) {
            Collector::event("tick", vec![Arg::new("depth", depth)]);
        }
        created += forest(depth + 1, state);
        span.record("created", created);
    }
    created
}

/// Runs the seeded workload on `threads` workers under an exclusive
/// session; returns the merged trace and the total span count.
fn run_workload(seed: u64, threads: usize) -> (Trace, usize) {
    let session = Collector::session();
    let context = Collector::context();
    let counts: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let _context = context.enter();
                    Collector::set_lane(1 + t as u64);
                    let mut state = seed ^ (t as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                    forest(0, &mut state)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (session.finish(), counts.iter().sum())
}

harness::props! {
    config(cases = 48);

    fn traces_are_well_formed(seed in 0u64..1_000_000, threads in 1usize..6) {
        let (trace, created) = run_workload(seed, threads);
        trace.validate().expect("well-formed");
        prop_assert_eq!(trace.span_count(), created);
        // Matched pairs: every span view has an end no earlier than
        // its start, and parents enclose children.
        for s in trace.spans() {
            prop_assert!(s.end_ns >= s.start_ns);
        }
    }

    fn merge_is_deterministic(seed in 0u64..1_000_000, threads in 1usize..6) {
        let (a, _) = run_workload(seed, threads);
        let (b, _) = run_workload(seed, threads);
        prop_assert_eq!(a.shape(), b.shape());
        prop_assert_eq!(
            to_chrome(&a, Timebase::Logical),
            to_chrome(&b, Timebase::Logical)
        );
    }

    fn threads_merge_in_lane_order(seed in 0u64..1_000_000, threads in 2usize..6) {
        let (trace, _) = run_workload(seed, threads);
        let lanes: Vec<u64> = trace.threads.iter().map(|t| t.lane).collect();
        let mut sorted = lanes.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&lanes, &sorted);
        // Only worker lanes appear: the orchestrator recorded nothing.
        prop_assert!(lanes.iter().all(|&l| l >= 1 && l <= threads as u64));
    }
}

/// The Monte Carlo engine's trace is a pure function of
/// `(samples, threads, seed)` — chunk spans land on chunk-derived
/// lanes, so OS scheduling cannot reorder the merged trace.
#[test]
fn montecarlo_trace_is_schedule_invariant() {
    use schedule::montecarlo::simulate_threaded;
    use schedule::pert::ThreePoint;
    use schedule::{ScheduleNetwork, WorkDays};

    let mut net = ScheduleNetwork::new();
    let a = net.add_activity("a", WorkDays::new(4.0)).unwrap();
    let b = net.add_activity("b", WorkDays::new(6.0)).unwrap();
    let est = vec![
        (a, ThreePoint::new(2.0, 4.0, 9.0).unwrap()),
        (b, ThreePoint::new(3.0, 6.0, 12.0).unwrap()),
    ];
    let run = |threads: usize| {
        let session = Collector::session();
        simulate_threaded(&net, &est, 512, 7, threads).unwrap();
        session.finish()
    };
    for threads in [1, 2, 4] {
        let t1 = run(threads);
        let t2 = run(threads);
        assert_eq!(t1.shape(), t2.shape(), "threads={threads}");
        assert_eq!(
            to_chrome(&t1, Timebase::Logical),
            to_chrome(&t2, Timebase::Logical),
            "threads={threads}"
        );
        t1.validate().unwrap();
        // One mc.chunk span per worker. Single-threaded runs execute
        // the chunk inline on the orchestrator (lane 0); fan-out puts
        // chunk k on lane 1 + k.
        let chunks: Vec<_> = t1
            .spans()
            .into_iter()
            .filter(|s| s.name == "mc.chunk")
            .collect();
        assert_eq!(chunks.len(), threads);
        let lanes: Vec<u64> = chunks.iter().map(|c| c.lane).collect();
        let expected: Vec<u64> = if threads == 1 {
            vec![0]
        } else {
            (1..=threads as u64).collect()
        };
        assert_eq!(lanes, expected);
    }
}
