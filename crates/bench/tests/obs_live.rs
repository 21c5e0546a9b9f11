//! The B16 acceptance gate for the always-on flight recorder.
//!
//! A live server leaves the recorder enabled permanently, so its cost
//! must be a tax, not a mode: the flight-on medians for the B2 plan
//! body and the B13 serve body (`Api::handle`, no TCP) must stay
//! **≤ 1.15×** their flight-off medians. Host-independent ratios only
//! — no wall-clock floors.
//!
//! Each body is timed as interleaved pairs: a flight-off sample and a
//! flight-on sample back to back (their order alternating from pair to
//! pair), and the gate reads the median of the per-pair on/off ratios.
//! Both samples of a pair see the same host phase, so a slow patch on a
//! shared host moves a pair's two times together instead of landing on
//! one side of the ratio.
//!
//! Both tests toggle and clear the process-wide recorder, so each holds
//! [`RECORDER`] for its whole body: otherwise one can empty the ring
//! between the other's plan and its dump.

use std::sync::{Mutex, MutexGuard};

#[cfg(not(debug_assertions))]
use bench::kernels::obs_live::seeded_api;
use bench::kernels::obs_live::FLIGHT_CAP;
use bench::pipeline_manager;

/// Serializes the tests of this binary over the shared recorder.
static RECORDER: Mutex<()> = Mutex::new(());

fn recorder() -> MutexGuard<'static, ()> {
    RECORDER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Functional half of the gate, cheap enough for debug builds: the
/// recorder must not change results, and the ring must actually hold
/// the spans the timed variants record.
#[test]
fn flight_recording_preserves_results_and_captures_spans() {
    let _recorder = recorder();
    let target = "d50";
    obs::Collector::disable_flight();
    let finish_off = pipeline_manager(50, 4, 1)
        .plan(target)
        .expect("plannable")
        .project_finish();
    obs::Collector::enable_flight(FLIGHT_CAP);
    obs::Collector::flight_clear();
    let finish_on = pipeline_manager(50, 4, 1)
        .plan(target)
        .expect("plannable")
        .project_finish();
    assert_eq!(finish_off, finish_on, "recording must not change planning");
    let dump = obs::Collector::flight_dump();
    assert!(
        dump.threads
            .iter()
            .flat_map(|t| &t.records)
            .any(|r| r.name == "hercules.plan"),
        "the ring should hold the plan span ({} records)",
        dump.total_records()
    );
    obs::Collector::disable_flight();
    obs::Collector::flight_clear();
}

/// Median flight-on/flight-off time ratio of a body over `pairs`
/// interleaved pairs, with the smallest off and on times for the log.
/// `time` runs the body once and returns its seconds; each mode is
/// warmed up once first (the ring is allocated on the first recorded
/// span).
#[cfg(not(debug_assertions))]
fn median_pair_ratio(pairs: usize, mut time: impl FnMut() -> f64) -> (f64, f64, f64) {
    let mut timed = |on: bool| {
        if on {
            obs::Collector::enable_flight(FLIGHT_CAP);
        } else {
            obs::Collector::disable_flight();
        }
        time()
    };
    timed(false);
    timed(true);
    let mut ratios = Vec::with_capacity(pairs);
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for pair in 0..pairs {
        let (off, on) = if pair % 2 == 0 {
            let off = timed(false);
            (off, timed(true))
        } else {
            let on = timed(true);
            (timed(false), on)
        };
        ratios.push(on / off);
        best_off = best_off.min(off);
        best_on = best_on.min(on);
    }
    obs::Collector::disable_flight();
    obs::Collector::flight_clear();
    ratios.sort_by(f64::total_cmp);
    (ratios[pairs / 2], best_off, best_on)
}

/// Plan-body seconds for one try: pool construction is untimed, the
/// planning loop is.
#[cfg(not(debug_assertions))]
fn plan_pool_secs(calls: usize) -> f64 {
    let mut pool: Vec<_> = (0..calls).map(|_| pipeline_manager(50, 4, 1)).collect();
    let t0 = std::time::Instant::now();
    for h in &mut pool {
        std::hint::black_box(h.plan("d50").expect("plannable").project_finish());
    }
    t0.elapsed().as_secs_f64()
}

/// Timing gates only make sense on optimized builds.
#[cfg(not(debug_assertions))]
#[test]
fn flight_on_stays_within_budget() {
    let _recorder = recorder();
    // Odd, so the median is one pair's ratio; more than the 7 + 7
    // samples the gate took as minima before it measured pairs.
    const PAIRS: usize = 15;
    const PLAN_CALLS: usize = 64;
    const SERVE_CALLS: usize = 512;
    // The B11 budget for exclusive sessions is 2×; the always-on ring
    // must be far cheaper, because nobody ever turns it off.
    const BUDGET: f64 = 1.15;

    // -- B2 plan body -----------------------------------------------------
    let (plan_ratio, plan_off, plan_on) = median_pair_ratio(PAIRS, || plan_pool_secs(PLAN_CALLS));
    eprintln!(
        "obs_live: plan body best off {:.3} ms, best on {:.3} ms, median pair ratio {plan_ratio:.3}",
        plan_off * 1e3,
        plan_on * 1e3
    );

    // -- B13 serve body ---------------------------------------------------
    let api = seeded_api();
    let raw = b"GET /projects/p0/status HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n";
    let req = match serve::http::read_request(&mut std::io::Cursor::new(raw.to_vec())) {
        serve::http::ReadOutcome::Request(req) => req,
        other => panic!("gate request failed to parse: {other:?}"),
    };
    let (serve_ratio, serve_off, serve_on) = median_pair_ratio(PAIRS, || {
        let t0 = std::time::Instant::now();
        for _ in 0..SERVE_CALLS {
            assert_eq!(api.handle(&req).status, 200);
        }
        t0.elapsed().as_secs_f64()
    });
    eprintln!(
        "obs_live: serve body best off {:.3} ms, best on {:.3} ms, median pair ratio {serve_ratio:.3}",
        serve_off * 1e3,
        serve_on * 1e3
    );

    assert!(
        plan_ratio <= BUDGET,
        "flight recorder costs {plan_ratio:.3}x on the plan body \
         (budget {BUDGET}x); the ring write has left the hot-path noise floor"
    );
    assert!(
        serve_ratio <= BUDGET,
        "flight recorder costs {serve_ratio:.3}x on the serve body \
         (budget {BUDGET}x); the ring write has left the hot-path noise floor"
    );
}
