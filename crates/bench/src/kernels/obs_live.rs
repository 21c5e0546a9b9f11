//! B16 — flight-recorder overhead on live paths: the B2 (plan) body
//! and the B13 serve body (`Api::handle`, no TCP) measured with the
//! always-on flight recorder off and on.
//!
//! The live-telemetry contract (DESIGN.md §14): a server can leave the
//! flight recorder enabled permanently — the lossy per-thread rings
//! must cost **≤ 1.15× the disabled median** on both bodies. Unlike
//! B11's session variants there is no drain in the loop: the recorder
//! overwrites in place, which is exactly the deployment mode the gate
//! certifies (`tests/obs_live.rs` and the `obs` CI stage).
//!
//! Bodies:
//!
//! * `plan_flight_{off,on}/50` — B2's body: a fresh 50-stage pipeline
//!   planned from scratch, spans/events recorded into the ring when
//!   the recorder is on.
//! * `serve_flight_{off,on}` — one status request routed through
//!   [`serve::Api::handle`] against a seeded 8-project workspace:
//!   trace-id assignment, the `serve.request` span, kernel status
//!   body, labeled metrics.

use harness::bench::Record;
use hercules::Workspace;
use serve::{Api, ApiConfig, Request};
use std::sync::Arc;

use super::serve_load;
use crate::pipeline_manager;

const STAGES: usize = 50;

/// Ring capacity while the `*_flight_on` variants run — the server
/// default (`serve::ServerConfig::flight_cap`).
pub const FLIGHT_CAP: usize = 4096;

/// A parsed status request for project `p0` (seeded by
/// [`serve_load::seeded_workspace`]).
fn status_request() -> Request {
    let raw = b"GET /projects/p0/status HTTP/1.1\r\nhost: bench\r\ncontent-length: 0\r\n\r\n";
    match serve::http::read_request(&mut std::io::Cursor::new(raw.to_vec())) {
        serve::http::ReadOutcome::Request(req) => req,
        other => panic!("bench request failed to parse: {other:?}"),
    }
}

/// A workspace-backed [`Api`] ready to answer this kernel's status
/// request.
pub fn seeded_api() -> Api {
    let ws: Arc<Workspace> = serve_load::seeded_workspace();
    Api::new(ws, ApiConfig::default())
}

/// Runs the kernel; `quick` selects the smoke-test sampling plan.
pub fn run(quick: bool) -> Vec<Record> {
    let mut suite = super::suite("obs_live", quick);
    let target = format!("d{STAGES}");

    // -- B2 body: plan from scratch ---------------------------------------
    obs::Collector::disable_flight();
    suite.bench_with_setup(
        &format!("plan_flight_off/{STAGES}"),
        Some(STAGES as u64),
        || pipeline_manager(STAGES, 4, 1),
        |mut h| h.plan(&target).expect("plannable").project_finish(),
    );
    obs::Collector::enable_flight(FLIGHT_CAP);
    suite.bench_with_setup(
        &format!("plan_flight_on/{STAGES}"),
        Some(STAGES as u64),
        || pipeline_manager(STAGES, 4, 1),
        |mut h| h.plan(&target).expect("plannable").project_finish(),
    );
    obs::Collector::disable_flight();
    obs::Collector::flight_clear();

    // -- B13 body: one status request through the router ------------------
    let api = seeded_api();
    let req = status_request();
    suite.bench("serve_flight_off", Some(1), || {
        assert_eq!(api.handle(&req).status, 200);
    });
    obs::Collector::enable_flight(FLIGHT_CAP);
    suite.bench("serve_flight_on", Some(1), || {
        assert_eq!(api.handle(&req).status, 200);
    });
    obs::Collector::disable_flight();
    obs::Collector::flight_clear();

    suite.into_records()
}
