//! The B13 acceptance gate, in two halves (one test fn, because the
//! coalescing half reads process-global metric counters that a
//! parallel sibling test would pollute):
//!
//! 1. **Worker scaling** — request throughput through the server must
//!    rise ≥2× from 1 to 4 pool workers. Every replan burns the same
//!    simulated commit latency under its project's lock (the bench's
//!    `slow_manager` store), so a flat curve means the worker pool (or
//!    the admission path in front of it) serializes independent
//!    projects' sessions.
//! 2. **Replan coalescing** — a burst of concurrent replans against
//!    one project must complete with *fewer kernel passes than
//!    requests*: `serve::Coalescer` folds waiters arriving during a
//!    pass into the next one, and every follower still gets a result
//!    from a pass that started at-or-after its arrival. The test holds
//!    the project's write lock until the whole burst has arrived, so
//!    the first pass is still running when the rest queue behind it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::kernels::serve_load::{
    run_batch, seeded_workspace, start_server, CLIENTS, REQUESTS_PER_CLIENT,
};
use serve::{Client, Server, ServerConfig};

/// Wall time of the best of `tries` batches against `addr` — min, not
/// mean, to shrug off scheduler noise on loaded CI hosts.
fn best_batch_secs(addr: std::net::SocketAddr, tries: usize) -> f64 {
    (0..tries)
        .map(|_| {
            let t0 = Instant::now();
            run_batch(addr);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn assert_worker_scaling() {
    const TRIES: usize = 4;
    let ws = seeded_workspace();
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as f64;

    let server = start_server(&ws, 1);
    // Warmup: fault in every code path before timing anything.
    run_batch(server.addr());
    let t1 = best_batch_secs(server.addr(), TRIES);
    server.shutdown();

    let server = start_server(&ws, 4);
    let t4 = best_batch_secs(server.addr(), TRIES);
    server.shutdown();

    let rps_1 = total / t1;
    let rps_4 = total / t4;
    let scaling = rps_4 / rps_1;
    eprintln!(
        "serve_load: 1 worker {rps_1:.0} req/s, 4 workers {rps_4:.0} req/s, \
         scaling {scaling:.2}x"
    );
    assert!(
        scaling >= 2.0,
        "server throughput scaled only {scaling:.2}x from 1 to 4 workers \
         ({rps_1:.0} -> {rps_4:.0} req/s); the worker pool no longer \
         overlaps independent projects' sessions"
    );
}

fn assert_replan_coalescing() {
    const BURST: usize = 16;
    let ws = seeded_workspace();
    let server = Server::start(
        Arc::clone(&ws),
        ServerConfig {
            workers: BURST,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    let requests = obs::Metrics::counter("serve.replan.requests");
    let requests_before = requests.get();
    let passes_before = obs::Metrics::counter("serve.replan.kernel_passes").get();
    let p0 = ws.project("p0").expect("seeded project");
    std::thread::scope(|scope| {
        // The first pass blocks on the lock this thread holds; the
        // rest of the burst arrives while it waits.
        p0.update(|_| {
            for _ in 0..BURST {
                scope.spawn(move || {
                    let resp = Client::new(addr)
                        .post("/projects/p0/replan?target=signoff_report", b"")
                        .expect("burst replan");
                    assert_eq!(resp.status, 200, "{}", resp.body);
                });
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            while requests.get() - requests_before < BURST as u64 {
                assert!(Instant::now() < deadline, "the burst never arrived");
                std::thread::yield_now();
            }
        });
    });
    server.shutdown();
    let requests = obs::Metrics::counter("serve.replan.requests").get() - requests_before;
    let passes = obs::Metrics::counter("serve.replan.kernel_passes").get() - passes_before;
    eprintln!("serve_load: {requests} concurrent replans -> {passes} kernel passes");
    assert_eq!(
        requests, BURST as u64,
        "every burst request must be counted"
    );
    assert!(
        passes < requests,
        "{requests} concurrent replans ran {passes} kernel passes — \
         the coalescer no longer folds concurrent waiters into shared passes"
    );
}

#[test]
fn server_scales_with_workers_and_coalesces_replans() {
    assert_worker_scaling();
    assert_replan_coalescing();
}
