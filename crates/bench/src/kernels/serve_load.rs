//! B13 — workspace server under load: mixed status/replan traffic from
//! many concurrent HTTP clients against a served multi-project
//! workspace, swept over worker-pool sizes.
//!
//! The kernel is B12 pushed through the wire: every replan burns the
//! same simulated commit latency under its project's lock, so
//! throughput scaling from 1 to 4 workers measures whether the
//! server's worker pool actually overlaps independent projects'
//! sessions (and whether admission control adds serial bottlenecks of
//! its own). The latency lives in the projects' store
//! ([`slow_manager`], shared with B12), not in the server: the served
//! code is the production path. Concurrent replans against the same project
//! coalesce into shared kernel passes (`serve::Coalescer`), which is
//! what keeps the write-heavy mix from collapsing to
//! `requests × latency`.
//!
//! Emitted records per worker count `W`:
//!
//! * `throughput/workers/W` — whole-batch sampling via the suite; the
//!   per-element median is ns per request.
//! * `latency/workers/W` — per-request wall times from one dedicated
//!   batch: median = p50, plus p95/min/mean.
//! * `latency_p99/workers/W` — the p99 tail, carried in a record of
//!   its own (all stats fields hold p99) so the JSON report keeps the
//!   full percentile triple per worker count.
//!
//! The acceptance gate — ≥2× request throughput from 1 → 4 workers and
//! fewer replan kernel passes than replan requests — lives in
//! `tests/serve_scaling.rs` and the `serve` CI stage.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::bench::{Record, Stats};
use hercules::Workspace;
use serve::{Client, Server, ServerConfig};

use super::slow_commits::slow_manager;

/// Projects behind the server.
pub const PROJECTS: usize = 8;

/// Concurrent client sessions per batch. Kept under the server's
/// default accept-queue capacity so the kernel measures service time,
/// not 429 backpressure (backpressure has its own tests).
pub const CLIENTS: usize = 96;

/// Requests each client issues per batch.
pub const REQUESTS_PER_CLIENT: usize = 3;

/// Worker-pool sizes the kernel sweeps.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn project_name(k: usize) -> String {
    format!("p{k}")
}

/// A workspace with [`PROJECTS`] planned ASIC-flow projects, each
/// made by [`slow_manager`], ready to serve replan/status traffic.
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

/// Starts a server over `ws` with `workers` pool threads.
pub fn start_server(ws: &Arc<Workspace>, workers: usize) -> Server {
    Server::start(
        Arc::clone(ws),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind bench server")
}

/// Runs one batch — [`CLIENTS`] concurrent sessions, each issuing
/// [`REQUESTS_PER_CLIENT`] requests (two replans to one status read,
/// spread round-robin over the projects) — and returns every
/// per-request wall time in nanoseconds.
pub fn run_batch(addr: SocketAddr) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(CLIENTS * REQUESTS_PER_CLIENT);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let client = Client::new(addr).with_timeout(Duration::from_secs(30));
                    let mut times = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    for r in 0..REQUESTS_PER_CLIENT {
                        let project = project_name((c + r) % PROJECTS);
                        let t0 = Instant::now();
                        let resp = if (c + r) % 3 == 2 {
                            client
                                .get(&format!("/projects/{project}/status"))
                                .expect("status request")
                        } else {
                            client
                                .post(
                                    &format!("/projects/{project}/replan?target=signoff_report"),
                                    b"",
                                )
                                .expect("replan request")
                        };
                        times.push(t0.elapsed().as_nanos() as f64);
                        assert_eq!(resp.status, 200, "{}", resp.body);
                    }
                    times
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("client thread"));
        }
    });
    latencies
}

/// Geometric bucket bounds for the latency histogram: 10 µs … 10 s at
/// ratio 1.2, so the bucket-interpolated percentile is within ~10% of
/// the sample value — well inside the ±30% `bench_compare` gate on the
/// `latency/workers/*` rows.
fn latency_bounds() -> Vec<f64> {
    let mut bounds = Vec::new();
    let mut bound = 1e4f64;
    while bound < 1e10 {
        bounds.push(bound);
        bound *= 1.2;
    }
    bounds
}

fn latency_records(workers: usize, ns: Vec<f64>) -> Vec<Record> {
    // Percentiles come from the same fixed-bucket estimator the live
    // server exposes on `/metrics` (`Histogram::percentile`), so bench
    // numbers and dashboard numbers mean the same thing.
    let histogram = obs::Histogram::with_bounds(&latency_bounds());
    for v in &ns {
        histogram.observe(*v);
    }
    let samples = ns.len() as u32;
    let p99 = histogram.percentile(0.99);
    vec![
        Record {
            kernel: "serve_load".to_owned(),
            bench: format!("latency/workers/{workers}"),
            elements: None,
            samples,
            iters_per_sample: 1,
            stats: Stats {
                median_ns: histogram.percentile(0.50),
                p95_ns: histogram.percentile(0.95),
                min_ns: ns.iter().copied().fold(f64::INFINITY, f64::min),
                mean_ns: ns.iter().sum::<f64>() / ns.len() as f64,
            },
        },
        Record {
            kernel: "serve_load".to_owned(),
            bench: format!("latency_p99/workers/{workers}"),
            elements: None,
            samples,
            iters_per_sample: 1,
            stats: Stats {
                median_ns: p99,
                p95_ns: p99,
                min_ns: p99,
                mean_ns: p99,
            },
        },
    ]
}

/// Runs the kernel; `quick` selects the smoke-test sampling plan. The
/// batch itself is identical in both modes (`bench_compare` matches on
/// names, so `workers/N` must mean the same workload in the committed
/// baseline and a quick fresh run).
pub fn run(quick: bool) -> Vec<Record> {
    let mut suite = super::suite("serve_load", quick);
    let total_requests = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    let ws = seeded_workspace();
    let mut tail_records = Vec::new();
    for workers in WORKER_COUNTS {
        let server = start_server(&ws, workers);
        let addr = server.addr();
        suite.bench(
            &format!("throughput/workers/{workers}"),
            Some(total_requests),
            || {
                run_batch(addr);
            },
        );
        // One dedicated batch for the percentile records, after the
        // suite's warmup has faulted in every code path.
        tail_records.extend(latency_records(workers, run_batch(addr)));
        server.shutdown();
    }
    let mut records = suite.into_records();
    records.extend(tail_records);
    records
}
