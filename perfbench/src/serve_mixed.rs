//! `serve_mixed`: the served path. Sixteen planned projects behind an
//! in-process `Server` (2 workers, 2 tenants with bearer tokens), two
//! closed-loop `serve::Client`s, 80 % status / 17 % replan / 3 % plan,
//! 30 % of requests on one hot project so lock waits and replan
//! coalescing happen. HTTP, auth, the coalescer, the project lock and
//! store appends carry the cost; the kernel is small.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use hercules::Workspace;
use schema::examples;
use serve::{
    replan_body, status_body, Api, ApiConfig, Client, Request, Server, ServerConfig, TokenRegistry,
};

use crate::common::{self, ms_since, Ctx, Flow, TARGET};
use crate::ledger;
use crate::report::Report;
use crate::stats::{self, Samples};
use crate::trace;

const PROJECTS: usize = 16;
const PROBE_TOOL_SEED: u64 = 1995;
/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
pub const TENANTS: [(&str, &str); 2] = [("alpha", "tok-alpha"), ("beta", "tok-beta")];
/// Requests per second of `--seconds` (both clients together).
const OPS_PER_SECOND: f64 = 3000.0;

/// 65 activities: enough that a served status answer stays above the
/// 0.1 ms floor for single samples on a fast host (33 activities read
/// 0.098 ms there), while the kernel stays small next to HTTP.
fn schema() -> schema::TaskSchema {
    examples::layered(4, 16, 2)
}

/// Project `p`'s flow (team 3); its tool seed is drawn from the run's.
fn flow(ctx: &Ctx, p: usize) -> Flow {
    Flow {
        schema,
        team: 3,
        tool_seed: simtools::rng::mix(&[ctx.seed, p as u64]),
        history: 0,
    }
}

pub fn project_name(k: usize) -> String {
    format!("p{k:02}")
}

pub fn tokens() -> TokenRegistry {
    let text: String = TENANTS.iter().map(|(t, k)| format!("{t}:{k}\n")).collect();
    TokenRegistry::parse(&text).expect("fixed token list parses")
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Status,
    Replan,
    Plan,
}

#[derive(Clone, Copy)]
pub struct Op {
    kind: Kind,
    project: usize,
}

impl Op {
    fn method_path(self) -> (&'static str, String) {
        let p = project_name(self.project);
        match self.kind {
            Kind::Status => ("GET", format!("/projects/{p}/status")),
            Kind::Replan => ("POST", format!("/projects/{p}/replan?target={TARGET}")),
            Kind::Plan => ("POST", format!("/projects/{p}/plan?target={TARGET}")),
        }
    }

    fn span_name(self) -> &'static str {
        match self.kind {
            Kind::Status => "client.status",
            Kind::Replan => "client.replan",
            Kind::Plan => "client.plan",
        }
    }
}

/// Each client's fixed op sequence of `per_client` requests over
/// `projects` projects, drawn from the seed (streams from `stream`).
pub fn draw_ops(ctx: &Ctx, stream: u64, per_client: usize, projects: usize) -> Vec<Vec<Op>> {
    (0..TENANTS.len())
        .map(|c| {
            let mut rng = ctx.rng(stream + c as u64);
            (0..per_client)
                .map(|_| {
                    let kind = match rng.next_below(100) {
                        0..=79 => Kind::Status,
                        80..=96 => Kind::Replan,
                        _ => Kind::Plan,
                    };
                    let project = if projects == 1 || rng.next_below(100) < 30 {
                        0
                    } else {
                        1 + rng.next_below(projects as u64 - 1) as usize
                    };
                    Op { kind, project }
                })
                .collect()
        })
        .collect()
}

/// The workload's fixed request sequences.
fn op_lists(ctx: &Ctx) -> Vec<Vec<Op>> {
    draw_ops(ctx, 100, ctx.ops(OPS_PER_SECOND) / TENANTS.len(), PROJECTS)
}

/// Sixteen created and planned projects on a persistent root.
fn setup(ctx: &Ctx, k: usize) -> Arc<Workspace> {
    let ws = Arc::new(Workspace::persistent(ctx.path(&format!("serve-{k}"))));
    for p in 0..PROJECTS {
        let project = flow(ctx, p).create(&ws, &project_name(p));
        project.update(|h| h.plan(TARGET)).expect("initial plan");
    }
    ws
}

pub fn start_server(ws: &Arc<Workspace>) -> Server {
    Server::start(
        Arc::clone(ws),
        ServerConfig {
            workers: 2,
            tokens: tokens(),
            ..ServerConfig::default()
        },
    )
    .expect("bind benchmark server")
}

/// One closed-loop pass of every client over `ops`.
pub struct Pass {
    /// Per client, per op: latency in ms and whether it succeeded.
    pub latencies: Vec<Vec<(f64, bool)>>,
}

impl Pass {
    /// Successful latencies of `kind` whose position lies in `block`
    /// of [`BLOCKS`](common::BLOCKS), or anywhere when `block` is `None`.
    fn samples(&self, ops: &[Vec<Op>], kind: Kind, block: Option<usize>) -> Samples {
        let mut s = Samples::default();
        for (c, list) in ops.iter().enumerate() {
            let n = list.len();
            let range = block.map_or(0..n, |b| common::block(b, n));
            for i in range {
                let (ms, ok) = self.latencies[c][i];
                if list[i].kind == kind && ok {
                    s.push(ms);
                }
            }
        }
        s
    }

    fn blocks(&self, ops: &[Vec<Op>], kind: Kind) -> Vec<Samples> {
        (0..common::BLOCKS)
            .map(|b| self.samples(ops, kind, Some(b)))
            .collect()
    }

    fn completed(&self) -> usize {
        self.latencies
            .iter()
            .flatten()
            .filter(|(_, ok)| *ok)
            .count()
    }

    /// Completed ops per second: per block, the sum over clients of
    /// each client's ops over the time it spent in them (a closed loop
    /// is always inside an op); the median over blocks.
    fn ops_per_s(&self) -> f64 {
        let per_block: Vec<f64> = (0..common::BLOCKS)
            .map(|b| {
                self.latencies
                    .iter()
                    .map(|l| {
                        let part = &l[common::block(b, l.len())];
                        let done = part.iter().filter(|(_, ok)| *ok).count() as f64;
                        let busy_s = part.iter().map(|(ms, _)| ms).sum::<f64>() / 1e3;
                        done / busy_s
                    })
                    .sum()
            })
            .collect();
        stats::median(&per_block)
    }
}

fn request_id(client: usize, i: usize) -> u64 {
    ((client as u64) << 32) | i as u64
}

pub fn served_pass(server: &Server, ops: &[Vec<Op>]) -> Pass {
    let addr = server.addr();
    let latencies = std::thread::scope(|scope| {
        let handles: Vec<_> = ops
            .iter()
            .enumerate()
            .map(|(c, list)| {
                scope.spawn(move || {
                    let client = Client::new(addr).with_token(TENANTS[c].1);
                    list.iter()
                        .enumerate()
                        .map(|(i, op)| {
                            let (method, path) = op.method_path();
                            let _span = trace::span(op.span_name(), request_id(c, i));
                            let t0 = Instant::now();
                            // A connect failure is a failed op like any
                            // non-2xx answer: one TCP connection per
                            // request means the accept path is measured.
                            let ok = client
                                .request(method, &path, b"")
                                .is_ok_and(|r| r.is_success());
                            (ms_since(t0), ok)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Pass { latencies }
}

/// Counts the pass's ops, then checks the served status body of each
/// of the first `projects` projects against `status_body` read
/// in-process.
pub fn check(report: &mut Report, server: &Server, ws: &Workspace, pass: &Pass, projects: usize) {
    for &(_, ok) in pass.latencies.iter().flatten() {
        report.op(ok);
    }
    let client = Client::new(server.addr()).with_token(TENANTS[0].1);
    for p in 0..projects {
        let name = project_name(p);
        let served = client.get(&format!("/projects/{name}/status"));
        let local = ws.project(&name).map(|pr| pr.read(status_body));
        let same = matches!((&served, &local), (Ok(r), Some(l)) if r.status == 200 && r.body == *l);
        report.check(same, || {
            format!("{name}: served status differs from status_body")
        });
    }
}

/// Untimed requests per client before the measured pass, so the
/// first connections, allocations and cold caches stay out of the
/// figures. They count as ops.
const WARMUP_REQUESTS: usize = 200;

fn warm_up(ctx: &Ctx, server: &Server, report: &mut Report) {
    let warm = served_pass(server, &draw_ops(ctx, 150, WARMUP_REQUESTS, PROJECTS));
    for &(_, ok) in warm.latencies.iter().flatten() {
        report.op(ok);
    }
}

pub fn measure(ctx: &Ctx) -> Report {
    let (mut setups, setup_s) = common::repeated_setup(SETUPS, |k| setup(ctx, k));
    let ws = setups.pop().expect("at least one set-up");
    drop(setups);
    let ops = op_lists(ctx);
    let server = start_server(&ws);
    let mut report = Report::default();
    warm_up(ctx, &server, &mut report);
    let pass = served_pass(&server, &ops);
    check(&mut report, &server, &ws, &pass, PROJECTS);
    server.shutdown();
    report.value(
        "setup_s",
        "s",
        setup_s,
        format!("median of {SETUPS} set-ups"),
    );
    report.value(
        "peak_rss_mb",
        "MB",
        common::peak_rss_mb(),
        "VmHWM".to_owned(),
    );
    let kinds = [Kind::Status, Kind::Replan, Kind::Plan].map(|k| pass.samples(&ops, k, None));
    report.value(
        "typical_ops_per_s",
        "1/s",
        common::typical_ops_per_s(&kinds.each_ref(), TENANTS.len()),
        "both clients; ops over the sum of each kind's count x median".to_owned(),
    );
    report.value(
        "ops_per_s",
        "1/s",
        pass.ops_per_s(),
        format!(
            "{} completed ops; median over {} blocks",
            pass.completed(),
            common::BLOCKS
        ),
    );
    report.latency(
        "status_p50_ms",
        &pass.samples(&ops, Kind::Status, None),
        0.5,
    );
    report.latency("plan_p50_ms", &pass.samples(&ops, Kind::Plan, None), 0.5);
    report.block_latency("status_p99_ms", &pass.blocks(&ops, Kind::Status), 0.99);
    report.latency(
        "replan_p50_ms",
        &pass.samples(&ops, Kind::Replan, None),
        0.5,
    );
    report.block_latency("replan_p99_ms", &pass.blocks(&ops, Kind::Replan), 0.99);
    report
}

/// The number a `/metrics` JSON body holds for counter `name`.
fn counter(metrics_json: &str, name: &str) -> f64 {
    let key = format!("\"{name}\":");
    metrics_json
        .find(&key)
        .map(|at| &metrics_json[at + key.len()..])
        .and_then(|rest| {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        })
        .unwrap_or(0.0)
}

pub fn coalesce_counters(server: &Server) -> (f64, f64) {
    let body = Client::new(server.addr())
        .with_token(TENANTS[0].1)
        .get("/metrics")
        .map(|r| r.body)
        .unwrap_or_default();
    (
        counter(&body, "serve.replan.kernel_passes"),
        counter(&body, "serve.replan.requests"),
    )
}

/// The traced run: the same request sequence on identical set-ups,
/// untraced then traced, for the trace overhead; then the ledger on
/// this workload's flow.
pub fn ledger(ctx: &Ctx) -> Report {
    let setups = [setup(ctx, 0), setup(ctx, 1)];
    let ops = op_lists(ctx);
    let mut report = Report::default();
    let server = start_server(&setups[0]);
    warm_up(ctx, &server, &mut report);
    let plain = served_pass(&server, &ops);
    server.shutdown();
    let server = start_server(&setups[1]);
    warm_up(ctx, &server, &mut report);
    trace::set_enabled(true);
    let traced = served_pass(&server, &ops);
    check(&mut report, &server, &setups[1], &traced, PROJECTS);
    server.shutdown();
    report.value(
        "trace.overhead_pct",
        "%",
        (plain.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0,
        format!(
            "ops/s untraced {:.1} vs traced {:.1}",
            plain.ops_per_s(),
            traced.ops_per_s()
        ),
    );
    // The probe project's tool seed is fixed, as in the other
    // workloads, so the ledger's counts of runs and bytes do not
    // change with `--seed`.
    let probe = Flow {
        tool_seed: PROBE_TOOL_SEED,
        ..flow(ctx, 0)
    };
    ledger::run(ctx, &probe, &mut report);
    report
}

/// `(client, index)` and value of every op of `kind`.
pub fn zip_kind<'a>(
    ops: &'a [Vec<Op>],
    values: &'a [Vec<f64>],
    kind: Kind,
) -> impl Iterator<Item = ((usize, usize), f64)> + 'a {
    ops.iter().enumerate().flat_map(move |(c, list)| {
        list.iter()
            .enumerate()
            .filter(move |(_, op)| op.kind == kind)
            .map(move |(i, _)| ((c, i), values[c][i]))
    })
}

/// Captures the exact bytes a `serve::Client` sends for a status
/// request, on a one-shot local listener.
pub fn record_request() -> Vec<u8> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind recorder");
    let addr = listener.local_addr().expect("recorder address");
    std::thread::scope(|scope| {
        let sink = scope.spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept recorded request");
            let mut bytes = Vec::new();
            let mut buf = [0u8; 4096];
            while !bytes.windows(4).any(|w| w == b"\r\n\r\n") {
                let n = stream.read(&mut buf).expect("read recorded request");
                if n == 0 {
                    break;
                }
                bytes.extend_from_slice(&buf[..n]);
            }
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
                .expect("answer recorded request");
            bytes
        });
        let client = Client::new(addr).with_token(TENANTS[0].1);
        client
            .get(&format!("/projects/{}/status", project_name(0)))
            .expect("recorded request round trip");
        sink.join().expect("recorder thread panicked")
    })
}

fn api_request(c: usize, op: Op) -> Request {
    let (method, path) = op.method_path();
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => {
            let (k, v) = q.split_once('=').expect("key=value query");
            (p.to_owned(), vec![(k.to_owned(), v.to_owned())])
        }
        None => (path, Vec::new()),
    };
    Request {
        method: method.to_owned(),
        path,
        query,
        headers: vec![(
            "authorization".to_owned(),
            format!("Bearer {}", TENANTS[c].1),
        )],
        body: Vec::new(),
    }
}

/// Replays each client's sequence through `Api::handle` on its own
/// thread; returns handle time in ms per client and op.
pub fn api_replay(ws: &Arc<Workspace>, ops: &[Vec<Op>]) -> Vec<Vec<f64>> {
    let api = Api::new(
        Arc::clone(ws),
        ApiConfig {
            tokens: tokens(),
            ..ApiConfig::default()
        },
    );
    let api = &api;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ops
            .iter()
            .enumerate()
            .map(|(c, list)| {
                scope.spawn(move || {
                    list.iter()
                        .enumerate()
                        .map(|(i, &op)| {
                            let req = api_request(c, op);
                            let name = match op.kind {
                                Kind::Status => "api.status",
                                Kind::Replan => "api.replan",
                                Kind::Plan => "api.plan",
                            };
                            let t0 = Instant::now();
                            let resp = trace::timed(name, request_id(c, i), || api.handle(&req));
                            let ms = ms_since(t0);
                            assert_eq!(resp.status, 200, "replayed request succeeds");
                            ms
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    })
}

/// Replays each client's sequence straight onto `Project::read` /
/// `update`, timing the wait before each closure runs and the render
/// calls inside it.
pub fn direct_replay(ws: &Arc<Workspace>, ops: &[Vec<Op>]) {
    std::thread::scope(|scope| {
        for (c, list) in ops.iter().enumerate() {
            scope.spawn(move || {
                for (i, op) in list.iter().enumerate() {
                    let req = request_id(c, i);
                    let project = ws.project(&project_name(op.project)).expect("project");
                    let called = Instant::now();
                    match op.kind {
                        Kind::Status => project.read(|h| {
                            trace::record("workspace.lock_wait", req, called, Instant::now());
                            trace::timed("render.status", req, || {
                                std::hint::black_box(status_body(h))
                            });
                        }),
                        Kind::Replan => project.update(|h| {
                            trace::record("workspace.lock_wait", req, called, Instant::now());
                            let outcome = h.replan(TARGET).expect("replan");
                            trace::timed("render.replan", req, || {
                                std::hint::black_box(replan_body(TARGET, &outcome))
                            });
                        }),
                        Kind::Plan => project.update(|h| {
                            trace::record("workspace.lock_wait", req, called, Instant::now());
                            h.plan(TARGET).expect("plan");
                        }),
                    }
                }
            });
        }
    });
}
