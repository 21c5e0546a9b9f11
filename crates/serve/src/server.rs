//! The TCP front end: a blocking accept loop feeding a bounded
//! connection queue drained by a fixed worker-thread pool.
//!
//! Backpressure is two-layered:
//!
//! 1. the **accept queue** is bounded (`queue_cap`): when every worker
//!    is busy and the queue is full, the accept thread answers 429
//!    immediately instead of letting connections pile up unanswered;
//! 2. **per-tenant in-flight caps** (see [`crate::auth::Admission`])
//!    protect tenants from each other once a connection reaches a
//!    worker.
//!
//! Queue depth is observed into the `serve.queue.depth` histogram on
//! every enqueue and overflow rejections count into
//! `serve.queue.rejected`, so load shedding is visible in `/metrics`.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use hercules::Workspace;
use obs::{Collector, Metrics};

use crate::access_log::AccessLog;
use crate::api::{Api, ApiConfig};
use crate::auth::TokenRegistry;
use crate::http::{read_request, ReadOutcome, Response, DEFAULT_IO_TIMEOUT};

/// Server construction knobs.
#[derive(Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` (port 0 ⇒ ephemeral).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded accept-queue capacity; overflow ⇒ 429.
    pub queue_cap: usize,
    /// Max in-flight requests per tenant before 429.
    pub per_tenant_cap: usize,
    /// Bearer tokens; empty ⇒ open mode.
    pub tokens: TokenRegistry,
    /// Socket read/write timeout.
    pub io_timeout: Duration,
    /// Flight-recorder ring capacity per thread (0 disables). The
    /// recorder is lossy and always-on: a live server keeps the most
    /// recent spans for `GET /debug/flight` and 5xx fault bodies at a
    /// cost bounded by B16 `obs_live`.
    pub flight_cap: usize,
    /// Where to append the JSONL access log, if anywhere.
    pub access_log: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_cap: 128,
            per_tenant_cap: 64,
            tokens: TokenRegistry::default(),
            io_timeout: DEFAULT_IO_TIMEOUT,
            flight_cap: 4096,
            access_log: None,
        }
    }
}

struct QueueMetrics {
    depth: obs::Histogram,
    rejected: obs::Counter,
    connections: obs::Counter,
}

fn queue_metrics() -> &'static QueueMetrics {
    static METRICS: OnceLock<QueueMetrics> = OnceLock::new();
    METRICS.get_or_init(|| QueueMetrics {
        depth: Metrics::histogram(
            "serve.queue.depth",
            &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
        ),
        rejected: Metrics::counter("serve.queue.rejected"),
        connections: Metrics::counter("serve.connections"),
    })
}

/// Bounded MPMC queue of accepted connections. `push` fails (→ 429)
/// when full; `pop` blocks until an item or shutdown arrives.
struct ConnQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    cap: usize,
}

struct QueueState {
    items: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Returns the stream back on overflow.
    fn push(&self, stream: TcpStream) -> Result<usize, TcpStream> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.items.len() >= self.cap {
            return Err(stream);
        }
        state.items.push_back(stream);
        let depth = state.items.len();
        drop(state);
        self.cv.notify_one();
        Ok(depth)
    }

    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(stream) = state.items.pop_front() {
                return Some(stream);
            }
            if state.closed {
                return None;
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        drop(state);
        self.cv.notify_all();
    }
}

/// A running workspace server. Dropping without [`Server::shutdown`]
/// detaches the threads (they exit with the process); tests should
/// call `shutdown` for a clean join.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept thread and worker pool, and returns.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(ws: Arc<Workspace>, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        if config.flight_cap > 0 {
            Collector::enable_flight(config.flight_cap);
        }
        let access_log = match &config.access_log {
            Some(path) => Some(AccessLog::open(path)?),
            None => None,
        };
        let api = Arc::new(Api::new(
            ws,
            ApiConfig {
                tokens: config.tokens,
                per_tenant_cap: config.per_tenant_cap,
                access_log,
            },
        ));
        let queue = Arc::new(ConnQueue::new(config.queue_cap));
        let stop = Arc::new(AtomicBool::new(false));
        let io_timeout = config.io_timeout;

        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let api = Arc::clone(&api);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(stream) = queue.pop() {
                            serve_connection(stream, &api, io_timeout);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();

        let accept_thread = {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("serve-accept".to_owned())
                .spawn(move || {
                    for incoming in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = incoming else { continue };
                        queue_metrics().connections.inc();
                        match queue.push(stream) {
                            Ok(depth) => queue_metrics().depth.observe(depth as f64),
                            Err(mut stream) => {
                                // Shed load in the accept thread: a
                                // well-formed 429 is cheaper than a
                                // worker slot.
                                queue_metrics().rejected.inc();
                                let _ = stream.set_write_timeout(Some(io_timeout));
                                let _ = stream.write_all(
                                    &Response::error(429, "server queue full, retry later")
                                        .to_bytes(true),
                                );
                            }
                        }
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Server {
            addr,
            stop,
            queue,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (use for clients when the port was ephemeral).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.queue.close();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

/// Handles one connection: a keep-alive loop of
/// read → route → respond. Malformed requests get their mapped 4xx/5xx
/// and close the connection; clean disconnects just end the loop.
fn serve_connection(mut stream: TcpStream, api: &Api, io_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        match read_request(&mut stream) {
            ReadOutcome::Request(req) => {
                let response = api.handle(&req);
                let close = !req.keep_alive();
                if stream.write_all(&response.to_bytes(close)).is_err() || close {
                    return;
                }
            }
            ReadOutcome::Reject(reject) => {
                let _ = stream
                    .write_all(&Response::error(reject.status, &reject.reason).to_bytes(true));
                return;
            }
            ReadOutcome::Disconnected => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use schema::examples;

    fn schema_source() -> String {
        format!(
            "schema circuit;\n{}",
            examples::circuit_design().to_source()
        )
    }

    fn start_open(workers: usize) -> (Server, Client) {
        let server = Server::start(
            Arc::new(Workspace::in_memory()),
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let client = Client::new(server.addr());
        (server, client)
    }

    #[test]
    fn serves_healthz_and_shuts_down_cleanly() {
        let (server, client) = start_open(2);
        let resp = client.get("/healthz").expect("healthz");
        assert_eq!(resp.status, 200);
        let health = obs::export::parse_json(&resp.body).expect("healthz is JSON");
        assert_eq!(
            health.get("status").and_then(|v| v.as_str()),
            Some("ok"),
            "{}",
            resp.body
        );
        assert_eq!(
            health.get("schema").and_then(|v| v.as_str()),
            Some(hercules::PROJECT_CONF_MAGIC)
        );
        assert_eq!(health.get("projects").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(health.get("wedged").and_then(|v| v.as_f64()), Some(0.0));
        // Every response echoes a trace id the client can log.
        let trace = resp.header("x-herc-trace").expect("trace header");
        assert_eq!(trace.len(), 16, "{trace}");
        server.shutdown();
    }

    #[test]
    fn trace_header_round_trips_and_filters_the_flight_dump() {
        let (server, _) = start_open(2);
        let client = Client::new(server.addr()).with_header("x-herc-trace", "00000000deadbeef");
        let resp = client
            .post("/projects/alu?team=2&seed=7", schema_source().as_bytes())
            .expect("create");
        assert_eq!(resp.status, 201, "{}", resp.body);
        assert_eq!(resp.header("x-herc-trace"), Some("00000000deadbeef"));
        let resp = client
            .post("/projects/alu/plan?target=performance", b"")
            .expect("plan");
        assert_eq!(resp.status, 200, "{}", resp.body);
        // The flight recorder (on by default) kept this request's spans.
        let resp = client
            .get("/debug/flight?trace=00000000deadbeef")
            .expect("flight");
        assert_eq!(resp.status, 200, "{}", resp.body);
        obs::export::validate_json(&resp.body).expect("flight dump is JSON");
        assert!(
            resp.body.contains("\"serve.request\""),
            "dump should hold the request span: {}",
            resp.body
        );
        assert!(resp.body.contains("00000000deadbeef"), "{}", resp.body);
        // An id nobody used filters down to nothing.
        let resp = client
            .get("/debug/flight?trace=0000000000000001")
            .expect("flight");
        let dump = obs::export::parse_json(&resp.body).unwrap();
        assert_eq!(
            dump.get("total_records").and_then(|v| v.as_f64()),
            Some(0.0),
            "{}",
            resp.body
        );
        server.shutdown();
    }

    #[test]
    fn metrics_expose_prometheus_and_labeled_series() {
        let (server, client) = start_open(2);
        client.get("/projects").expect("warm-up request");
        let resp = client.get("/metrics?format=prom").expect("prom");
        assert_eq!(resp.status, 200);
        obs::export::validate_prometheus(&resp.body).expect("exposition must validate");
        assert!(
            resp.body
                .contains("serve_requests{endpoint=\"projects.list\"}"),
            "{}",
            resp.body
        );
        let resp = client.get("/metrics").expect("json");
        let metrics = obs::export::parse_json(&resp.body).expect("metrics JSON");
        assert!(
            metrics
                .get("serve.requests{endpoint=\"projects.list\"}")
                .is_some(),
            "{}",
            resp.body
        );
        server.shutdown();
    }

    #[test]
    fn access_log_records_every_request_with_its_trace_id() {
        let dir = std::env::temp_dir().join(format!(
            "schedflow-serve-log-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let server = Server::start(
            Arc::new(Workspace::in_memory()),
            ServerConfig {
                workers: 1,
                access_log: Some(path.clone()),
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let client = Client::new(server.addr()).with_header("x-herc-trace", "0000000000c0ffee");
        client.get("/projects").expect("list");
        server.shutdown();
        let text = std::fs::read_to_string(&path).unwrap();
        obs::export::validate_jsonl(&text).expect("access log is JSONL");
        let line = text
            .lines()
            .find(|l| l.contains("projects.list"))
            .expect("list request logged");
        let entry = obs::export::parse_json(line).unwrap();
        assert_eq!(
            entry.get("trace").and_then(|v| v.as_str()),
            Some("0000000000c0ffee")
        );
        assert_eq!(entry.get("status").and_then(|v| v.as_f64()), Some(200.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_project_lifecycle_over_tcp() {
        let (server, client) = start_open(2);
        let resp = client
            .post("/projects/alu?team=2&seed=7", schema_source().as_bytes())
            .expect("create");
        assert_eq!(resp.status, 201, "{}", resp.body);
        let resp = client
            .post("/projects/alu/run?target=performance", b"")
            .expect("run");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let resp = client.get("/projects/alu/status").expect("status");
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("variance: "));
        let resp = client.get("/metrics").expect("metrics");
        assert_eq!(resp.status, 200);
        server.shutdown();
    }

    #[test]
    fn tokens_gate_requests_end_to_end() {
        let server = Server::start(
            Arc::new(Workspace::in_memory()),
            ServerConfig {
                tokens: TokenRegistry::parse("alice:sesame").unwrap(),
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let anon = Client::new(server.addr());
        assert_eq!(anon.get("/projects").expect("req").status, 401);
        let alice = Client::new(server.addr()).with_token("sesame");
        assert_eq!(alice.get("/projects").expect("req").status, 200);
        server.shutdown();
    }

    #[test]
    fn keep_alive_carries_multiple_requests() {
        let (server, client) = start_open(1);
        let responses = client
            .pipelined(&[
                ("GET", "/healthz"),
                ("GET", "/projects"),
                ("GET", "/healthz"),
            ])
            .expect("keep-alive");
        assert_eq!(responses.len(), 3);
        assert!(responses.iter().all(|r| r.status == 200));
        server.shutdown();
    }
}
