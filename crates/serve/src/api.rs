//! Request routing: maps the HTTP surface onto the
//! [`hercules::Workspace`] kernel.
//!
//! The server is a *pure transport*: every response body is produced
//! by a rendering function over kernel results, and the differential
//! suite (`tests/serve_differential.rs`) holds the server to
//! byte-identical output against direct in-process calls. Keep the
//! render functions (`status_body`, `plan_body`, `run_body`,
//! `replan_body`) free of any server state.
//!
//! ## Routes
//!
//! | Method | Path | Effect |
//! |---|---|---|
//! | GET | `/healthz` | liveness JSON: version, schema, uptime, projects, wedged stores (no auth) |
//! | GET | `/metrics` | obs metrics (JSON; `?format=text` console form, `?format=prom` Prometheus exposition) |
//! | GET | `/debug/flight` | flight-recorder dump (`?trace=<id>` for one request's records) |
//! | GET | `/projects` | registered + on-disk project names, one per line |
//! | POST | `/projects/{name}?team=N&seed=N` | create; body = schema source |
//! | DELETE | `/projects/{name}` | unregister and delete |
//! | GET | `/projects/{name}/status` | status report (CLI `ws status` bytes) |
//! | GET | `/projects/{name}/export` | metadata-db dump |
//! | POST | `/projects/{name}/plan?target=T` | propose a schedule |
//! | POST | `/projects/{name}/replan?target=T` | replan (coalesced per project) |
//! | POST | `/projects/{name}/run?target=T` | plan + execute (`&policy=P` scheduling policy, `&workers=N` simulated uniform cluster) |
//! | GET | `/trace/{scenario}?seed=N` | record a trace (503 while busy) |
//!
//! Kernel-level failures (unknown target, planning errors) map to 422;
//! registry misses to 404; auth failures to 401; admission to 429.
//!
//! ## Request correlation
//!
//! Every request gets a 64-bit trace id: the `x-herc-trace` request
//! header when the client sent one (hex), otherwise a server-generated
//! id. The id is echoed in the `x-herc-trace` response header, stamped
//! into flight-recorder records written while the request is handled,
//! written to the access log, and appended to 5xx bodies together with
//! the request's flight tail — so a single id correlates the client's
//! view, the operator's log, and the in-memory ring.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use hercules::{
    ExecutionReport, Hercules, Project, ReplanOutcome, SchedulePlan, Workspace, WorkspaceError,
};
use obs::{Collector, Metrics};
use schedule::text::write_padded;
use schema::parse_schema;
use simtools::rng::SplitMix64;
use simtools::workload::Team;
use simtools::ToolLibrary;

use crate::access_log::{AccessEntry, AccessLog};
use crate::auth::{Admission, AuthError, TokenRegistry};
use crate::batch::{Coalescer, Role};
use crate::http::{Request, Response};

/// Server-side behaviour knobs (transport only — never visible in
/// 2xx/4xx response bodies, which the differential suite pins).
#[derive(Debug)]
pub struct ApiConfig {
    /// Bearer-token registry; empty ⇒ open mode.
    pub tokens: TokenRegistry,
    /// Max in-flight requests per tenant before 429.
    pub per_tenant_cap: usize,
    /// Simulated interactive-session latency, spent while holding the
    /// project lock (mirrors the B12 `workspace_concurrent` kernel so
    /// worker-scaling benches measure concurrency, not CPU).
    pub session_latency: Duration,
    /// Structured JSONL access log, one line per request.
    pub access_log: Option<AccessLog>,
}

impl Default for ApiConfig {
    fn default() -> Self {
        ApiConfig {
            tokens: TokenRegistry::default(),
            per_tenant_cap: 64,
            session_latency: Duration::ZERO,
            access_log: None,
        }
    }
}

struct ApiMetrics {
    rejected_auth: obs::Counter,
    rejected_busy: obs::Counter,
    replan_requests: obs::Counter,
    replan_passes: obs::Counter,
    replan_coalesced: obs::Counter,
}

fn metrics() -> &'static ApiMetrics {
    static METRICS: OnceLock<ApiMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ApiMetrics {
        rejected_auth: Metrics::counter("serve.rejected.auth"),
        rejected_busy: Metrics::counter("serve.rejected.busy"),
        replan_requests: Metrics::counter("serve.replan.requests"),
        replan_passes: Metrics::counter("serve.replan.kernel_passes"),
        replan_coalesced: Metrics::counter("serve.replan.coalesced"),
    })
}

/// Per-endpoint latency histogram, in milliseconds, keyed on the
/// `endpoint` label (one family, many series — `?format=prom` renders
/// them as `serve_latency_bucket{endpoint="plan",le="…"}`).
fn latency_histogram(class: &str) -> obs::Histogram {
    Metrics::histogram_with(
        "serve.latency",
        &[
            0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 512.0,
        ],
        &[("endpoint", class)],
    )
}

/// Per-request fields the router threads back out to [`Api::handle`]
/// for the access log and per-tenant telemetry.
#[derive(Default)]
struct RequestInfo {
    /// Authenticated tenant, once auth succeeded.
    tenant: Option<String>,
    /// Whether a replan was answered from a concurrent leader's pass.
    coalesced: bool,
}

/// How many flight records a 5xx body carries, newest last. A bounded
/// tail: fault bodies must stay small even with a large ring.
const FAULT_TAIL: usize = 16;

/// The routing core shared by every worker thread.
pub struct Api {
    ws: Arc<Workspace>,
    tokens: TokenRegistry,
    admission: Admission,
    coalescer: Coalescer,
    session_latency: Duration,
    trace_busy: AtomicBool,
    access_log: Option<AccessLog>,
    started: Instant,
    /// Trace-id generator for requests that arrive without
    /// `x-herc-trace`. Seeded from wall clock + pid so concurrent
    /// servers don't collide; clients wanting determinism send the
    /// header.
    trace_ids: Mutex<SplitMix64>,
}

impl Api {
    pub fn new(ws: Arc<Workspace>, config: ApiConfig) -> Api {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            ^ (u64::from(std::process::id()) << 32);
        Api {
            ws,
            tokens: config.tokens,
            admission: Admission::new(config.per_tenant_cap),
            coalescer: Coalescer::new(),
            session_latency: config.session_latency,
            trace_busy: AtomicBool::new(false),
            access_log: config.access_log,
            started: Instant::now(),
            trace_ids: Mutex::new(SplitMix64::new(seed)),
        }
    }

    /// Routes one parsed request to a response. Total: every branch
    /// returns a well-formed `Response`.
    pub fn handle(&self, req: &Request) -> Response {
        let class = route_class(req);
        Metrics::counter_with("serve.requests", &[("endpoint", class)]).inc();
        let trace_id = self.trace_id_for(req);
        let start = Instant::now();
        let mut info = RequestInfo::default();
        let mut response = {
            // Flight records written while this request runs carry its
            // id; the guard restores the previous id on exit.
            let _trace = Collector::trace_scope(trace_id);
            self.dispatch(req, class, &mut info)
        };
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        latency_histogram(class).observe(latency_ms);
        if let Some(tenant) = &info.tenant {
            Metrics::gauge_with("serve.inflight", &[("tenant", tenant)])
                .set(self.admission.in_flight(tenant) as i64);
        }
        response
            .extra_headers
            .push(("x-herc-trace".to_owned(), format!("{trace_id:016x}")));
        if response.status >= 500 {
            annotate_fault(&mut response, trace_id);
        }
        if let Some(log) = &self.access_log {
            log.record(&AccessEntry {
                trace_id,
                tenant: info.tenant,
                endpoint: class,
                status: response.status,
                latency_ms,
                coalesced: info.coalesced,
            });
        }
        response
    }

    /// The request's trace id: the client's `x-herc-trace` hex value
    /// when present and parseable, else a fresh nonzero id.
    fn trace_id_for(&self, req: &Request) -> u64 {
        if let Some(id) = req.header("x-herc-trace").and_then(parse_trace_id) {
            return id;
        }
        let mut rng = self.trace_ids.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let id = rng.next_u64();
            if id != 0 {
                return id;
            }
        }
    }

    fn dispatch(&self, req: &Request, class: &'static str, info: &mut RequestInfo) -> Response {
        let _span = obs::span!("serve.request", endpoint = class);
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        if segments.as_slice() == ["healthz"] {
            return match req.method.as_str() {
                "GET" => Response::json(200, self.healthz_body()),
                _ => Response::error(405, "method not allowed"),
            };
        }
        // Everything past the liveness probe is authenticated and
        // admission-controlled.
        let tenant = match self.tokens.authenticate(req.header("authorization")) {
            Ok(tenant) => tenant,
            Err(AuthError::Missing) => {
                metrics().rejected_auth.inc();
                return Response::error(401, "missing bearer token");
            }
            Err(AuthError::Invalid) => {
                metrics().rejected_auth.inc();
                return Response::error(401, "invalid bearer token");
            }
        };
        Metrics::counter_with("serve.tenant.requests", &[("tenant", &tenant)]).inc();
        info.tenant = Some(tenant.clone());
        let Some(_guard) = self.admission.try_enter(&tenant) else {
            metrics().rejected_busy.inc();
            return Response::error(429, "tenant at in-flight cap, retry later");
        };
        Metrics::gauge_with("serve.inflight", &[("tenant", &tenant)])
            .set(self.admission.in_flight(&tenant) as i64);
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["metrics"]) => match req.query_param("format") {
                Some("text") => Response::text(200, Metrics::render()),
                Some("prom") => Response::text(200, Metrics::to_prometheus()),
                _ => Response::json(200, Metrics::to_json()),
            },
            ("GET", ["debug", "flight"]) => debug_flight(req),
            ("GET", ["projects"]) => self.list_projects(),
            ("POST", ["projects", name]) => self.create_project(name, req),
            ("DELETE", ["projects", name]) => self.remove_project(name),
            ("GET", ["projects", name, "status"]) => self.project_status(name),
            ("GET", ["projects", name, "export"]) => self.project_export(name),
            ("POST", ["projects", name, "plan"]) => self.project_plan(name, req),
            ("POST", ["projects", name, "replan"]) => self.project_replan(name, req, info),
            ("POST", ["projects", name, "run"]) => self.project_run(name, req),
            ("GET", ["trace", scenario]) => self.record_trace(scenario, req),
            // Known resource, wrong verb → 405; anything else → 404.
            (
                _,
                ["metrics"] | ["projects"] | ["projects", ..] | ["trace", _] | ["debug", "flight"],
            ) => Response::error(405, "method not allowed"),
            _ => Response::error(404, "no such route"),
        }
    }

    /// The `/healthz` body: liveness plus the numbers an orchestrator
    /// or `herc top` header wants in one probe.
    fn healthz_body(&self) -> String {
        format!(
            "{{\"status\":\"ok\",\"version\":\"{}\",\"schema\":\"{}\",\
             \"uptime_secs\":{},\"projects\":{},\"wedged\":{}}}",
            env!("CARGO_PKG_VERSION"),
            hercules::PROJECT_CONF_MAGIC,
            self.started.elapsed().as_secs(),
            self.ws.len(),
            self.ws.wedged_projects().len(),
        )
    }

    fn list_projects(&self) -> Response {
        let mut names = self.ws.names();
        if let Some(root) = self.ws.root() {
            for name in Workspace::on_disk_projects(root) {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        names.sort();
        let mut body = String::new();
        for name in names {
            body.push_str(&name);
            body.push('\n');
        }
        Response::text(200, body)
    }

    fn create_project(&self, name: &str, req: &Request) -> Response {
        let team = match parse_num(req, "team", 2usize) {
            Ok(n) => n.max(1),
            Err(resp) => return resp,
        };
        let seed = match parse_num(req, "seed", 42u64) {
            Ok(n) => n,
            Err(resp) => return resp,
        };
        let source = match std::str::from_utf8(&req.body) {
            Ok(s) => s,
            Err(_) => return Response::error(400, "schema body is not UTF-8"),
        };
        if source.trim().is_empty() {
            return Response::error(422, "empty schema body");
        }
        let schema = match parse_schema(source) {
            Ok(schema) => schema,
            Err(e) => return Response::error(422, format!("schema: {e}")),
        };
        match self.ws.create_project(
            name,
            schema,
            ToolLibrary::standard(),
            Team::of_size(team),
            seed,
        ) {
            Ok(_) => Response::text(201, format!("project {name:?} created\n")),
            Err(e) => workspace_error(e),
        }
    }

    fn remove_project(&self, name: &str) -> Response {
        match self.ws.remove_project(name) {
            Ok(()) => Response::text(200, format!("project {name:?} removed\n")),
            Err(e) => workspace_error(e),
        }
    }

    /// Registry lookup with re-open: a restarted server lazily
    /// re-registers on-disk projects from their saved session config.
    fn project(&self, name: &str) -> Result<Arc<Project>, Response> {
        if let Some(project) = self.ws.project(name) {
            return Ok(project);
        }
        if self.ws.root().is_none() {
            return Err(workspace_error(WorkspaceError::UnknownProject(
                name.to_owned(),
            )));
        }
        match self.ws.open_saved_project(name) {
            Ok(project) => Ok(project),
            // Two requests raced to re-open: the loser uses the
            // winner's registration.
            Err(WorkspaceError::DuplicateProject(_)) => self
                .ws
                .project(name)
                .ok_or_else(|| Response::error(500, "project registry race")),
            Err(e) => Err(workspace_error(e)),
        }
    }

    /// Burns the configured simulated session latency (no-op at zero).
    fn session_work(&self) {
        if !self.session_latency.is_zero() {
            std::thread::sleep(self.session_latency);
        }
    }

    fn project_status(&self, name: &str) -> Response {
        let project = match self.project(name) {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        let body = project.read(|h| {
            self.session_work();
            status_body(h)
        });
        Response::text(200, body)
    }

    fn project_export(&self, name: &str) -> Response {
        let project = match self.project(name) {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        match project.read(|h| h.db().try_dump()) {
            Ok(body) => Response::text(200, body),
            Err(e) => Response::error(500, e.to_string()),
        }
    }

    fn project_plan(&self, name: &str, req: &Request) -> Response {
        let Some(target) = req.query_param("target") else {
            return Response::error(400, "plan needs ?target=");
        };
        let project = match self.project(name) {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        let result = project.update(|h| {
            self.session_work();
            h.plan(target)
        });
        match result {
            Ok(plan) => Response::text(200, plan_body(name, target, &plan)),
            Err(e) => Response::error(422, e.to_string()),
        }
    }

    fn project_replan(&self, name: &str, req: &Request, info: &mut RequestInfo) -> Response {
        let Some(target) = req.query_param("target") else {
            return Response::error(400, "replan needs ?target=");
        };
        metrics().replan_requests.inc();
        let project = match self.project(name) {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        let target = target.to_owned();
        let (result, role) = self.coalescer.run(name, || {
            metrics().replan_passes.inc();
            project
                .update(|h| {
                    self.session_work();
                    h.replan(&target)
                })
                .map(|outcome| replan_body(&target, &outcome))
                .map_err(|e| e.to_string())
        });
        if role == Role::Follower {
            metrics().replan_coalesced.inc();
            info.coalesced = true;
        }
        match result {
            Ok(body) => Response::text(200, body),
            Err(message) => Response::error(422, message),
        }
    }

    fn project_run(&self, name: &str, req: &Request) -> Response {
        let Some(target) = req.query_param("target") else {
            return Response::error(400, "run needs ?target=");
        };
        // Per-request execution overrides: `?policy=` picks the
        // scheduling policy, `?workers=N` a simulated uniform cluster.
        // Neither is persisted to the session — two runs with different
        // parameters stay independently reproducible.
        let policy = match req.query_param("policy") {
            None => None,
            Some(s) => match s.parse::<hercules::ExecutionPolicy>() {
                Ok(p) => Some(p),
                Err(e) => return Response::error(422, e),
            },
        };
        let workers = match req.query_param("workers") {
            None => None,
            Some(s) => match s.parse::<usize>() {
                Ok(0) => return Response::error(422, "workers wants at least 1"),
                Ok(n) => Some(n),
                Err(e) => return Response::error(400, format!("workers: {e}")),
            },
        };
        let project = match self.project(name) {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        let result = project.update(|h| {
            self.session_work();
            let policy = policy.unwrap_or(h.execution_policy());
            let cluster = match workers {
                Some(n) => Some(simtools::cluster::Cluster::uniform(n)),
                None => h.cluster().cloned(),
            };
            h.plan(target)?;
            let report = h.execute_with(target, policy, cluster.as_ref())?;
            Ok::<_, hercules::HerculesError>(run_body(name, &report, h))
        });
        match result {
            Ok(body) => Response::text(200, body),
            Err(e) => Response::error(422, e.to_string()),
        }
    }

    fn record_trace(&self, scenario: &str, req: &Request) -> Response {
        let seed = match parse_num(req, "seed", hercules::trace::CHAOS_TRACE_SEED) {
            Ok(n) => n,
            Err(resp) => return resp,
        };
        // The trace collector is process-global and exclusive; a
        // second recording would block a worker for the whole run, so
        // answer 503 instead.
        if self
            .trace_busy
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Response::error(503, "trace collector busy, retry later");
        }
        let result = hercules::trace::record(scenario, seed);
        self.trace_busy.store(false, Ordering::Release);
        match result {
            Ok(trace) => match trace.validate() {
                Ok(()) => Response::json(
                    200,
                    obs::export::to_chrome(&trace, obs::export::Timebase::Logical),
                ),
                Err(e) => Response::error(500, format!("trace invalid: {e}")),
            },
            Err(e) => Response::error(422, e),
        }
    }
}

/// Parses a trace id: 1–16 hex digits, nonzero (0 means "no trace"
/// and must never correlate anything).
fn parse_trace_id(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    if raw.is_empty() || raw.len() > 16 || !raw.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    match u64::from_str_radix(raw, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// `GET /debug/flight[?trace=<hex id>]`: the merged flight-recorder
/// snapshot, optionally restricted to one request's records.
fn debug_flight(req: &Request) -> Response {
    if !Collector::flight_enabled() {
        return Response::error(409, "flight recorder disabled on this server");
    }
    let dump = Collector::flight_dump();
    match req.query_param("trace") {
        None => Response::json(200, dump.to_json()),
        Some(raw) => match parse_trace_id(raw) {
            Some(id) => Response::json(200, dump.filter_trace(id).to_json()),
            None => Response::error(400, "bad ?trace=, want 1-16 hex digits"),
        },
    }
}

/// Appends the trace id and this request's flight tail to a 5xx body.
/// Only server faults are annotated: 2xx/4xx bodies are pinned
/// byte-for-byte by the differential suite and must not change.
fn annotate_fault(response: &mut Response, trace_id: u64) {
    use std::fmt::Write as _;
    let mut tail = format!("\ntrace: {trace_id:016x}\n");
    if Collector::flight_enabled() {
        let dump = Collector::flight_dump().filter_trace(trace_id);
        let mut records: Vec<&obs::FlightRecord> =
            dump.threads.iter().flat_map(|t| &t.records).collect();
        records.sort_by_key(|r| r.mono_ns);
        if !records.is_empty() {
            let skip = records.len().saturating_sub(FAULT_TAIL);
            let _ = writeln!(
                tail,
                "flight tail ({} records, newest last):",
                records.len() - skip
            );
            for r in &records[skip..] {
                let _ = writeln!(tail, "  {:>6}ns {:?} {}", r.mono_ns, r.kind, r.name);
            }
        }
    }
    response.body.extend_from_slice(tail.as_bytes());
}

/// Parses an optional numeric query parameter, or answers 400.
fn parse_num<T: std::str::FromStr>(req: &Request, key: &str, default: T) -> Result<T, Response>
where
    T::Err: std::fmt::Display,
{
    match req.query_param(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|e| Response::error(400, format!("bad {key:?}: {e}"))),
    }
}

/// Maps registry errors onto transport statuses.
fn workspace_error(e: WorkspaceError) -> Response {
    // A damaged on-disk store is a server fault, but a *diagnosed* one:
    // the body carries the typed corruption report and the remedy,
    // instead of the panic (then connection reset) this used to be.
    if let WorkspaceError::Store(metadata::StoreError::Corruption(report)) = &e {
        return Response::error(
            500,
            format!("store corruption: {report}; run `herc fsck --repair` on the workspace root"),
        );
    }
    let status = match &e {
        WorkspaceError::UnknownProject(_) => 404,
        WorkspaceError::DuplicateProject(_) => 409,
        WorkspaceError::InvalidName(_) => 400,
        WorkspaceError::Hercules(_) => 422,
        WorkspaceError::SessionConfig { .. } | WorkspaceError::Store(_) => 500,
        // `WorkspaceError` is non_exhaustive; future variants are
        // server faults until mapped.
        _ => 500,
    };
    Response::error(status, e.to_string())
}

// ---------------------------------------------------------------------
// Rendering: shared with the differential suite. These are the *only*
// places response bodies are produced from kernel results.
// ---------------------------------------------------------------------

/// The status body: byte-identical to `herc ws status` output.
pub fn status_body(h: &Hercules) -> String {
    let mut out = String::new();
    write_status(&mut out, h);
    out
}

/// Appends the status body to `out`: the report's table, written in
/// one pass into a buffer sized for it, then the variance line.
fn write_status(out: &mut String, h: &Hercules) {
    use std::fmt::Write as _;
    let status = h.status();
    out.reserve(status.text_capacity() + 96);
    let _ = status.write_to(out);
    let _ = writeln!(out, "variance: {}", status.variance());
}

/// The plan body: byte-identical to `herc ws plan` output.
pub fn plan_body(project: &str, target: &str, plan: &SchedulePlan) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(96 + plan.activities().len() * 64);
    let _ = writeln!(
        out,
        "proposed schedule for {target:?} in project {project:?}:"
    );
    for pa in plan.activities() {
        out.push_str("  ");
        let _ = write_padded(&mut out, &pa.activity, 16);
        out.push_str(" [");
        let _ = pa.start.write_to(&mut out);
        out.push_str(" .. ");
        let _ = (pa.start + pa.duration).write_to(&mut out);
        out.push_str(if pa.critical { "] * " } else { "]   " });
        out.push_str(&pa.assignee);
        out.push('\n');
    }
    out.push_str("proposed finish: day ");
    let _ = plan.project_finish().write_to(&mut out);
    out.push('\n');
    out
}

/// The replan body: new schedule-instance versions plus the proposed
/// finish.
pub fn replan_body(target: &str, outcome: &ReplanOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(96 + outcome.len() * 32);
    let _ = writeln!(
        out,
        "replanned {} activit{} for {target:?}:",
        outcome.len(),
        if outcome.len() == 1 { "y" } else { "ies" }
    );
    for (activity, id) in &outcome.replanned {
        out.push_str("  ");
        let _ = write_padded(&mut out, activity, 16);
        let _ = writeln!(out, " {id}");
    }
    out.push_str("proposed finish: day ");
    let _ = outcome.project_finish.write_to(&mut out);
    out.push('\n');
    out
}

/// The run body: the `herc ws run` summary line plus the post-run
/// status report.
pub fn run_body(project: &str, report: &ExecutionReport, h: &Hercules) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "project {project:?}: executed {} activities in {} runs, finished day {}\n\n",
        report.activities().len(),
        report.total_runs(),
        report.finished_at()
    );
    write_status(&mut out, h);
    out
}

/// Stable endpoint class for metrics/latency labels.
fn route_class(req: &Request) -> &'static str {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        (_, ["healthz"]) => "healthz",
        (_, ["metrics"]) => "metrics",
        (_, ["debug", "flight"]) => "debug.flight",
        ("GET", ["projects"]) => "projects.list",
        ("POST", ["projects", _]) => "projects.create",
        ("DELETE", ["projects", _]) => "projects.remove",
        (_, ["projects", _, "status"]) => "status",
        (_, ["projects", _, "export"]) => "export",
        (_, ["projects", _, "plan"]) => "plan",
        (_, ["projects", _, "replan"]) => "replan",
        (_, ["projects", _, "run"]) => "run",
        (_, ["trace", ..]) => "trace",
        _ => "other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::examples;

    fn request(method: &str, path_q: &str, body: &[u8]) -> Request {
        let raw = format!(
            "{method} {path_q} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut bytes = raw.into_bytes();
        bytes.extend_from_slice(body);
        match crate::http::read_request(&mut std::io::Cursor::new(bytes)) {
            crate::http::ReadOutcome::Request(req) => req,
            other => panic!("test request failed to parse: {other:?}"),
        }
    }

    fn api() -> Api {
        Api::new(Arc::new(Workspace::in_memory()), ApiConfig::default())
    }

    #[test]
    fn healthz_is_unauthenticated() {
        let tokens = TokenRegistry::parse("alice:tok").unwrap();
        let api = Api::new(
            Arc::new(Workspace::in_memory()),
            ApiConfig {
                tokens,
                ..ApiConfig::default()
            },
        );
        let resp = api.handle(&request("GET", "/healthz", b""));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8_lossy(&resp.body).into_owned();
        let health = obs::export::parse_json(&body).expect("healthz is JSON");
        assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(
            health.get("version").and_then(|v| v.as_str()),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert_eq!(
            health.get("schema").and_then(|v| v.as_str()),
            Some(hercules::PROJECT_CONF_MAGIC)
        );
        assert!(health.get("uptime_secs").and_then(|v| v.as_f64()).is_some());
        // …but everything else requires the bearer token, including the
        // flight recorder dump.
        let resp = api.handle(&request("GET", "/projects", b""));
        assert_eq!(resp.status, 401);
        let resp = api.handle(&request("GET", "/debug/flight", b""));
        assert_eq!(resp.status, 401);
    }

    #[test]
    fn trace_ids_are_parsed_echoed_or_generated() {
        assert_eq!(parse_trace_id("00000000deadbeef"), Some(0xdead_beef));
        assert_eq!(parse_trace_id("  ff  "), Some(0xff));
        assert_eq!(parse_trace_id("0"), None, "zero is not a trace id");
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id("00000000000000001"), None, "too long");

        let api = api();
        // Client-supplied id echoes back verbatim (zero-padded hex).
        let mut req = request("GET", "/projects", b"");
        req.headers
            .push(("x-herc-trace".to_owned(), "beef".to_owned()));
        let resp = api.handle(&req);
        let echoed = resp
            .extra_headers
            .iter()
            .find(|(name, _)| name == "x-herc-trace")
            .map(|(_, value)| value.as_str());
        assert_eq!(echoed, Some("000000000000beef"));
        // Absent header ⇒ a fresh nonzero id, still echoed.
        let resp = api.handle(&request("GET", "/projects", b""));
        let echoed = resp
            .extra_headers
            .iter()
            .find(|(name, _)| name == "x-herc-trace")
            .map(|(_, value)| value.as_str())
            .expect("generated id echoed");
        assert_eq!(echoed.len(), 16);
        assert_ne!(echoed, "0000000000000000");
    }

    #[test]
    fn fault_bodies_carry_the_trace_id_and_flight_tail() {
        let mut resp = Response::error(500, "store corruption: …");
        annotate_fault(&mut resp, 0xdead_beef);
        let body = String::from_utf8_lossy(&resp.body);
        assert!(body.contains("trace: 00000000deadbeef"), "{body}");
        // 4xx bodies are differential-pinned and must stay untouched:
        // the router only calls annotate_fault for status >= 500.
        let api = api();
        let resp = api.handle(&request("GET", "/nope", b""));
        assert_eq!(resp.status, 404);
        assert!(!String::from_utf8_lossy(&resp.body).contains("trace:"));
    }

    #[test]
    fn project_lifecycle_over_the_api() {
        let api = api();
        let source = examples::circuit_design().to_source();
        let source = format!("schema circuit;\n{source}");
        let resp = api.handle(&request(
            "POST",
            "/projects/alu?team=2&seed=7",
            source.as_bytes(),
        ));
        assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
        // Duplicate create → 409.
        let resp = api.handle(&request("POST", "/projects/alu", source.as_bytes()));
        assert_eq!(resp.status, 409);
        // Listing shows it.
        let resp = api.handle(&request("GET", "/projects", b""));
        assert_eq!(String::from_utf8_lossy(&resp.body), "alu\n");
        // Plan → run → status.
        let resp = api.handle(&request(
            "POST",
            "/projects/alu/plan?target=performance",
            b"",
        ));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let resp = api.handle(&request(
            "POST",
            "/projects/alu/run?target=performance",
            b"",
        ));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let resp = api.handle(&request("GET", "/projects/alu/status", b""));
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8_lossy(&resp.body).contains("variance: "));
        // Export dumps the db.
        let resp = api.handle(&request("GET", "/projects/alu/export", b""));
        assert!(String::from_utf8_lossy(&resp.body).starts_with("metadata-db v1"));
        // Remove, then 404.
        let resp = api.handle(&request("DELETE", "/projects/alu", b""));
        assert_eq!(resp.status, 200);
        let resp = api.handle(&request("GET", "/projects/alu/status", b""));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn kernel_errors_map_to_422() {
        let api = api();
        let source = examples::circuit_design().to_source();
        let source = format!("schema circuit;\n{source}");
        api.handle(&request("POST", "/projects/alu", source.as_bytes()));
        let resp = api.handle(&request("POST", "/projects/alu/plan?target=nonsense", b""));
        assert_eq!(resp.status, 422);
        let resp = api.handle(&request("POST", "/projects/alu/plan", b""));
        assert_eq!(resp.status, 400, "missing target is a request error");
    }

    #[test]
    fn bad_schema_bodies_are_422_not_500() {
        let api = api();
        let resp = api.handle(&request("POST", "/projects/alu", b"entity gibberish {{{"));
        assert_eq!(resp.status, 422);
        let resp = api.handle(&request("POST", "/projects/alu", b""));
        assert_eq!(resp.status, 422);
    }

    #[test]
    fn unknown_routes_and_verbs() {
        let api = api();
        assert_eq!(api.handle(&request("GET", "/nope", b"")).status, 404);
        assert_eq!(api.handle(&request("PATCH", "/projects", b"")).status, 405);
        assert_eq!(api.handle(&request("POST", "/healthz", b"")).status, 405);
    }

    #[test]
    fn corrupt_store_on_lazy_reopen_is_a_typed_500() {
        let root = std::env::temp_dir().join(format!(
            "schedflow-serve-corrupt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        {
            let api = Api::new(Arc::new(Workspace::persistent(&root)), ApiConfig::default());
            let source = examples::circuit_design().to_source();
            let source = format!("schema circuit;\n{source}");
            let resp = api.handle(&request("POST", "/projects/alu?seed=7", source.as_bytes()));
            assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
            let resp = api.handle(&request(
                "POST",
                "/projects/alu/plan?target=performance",
                b"",
            ));
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        }
        // Damage an interior tail record, then serve the root afresh:
        // the lazy reopen must answer a diagnosed 500, not panic the
        // worker (which the client would see as a connection reset).
        let tail = root.join("alu/tail-0.journal");
        let text = std::fs::read_to_string(&tail).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        assert!(lines.len() > 3, "need interior records: {text}");
        lines[2] = lines[2].chars().rev().collect();
        std::fs::write(&tail, lines.join("\n") + "\n").unwrap();
        let api = Api::new(Arc::new(Workspace::persistent(&root)), ApiConfig::default());
        let resp = api.handle(&request("GET", "/projects/alu/status", b""));
        assert_eq!(resp.status, 500);
        let body = String::from_utf8_lossy(&resp.body);
        assert!(body.contains("store corruption"), "body: {body}");
        assert!(
            body.contains("fsck"),
            "body should point at the remedy: {body}"
        );
        // The server is still alive and serving other routes.
        assert_eq!(api.handle(&request("GET", "/projects", b"")).status, 200);
        let _ = std::fs::remove_dir_all(&root);
    }
}
