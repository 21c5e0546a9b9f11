//! Differential conformance: the server is a **pure transport** over
//! the workspace kernel.
//!
//! For seeded scenario scripts we drive the *same* operation sequence
//! twice — through the HTTP client against a served workspace, and
//! through direct `Workspace` calls against a twin workspace with
//! identical seeds — and assert byte-identical response bodies
//! (status reports, plan renderings, run summaries, replan outcomes),
//! identical schedule-instance versions, and identical full database
//! dumps at the end. Any divergence means the server added semantics
//! of its own, which is exactly what it must never do.

use std::sync::Arc;

use hercules::{Project, Workspace};
use serve::{plan_body, replan_body, run_body, status_body, Client, Server, ServerConfig};
use simtools::{workload::Team, ToolLibrary};

/// Deterministic splitmix64 so scenario scripts are a pure function of
/// their seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One scripted operation against a named project.
#[derive(Debug, Clone, Copy)]
enum Op {
    Plan,
    Run,
    Replan,
    Status,
}

const PROJECTS: &[(&str, u64)] = &[("alu", 7), ("fpu", 11), ("cache", 23)];
const TARGETS: &[&str] = &["performance", "netlist"];

fn schema_source() -> String {
    format!(
        "schema circuit;\n{}",
        schema::examples::circuit_design().to_source()
    )
}

/// Builds the scripted op sequence for one seed: interleaved ops
/// across the three projects, hitting both targets.
fn script(seed: u64, len: usize) -> Vec<(usize, Op, &'static str)> {
    let mut rng = Rng(seed);
    (0..len)
        .map(|_| {
            let project = rng.below(PROJECTS.len() as u64) as usize;
            let op = match rng.below(10) {
                0..=2 => Op::Plan,
                3..=4 => Op::Run,
                5..=6 => Op::Replan,
                _ => Op::Status,
            };
            let target = TARGETS[rng.below(TARGETS.len() as u64) as usize];
            (project, op, target)
        })
        .collect()
}

/// Applies one op directly to the kernel and returns the rendered body
/// via the same pure render functions the server uses — plus whether
/// the kernel call failed (to line up with HTTP 422s).
fn apply_direct(
    project: &Arc<Project>,
    name: &str,
    op: Op,
    target: &str,
) -> Result<String, String> {
    match op {
        Op::Plan => project
            .update(|h| h.plan(target))
            .map(|plan| plan_body(name, target, &plan))
            .map_err(|e| e.to_string()),
        Op::Run => project
            .update(|h| {
                h.plan(target)?;
                let report = h.execute(target)?;
                Ok::<_, hercules::HerculesError>(run_body(name, &report, h))
            })
            .map_err(|e| e.to_string()),
        Op::Replan => project
            .update(|h| h.replan(target))
            .map(|outcome| replan_body(target, &outcome))
            .map_err(|e| e.to_string()),
        Op::Status => Ok(project.read(status_body)),
    }
}

/// Applies the same op over HTTP. 2xx ⇒ Ok(body), 422 ⇒ Err(kernel
/// message inside the error body).
fn apply_http(client: &Client, name: &str, op: Op, target: &str) -> Result<String, String> {
    let response = match op {
        Op::Plan => client
            .post(&format!("/projects/{name}/plan?target={target}"), b"")
            .expect("http plan"),
        Op::Run => client
            .post(&format!("/projects/{name}/run?target={target}"), b"")
            .expect("http run"),
        Op::Replan => client
            .post(&format!("/projects/{name}/replan?target={target}"), b"")
            .expect("http replan"),
        Op::Status => client
            .get(&format!("/projects/{name}/status"))
            .expect("http status"),
    };
    match response.status {
        200 => Ok(response.body),
        422 => Err(response
            .body
            .strip_prefix("error: ")
            .unwrap_or(&response.body)
            .trim_end()
            .to_owned()),
        other => panic!(
            "unexpected HTTP {other} for {op:?} {name}/{target}: {}",
            response.body
        ),
    }
}

fn run_scenario(seed: u64, ops: usize) {
    // Served side: in-memory workspace behind a real TCP server.
    let served_ws = Arc::new(Workspace::in_memory());
    let server = Server::start(Arc::clone(&served_ws), ServerConfig::default()).expect("bind");
    let client = Client::new(server.addr());

    // Twin side: direct kernel calls, same seeds.
    let direct_ws = Workspace::in_memory();
    let source = schema_source();
    let mut direct_projects = Vec::new();
    for (name, project_seed) in PROJECTS {
        let resp = client
            .post(
                &format!("/projects/{name}?team=2&seed={project_seed}"),
                source.as_bytes(),
            )
            .expect("create over http");
        assert_eq!(resp.status, 201, "{}", resp.body);
        let project = direct_ws
            .create_project(
                name,
                schema::examples::circuit_design(),
                ToolLibrary::standard(),
                Team::of_size(2),
                *project_seed,
            )
            .expect("create direct");
        direct_projects.push(project);
    }

    for (step, (idx, op, target)) in script(seed, ops).into_iter().enumerate() {
        let (name, _) = PROJECTS[idx];
        let via_http = apply_http(&client, name, op, target);
        let via_kernel = apply_direct(&direct_projects[idx], name, op, target);
        assert_eq!(
            via_http, via_kernel,
            "seed {seed} step {step}: {op:?} {name}/{target} diverged"
        );
    }

    // Endgame: the full database dumps — every run, plan version,
    // dependency link, and generation stamp — must match byte for
    // byte, and so must the final status reports.
    for (idx, (name, _)) in PROJECTS.iter().enumerate() {
        let export = client
            .get(&format!("/projects/{name}/export"))
            .expect("http export");
        assert_eq!(export.status, 200);
        let direct_dump = direct_projects[idx].read(|h| h.db().dump());
        assert_eq!(
            export.body, direct_dump,
            "seed {seed}: {name} database dumps diverged"
        );
        let status = client
            .get(&format!("/projects/{name}/status"))
            .expect("http status");
        let direct_status = direct_projects[idx].read(status_body);
        assert_eq!(status.body, direct_status);
        // Plan versions, explicitly: the versioned schedule instances
        // are the paper's core bookkeeping.
        fn plan_versions(h: &hercules::Hercules) -> Vec<(String, Option<u32>)> {
            let mut v: Vec<(String, Option<u32>)> = h
                .db()
                .activities()
                .map(|a| (a.to_owned(), h.db().current_plan(a).map(|p| p.version())))
                .collect();
            v.sort();
            v
        }
        let versions = direct_projects[idx].read(plan_versions);
        let served_versions = served_ws
            .project(name)
            .expect("served project registered")
            .read(plan_versions);
        assert_eq!(
            versions, served_versions,
            "seed {seed}: {name} plan versions diverged"
        );
    }

    server.shutdown();
}

#[test]
fn seeded_scripts_are_transport_invariant() {
    for seed in [1, 2, 3, 5, 8, 13] {
        run_scenario(seed, 24);
    }
}

#[test]
fn long_mixed_scenario_is_transport_invariant() {
    run_scenario(0xD1FF, 64);
}

#[test]
fn run_policy_and_workers_params_are_transport_invariant() {
    // `?policy=` / `?workers=` on the run endpoint must be pure
    // pass-throughs to `execute_with` — same bodies, same final dumps,
    // per policy, on both the implicit and an explicit substrate.
    use simtools::cluster::Cluster;

    let ws = Arc::new(Workspace::in_memory());
    let server = Server::start(Arc::clone(&ws), ServerConfig::default()).expect("bind");
    let client = Client::new(server.addr());
    let direct_ws = Workspace::in_memory();
    let source = schema_source();

    for (i, policy) in hercules::ExecutionPolicy::ALL.into_iter().enumerate() {
        for workers in [None, Some(3usize)] {
            let name = format!("p{i}w{}", workers.unwrap_or(0));
            let seed = 17 + i as u64;
            let resp = client
                .post(
                    &format!("/projects/{name}?team=2&seed={seed}"),
                    source.as_bytes(),
                )
                .expect("create over http");
            assert_eq!(resp.status, 201, "{}", resp.body);
            let direct = direct_ws
                .create_project(
                    &name,
                    schema::examples::circuit_design(),
                    ToolLibrary::standard(),
                    Team::of_size(2),
                    seed,
                )
                .expect("create direct");

            let mut url = format!("/projects/{name}/run?target=performance&policy={policy}");
            if let Some(n) = workers {
                url.push_str(&format!("&workers={n}"));
            }
            let resp = client.post(&url, b"").expect("http run");
            assert_eq!(resp.status, 200, "{}", resp.body);
            let cluster = workers.map(Cluster::uniform);
            let direct_body = direct
                .update(|h| {
                    h.plan("performance")?;
                    let report = h.execute_with("performance", policy, cluster.as_ref())?;
                    Ok::<_, hercules::HerculesError>(run_body(&name, &report, h))
                })
                .expect("direct run");
            assert_eq!(resp.body, direct_body, "{policy} run body diverged");

            let export = client
                .get(&format!("/projects/{name}/export"))
                .expect("http export");
            assert_eq!(
                export.body,
                direct.read(|h| h.db().dump()),
                "{policy} database dumps diverged"
            );
        }
    }

    // Bad parameters answer without touching the project.
    let resp = client
        .post("/projects/p0w0/run?target=performance&policy=random", b"")
        .expect("http run");
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("minslack"), "{}", resp.body);
    let resp = client
        .post("/projects/p0w0/run?target=performance&workers=0", b"")
        .expect("http run");
    assert_eq!(resp.status, 422, "{}", resp.body);
    let resp = client
        .post(
            &format!(
                "/projects/p0w0/run?target=performance&workers={}",
                serve::api::MAX_RUN_WORKERS + 1
            ),
            b"",
        )
        .expect("http run");
    assert_eq!(resp.status, 422, "{}", resp.body);
    let resp = client
        .post(
            "/projects/nobody/run?target=performance&workers=9999999999",
            b"",
        )
        .expect("http run");
    assert_eq!(resp.status, 422, "{}", resp.body);
    // An oversized team is refused before the schema is read, and no
    // project is left behind; `team=0` still means a team of one.
    let resp = client
        .post(
            &format!("/projects/huge?team={}", serve::api::MAX_TEAM + 1),
            b"not a schema",
        )
        .expect("http create");
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("team wants at most"), "{}", resp.body);
    let resp = client.get("/projects").expect("http list");
    assert!(
        !resp.body.lines().any(|name| name == "huge"),
        "{}",
        resp.body
    );
    let resp = client
        .post("/projects/solo?team=0&seed=5", source.as_bytes())
        .expect("http create");
    assert_eq!(resp.status, 201, "{}", resp.body);
    let solo = ws.project("solo").expect("created");
    assert_eq!(solo.read(|h| h.team().len()), 1);
    server.shutdown();
}

#[test]
fn error_paths_are_transport_invariant_too() {
    // Unknown targets and replans-before-plans must produce the same
    // kernel error text over HTTP as in-process.
    let ws = Arc::new(Workspace::in_memory());
    let server = Server::start(Arc::clone(&ws), ServerConfig::default()).expect("bind");
    let client = Client::new(server.addr());
    let resp = client
        .post("/projects/solo?team=2&seed=3", schema_source().as_bytes())
        .expect("create");
    assert_eq!(resp.status, 201);

    let direct_ws = Workspace::in_memory();
    let direct = direct_ws
        .create_project(
            "solo",
            schema::examples::circuit_design(),
            ToolLibrary::standard(),
            Team::of_size(2),
            3,
        )
        .expect("create direct");

    for (op, target) in [
        (Op::Plan, "nonsense"),
        (Op::Run, "bogus"),
        (Op::Replan, "nope"),
    ] {
        let via_http = apply_http(&client, "solo", op, target);
        let via_kernel = apply_direct(&direct, "solo", op, target);
        assert_eq!(via_http, via_kernel, "{op:?} {target} error text diverged");
        assert!(via_http.is_err(), "{op:?} on a bad target must fail");
    }
    server.shutdown();
}
