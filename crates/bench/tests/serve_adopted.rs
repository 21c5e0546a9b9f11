//! A project registered through `Workspace::register` with the B12
//! and B13 benches' `slow_manager` serves the same bytes as one made by
//! `Workspace::create_project`: the store's latency changes when a
//! write lands, never what is written or rendered.

use bench::kernels::slow_commits::slow_manager;
use hercules::Workspace;
use schema::examples;
use serve::{Client, Server, ServerConfig};
use simtools::workload::Team;
use simtools::ToolLibrary;
use std::sync::Arc;

const SEED: u64 = 5;

/// Every served body of a fixed session against project `p`, with its
/// status code, in request order.
fn session_bodies(ws: Arc<Workspace>) -> Vec<(u16, String)> {
    let server = Server::start(
        ws,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let client = Client::new(server.addr());
    let steps: [(&str, &str); 8] = [
        ("GET", "/projects/p/status"),
        ("POST", "/projects/p/plan?target=signoff_report"),
        ("POST", "/projects/p/replan?target=signoff_report"),
        (
            "POST",
            "/projects/p/run?target=netlist&policy=heft&workers=2",
        ),
        ("GET", "/projects/p/status"),
        ("POST", "/projects/p/replan?target=signoff_report"),
        ("POST", "/projects/p/run?target=signoff_report"),
        ("GET", "/projects/p/export"),
    ];
    let bodies = steps
        .iter()
        .map(|&(method, path)| {
            let resp = match method {
                "GET" => client.get(path),
                _ => client.post(path, b""),
            }
            .expect("request");
            (resp.status, resp.body)
        })
        .collect();
    server.shutdown();
    bodies
}

#[test]
fn registered_project_serves_the_bytes_of_a_created_one() {
    let created = Arc::new(Workspace::in_memory());
    created
        .create_project(
            "p",
            examples::asic_flow(),
            ToolLibrary::standard(),
            Team::of_size(3),
            SEED,
        )
        .expect("fresh project");

    let registered = Arc::new(Workspace::in_memory());
    registered
        .register("p", slow_manager(SEED))
        .expect("fresh name");

    let expected = session_bodies(created);
    assert!(
        expected.iter().all(|(status, _)| *status == 200),
        "{expected:?}"
    );
    assert_eq!(session_bodies(registered), expected);
}
