//! A trace captured on a live server contains only the traced work.
//!
//! `GET /trace/fig8` records the paper's Fig. 8 session on the worker
//! that handles the request. While two other clients loop on status
//! and replan requests — other workers running spans of their own, with
//! the flight recorder on — the recorded trace must export the same
//! logical Chrome JSON as on an idle server.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use hercules::Workspace;
use schema::examples;
use serve::{Client, Server, ServerConfig};

fn schema_source() -> String {
    format!(
        "schema circuit;\n{}",
        examples::circuit_design().to_source()
    )
}

#[test]
fn trace_on_a_busy_server_matches_an_idle_one() {
    let server = Server::start(
        Arc::new(Workspace::in_memory()),
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let client = Client::new(server.addr());
    let resp = client
        .post("/projects/alu?team=2&seed=7", schema_source().as_bytes())
        .expect("create");
    assert_eq!(resp.status, 201, "{}", resp.body);
    let resp = client
        .post("/projects/alu/plan?target=performance", b"")
        .expect("plan");
    assert_eq!(resp.status, 200, "{}", resp.body);

    let idle = client.get("/trace/fig8").expect("idle trace");
    assert_eq!(idle.status, 200, "{}", idle.body);
    assert!(idle.body.contains("hercules.plan"), "{}", idle.body);

    let stop = AtomicBool::new(false);
    let served = AtomicUsize::new(0);
    let busy = std::thread::scope(|scope| {
        for replan in [false, true] {
            let (stop, served) = (&stop, &served);
            let addr = server.addr();
            scope.spawn(move || {
                let client = Client::new(addr);
                while !stop.load(Ordering::Relaxed) {
                    let resp = if replan {
                        client.post("/projects/alu/replan?target=performance", b"")
                    } else {
                        client.get("/projects/alu/status")
                    };
                    if !resp.is_ok_and(|r| r.status == 200) {
                        break;
                    }
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Trace until three recordings overlapped load traffic. Nothing
        // in this loop panics, so the loaders are always stopped.
        let mut busy = Vec::new();
        for _ in 0..50 {
            let before = served.load(Ordering::Relaxed);
            let Ok(resp) = client.get("/trace/fig8") else {
                break;
            };
            if served.load(Ordering::Relaxed) > before {
                busy.push(resp);
                if busy.len() == 3 {
                    break;
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        busy
    });
    assert_eq!(busy.len(), 3, "load never overlapped a trace");
    for resp in busy {
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(
            resp.body, idle.body,
            "a trace taken under load differs from the idle one"
        );
    }
    server.shutdown();
}
