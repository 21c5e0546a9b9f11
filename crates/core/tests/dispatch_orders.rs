//! The dispatch orders of the schedule-reading policies, pinned: for
//! MinSlack and HEFT, each activity the engine dispatched and the
//! worker it ran on, in order. The scenarios are `asic_flow` (team 3,
//! seed 7), `asic_flow` again after `netlist` already ran (so completed
//! work sits in the tree), and `layered(20, 50, 3)` (team 8, seed
//! 1995), each once planned (or, after `netlist`, replanned) first and
//! once executed with no plan for the target (`_unplanned`), on the
//! implicit per-designer cluster and on a heterogeneous four-worker
//! cluster with a network profile. The
//! expected orders are in `artifacts/dispatch_orders.txt`, one scenario
//! per line. Regenerate (deliberately, and review the diff) with
//!
//! ```text
//! cargo test -p hercules --test dispatch_orders -- --ignored regenerate
//! ```

use std::path::PathBuf;

use hercules::policy::{Dispatch, DispatchContext};
use hercules::{ExecutionPolicy, Hercules, SchedulingPolicy};
use schema::examples;
use simtools::cluster::Cluster;
use simtools::workload::Team;
use simtools::ToolLibrary;

/// A built-in policy that records what it dispatches: `activity@worker`,
/// the worker being the bound one on the implicit cluster.
#[derive(Debug)]
struct Recorded {
    inner: Box<dyn SchedulingPolicy + Send>,
    order: Vec<String>,
}

impl SchedulingPolicy for Recorded {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &DispatchContext<'_>) -> Dispatch {
        let dispatch = self.inner.select(ctx);
        let task = &ctx.ready[dispatch.task];
        let worker = task.home_worker.unwrap_or(dispatch.worker);
        self.order.push(format!("{}@{worker}", task.activity));
        dispatch
    }

    fn needs_schedule_metrics(&self) -> bool {
        self.inner.needs_schedule_metrics()
    }
}

/// The manager of flow `flow` for `target`: with `before` planned and
/// executed under Fifo first, and then, when `plan`, the open work
/// planned (replanned after `before`).
fn manager(flow: &str, target: &str, before: Option<&str>, plan: bool) -> Hercules {
    let (schema, team, seed) = match flow.starts_with("asic_flow") {
        true => (examples::asic_flow(), 3, 7),
        false => (examples::layered(20, 50, 3), 8, 1995),
    };
    let mut h = Hercules::new(schema, ToolLibrary::standard(), Team::of_size(team), seed);
    if let Some(before) = before {
        h.plan(before).expect("the earlier target plans");
        h.execute(before).expect("the earlier target executes");
    }
    match (plan, before) {
        (true, Some(_)) => h.replan(target).map(drop).expect("the open work replans"),
        (true, None) => h.plan(target).map(drop).expect("the flow plans"),
        (false, _) => {}
    }
    h
}

/// Every scenario and its dispatch order, one line each.
fn orders() -> String {
    let flows = [
        ("asic_flow", "signoff_report", None),
        ("asic_flow_after_netlist", "signoff_report", Some("netlist")),
        ("layered_20_50_3", "merged", None),
    ];
    let clusters = [
        ("implicit", None),
        (
            "heterogeneous",
            Some(Cluster::heterogeneous(4, 21).with_network(0.02, 0.01)),
        ),
    ];
    let mut out = String::new();
    for (plan, suffix) in [(true, ""), (false, "_unplanned")] {
        for (flow, target, before) in flows {
            for (cluster_name, cluster) in &clusters {
                for policy in [ExecutionPolicy::MinSlack, ExecutionPolicy::Heft] {
                    let mut h = manager(flow, target, before, plan);
                    let mut recorded = Recorded {
                        inner: policy.build(),
                        order: Vec::new(),
                    };
                    h.execute_with_policy(target, &mut recorded, cluster.as_ref())
                        .expect("the flow executes");
                    out.push_str(&format!(
                        "{flow}{suffix} {cluster_name} {policy}: {}\n",
                        recorded.order.join(" ")
                    ));
                }
            }
        }
    }
    out
}

fn orders_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/dispatch_orders.txt")
}

#[test]
fn minslack_and_heft_dispatch_the_pinned_orders() {
    let path = orders_path();
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nregenerate with: cargo test -p hercules \
             --test dispatch_orders -- --ignored regenerate",
            path.display()
        )
    });
    let actual = orders();
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(want, got, "a dispatch order moved");
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}

/// Rewrites the expected orders from the engine as it is. Ignored by
/// default; run explicitly when an order changes deliberately.
#[test]
#[ignore = "writes the orders artifact; run explicitly after a deliberate change"]
fn regenerate() {
    std::fs::write(orders_path(), orders()).expect("write the orders artifact");
}
