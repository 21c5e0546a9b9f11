//! Directed-acyclic-graph substrate for design flow management.
//!
//! Design flow management systems — the Roadmap Model, ELSIS, Hercules,
//! the Berkeley History Model, Hilda, VOV — all represent a design
//! process as a graph of activities and data linked by dependencies
//! (Level 2 of the four-level architecture surveyed in Johnson &
//! Brockman, DAC 1995). This crate provides the graph machinery those
//! levels are built from:
//!
//! * [`Dag`] — a stable-keyed directed graph with acyclicity enforced at
//!   edge-insertion time, so flow models are DAGs *by construction*.
//! * Traversals — Kahn topological order, the post-order walk Hercules
//!   uses for both schedule planning and task execution, DFS and BFS.
//! * Analyses — input/output cones (the "scope of the intended task"),
//!   longest paths (the backbone of critical-path scheduling), level
//!   assignment, transitive reduction, and graph statistics.
//! * [`builder::DagBuilder`] — ergonomic construction from string keys.
//!
//! # Example
//!
//! ```
//! use flowgraph::Dag;
//!
//! # fn main() -> Result<(), flowgraph::GraphError> {
//! let mut flow = Dag::new();
//! let netlist = flow.add_node("netlist");
//! let stimuli = flow.add_node("stimuli");
//! let performance = flow.add_node("performance");
//! flow.add_edge(netlist, performance, "simulate")?;
//! flow.add_edge(stimuli, performance, "simulate")?;
//!
//! // Planning and execution both run "from primary inputs to outputs".
//! let order = flow.topological_order()?;
//! assert_eq!(order.last(), Some(&performance));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod dag;
mod error;
mod traversal;

pub mod builder;

pub use analysis::{GraphStats, LongestPath};
pub use dag::{Dag, EdgeId, EdgeRef, NodeId, NodeRef};
pub use error::GraphError;
pub use traversal::{Bfs, Dfs, PostOrder};
