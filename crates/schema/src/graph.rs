use std::collections::HashMap;

use flowgraph::{Dag, NodeId};

use crate::model::{EntityKind, TaskSchema};

/// A node of the schema's bipartite flow graph: either a data class or
/// an activity (construction rule).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SchemaNode {
    /// A data class, identified by name.
    Data(String),
    /// An activity, identified by its label.
    Activity(String),
}

impl SchemaNode {
    /// The underlying name, whichever variant.
    pub fn name(&self) -> &str {
        match self {
            SchemaNode::Data(n) | SchemaNode::Activity(n) => n,
        }
    }

    /// Returns `true` for [`SchemaNode::Activity`].
    pub fn is_activity(&self) -> bool {
        matches!(self, SchemaNode::Activity(_))
    }
}

impl std::fmt::Display for SchemaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaNode::Data(n) => write!(f, "[{n}]"),
            SchemaNode::Activity(n) => write!(f, "({n})"),
        }
    }
}

/// The bipartite projection of a [`TaskSchema`] onto the DAG substrate:
/// `input data -> activity -> output data` edges for every rule.
///
/// This is the Level-1 graph that Level-2 task trees are extracted
/// from. Hercules initialises its task database by walking this graph
/// and creating a container per entity ("the Hercules task database is
/// initialized from the schema by generating a series of containers").
/// Validation builds it once, to reject cycles and to fix the
/// dependency order; the schema keeps that order, so extracting a task
/// tree ([`TaskSchema::rules_for_target`]) does not rebuild the graph.
///
/// # Example
///
/// ```
/// use schema::{examples, SchemaGraph};
///
/// # fn main() -> Result<(), schema::SchemaError> {
/// let schema = examples::circuit_design();
/// let graph = SchemaGraph::for_schema(&schema);
/// assert_eq!(graph.activity_order(), vec!["Create", "Simulate"]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SchemaGraph {
    dag: Dag<SchemaNode, ()>,
    data_nodes: HashMap<String, NodeId>,
    activity_nodes: HashMap<String, NodeId>,
}

impl SchemaGraph {
    /// Builds the graph, returning `Err(activity)` naming a rule on a
    /// dependency cycle if the schema is cyclic.
    ///
    /// Exposed to the crate so validation can reuse the cycle check;
    /// external callers should use [`SchemaGraph::for_schema`] on an
    /// already-validated schema.
    pub(crate) fn new(schema: &TaskSchema) -> Result<Self, String> {
        let mut dag = Dag::new();
        let mut data_nodes = HashMap::new();
        let mut activity_nodes = HashMap::new();
        for class in schema.classes() {
            if class.kind() == EntityKind::Data {
                let id = dag.add_node(SchemaNode::Data(class.name().to_owned()));
                data_nodes.insert(class.name().to_owned(), id);
            }
        }
        for rule in schema.rules() {
            let a = dag.add_node(SchemaNode::Activity(rule.activity().to_owned()));
            activity_nodes.insert(rule.activity().to_owned(), a);
            for input in rule.inputs() {
                let d = data_nodes[input.as_str()];
                dag.add_edge(d, a, ())
                    .map_err(|_| rule.activity().to_owned())?;
            }
            let out = data_nodes[rule.output()];
            dag.add_edge(a, out, ())
                .map_err(|_| rule.activity().to_owned())?;
        }
        Ok(SchemaGraph {
            dag,
            data_nodes,
            activity_nodes,
        })
    }

    /// Builds the graph for a schema that already passed validation.
    ///
    /// # Panics
    ///
    /// Panics if the schema is cyclic, which validated schemas never
    /// are.
    pub fn for_schema(schema: &TaskSchema) -> Self {
        SchemaGraph::new(schema).expect("validated schemas are acyclic")
    }

    /// The underlying DAG (data and activity nodes, dependency edges).
    pub fn dag(&self) -> &Dag<SchemaNode, ()> {
        &self.dag
    }

    /// Node id of a data class.
    pub fn data_node(&self, class: &str) -> Option<NodeId> {
        self.data_nodes.get(class).copied()
    }

    /// Node id of an activity.
    pub fn activity_node(&self, activity: &str) -> Option<NodeId> {
        self.activity_nodes.get(activity).copied()
    }

    /// Activities in dependency order (inputs before outputs) — the
    /// order schedule planning and execution visit them.
    pub fn activity_order(&self) -> Vec<String> {
        self.dag
            .topological_order()
            .expect("schema graphs are DAGs by construction")
            .into_iter()
            .filter_map(|id| match self.dag.node_weight(id) {
                Some(SchemaNode::Activity(name)) => Some(name.clone()),
                _ => None,
            })
            .collect()
    }

    /// Renders the schema graph in Graphviz DOT: data classes as boxes,
    /// activities as ellipses — the diagram editors draw from Level 1.
    ///
    /// # Example
    ///
    /// ```
    /// use schema::{examples, SchemaGraph};
    ///
    /// let dot = SchemaGraph::for_schema(&examples::circuit_design()).to_dot();
    /// assert!(dot.starts_with("digraph"));
    /// assert!(dot.contains("\"netlist\" -> \"Simulate\""));
    /// ```
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph schema {\n  rankdir=LR;\n");
        for node in self.dag.nodes() {
            match node.weight {
                SchemaNode::Data(name) => {
                    out.push_str(&format!("  \"{name}\" [shape=box];\n"));
                }
                SchemaNode::Activity(name) => {
                    out.push_str(&format!("  \"{name}\" [shape=ellipse, style=bold];\n"));
                }
            }
        }
        for edge in self.dag.edges() {
            let from = self.dag.node_weight(edge.from).expect("endpoint exists");
            let to = self.dag.node_weight(edge.to).expect("endpoint exists");
            out.push_str(&format!("  \"{}\" -> \"{}\";\n", from.name(), to.name()));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;

    #[test]
    fn circuit_graph_shape() {
        let schema = examples::circuit_design();
        let g = SchemaGraph::for_schema(&schema);
        // 3 data nodes + 2 activities.
        assert_eq!(g.dag().node_count(), 5);
        // Create->netlist, netlist->Simulate, stimuli->Simulate,
        // Simulate->performance.
        assert_eq!(g.dag().edge_count(), 4);
    }

    #[test]
    fn activity_order_is_dependency_order() {
        let schema = examples::circuit_design();
        let g = SchemaGraph::for_schema(&schema);
        assert_eq!(g.activity_order(), vec!["Create", "Simulate"]);
    }

    #[test]
    fn node_lookups() {
        let schema = examples::circuit_design();
        let g = SchemaGraph::for_schema(&schema);
        assert!(g.data_node("netlist").is_some());
        assert!(g.activity_node("Simulate").is_some());
        assert!(g.data_node("Simulate").is_none());
    }

    #[test]
    fn dot_export_contains_all_nodes_and_edges() {
        let schema = examples::circuit_design();
        let g = SchemaGraph::for_schema(&schema);
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph schema {"));
        assert!(dot.ends_with("}\n"));
        for class in ["netlist", "stimuli", "performance"] {
            assert!(dot.contains(&format!("\"{class}\" [shape=box]")));
        }
        for activity in ["Create", "Simulate"] {
            assert!(dot.contains(&format!("\"{activity}\" [shape=ellipse")));
        }
        assert_eq!(dot.matches(" -> ").count(), g.dag().edge_count());
    }

    #[test]
    fn display_marks_kinds() {
        assert_eq!(SchemaNode::Data("x".into()).to_string(), "[x]");
        assert_eq!(SchemaNode::Activity("y".into()).to_string(), "(y)");
        assert!(SchemaNode::Activity("y".into()).is_activity());
        assert_eq!(SchemaNode::Data("x".into()).name(), "x");
    }
}
