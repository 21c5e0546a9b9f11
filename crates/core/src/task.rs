use std::collections::HashMap;

use schema::TaskSchema;

use crate::error::HerculesError;

/// A task tree extracted for a target: the activities in the target's
/// input cone, in dependency (post-order) order, with their data
/// wiring.
///
/// "A user prepares a task for execution by first extracting a task
/// tree that covers the scope of the intended task" (§IV-A). The same
/// tree serves both schedule planning and execution — that sharing is
/// the point of the integrated system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTree {
    target: String,
    /// Activities in dependency order (inputs before outputs).
    activities: Vec<String>,
    /// Activity name -> position in `activities`.
    index_of: HashMap<String, usize>,
    /// Per activity (by position): the data classes it consumes.
    inputs: Vec<Vec<String>>,
    /// Per activity (by position): the data class it produces.
    outputs: Vec<String>,
    /// Per activity (by position): positions of the activities its
    /// output feeds directly, ascending. Precomputed so execution and
    /// planning never re-derive the adjacency by scanning.
    consumers: Vec<Vec<usize>>,
    /// Data classes with no producing activity — designer-supplied.
    primary_inputs: Vec<String>,
}

impl TaskTree {
    /// Extracts the tree covering `target` (a data class or activity
    /// name) from the schema: a walk of the target's input cone over
    /// the schema's producer index, in O(activities + inputs) of the
    /// cone.
    ///
    /// # Errors
    ///
    /// [`HerculesError::UnknownTarget`] if `target` names nothing.
    pub fn extract(schema: &TaskSchema, target: &str) -> Result<Self, HerculesError> {
        let rules = schema.rules_for_target(target);
        if rules.is_empty() {
            return Err(HerculesError::UnknownTarget(target.to_owned()));
        }
        let n = rules.len();
        let mut activities = Vec::with_capacity(n);
        let mut inputs = Vec::with_capacity(n);
        let mut outputs = Vec::with_capacity(n);
        let mut primary = Vec::new();
        for rule in rules {
            activities.push(rule.activity().to_owned());
            inputs.push(rule.inputs().to_vec());
            outputs.push(rule.output().to_owned());
            for input in rule.inputs() {
                if schema.producer_of(input).is_none() && !primary.contains(input) {
                    primary.push(input.clone());
                }
            }
        }
        let index_of: HashMap<String, usize> = activities
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), i))
            .collect();
        // Direct consumers by position: resolve each input class to its
        // in-scope producer once, while the edge list is in hand.
        let producer_of: HashMap<&str, usize> = outputs
            .iter()
            .enumerate()
            .map(|(i, o)| (o.as_str(), i))
            .collect();
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, ins) in inputs.iter().enumerate() {
            for class in ins {
                if let Some(&i) = producer_of.get(class.as_str()) {
                    if consumers[i].last() != Some(&j) {
                        consumers[i].push(j);
                    }
                }
            }
        }
        Ok(TaskTree {
            target: target.to_owned(),
            activities,
            index_of,
            inputs,
            outputs,
            consumers,
            primary_inputs: primary,
        })
    }

    /// The target this tree was extracted for.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Activities in dependency order — the order the post-order
    /// traversal visits them for both planning and execution.
    pub fn activities(&self) -> &[String] {
        &self.activities
    }

    /// Number of activities in scope.
    pub fn len(&self) -> usize {
        self.activities.len()
    }

    /// Returns `true` if the tree is empty (never: extraction fails on
    /// empty scopes).
    pub fn is_empty(&self) -> bool {
        self.activities.is_empty()
    }

    /// The position of `activity` in dependency order, if in scope.
    pub fn index_of(&self, activity: &str) -> Option<usize> {
        self.index_of.get(activity).copied()
    }

    /// Data classes `activity` consumes.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is not in this tree.
    pub fn inputs_of(&self, activity: &str) -> &[String] {
        &self.inputs[self.index_of[activity]]
    }

    /// Data classes the activity at position `i` consumes.
    pub fn inputs_at(&self, i: usize) -> &[String] {
        &self.inputs[i]
    }

    /// The data class `activity` produces.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is not in this tree.
    pub fn output_of(&self, activity: &str) -> &str {
        &self.outputs[self.index_of[activity]]
    }

    /// The data class the activity at position `i` produces.
    pub fn output_at(&self, i: usize) -> &str {
        &self.outputs[i]
    }

    /// Whether `activity` is part of this tree.
    pub fn contains(&self, activity: &str) -> bool {
        self.index_of.contains_key(activity)
    }

    /// Designer-supplied data classes the tree needs (no producer in
    /// the schema), e.g. the paper's `stimuli`.
    pub fn primary_inputs(&self) -> &[String] {
        &self.primary_inputs
    }

    /// The activities of this tree that `activity`'s output feeds,
    /// directly.
    pub fn consumers_of_output(&self, activity: &str) -> Vec<&str> {
        let Some(i) = self.index_of(activity) else {
            return Vec::new();
        };
        self.consumers[i]
            .iter()
            .map(|&j| self.activities[j].as_str())
            .collect()
    }

    /// Positions of the activities fed directly by the output of the
    /// activity at position `i`, ascending.
    pub fn consumers_at(&self, i: usize) -> &[usize] {
        &self.consumers[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::examples;

    #[test]
    fn extract_full_circuit_tree() {
        let schema = examples::circuit_design();
        let tree = TaskTree::extract(&schema, "performance").unwrap();
        assert_eq!(tree.target(), "performance");
        assert_eq!(tree.activities(), ["Create", "Simulate"]);
        assert_eq!(tree.inputs_of("Simulate"), ["netlist", "stimuli"]);
        assert_eq!(tree.output_of("Create"), "netlist");
        assert_eq!(tree.primary_inputs(), ["stimuli"]);
        assert_eq!(tree.len(), 2);
        assert!(!tree.is_empty());
    }

    #[test]
    fn extract_partial_scope() {
        let schema = examples::circuit_design();
        let tree = TaskTree::extract(&schema, "netlist").unwrap();
        assert_eq!(tree.activities(), ["Create"]);
        assert!(tree.primary_inputs().is_empty());
        assert!(!tree.contains("Simulate"));
    }

    #[test]
    fn extract_by_activity_name() {
        let schema = examples::asic_flow();
        let tree = TaskTree::extract(&schema, "Synthesize").unwrap();
        assert!(tree.contains("WriteRtl"));
        assert!(tree.contains("CaptureSpec"));
        assert!(!tree.contains("Route"));
    }

    #[test]
    fn unknown_target_rejected() {
        let schema = examples::circuit_design();
        assert!(matches!(
            TaskTree::extract(&schema, "gds"),
            Err(HerculesError::UnknownTarget(_))
        ));
    }

    #[test]
    fn consumers_of_output() {
        let schema = examples::asic_flow();
        let tree = TaskTree::extract(&schema, "signoff_report").unwrap();
        let consumers = tree.consumers_of_output("Synthesize");
        assert_eq!(consumers, vec!["Floorplan"]);
        assert!(tree.consumers_of_output("nonexistent").is_empty());
    }

    /// Extraction as done before the schema kept its indexes: the cone
    /// and its order from a freshly built [`schema::SchemaGraph`],
    /// producers found by scanning the rules.
    fn graph_extract(schema: &TaskSchema, target: &str) -> Option<TaskTree> {
        use schema::{SchemaGraph, SchemaNode};
        let graph = SchemaGraph::for_schema(schema);
        let root = graph
            .data_node(target)
            .or_else(|| graph.activity_node(target))?;
        let cone = graph.dag().input_cone(&[root]);
        let activities: Vec<String> = graph
            .dag()
            .topological_order()
            .expect("acyclic")
            .into_iter()
            .filter(|id| cone.contains(id))
            .filter_map(|id| match graph.dag().node_weight(id) {
                Some(SchemaNode::Activity(name)) => Some(name.clone()),
                _ => None,
            })
            .collect();
        if activities.is_empty() {
            return None;
        }
        let rules: Vec<_> = activities
            .iter()
            .map(|a| schema.rule(a).expect("scoped"))
            .collect();
        let mut primary: Vec<String> = Vec::new();
        for input in rules.iter().flat_map(|r| r.inputs()) {
            let produced = schema.rules().iter().any(|r| r.output() == input);
            if !produced && !primary.contains(input) {
                primary.push(input.clone());
            }
        }
        let outputs: Vec<String> = rules.iter().map(|r| r.output().to_owned()).collect();
        let consumers = (0..rules.len())
            .map(|i| {
                (0..rules.len())
                    .filter(|&j| rules[j].inputs().contains(&outputs[i]))
                    .collect()
            })
            .collect();
        Some(TaskTree {
            target: target.to_owned(),
            index_of: activities
                .iter()
                .enumerate()
                .map(|(i, a)| (a.clone(), i))
                .collect(),
            activities,
            inputs: rules.iter().map(|r| r.inputs().to_vec()).collect(),
            outputs,
            consumers,
            primary_inputs: primary,
        })
    }

    #[test]
    fn extract_matches_the_schema_graph_extraction() {
        // Declared out of dependency order, with a class and an
        // activity sharing a name (the data class wins).
        let shuffled = schema::parse_schema(
            "tool t; data c; data a; data b; data s; data Mk;\n\
             activity Mk: c = t(b, s);\n\
             activity MkB: b = t(a);\n\
             activity MkA: a = t();\n\
             activity MkS: Mk = t(a);",
        )
        .expect("valid");
        let schemas = [
            examples::circuit_design(),
            examples::asic_flow(),
            examples::board_flow(),
            examples::soc_program(),
            examples::pipeline(6),
            examples::layered(3, 5, 2),
            shuffled,
        ];
        for schema in &schemas {
            let targets = schema
                .classes()
                .iter()
                .map(|c| c.name())
                .chain(schema.rules().iter().map(|r| r.activity()))
                .chain(["nonsense"]);
            for target in targets {
                assert_eq!(
                    TaskTree::extract(schema, target).ok(),
                    graph_extract(schema, target),
                    "schema {} target {target}",
                    schema.name()
                );
            }
        }
    }

    #[test]
    fn dependency_order_holds() {
        let schema = examples::asic_flow();
        let tree = TaskTree::extract(&schema, "signoff_report").unwrap();
        let pos = |a: &str| tree.activities().iter().position(|x| x == a).unwrap();
        assert!(pos("CaptureSpec") < pos("WriteRtl"));
        assert!(pos("WriteRtl") < pos("Synthesize"));
        assert!(pos("Route") < pos("Signoff"));
    }
}
