use std::sync::Arc;

use schedule::{ActivityId, ScheduleError, ScheduleNetwork, WorkDays};
use schema::{ConstructionRule, TaskSchema};
use simtools::workload::Team;

use crate::error::HerculesError;

/// A task tree extracted for a target: the activities in the target's
/// input cone, in dependency (post-order) order, with their data
/// wiring.
///
/// "A user prepares a task for execution by first extracting a task
/// tree that covers the scope of the intended task" (§IV-A). The same
/// tree serves both schedule planning and execution — that sharing is
/// the point of the integrated system.
///
/// The tree reads each activity's inputs and output from the schema's
/// shared rules rather than copying them, so a kept tree costs a few
/// words per activity plus its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTree {
    target: String,
    /// The schema's rules; `rule_positions` index into them.
    rules: Arc<[ConstructionRule]>,
    /// Activities in dependency order (inputs before outputs).
    activities: Vec<String>,
    /// Per activity (by position): its rule's position in the schema.
    rule_positions: Vec<usize>,
    /// Per activity (by position): its rule's rank in the schema.
    ranks: Vec<usize>,
    /// Positions ordered by activity name, for lookups by name.
    by_name: Vec<usize>,
    /// Per activity (by position): positions of the activities its
    /// output feeds directly, ascending, flattened: activity `i`'s are
    /// `consumers[consumer_start[i]..consumer_start[i + 1]]`.
    /// Precomputed so execution and planning never re-derive the
    /// adjacency by scanning.
    consumers: Vec<usize>,
    consumer_start: Vec<usize>,
    /// Data classes with no producing activity — designer-supplied.
    primary_inputs: Vec<String>,
}

impl TaskTree {
    /// Extracts the tree covering `target` (a data class or activity
    /// name) from the schema: a walk of the target's input cone over
    /// the schema's producer index, in O(activities + inputs) of the
    /// cone, plus sorting the names.
    ///
    /// # Errors
    ///
    /// [`HerculesError::UnknownTarget`] if `target` names nothing.
    pub fn extract(schema: &TaskSchema, target: &str) -> Result<Self, HerculesError> {
        let rule_positions = schema.rule_positions_for_target(target);
        if rule_positions.is_empty() {
            return Err(HerculesError::UnknownTarget(target.to_owned()));
        }
        let rules = schema.shared_rules();
        let n = rule_positions.len();
        // Tree position of each rule in scope.
        let mut position = vec![usize::MAX; rules.len()];
        for (i, &r) in rule_positions.iter().enumerate() {
            position[r] = i;
        }
        let mut activities = Vec::with_capacity(n);
        let mut primary: Vec<String> = Vec::new();
        // (producer, consumer) per input with a producer, consumers
        // ascending: each input class resolves to its producer once.
        let mut feeds: Vec<(usize, usize)> = Vec::new();
        for (j, &r) in rule_positions.iter().enumerate() {
            let rule = &rules[r];
            activities.push(rule.activity().to_owned());
            for input in rule.inputs() {
                match schema.producer_position(input) {
                    // The cone holds every producer of its inputs.
                    Some(p) => feeds.push((position[p], j)),
                    None if !primary.contains(input) => primary.push(input.clone()),
                    None => {}
                }
            }
        }
        feeds.sort_by_key(|&(i, _)| i); // stable: consumers stay ascending
        let mut consumer_start = vec![0; n + 1];
        for &(i, _) in &feeds {
            consumer_start[i + 1] += 1;
        }
        for i in 0..n {
            consumer_start[i + 1] += consumer_start[i];
        }
        let mut by_name: Vec<usize> = (0..n).collect();
        by_name.sort_unstable_by(|&a, &b| activities[a].cmp(&activities[b]));
        Ok(TaskTree {
            target: target.to_owned(),
            rules,
            activities,
            ranks: rule_positions
                .iter()
                .map(|&r| schema.rule_rank(r))
                .collect(),
            rule_positions,
            by_name,
            consumers: feeds.into_iter().map(|(_, j)| j).collect(),
            consumer_start,
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

    /// The schema position of the rule behind the activity at position
    /// `i` — the key of the manager's per-activity estimates.
    pub(crate) fn rule_position_at(&self, i: usize) -> usize {
        self.rule_positions[i]
    }

    /// The designer `team` gives the activity at position `i`, keyed by
    /// its rule's rank in the schema, not by the scope: plan, forecast
    /// and execution all assign through this.
    pub(crate) fn assignee_at<'t>(&self, i: usize, team: &'t Team) -> &'t str {
        team.assignee(self.ranks[i])
    }

    /// The position of `activity` in dependency order, if in scope.
    pub fn index_of(&self, activity: &str) -> Option<usize> {
        self.by_name
            .binary_search_by(|&i| self.activities[i].as_str().cmp(activity))
            .ok()
            .map(|k| self.by_name[k])
    }

    /// Data classes `activity` consumes.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is not in this tree.
    pub fn inputs_of(&self, activity: &str) -> &[String] {
        self.inputs_at(self.expect_index(activity))
    }

    /// Data classes the activity at position `i` consumes.
    pub fn inputs_at(&self, i: usize) -> &[String] {
        self.rules[self.rule_positions[i]].inputs()
    }

    /// The data class `activity` produces.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is not in this tree.
    pub fn output_of(&self, activity: &str) -> &str {
        self.output_at(self.expect_index(activity))
    }

    /// The data class the activity at position `i` produces.
    pub fn output_at(&self, i: usize) -> &str {
        self.rules[self.rule_positions[i]].output()
    }

    /// Whether `activity` is part of this tree.
    pub fn contains(&self, activity: &str) -> bool {
        self.index_of(activity).is_some()
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
        self.consumers_at(i)
            .iter()
            .map(|&j| self.activities[j].as_str())
            .collect()
    }

    /// Positions of the activities fed directly by the output of the
    /// activity at position `i`, ascending.
    pub fn consumers_at(&self, i: usize) -> &[usize] {
        &self.consumers[self.consumer_start[i]..self.consumer_start[i + 1]]
    }

    /// The precedence network over the activities at tree positions
    /// `scope` (ascending), the k-th taking `durations[k]`: one network
    /// activity per position, in scope order, and a finish-to-start
    /// constraint wherever one in-scope activity consumes another's
    /// output. Returns the network and the k-th activity's id. Planning,
    /// forecasting and dispatch all schedule the tree through this.
    pub(crate) fn network(
        &self,
        scope: &[usize],
        durations: &[WorkDays],
    ) -> Result<(ScheduleNetwork, Vec<ActivityId>), ScheduleError> {
        let mut net = ScheduleNetwork::new();
        let mut ids = Vec::with_capacity(scope.len());
        // Tree position -> index in `ids`, for in-scope activities.
        let mut slot = vec![None; self.len()];
        for (k, (&i, &duration)) in scope.iter().zip(durations).enumerate() {
            ids.push(net.add_activity(self.activities[i].clone(), duration)?);
            slot[i] = Some(k);
        }
        for (k, &i) in scope.iter().enumerate() {
            for &j in self.consumers_at(i) {
                if let Some(consumer) = slot[j] {
                    net.add_precedence(ids[k], ids[consumer])?;
                }
            }
        }
        Ok((net, ids))
    }

    fn expect_index(&self, activity: &str) -> usize {
        self.index_of(activity)
            .unwrap_or_else(|| panic!("{activity:?} is not in the task tree"))
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

    /// What a tree shows through its accessors: activities, per
    /// activity its inputs, output and direct consumers, and the
    /// primary inputs.
    type Shape = (
        Vec<String>,
        Vec<Vec<String>>,
        Vec<String>,
        Vec<Vec<usize>>,
        Vec<String>,
    );

    fn shape(tree: &TaskTree) -> Shape {
        let n = tree.len();
        (
            tree.activities().to_vec(),
            (0..n).map(|i| tree.inputs_at(i).to_vec()).collect(),
            (0..n).map(|i| tree.output_at(i).to_owned()).collect(),
            (0..n).map(|i| tree.consumers_at(i).to_vec()).collect(),
            tree.primary_inputs().to_vec(),
        )
    }

    /// Extraction as done before the schema kept its indexes: the cone
    /// and its order from a freshly built [`schema::SchemaGraph`],
    /// producers found by scanning the rules.
    fn graph_extract(schema: &TaskSchema, target: &str) -> Option<Shape> {
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
        Some((
            activities,
            rules.iter().map(|r| r.inputs().to_vec()).collect(),
            outputs,
            consumers,
            primary,
        ))
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
                let tree = TaskTree::extract(schema, target).ok();
                assert_eq!(
                    tree.as_ref().map(shape),
                    graph_extract(schema, target),
                    "schema {} target {target}",
                    schema.name()
                );
                // Lookups by name agree with positions.
                let Some(tree) = tree else { continue };
                for (i, activity) in tree.activities().iter().enumerate() {
                    assert_eq!(tree.index_of(activity), Some(i));
                    assert_eq!(tree.output_of(activity), tree.output_at(i));
                    assert_eq!(tree.inputs_of(activity), tree.inputs_at(i));
                }
                assert_eq!(tree.index_of("nonsense"), None);
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
