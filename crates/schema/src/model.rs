use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::SchemaError;

/// Whether an entity class names a tool or a kind of design data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntityKind {
    /// A CAD tool (netlist editor, simulator, router, ...).
    Tool,
    /// A class of design data (netlist, stimuli, performance, ...).
    Data,
}

impl fmt::Display for EntityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntityKind::Tool => write!(f, "tool"),
            EntityKind::Data => write!(f, "data"),
        }
    }
}

/// A Level-1 entity class: a named tool or data type.
///
/// Instances of these classes are what Level-3 metadata records; the
/// schema only declares that the class exists and what kind it is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EntityClass {
    name: String,
    kind: EntityKind,
}

impl EntityClass {
    /// Creates a class. Names are case-sensitive identifiers.
    pub fn new(name: impl Into<String>, kind: EntityKind) -> Self {
        EntityClass {
            name: name.into(),
            kind,
        }
    }

    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this class is a tool or data.
    pub fn kind(&self) -> EntityKind {
        self.kind
    }
}

impl fmt::Display for EntityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.name)
    }
}

/// A construction rule `output = tool(input_1, ..., input_n)`,
/// optionally labelled with an activity name.
///
/// The activity name is what schedules track ("Create", "Simulate"); if
/// the source omits it, validation derives one from the tool name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstructionRule {
    activity: String,
    output: String,
    tool: String,
    inputs: Vec<String>,
}

impl ConstructionRule {
    /// Creates a rule. `inputs` may be empty: source activities (like
    /// the paper's `Create`) apply a tool to nothing.
    pub fn new(
        activity: impl Into<String>,
        output: impl Into<String>,
        tool: impl Into<String>,
        inputs: Vec<String>,
    ) -> Self {
        ConstructionRule {
            activity: activity.into(),
            output: output.into(),
            tool: tool.into(),
            inputs,
        }
    }

    /// The activity label, e.g. `"Simulate"`.
    pub fn activity(&self) -> &str {
        &self.activity
    }

    /// The produced data class.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// The applied tool class.
    pub fn tool(&self) -> &str {
        &self.tool
    }

    /// The consumed data classes, in declaration order.
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }
}

impl fmt::Display for ConstructionRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} = {}({})",
            self.activity,
            self.output,
            self.tool,
            self.inputs.join(", ")
        )
    }
}

/// A validated Level-1 task schema: entity classes plus construction
/// rules.
///
/// Invariants guaranteed by construction (see [`TaskSchemaBuilder`] and
/// [`parse_schema`](crate::parse_schema)):
///
/// * class names are unique; activity names are unique;
/// * every rule references declared classes with the right kinds;
/// * every data class is produced by at most one rule;
/// * the rules' data-dependency relation is acyclic.
///
/// Validation also leaves behind the indexes every by-name lookup on
/// the planning path reads: per class its producing rule and its
/// consuming rules, and per rule its position in dependency order.
/// They are derived from `classes` and `rules` once, in
/// [`TaskSchemaBuilder::build`], and a schema is immutable after that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSchema {
    name: String,
    classes: Vec<EntityClass>,
    /// Shared, so a task tree reads its rules without copying them.
    rules: Arc<[ConstructionRule]>,
    class_index: HashMap<String, usize>,
    rule_index: HashMap<String, usize>,
    /// Per class (by declaration position): the rule producing it.
    producers: Vec<Option<usize>>,
    /// The rules consuming each class, in declaration order, flattened:
    /// class `c`'s are `consumers[consumer_start[c]..consumer_start[c + 1]]`.
    consumers: Vec<usize>,
    consumer_start: Vec<usize>,
    /// Per rule (by declaration position): its rank in
    /// [`SchemaGraph::activity_order`](crate::SchemaGraph::activity_order).
    ranks: Vec<usize>,
    /// Rule positions sorted by activity name. Shared, so a status
    /// report finds its rows by name without copying it.
    by_name: Arc<[usize]>,
}

impl TaskSchema {
    /// The schema's name (defaults to `"schema"` when not set).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All declared entity classes, in declaration order.
    pub fn classes(&self) -> &[EntityClass] {
        &self.classes
    }

    /// All construction rules, in declaration order.
    pub fn rules(&self) -> &[ConstructionRule] {
        &self.rules
    }

    /// [`rules`](Self::rules) as a shared handle, for holders that
    /// outlive a borrow of the schema.
    pub fn shared_rules(&self) -> Arc<[ConstructionRule]> {
        Arc::clone(&self.rules)
    }

    /// Looks up a class by name.
    pub fn class(&self, name: &str) -> Option<&EntityClass> {
        self.class_index.get(name).map(|&i| &self.classes[i])
    }

    /// Looks up a rule by activity name.
    pub fn rule(&self, activity: &str) -> Option<&ConstructionRule> {
        self.rule_index.get(activity).map(|&i| &self.rules[i])
    }

    /// The rule that produces `data_class`, if any. Data classes with no
    /// producer are *primary inputs* the designer supplies directly
    /// (like `stimuli` in the paper's example).
    pub fn producer_of(&self, data_class: &str) -> Option<&ConstructionRule> {
        self.producer_position(data_class).map(|r| &self.rules[r])
    }

    /// The rules that consume `data_class`, in declaration order.
    pub fn consumers_of(&self, data_class: &str) -> Vec<&ConstructionRule> {
        self.consumer_positions(data_class)
            .iter()
            .map(|&r| &self.rules[r])
            .collect()
    }

    /// Position in [`rules`](Self::rules) of the rule producing
    /// `data_class`, if any.
    pub fn producer_position(&self, data_class: &str) -> Option<usize> {
        self.class_index
            .get(data_class)
            .and_then(|&c| self.producers[c])
    }

    /// Positions in [`rules`](Self::rules) of the rules consuming
    /// `data_class`, ascending (declaration order).
    pub fn consumer_positions(&self, data_class: &str) -> &[usize] {
        self.class_index.get(data_class).map_or(&[], |&c| {
            &self.consumers[self.consumer_start[c]..self.consumer_start[c + 1]]
        })
    }

    /// Position in [`rules`](Self::rules) of the rule labelled
    /// `activity`, if any.
    pub fn rule_position(&self, activity: &str) -> Option<usize> {
        self.rule_index.get(activity).copied()
    }

    /// The place of the rule at position `rule` in the schema's
    /// dependency order, the key
    /// [`rule_positions_for_target`](Self::rule_positions_for_target)
    /// sorts by. Panics if `rule` is out of range.
    pub fn rule_rank(&self, rule: usize) -> usize {
        self.ranks[rule]
    }

    /// Positions in [`rules`](Self::rules) sorted by activity name (byte
    /// order, as `str` compares): the order a name-keyed container
    /// iterates in, so a reader can walk one beside the other. Shared
    /// with the schema.
    pub fn rule_positions_by_name(&self) -> Arc<[usize]> {
        Arc::clone(&self.by_name)
    }

    /// The rules in the input cone of `target` (a data class or an
    /// activity name), in dependency order: the scope a task tree for
    /// `target` covers. A data class name wins over an equal activity
    /// name. Empty if `target` names neither a produced data class nor
    /// an activity.
    ///
    /// Costs O(rules in the cone + their inputs), plus one flag per
    /// rule; the order is the schema graph's topological order
    /// restricted to the cone.
    pub fn rules_for_target(&self, target: &str) -> Vec<&ConstructionRule> {
        self.rule_positions_for_target(target)
            .into_iter()
            .map(|r| &self.rules[r])
            .collect()
    }

    /// [`rules_for_target`](Self::rules_for_target) as positions in
    /// [`rules`](Self::rules).
    pub fn rule_positions_for_target(&self, target: &str) -> Vec<usize> {
        let root = match self.class_index.get(target) {
            Some(&c) if self.classes[c].kind() == EntityKind::Data => self.producers[c],
            _ => self.rule_position(target),
        };
        let Some(root) = root else {
            return Vec::new();
        };
        let mut in_cone = vec![false; self.rules.len()];
        in_cone[root] = true;
        let mut cone = vec![root];
        let mut next = 0;
        while let Some(&r) = cone.get(next) {
            next += 1;
            for input in self.rules[r].inputs() {
                if let Some(p) = self.producer_position(input) {
                    if !in_cone[p] {
                        in_cone[p] = true;
                        cone.push(p);
                    }
                }
            }
        }
        cone.sort_unstable_by_key(|&r| self.ranks[r]);
        cone
    }

    /// Data classes never produced by any rule — the designer-supplied
    /// primary inputs of every flow instantiated from this schema.
    pub fn primary_inputs(&self) -> Vec<&EntityClass> {
        self.classes
            .iter()
            .filter(|c| c.kind() == EntityKind::Data && self.producer_of(c.name()).is_none())
            .collect()
    }

    /// Data classes never consumed by any rule — final design outputs.
    pub fn primary_outputs(&self) -> Vec<&EntityClass> {
        self.classes
            .iter()
            .filter(|c| {
                c.kind() == EntityKind::Data
                    && self.consumers_of(c.name()).is_empty()
                    && self.producer_of(c.name()).is_some()
            })
            .collect()
    }

    /// Renders the schema back to DSL source accepted by
    /// [`parse_schema`](crate::parse_schema).
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        for class in &self.classes {
            out.push_str(&format!("{class};\n"));
        }
        for rule in self.rules.iter() {
            out.push_str(&format!(
                "activity {}: {} = {}({});\n",
                rule.activity(),
                rule.output(),
                rule.tool(),
                rule.inputs().join(", ")
            ));
        }
        out
    }
}

impl fmt::Display for TaskSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schema {} ({} classes, {} rules)",
            self.name,
            self.classes.len(),
            self.rules.len()
        )?;
        for rule in self.rules.iter() {
            writeln!(f, "  {rule}")?;
        }
        Ok(())
    }
}

/// Builds and validates a [`TaskSchema`].
///
/// # Example
///
/// ```
/// use schema::{EntityKind, TaskSchemaBuilder};
///
/// # fn main() -> Result<(), schema::SchemaError> {
/// let schema = TaskSchemaBuilder::new("circuit")
///     .class("netlist", EntityKind::Data)
///     .class("netlist_editor", EntityKind::Tool)
///     .rule("Create", "netlist", "netlist_editor", &[])
///     .build()?;
/// assert_eq!(schema.primary_outputs()[0].name(), "netlist");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskSchemaBuilder {
    name: String,
    classes: Vec<EntityClass>,
    rules: Vec<ConstructionRule>,
}

impl TaskSchemaBuilder {
    /// Starts a schema with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TaskSchemaBuilder {
            name: name.into(),
            classes: Vec::new(),
            rules: Vec::new(),
        }
    }

    /// Replaces the schema name, keeping all declarations.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Declares an entity class.
    #[must_use]
    pub fn class(mut self, name: impl Into<String>, kind: EntityKind) -> Self {
        self.classes.push(EntityClass::new(name, kind));
        self
    }

    /// Declares a construction rule. Pass an empty `activity` to derive
    /// a label from the tool name (`"simulator"` → `"Run simulator"`).
    #[must_use]
    pub fn rule(
        mut self,
        activity: impl Into<String>,
        output: impl Into<String>,
        tool: impl Into<String>,
        inputs: &[&str],
    ) -> Self {
        let mut activity = activity.into();
        let tool = tool.into();
        if activity.is_empty() {
            activity = format!("Run {tool}");
        }
        self.rules.push(ConstructionRule::new(
            activity,
            output,
            tool,
            inputs.iter().map(|s| (*s).to_owned()).collect(),
        ));
        self
    }

    /// Validates all invariants and produces the schema.
    ///
    /// # Errors
    ///
    /// Any [`SchemaError`] variant other than `Parse` may be returned;
    /// see the variant docs for the exact conditions.
    pub fn build(self) -> Result<TaskSchema, SchemaError> {
        if self.rules.is_empty() {
            return Err(SchemaError::Empty);
        }
        let mut class_index = HashMap::new();
        for (i, class) in self.classes.iter().enumerate() {
            if class_index.insert(class.name().to_owned(), i).is_some() {
                return Err(SchemaError::DuplicateClass(class.name().to_owned()));
            }
        }
        let mut rule_index = HashMap::new();
        let mut producers = vec![None; self.classes.len()];
        // (class, rule) per input, rules ascending.
        let mut uses: Vec<(usize, usize)> = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            if rule_index.insert(rule.activity().to_owned(), i).is_some() {
                return Err(SchemaError::DuplicateActivity(rule.activity().to_owned()));
            }
            let check_kind =
                |name: &str, expected: EntityKind, kind_word: &'static str| match class_index
                    .get(name)
                {
                    None => Err(SchemaError::UnknownClass {
                        class: name.to_owned(),
                        activity: rule.activity().to_owned(),
                    }),
                    Some(&ci) if self.classes[ci].kind() != expected => {
                        Err(SchemaError::WrongKind {
                            class: name.to_owned(),
                            activity: rule.activity().to_owned(),
                            expected: kind_word,
                        })
                    }
                    Some(&ci) => Ok(ci),
                };
            let output = check_kind(rule.output(), EntityKind::Data, "data")?;
            check_kind(rule.tool(), EntityKind::Tool, "tool")?;
            let first_use = uses.len();
            for input in rule.inputs() {
                let ci = check_kind(input, EntityKind::Data, "data")?;
                if uses[first_use..].iter().any(|&(c, _)| c == ci) {
                    return Err(SchemaError::DuplicateInput {
                        class: input.clone(),
                        activity: rule.activity().to_owned(),
                    });
                }
                if input == rule.output() {
                    return Err(SchemaError::SelfDependency {
                        activity: rule.activity().to_owned(),
                    });
                }
                uses.push((ci, i));
            }
            if producers[output].replace(i).is_some() {
                return Err(SchemaError::DuplicateProducer {
                    class: rule.output().to_owned(),
                    activity: rule.activity().to_owned(),
                });
            }
        }
        uses.sort_by_key(|&(c, _)| c); // stable: rules stay ascending
        let mut consumer_start = vec![0; self.classes.len() + 1];
        for &(c, _) in &uses {
            consumer_start[c + 1] += 1;
        }
        for c in 0..self.classes.len() {
            consumer_start[c + 1] += consumer_start[c];
        }
        let mut by_name: Vec<usize> = (0..self.rules.len()).collect();
        by_name.sort_unstable_by(|&a, &b| self.rules[a].activity().cmp(self.rules[b].activity()));
        let mut schema = TaskSchema {
            name: if self.name.is_empty() {
                "schema".to_owned()
            } else {
                self.name
            },
            classes: self.classes,
            rules: self.rules.into(),
            class_index,
            rule_index,
            producers,
            consumers: uses.into_iter().map(|(_, r)| r).collect(),
            consumer_start,
            ranks: Vec::new(),
            by_name: by_name.into(),
        };
        // Acyclicity: project onto the graph substrate, which rejects
        // cycles at edge insertion. Its topological order is the
        // dependency order task trees list their activities in.
        let graph = crate::graph::SchemaGraph::new(&schema)
            .map_err(|activity| SchemaError::CyclicSchema { activity })?;
        let mut ranks = vec![0; schema.rules.len()];
        for (rank, activity) in graph.activity_order().iter().enumerate() {
            ranks[schema.rule_index[activity.as_str()]] = rank;
        }
        schema.ranks = ranks;
        Ok(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circuit() -> TaskSchemaBuilder {
        TaskSchemaBuilder::new("circuit")
            .class("netlist", EntityKind::Data)
            .class("stimuli", EntityKind::Data)
            .class("performance", EntityKind::Data)
            .class("netlist_editor", EntityKind::Tool)
            .class("simulator", EntityKind::Tool)
            .rule("Create", "netlist", "netlist_editor", &[])
            .rule(
                "Simulate",
                "performance",
                "simulator",
                &["netlist", "stimuli"],
            )
    }

    #[test]
    fn builds_paper_example() {
        let s = circuit().build().unwrap();
        assert_eq!(s.classes().len(), 5);
        assert_eq!(s.rules().len(), 2);
        assert_eq!(s.rule("Simulate").unwrap().output(), "performance");
        assert_eq!(s.producer_of("netlist").unwrap().activity(), "Create");
        assert!(s.producer_of("stimuli").is_none());
    }

    #[test]
    fn primary_inputs_and_outputs() {
        let s = circuit().build().unwrap();
        let ins: Vec<_> = s.primary_inputs().iter().map(|c| c.name()).collect();
        assert_eq!(ins, vec!["stimuli"]);
        let outs: Vec<_> = s.primary_outputs().iter().map(|c| c.name()).collect();
        assert_eq!(outs, vec!["performance"]);
    }

    #[test]
    fn consumers_of_netlist() {
        let s = circuit().build().unwrap();
        let consumers = s.consumers_of("netlist");
        assert_eq!(consumers.len(), 1);
        assert_eq!(consumers[0].activity(), "Simulate");
    }

    #[test]
    fn rules_for_target_scopes_cone() {
        let s = crate::examples::asic_flow();
        let for_netlist: Vec<_> = s
            .rules_for_target("netlist")
            .iter()
            .map(|r| r.activity())
            .collect();
        assert!(for_netlist.len() < s.rules().len());
        assert!(for_netlist.contains(&"Synthesize"));
        assert!(!for_netlist.contains(&"Route"));
        // An activity name scopes the same cone as its output.
        assert_eq!(
            s.rules_for_target("Synthesize"),
            s.rules_for_target("netlist")
        );
    }

    #[test]
    fn rules_for_unknown_or_primary_target_is_empty() {
        let s = circuit().build().unwrap();
        assert!(s.rules_for_target("nonsense").is_empty());
        // A primary input has no producer, so no activity covers it; a
        // tool is neither data nor an activity.
        assert!(s.rules_for_target("stimuli").is_empty());
        assert!(s.rules_for_target("simulator").is_empty());
    }

    #[test]
    fn empty_schema_rejected() {
        assert_eq!(TaskSchemaBuilder::new("x").build(), Err(SchemaError::Empty));
    }

    #[test]
    fn duplicate_class_rejected() {
        let err = TaskSchemaBuilder::new("x")
            .class("a", EntityKind::Data)
            .class("a", EntityKind::Tool)
            .class("t", EntityKind::Tool)
            .rule("R", "a", "t", &[])
            .build()
            .unwrap_err();
        assert_eq!(err, SchemaError::DuplicateClass("a".into()));
    }

    #[test]
    fn duplicate_activity_rejected() {
        let err = circuit()
            .class("layout", EntityKind::Data)
            .rule("Create", "layout", "netlist_editor", &[])
            .build()
            .unwrap_err();
        assert_eq!(err, SchemaError::DuplicateActivity("Create".into()));
    }

    #[test]
    fn duplicate_producer_rejected() {
        let err = circuit()
            .rule("Create2", "netlist", "netlist_editor", &[])
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::DuplicateProducer { class, .. } if class == "netlist"));
    }

    #[test]
    fn unknown_class_rejected() {
        let err = circuit()
            .class("waves", EntityKind::Data)
            .rule("View", "waves", "viewer", &[])
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::UnknownClass { class, .. } if class == "viewer"));
    }

    #[test]
    fn wrong_kind_rejected() {
        // Using a data class in tool position.
        let err = TaskSchemaBuilder::new("x")
            .class("a", EntityKind::Data)
            .class("b", EntityKind::Data)
            .rule("R", "a", "b", &[])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SchemaError::WrongKind {
                expected: "tool",
                ..
            }
        ));
        // Using a tool class as an input.
        let err = TaskSchemaBuilder::new("x")
            .class("a", EntityKind::Data)
            .class("t", EntityKind::Tool)
            .rule("R", "a", "t", &["t"])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SchemaError::WrongKind {
                expected: "data",
                ..
            }
        ));
    }

    #[test]
    fn duplicate_input_rejected() {
        let err = circuit()
            .class("report", EntityKind::Data)
            .rule("Check", "report", "simulator", &["netlist", "netlist"])
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::DuplicateInput { .. }));
    }

    #[test]
    fn self_dependency_rejected() {
        let err = TaskSchemaBuilder::new("x")
            .class("a", EntityKind::Data)
            .class("t", EntityKind::Tool)
            .rule("R", "a", "t", &["a"])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SchemaError::SelfDependency {
                activity: "R".into()
            }
        );
    }

    #[test]
    fn cyclic_schema_rejected() {
        let err = TaskSchemaBuilder::new("x")
            .class("a", EntityKind::Data)
            .class("b", EntityKind::Data)
            .class("t", EntityKind::Tool)
            .rule("MakeB", "b", "t", &["a"])
            .rule("MakeA", "a", "t", &["b"])
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::CyclicSchema { .. }));
    }

    #[test]
    fn empty_activity_name_derived_from_tool() {
        let s = TaskSchemaBuilder::new("x")
            .class("a", EntityKind::Data)
            .class("t", EntityKind::Tool)
            .rule("", "a", "t", &[])
            .build()
            .unwrap();
        assert_eq!(s.rules()[0].activity(), "Run t");
    }

    #[test]
    fn to_source_roundtrips_through_parser() {
        let s = circuit().build().unwrap();
        let reparsed = crate::parse_schema(&s.to_source()).unwrap();
        assert_eq!(reparsed.rules(), s.rules());
        assert_eq!(reparsed.classes(), s.classes());
    }

    #[test]
    fn display_shows_rules() {
        let s = circuit().build().unwrap();
        let text = s.to_string();
        assert!(text.contains("Simulate: performance = simulator(netlist, stimuli)"));
    }

    #[test]
    fn rule_positions_by_name_sort_activities() {
        let s = crate::examples::layered(3, 12, 2);
        let by_name = s.rule_positions_by_name();
        assert_eq!(by_name.len(), s.rules().len());
        let names: Vec<&str> = by_name.iter().map(|&r| s.rules()[r].activity()).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        // L0W10 sorts before L0W2: byte order, not declaration order.
        assert_eq!(&names[..3], ["L0W0", "L0W1", "L0W10"]);
    }
}
