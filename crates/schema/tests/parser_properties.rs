//! Property-based tests for the schema DSL: round-tripping through
//! `to_source`, parser totality on arbitrary input, structural
//! invariants of generated schemas, and the schema's lookup indexes
//! against linear scans and the schema-graph walk.
//!
//! Ported to the in-repo `harness` framework: the proptest regex
//! strategies become explicit character-class generators
//! (`ident()`, `ascii_noise()`, `printable_noise()`).

use harness::prelude::*;
use schema::{
    parse_schema, ConstructionRule, EntityKind, SchemaError, SchemaGraph, SchemaNode, TaskSchema,
    TaskSchemaBuilder,
};

/// Builds a random *valid* schema: `n` data classes in a random
/// forest-like producer structure plus distinct tool names.
fn arb_schema_source() -> impl Strategy<Value = String> {
    (2usize..10, any_u64()).prop_map(|(n, seed)| {
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("data d{i};\ntool t{i};\n"));
        }
        // Rule i produces d_i from a subset of earlier data classes,
        // chosen by the seed bits — always acyclic.
        let mut bits = seed;
        for i in 1..n {
            let mut inputs = Vec::new();
            for j in 0..i {
                if bits & 1 == 1 {
                    inputs.push(format!("d{j}"));
                }
                bits >>= 1;
            }
            src.push_str(&format!(
                "activity A{i}: d{i} = t{i}({});\n",
                inputs.join(", ")
            ));
        }
        src
    })
}

/// Builds a random valid schema declared out of dependency order: `n`
/// data classes, most produced by a rule from up to three earlier
/// classes (the rest stay primary inputs), with classes and rules
/// declared in a seed-shuffled order.
fn arb_shuffled_schema_source() -> impl Strategy<Value = String> {
    (2usize..16, any_u64()).prop_map(|(n, seed)| {
        let mut state = seed;
        let mut next = move |bound: usize| {
            // SplitMix64 step.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut classes: Vec<String> = (0..n)
            .flat_map(|i| [format!("data d{i};"), format!("tool t{i};")])
            .collect();
        let mut rules = Vec::new();
        for i in 0..n {
            if next(4) == 0 {
                continue; // a primary input
            }
            let mut inputs: Vec<String> = Vec::new();
            for _ in 0..next(4).min(i) {
                let input = format!("d{}", next(i));
                if !inputs.contains(&input) {
                    inputs.push(input);
                }
            }
            rules.push(format!(
                "activity A{i}: d{i} = t{i}({});",
                inputs.join(", ")
            ));
        }
        if rules.is_empty() {
            rules.push("activity A0: d0 = t0();".to_owned());
        }
        for list in [&mut classes, &mut rules] {
            for k in (1..list.len()).rev() {
                list.swap(k, next(k + 1));
            }
        }
        let mut src = classes.join("\n");
        src.push('\n');
        src.push_str(&rules.join("\n"));
        src
    })
}

/// Every name worth asking about: all classes, all activities, and one
/// name the schema does not know.
fn all_names(schema: &TaskSchema) -> Vec<String> {
    let mut names: Vec<String> = schema
        .classes()
        .iter()
        .map(|c| c.name().to_owned())
        .collect();
    names.extend(schema.rules().iter().map(|r| r.activity().to_owned()));
    names.push("nonsense".to_owned());
    names
}

/// The task-tree scope as the schema graph computes it: the target's
/// input cone on the bipartite DAG, listed in the DAG's topological
/// order — the reference for `TaskSchema::rules_for_target`.
fn graph_scope(schema: &TaskSchema, target: &str) -> Vec<String> {
    let graph = SchemaGraph::for_schema(schema);
    let Some(root) = graph
        .data_node(target)
        .or_else(|| graph.activity_node(target))
    else {
        return Vec::new();
    };
    let cone = graph.dag().input_cone(&[root]);
    graph
        .dag()
        .topological_order()
        .expect("validated schemas are acyclic")
        .into_iter()
        .filter(|id| cone.contains(id))
        .filter_map(|id| match graph.dag().node_weight(id) {
            Some(SchemaNode::Activity(name)) => Some(name.clone()),
            _ => None,
        })
        .collect()
}

harness::props! {
    fn schema_indexes_match_linear_scans(src in arb_shuffled_schema_source()) {
        let schema = parse_schema(&src).expect("generated source is valid");
        for name in all_names(&schema) {
            let producer = schema.rules().iter().find(|r| r.output() == name);
            prop_assert_eq!(schema.producer_of(&name), producer);
            let consumers: Vec<&ConstructionRule> = schema
                .rules()
                .iter()
                .filter(|r| r.inputs().contains(&name))
                .collect();
            prop_assert_eq!(schema.consumers_of(&name), consumers);
        }
    }

    fn rules_for_target_matches_the_schema_graph(src in arb_shuffled_schema_source()) {
        let schema = parse_schema(&src).expect("generated source is valid");
        for target in all_names(&schema) {
            let scope: Vec<String> = schema
                .rules_for_target(&target)
                .iter()
                .map(|r| r.activity().to_owned())
                .collect();
            prop_assert_eq!(scope, graph_scope(&schema, &target));
        }
    }

    fn valid_schemas_roundtrip(src in arb_schema_source()) {
        let schema = parse_schema(&src).expect("generated source is valid");
        let reparsed = parse_schema(&schema.to_source()).expect("to_source is valid DSL");
        prop_assert_eq!(schema.classes(), reparsed.classes());
        prop_assert_eq!(schema.rules(), reparsed.rules());
    }

    fn parser_never_panics(garbage in printable_noise(0..200)) {
        // Totality: arbitrary printable input (including multibyte
        // code points) either parses or returns an error — never
        // panics.
        let _ = parse_schema(&garbage);
    }

    fn parser_never_panics_on_ascii_noise(garbage in ascii_noise(0..300)) {
        let _ = parse_schema(&garbage);
    }

    fn builder_and_parser_agree(names in vec(ident(), 2..6)) {
        // Unique-ify names to sidestep duplicate-class errors.
        let mut names = names;
        names.sort();
        names.dedup();
        prop_assume!(names.len() >= 2);
        let data = &names[0];
        let tool = &names[1];
        prop_assume!(data != tool);
        let built = TaskSchemaBuilder::new("x")
            .class(data.clone(), EntityKind::Data)
            .class(tool.clone(), EntityKind::Tool)
            .rule("Make", data.clone(), tool.clone(), &[])
            .build()
            .expect("valid");
        let parsed = parse_schema(&format!(
            "data {data}; tool {tool}; activity Make: {data} = {tool}();"
        ))
        .expect("valid");
        prop_assert_eq!(built.rules(), parsed.rules());
    }

    fn producers_unique_in_valid_schemas(src in arb_schema_source()) {
        let schema = parse_schema(&src).expect("valid");
        for class in schema.classes() {
            if class.kind() == EntityKind::Data {
                // producer_of is deterministic and at-most-one by
                // validation; consumers never include the producer rule.
                if let Some(producer) = schema.producer_of(class.name()) {
                    for consumer in schema.consumers_of(class.name()) {
                        prop_assert_ne!(consumer.activity(), producer.activity());
                    }
                }
            }
        }
    }

    fn error_positions_are_in_range(src in arb_schema_source(), cut in 0usize..100) {
        // Truncating valid source mid-token must yield a parse error
        // whose position lies within the (truncated) text. Clamp the
        // cut to a char boundary so slicing stays valid.
        let mut cut = cut.min(src.len());
        while cut > 0 && !src.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &src[..cut];
        match parse_schema(truncated) {
            Ok(_) | Err(SchemaError::Empty) => {}
            Err(SchemaError::Parse { line, column, .. }) => {
                let lines: Vec<&str> = truncated.split('\n').collect();
                prop_assert!(line >= 1 && line <= lines.len() + 1);
                prop_assert!(column >= 1);
            }
            Err(_) => {} // truncated rules may also fail validation
        }
    }
}
