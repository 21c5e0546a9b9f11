//! Ready-made schemas used throughout the workspace: the paper's
//! running example plus larger flows for realistic scenarios and
//! benchmarks.

use crate::model::TaskSchema;
use crate::parse::parse_schema;

/// The paper's Fig. 4 circuit-design schema:
///
/// ```text
/// activity Create:   netlist     = netlist_editor();
/// activity Simulate: performance = simulator(netlist, stimuli);
/// ```
///
/// `stimuli` is a primary input the designer supplies directly.
pub fn circuit_design() -> TaskSchema {
    parse_schema(
        "schema circuit;
         data netlist, stimuli, performance;
         tool netlist_editor, simulator;
         activity Create:   netlist = netlist_editor();
         activity Simulate: performance = simulator(netlist, stimuli);",
    )
    .expect("built-in circuit schema is valid")
}

/// A realistic RTL-to-GDSII ASIC flow with nine activities: spec
/// capture, RTL entry, functional verification, synthesis, floorplan,
/// placement, clock-tree synthesis, routing, and signoff.
pub fn asic_flow() -> TaskSchema {
    parse_schema(
        "schema asic;
         data spec, rtl, testbench, sim_report, netlist, floorplan_db,
              placed_db, cts_db, routed_db, signoff_report;
         tool spec_editor, rtl_editor, rtl_simulator, synthesizer,
              floorplanner, placer, cts_tool, router, signoff_checker;
         activity CaptureSpec: spec = spec_editor();
         activity WriteRtl:    rtl = rtl_editor(spec);
         activity VerifyRtl:   sim_report = rtl_simulator(rtl, testbench);
         activity Synthesize:  netlist = synthesizer(rtl);
         activity Floorplan:   floorplan_db = floorplanner(netlist, spec);
         activity Place:       placed_db = placer(floorplan_db);
         activity Cts:         cts_db = cts_tool(placed_db);
         activity Route:       routed_db = router(cts_db);
         activity Signoff:     signoff_report = signoff_checker(routed_db, sim_report);",
    )
    .expect("built-in asic schema is valid")
}

/// A board-level design flow: schematic capture, layout, fabrication
/// outputs, and a bring-up report — a second domain to show the model is
/// not circuit-specific.
pub fn board_flow() -> TaskSchema {
    parse_schema(
        "schema board;
         data requirements, schematic_db, bom, layout_db, gerbers, bringup_report;
         tool req_editor, schematic_editor, bom_extractor, board_router,
              gerber_writer, lab_bench;
         activity Requirements: requirements = req_editor();
         activity Schematic:    schematic_db = schematic_editor(requirements);
         activity ExtractBom:   bom = bom_extractor(schematic_db);
         activity LayOut:       layout_db = board_router(schematic_db);
         activity WriteGerbers: gerbers = gerber_writer(layout_db);
         activity BringUp:      bringup_report = lab_bench(gerbers, bom);",
    )
    .expect("built-in board schema is valid")
}

/// A 31-activity system-on-chip program: four IP blocks (CPU, DSP,
/// memory controller, IO) each with its own RTL/verify/synthesis
/// mini-flow, converging through integration, physical design, and
/// tapeout signoff — the scale at which block-level rollup views and
/// staffing optimization start to matter.
pub fn soc_program() -> TaskSchema {
    let blocks = ["cpu", "dsp", "mem", "io"];
    let mut src = String::from(
        "schema soc;
         data arch_spec, integ_rtl, integ_report, soc_netlist,
              soc_floorplan, soc_placed, soc_routed, gds, signoff_report, tb_env;
         tool arch_editor, integrator, soc_simulator, soc_synthesizer,
              soc_floorplanner, soc_placer, soc_router, gds_writer, soc_signoff;
         activity ArchSpec: arch_spec = arch_editor();\n",
    );
    for block in blocks {
        src.push_str(&format!(
            "data {block}_rtl, {block}_report, {block}_netlist;
             tool {block}_editor, {block}_simulator, {block}_synth;
             activity Rtl_{block}: {block}_rtl = {block}_editor(arch_spec);
             activity Verify_{block}: {block}_report = {block}_simulator({block}_rtl, tb_env);
             activity Synth_{block}: {block}_netlist = {block}_synth({block}_rtl);\n"
        ));
    }
    src.push_str(
        "activity Integrate: integ_rtl = integrator(cpu_rtl, dsp_rtl, mem_rtl, io_rtl);
         activity VerifySoc: integ_report = soc_simulator(integ_rtl, tb_env);
         activity SynthSoc: soc_netlist = soc_synthesizer(integ_rtl,
             cpu_netlist, dsp_netlist, mem_netlist, io_netlist);
         activity FloorplanSoc: soc_floorplan = soc_floorplanner(soc_netlist, arch_spec);
         activity PlaceSoc: soc_placed = soc_placer(soc_floorplan);
         activity RouteSoc: soc_routed = soc_router(soc_placed);
         activity WriteGds: gds = gds_writer(soc_routed);
         activity SignoffSoc: signoff_report = soc_signoff(gds, integ_report,
             cpu_report, dsp_report, mem_report, io_report);\n",
    );
    parse_schema(&src).expect("built-in soc schema is valid")
}

/// Generates a synthetic pipeline schema with `stages` chained
/// activities (`d0 -> A1 -> d1 -> A2 -> ... -> d{stages}`), used by
/// benchmarks to scale flow size.
///
/// # Panics
///
/// Panics if `stages == 0`.
pub fn pipeline(stages: usize) -> TaskSchema {
    assert!(stages > 0, "pipeline needs at least one stage");
    let mut src = String::from("schema pipeline;\n");
    for i in 0..=stages {
        src.push_str(&format!("data d{i};\n"));
    }
    for i in 1..=stages {
        src.push_str(&format!("tool t{i};\n"));
    }
    src.push_str("activity Stage1: d1 = t1(d0);\n");
    for i in 2..=stages {
        src.push_str(&format!("activity Stage{i}: d{i} = t{i}(d{});\n", i - 1));
    }
    parse_schema(&src).expect("generated pipeline schema is valid")
}

/// Generates a layered schema: `layers` layers of `width` parallel
/// activities, each consuming `fanin` outputs of the previous layer,
/// with a final merge activity. Models wide parallel design work
/// (per-block synthesis, per-corner analysis) converging to signoff.
///
/// # Panics
///
/// Panics if any dimension is zero or `fanin > width`.
pub fn layered(layers: usize, width: usize, fanin: usize) -> TaskSchema {
    assert!(
        layers > 0 && width > 0 && fanin > 0,
        "dimensions must be positive"
    );
    assert!(fanin <= width, "fanin cannot exceed width");
    let mut src = String::from("schema layered;\ntool worker, merger;\n");
    for w in 0..width {
        src.push_str(&format!("data in{w};\n"));
    }
    for l in 0..layers {
        for w in 0..width {
            src.push_str(&format!("data l{l}w{w};\n"));
        }
    }
    src.push_str("data merged;\n");
    for l in 0..layers {
        for w in 0..width {
            let inputs: Vec<String> = (0..fanin)
                .map(|k| {
                    if l == 0 {
                        format!("in{}", (w + k) % width)
                    } else {
                        format!("l{}w{}", l - 1, (w + k) % width)
                    }
                })
                .collect();
            src.push_str(&format!(
                "activity L{l}W{w}: l{l}w{w} = worker({});\n",
                inputs.join(", ")
            ));
        }
    }
    let last: Vec<String> = (0..width).map(|w| format!("l{}w{w}", layers - 1)).collect();
    src.push_str(&format!(
        "activity Merge: merged = merger({});\n",
        last.join(", ")
    ));
    parse_schema(&src).expect("generated layered schema is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SchemaGraph;

    #[test]
    fn circuit_matches_paper() {
        let s = circuit_design();
        assert_eq!(s.name(), "circuit");
        assert_eq!(s.rules().len(), 2);
        assert_eq!(
            s.primary_inputs()
                .iter()
                .map(|c| c.name())
                .collect::<Vec<_>>(),
            vec!["stimuli"]
        );
    }

    #[test]
    fn asic_flow_orders_nine_activities() {
        let s = asic_flow();
        let order = SchemaGraph::for_schema(&s).activity_order();
        assert_eq!(order.len(), 9);
        let pos = |name: &str| order.iter().position(|a| a == name).unwrap();
        assert!(pos("CaptureSpec") < pos("WriteRtl"));
        assert!(pos("Synthesize") < pos("Route"));
        assert!(pos("Route") < pos("Signoff"));
    }

    #[test]
    fn board_flow_valid() {
        let s = board_flow();
        assert_eq!(s.rules().len(), 6);
        assert_eq!(s.primary_outputs()[0].name(), "bringup_report");
    }

    #[test]
    fn soc_program_shape() {
        let s = soc_program();
        // 1 arch + 4 blocks × 3 + 8 integration/physical activities.
        assert_eq!(s.rules().len(), 1 + 4 * 3 + 8);
        let order = SchemaGraph::for_schema(&s).activity_order();
        let pos = |name: &str| order.iter().position(|a| a == name).unwrap();
        assert!(pos("ArchSpec") < pos("Rtl_cpu"));
        assert!(pos("Rtl_cpu") < pos("Integrate"));
        assert!(pos("Integrate") < pos("SynthSoc"));
        assert!(pos("WriteGds") < pos("SignoffSoc"));
        // Hierarchical synthesis: every activity is in the signoff cone.
        assert_eq!(s.rules_for_target("signoff_report").len(), s.rules().len());
        // tb_env is the only designer-supplied input.
        assert_eq!(
            s.primary_inputs()
                .iter()
                .map(|c| c.name())
                .collect::<Vec<_>>(),
            vec!["tb_env"]
        );
    }

    #[test]
    fn pipeline_scales() {
        let s = pipeline(25);
        assert_eq!(s.rules().len(), 25);
        let order = SchemaGraph::for_schema(&s).activity_order();
        assert_eq!(order.first().map(String::as_str), Some("Stage1"));
        assert_eq!(order.last().map(String::as_str), Some("Stage25"));
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn pipeline_zero_panics() {
        pipeline(0);
    }

    #[test]
    fn layered_has_merge_last() {
        let s = layered(3, 4, 2);
        assert_eq!(s.rules().len(), 3 * 4 + 1);
        let order = SchemaGraph::for_schema(&s).activity_order();
        assert_eq!(order.last().map(String::as_str), Some("Merge"));
    }

    #[test]
    #[should_panic(expected = "fanin cannot exceed width")]
    fn layered_bad_fanin_panics() {
        layered(2, 2, 3);
    }
}
