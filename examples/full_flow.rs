//! The full interconnect-planning flow of the paper's Figure 1, narrated
//! stage by stage: partition → floorplan → tile grid → global routing →
//! repeater planning → interconnect retiming graph → min-period analysis →
//! LAC-retiming → (if violations remain) floorplan expansion and a second
//! planning iteration.
//!
//! ```text
//! cargo run --release --example full_flow [circuit]
//! ```

use lacr::core::planner::{
    growth_from_violations, try_build_physical_plan, try_plan_retimings, try_plan_retimings_at,
    PlannerConfig,
};
use lacr::core::render::{tile_ascii, tile_ascii_legend};
use lacr::netlist::bench89;
use lacr::netlist::stats::CircuitStats;
use lacr::retime::{analyze_timing, critical_path, VertexKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "s953".into());
    let config = PlannerConfig::default();
    let circuit = bench89::generate(&name)?;
    let stats = CircuitStats::compute(&circuit);
    println!("== RT-level netlist =============================================");
    println!(
        "{name}: {} functional units, {} PIs, {} POs, {} connections, {} flip-flops",
        stats.logic_units, stats.inputs, stats.outputs, stats.connections, stats.flops
    );

    println!("\n== physical planning ===========================================");
    let plan = try_build_physical_plan(&circuit, &config, &[])?;
    println!(
        "partitioned into {} soft blocks (cut = {} nets)",
        plan.partitioning.blocks.len(),
        plan.partitioning.cut_size(&circuit)
    );
    println!(
        "floorplan: {:.1} x {:.1} mm, {:.0}% utilisation",
        plan.floorplan.chip_w / 1000.0,
        plan.floorplan.chip_h / 1000.0,
        100.0 * plan.floorplan.utilization()
    );
    println!(
        "routing: {} nets, wirelength {} tile steps, overflow {}",
        plan.routing.nets.len(),
        plan.routing.wirelength,
        plan.routing.overflow
    );
    println!(
        "repeater planning inserted {} repeaters; {} interconnect units",
        plan.expanded.num_repeaters, plan.expanded.num_interconnect_units
    );
    println!("\ntile graph (the paper's Figure 2):");
    println!("{}", tile_ascii(&plan));
    println!("{}", tile_ascii_legend(&plan));

    println!("\n== timing analysis =============================================");
    println!(
        "T_init = {:.2} ns, T_min = {:.2} ns, T_clk = {:.2} ns",
        plan.t_init as f64 / 1000.0,
        plan.t_min as f64 / 1000.0,
        plan.t_clk as f64 / 1000.0
    );

    println!("\n== static timing before retiming ===============================");
    let g = &plan.expanded.graph;
    let w0 = g.weights();
    if let Some(report) = analyze_timing(g, &w0, plan.t_clk) {
        println!(
            "unretimed period {:.2} ns vs target {:.2} ns: worst slack {:.2} ns, {} violating vertices",
            report.period as f64 / 1000.0,
            plan.t_clk as f64 / 1000.0,
            report.worst_slack() as f64 / 1000.0,
            report.violating_vertices().len()
        );
        let cp = critical_path(g, &w0);
        let wires = cp
            .iter()
            .filter(|&&v| g.kind(v) == VertexKind::Interconnect)
            .count();
        println!(
            "critical path: {} vertices ({} interconnect units), {:.2} ns",
            cp.len(),
            wires,
            report.period as f64 / 1000.0
        );
    }

    println!("\n== retiming and flip-flop placement ============================");
    let report = try_plan_retimings(&plan, &config)?;
    println!(
        "{} period constraints ({} violating pairs before pruning)",
        report.num_period_constraints, report.pairs_before_pruning
    );
    println!(
        "min-area: N_FOA = {}, N_F = {}, N_FN = {}",
        report.min_area.result.n_foa, report.min_area.result.n_f, report.min_area.result.n_fn
    );
    println!(
        "LAC     : N_FOA = {}, N_F = {}, N_FN = {} in {} weighted rounds (history {:?})",
        report.lac.result.n_foa,
        report.lac.result.n_f,
        report.lac.result.n_fn,
        report.lac.result.n_wr,
        report.lac.result.history
    );

    if report.lac.result.n_foa > 0 {
        println!("\n== floorplan expansion & second planning iteration =============");
        let growth = growth_from_violations(&plan, &report.lac.result, &config.technology, 1.5);
        let grown: f64 = growth.iter().sum();
        println!(
            "expanding congested blocks by {:.2} mm² in total",
            grown / 1e6
        );
        let plan2 = try_build_physical_plan(&circuit, &config, &growth)?;
        match try_plan_retimings_at(&plan2, &config, plan.t_clk) {
            Ok(second) => println!(
                "second iteration at the frozen T_clk: N_FOA = {}",
                second.lac.result.n_foa
            ),
            Err(e) => println!(
                "second iteration failed ({e}) — the floorplan changed so much that the \
                 frozen target period became infeasible, the paper's s1269 case"
            ),
        }
    } else {
        println!("\nno local area violations: no design iteration back to floorplanning needed");
    }
    Ok(())
}
