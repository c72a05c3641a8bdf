//! End-to-end integration tests across all crates: the full planning
//! pipeline with cross-stage invariants.

use lacr::core::planner::{
    try_build_physical_plan, try_plan_retimings, try_plan_with_iterations, PlannerConfig,
};
use lacr::floorplan::anneal::FloorplanConfig;
use lacr::netlist::bench89;

fn quick_config() -> PlannerConfig {
    PlannerConfig {
        floorplan: FloorplanConfig {
            moves: 1_000,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn pipeline_invariants_hold_on_several_circuits() {
    let cfg = quick_config();
    for name in ["s344", "s382", "s641"] {
        let circuit = bench89::generate(name).expect("known circuit");
        let plan = try_build_physical_plan(&circuit, &cfg, &[]).unwrap();

        // Physical consistency.
        assert!(
            plan.floorplan.validate(1e-6).is_empty(),
            "{name}: bad floorplan"
        );
        assert_eq!(plan.routing.nets.len(), circuit.num_nets(), "{name}");
        for (ni, net) in circuit.nets().iter().enumerate() {
            let routed = &plan.routing.nets[ni];
            assert_eq!(routed.sink_paths.len(), net.sinks.len(), "{name}: net {ni}");
            for (si, s) in net.sinks.iter().enumerate() {
                let path = &routed.sink_paths[si];
                assert_eq!(path[0], plan.unit_cell[net.driver.index()]);
                assert_eq!(*path.last().unwrap(), plan.unit_cell[s.unit.index()]);
            }
        }

        // Timing ordering and flop conservation through expansion.
        assert!(
            plan.t_min <= plan.t_clk && plan.t_clk <= plan.t_init,
            "{name}"
        );
        assert_eq!(
            plan.expanded.graph.total_flops() as u64,
            circuit.num_flops(),
            "{name}: expansion changed the flip-flop count"
        );

        // Retiming correctness.
        let report = try_plan_retimings(&plan, &cfg).expect("t_clk is feasible");
        for run in [&report.min_area, &report.lac] {
            let out = &run.result.outcome;
            assert!(plan.expanded.graph.weights_legal(&out.weights), "{name}");
            assert!(out.period <= plan.t_clk, "{name}: period violated");
            // Retimed weights must match the retiming vector.
            let expect = plan.expanded.graph.retimed_weights(&out.retiming);
            assert_eq!(expect, out.weights, "{name}");
        }
        // LAC never does worse than the baseline on violations.
        assert!(
            report.lac.result.n_foa <= report.min_area.result.n_foa,
            "{name}: LAC {} > baseline {}",
            report.lac.result.n_foa,
            report.min_area.result.n_foa
        );
    }
}

#[test]
fn occupancy_accounts_every_placed_flop() {
    let cfg = quick_config();
    let circuit = bench89::generate("s526").expect("known circuit");
    let plan = try_build_physical_plan(&circuit, &cfg, &[]).unwrap();
    let report = try_plan_retimings(&plan, &cfg).expect("feasible");
    let res = &report.lac.result;
    // Flops charged to tiles + flops on untiled (host) tails == N_F.
    let tiled: i64 = res.occupancy.counts.iter().sum();
    let untiled: i64 = plan
        .expanded
        .graph
        .edges()
        .iter()
        .zip(&res.outcome.weights)
        .filter(|(e, _)| plan.expanded.graph.tile(e.from).is_none())
        .map(|(_, &w)| w)
        .sum();
    assert_eq!(tiled + untiled, res.n_f);
}

#[test]
fn iterated_planning_reduces_or_resolves_violations() {
    let cfg = quick_config();
    let circuit = bench89::generate("s713").expect("known circuit");
    let iterated = try_plan_with_iterations(&circuit, &cfg).expect("plans");
    let first = iterated.first.1.lac.result.n_foa;
    match iterated.second_n_foa {
        None => assert_eq!(first, 0, "no second iteration only when clean"),
        Some(Ok(second)) => {
            assert!(first > 0);
            assert!(
                second <= first,
                "expansion made things worse: {first} -> {second}"
            );
        }
        Some(Err(_)) => {
            // The paper's s1269 case: frozen T_clk infeasible after the
            // floorplan changed drastically. Legal, just rare.
            assert!(first > 0);
        }
    }
}

#[test]
fn planning_is_deterministic_end_to_end() {
    let cfg = quick_config();
    let circuit = bench89::generate("s382").expect("known circuit");
    let a =
        try_plan_retimings(&try_build_physical_plan(&circuit, &cfg, &[]).unwrap(), &cfg).unwrap();
    let b =
        try_plan_retimings(&try_build_physical_plan(&circuit, &cfg, &[]).unwrap(), &cfg).unwrap();
    assert_eq!(a.lac.result.n_foa, b.lac.result.n_foa);
    assert_eq!(a.lac.result.n_f, b.lac.result.n_f);
    assert_eq!(a.lac.result.outcome.weights, b.lac.result.outcome.weights);
    assert_eq!(
        a.min_area.result.outcome.weights,
        b.min_area.result.outcome.weights
    );
}

#[test]
fn growth_only_enlarges_blocks() {
    let cfg = quick_config();
    let circuit = bench89::generate("s641").expect("known circuit");
    let plan1 = try_build_physical_plan(&circuit, &cfg, &[]).unwrap();
    let growth = vec![5e5; plan1.partitioning.blocks.len()];
    let plan2 = try_build_physical_plan(&circuit, &cfg, &growth).unwrap();
    let a1: f64 = plan1.floorplan.blocks.iter().map(|b| b.w * b.h).sum();
    let a2: f64 = plan2.floorplan.blocks.iter().map(|b| b.w * b.h).sum();
    assert!(a2 > a1, "grown plan should have larger total block area");
}
