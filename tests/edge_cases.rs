//! Edge-case and failure-injection tests across the pipeline: degenerate
//! circuits, extreme configurations, and hostile-but-legal inputs.

use lacr::core::planner::{try_build_physical_plan, try_plan_retimings, PlannerConfig};
use lacr::floorplan::anneal::FloorplanConfig;
use lacr::netlist::{bench89::GenSpec, Circuit, Sink, Unit};
use lacr::retime::{min_area_retiming, try_min_period_retiming, RetimeGraph, VertexKind};
use lacr::route::{try_route, NetPins, RouteConfig};

fn quick() -> PlannerConfig {
    PlannerConfig {
        floorplan: FloorplanConfig {
            moves: 400,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The smallest plannable circuit: one unit, one input, one output, one
/// registered loop.
#[test]
fn single_unit_circuit_plans() {
    let mut c = Circuit::new("unit1");
    let a = c.add_unit(Unit::input("a"));
    let g = c.add_unit(Unit::logic("g", 1.0, 1.0));
    let z = c.add_unit(Unit::output("z"));
    c.add_net(a, vec![Sink::new(g, 0)]);
    c.add_net(g, vec![Sink::new(z, 1), Sink::new(g, 1)]);
    assert!(c.validate().is_empty());
    let cfg = PlannerConfig {
        num_blocks: Some(1),
        ..quick()
    };
    let plan = try_build_physical_plan(&c, &cfg, &[]).unwrap();
    let report = try_plan_retimings(&plan, &cfg).expect("feasible");
    assert_eq!(report.lac.result.n_f as u64, c.num_flops());
}

/// A circuit that is one giant combinational ladder with the minimum
/// number of registers: stresses the constraint generator's path DP.
#[test]
fn deep_combinational_ladder() {
    let mut c = Circuit::new("ladder");
    let a = c.add_unit(Unit::input("a"));
    let z = c.add_unit(Unit::output("z"));
    let mut prev = a;
    let n = 60;
    for i in 0..n {
        let g = c.add_unit(Unit::logic(format!("g{i}"), 1.0, 1.0));
        c.add_net(prev, vec![Sink::new(g, 0)]);
        prev = g;
    }
    c.add_net(prev, vec![Sink::new(z, 1)]);
    assert!(c.validate().is_empty());
    let cfg = PlannerConfig {
        num_blocks: Some(4),
        ..quick()
    };
    let plan = try_build_physical_plan(&c, &cfg, &[]).unwrap();
    // One register, a 60-deep path: T_min ≈ half the path after moving it
    // to the middle.
    assert!(plan.t_min < plan.t_init);
    let report = try_plan_retimings(&plan, &cfg).expect("feasible");
    assert!(report.lac.result.outcome.period <= plan.t_clk);
}

/// Wide fanout: one unit driving 64 sinks.
#[test]
fn wide_fanout_net() {
    let mut c = Circuit::new("fanout");
    let a = c.add_unit(Unit::input("a"));
    let hub = c.add_unit(Unit::logic("hub", 1.0, 1.0));
    c.add_net(a, vec![Sink::new(hub, 0)]);
    let mut sinks = Vec::new();
    let mut leaf_ids = Vec::new();
    for i in 0..64 {
        let leaf = c.add_unit(Unit::logic(format!("leaf{i}"), 1.0, 1.0));
        leaf_ids.push(leaf);
        sinks.push(Sink::new(leaf, 1));
    }
    c.add_net(hub, sinks);
    let z = c.add_unit(Unit::output("z"));
    c.add_net(leaf_ids[0], vec![Sink::new(z, 1)]);
    assert!(c.validate().is_empty(), "{:?}", c.validate());
    let cfg = quick();
    let plan = try_build_physical_plan(&c, &cfg, &[]).unwrap();
    let report = try_plan_retimings(&plan, &cfg).expect("feasible");
    // Retiming may change the total count (fanout duplication), but the
    // result must be legal and meet the period.
    assert!(report.lac.result.n_f > 0);
    assert!(report.lac.result.outcome.period <= plan.t_clk);
}

/// Zero routing passes must still produce legal (if congested) routes.
#[test]
fn routing_with_zero_ripup_passes() {
    let nets: Vec<NetPins> = (0..30)
        .map(|i| NetPins {
            driver: i % 16,
            sinks: vec![15 - (i % 16)],
        })
        .collect();
    let cfg = RouteConfig {
        passes: 0,
        ..Default::default()
    };
    let r = try_route(4, 4, &nets, &cfg).unwrap();
    assert_eq!(r.nets.len(), 30);
    for (ni, net) in nets.iter().enumerate() {
        assert_eq!(r.nets[ni].sink_paths[0].first(), Some(&net.driver));
    }
}

/// Very tight LAC budget: max_rounds = 1 must still return the min-area
/// solution scored against capacities.
#[test]
fn lac_single_round_equals_weighted_baseline() {
    use lacr::core::lac::{lac_retiming, LacConfig};
    use lacr::retime::generate_period_constraints;
    let mut g = RetimeGraph::new();
    let a = g.add_vertex(VertexKind::Functional, 1, 1.0, Some(0));
    let b = g.add_vertex(VertexKind::Functional, 1, 1.0, Some(1));
    g.add_edge(a, b, 1);
    g.add_edge(b, a, 1);
    let pc = generate_period_constraints(&g, 10).unwrap();
    let caps = vec![0.0, 0.0];
    let res = lac_retiming(
        &g,
        &pc,
        &caps,
        &LacConfig {
            max_rounds: 1,
            ..Default::default()
        },
    )
    .expect("feasible");
    assert_eq!(res.n_wr, 1);
    assert_eq!(res.n_foa, 2); // both registers violate, nothing to be done
}

/// Self-loop-only unit (an oscillator-like structure) retimes trivially.
#[test]
fn self_loop_retiming() {
    let mut g = RetimeGraph::new();
    let v = g.add_vertex(VertexKind::Functional, 3, 1.0, None);
    g.add_edge(v, v, 2);
    let mp = try_min_period_retiming(&g, 0).unwrap().result;
    assert_eq!(mp.period, 3);
    let out = min_area_retiming(&g, 3).expect("feasible");
    assert_eq!(out.total_flops, 2, "self-loop weight is invariant");
}

/// Generated circuits at the extremes of the spec space stay valid and
/// plannable.
#[test]
fn extreme_generator_specs_plan() {
    for (units, flops, pi, po) in [
        (1usize, 1usize, 1usize, 1usize),
        (5, 20, 1, 1),
        (40, 1, 12, 12),
    ] {
        let spec = GenSpec::new(format!("x{units}_{flops}"), units, flops, pi, po, 99);
        let c = lacr::netlist::bench89::generate_spec(&spec);
        assert!(c.validate().is_empty(), "{:?}", c.validate());
        let cfg = PlannerConfig {
            num_blocks: Some(2.min(units)),
            ..quick()
        };
        let plan = try_build_physical_plan(&c, &cfg, &[]).unwrap();
        let report = try_plan_retimings(&plan, &cfg).expect("feasible");
        assert!(report.lac.result.outcome.period <= plan.t_clk);
    }
}

/// The planner accepts a pre-retimed circuit (T_init == T_min) without
/// degenerating.
#[test]
fn already_optimal_circuit() {
    let mut c = Circuit::new("balanced");
    let a = c.add_unit(Unit::input("a"));
    let g1 = c.add_unit(Unit::logic("g1", 1.0, 1.0));
    let g2 = c.add_unit(Unit::logic("g2", 1.0, 1.0));
    let z = c.add_unit(Unit::output("z"));
    c.add_net(a, vec![Sink::new(g1, 1)]);
    c.add_net(g1, vec![Sink::new(g2, 1)]);
    c.add_net(g2, vec![Sink::new(z, 1)]);
    let cfg = PlannerConfig {
        num_blocks: Some(1),
        ..quick()
    };
    let plan = try_build_physical_plan(&c, &cfg, &[]).unwrap();
    assert!(plan.t_clk >= plan.t_min);
    let report = try_plan_retimings(&plan, &cfg).expect("feasible");
    assert_eq!(report.lac.result.n_foa, 0);
}
