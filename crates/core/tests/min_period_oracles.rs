//! On the physical plan of every Table-1 circuit, FEAS finds `T_min`
//! feasible and `T_min − 1` infeasible, and the W/D oracle — the period
//! constraints at the target plus the edge constraints, solved by
//! Bellman–Ford — gives the same verdict at both. It plans all ten
//! circuits, so it runs in release builds only.

use lacr_core::planner::{try_build_physical_plan, PlannerConfig};
use lacr_mcmf::DifferenceConstraints;
use lacr_netlist::bench89;
use lacr_retime::{
    edge_constraints, generate_period_constraints, try_feasible_retiming, RetimeGraph,
};

/// The W/D oracle: no vertex slower than `t`, and a feasible system.
fn wd_feasible(g: &RetimeGraph, t: u64) -> bool {
    if g.vertex_ids().any(|v| g.delay(v) > t) {
        return false;
    }
    let mut cons = edge_constraints(g);
    cons.extend(generate_period_constraints(g, t).unwrap().constraints);
    DifferenceConstraints::new(g.num_vertices(), cons).is_feasible()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "plans all ten Table-1 circuits; run with --release"
)]
fn feas_and_the_wd_oracle_agree_at_t_min_on_table1() {
    let config = PlannerConfig::default();
    for name in bench89::table1_circuits() {
        let circuit = bench89::generate(name).expect("a Table-1 circuit");
        let plan = try_build_physical_plan(&circuit, &config, &[]).expect("plan builds");
        let (g, t_min) = (&plan.expanded.graph, plan.t_min);
        let r = try_feasible_retiming(g, t_min)
            .unwrap()
            .unwrap_or_else(|| panic!("{name}: FEAS rejects T_min {t_min}"));
        let w = g.retimed_weights(&r);
        assert!(g.weights_legal(&w), "{name}: illegal retiming at T_min");
        assert!(g.try_clock_period(&w).unwrap() <= t_min, "{name}");
        assert!(wd_feasible(g, t_min), "{name}: W/D rejects T_min {t_min}");
        assert_eq!(
            try_feasible_retiming(g, t_min - 1).unwrap(),
            None,
            "{name}: FEAS accepts T_min − 1"
        );
        assert!(!wd_feasible(g, t_min - 1), "{name}: W/D accepts T_min − 1");
    }
}
